"""Free summands by the norm test, and the stable comparison at the stripped size.

oracle.krull_schmidt_note finds each free summand from one row of the
norm's matrix, and oracle.stably_isomorphic strips both sides and
searches once.  tests/_oracles keeps the code they replaced: the scan
of a spanning set of Hom(M, Lambda) and the search over padded
modules.  On seeded modules of five groups the free ranks, the verdict
types and the pads must agree.
"""

import pytest

from cyclomod import linalg, oracle
from cyclomod.config import GroupConfig, IsoSearchConfig
from cyclomod.constructions import j_module, lemma2_pipeline, theorem1_verify
from cyclomod.modules import augmentation_ideal, direct_sum, free_module, zp_trivial
from cyclomod.oracle import StableIso, krull_schmidt_note, stably_isomorphic
from cyclomod.suites import _pipeline_input

from _oracles import free_summands_by_hom_scan, stably_isomorphic_by_padding
from _seeded_lattices import SEEDS, lattices, plus_free, seeded

CONFIGS = [(3, 1, 11), (3, 2, 12), (2, 2, 12), (2, 3, 12), (5, 1, 10)]


def _with_torsion(cfg):
    """The pipeline's B, and seeded random modules plus Z/p^e."""
    for shape in ("ideal", "ideal+free", "J1+ideal"):
        yield lemma2_pipeline(_pipeline_input(shape, cfg)).b
    for seed in SEEDS:
        yield seeded(cfg, 100 + seed)[0]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "p%dn%d" % c[:2])
def test_norm_test_matches_the_hom_space_scan(config):
    cfg = GroupConfig(*config)
    ranks = []
    modules = [*lattices(cfg), *_with_torsion(cfg)]
    assert len(modules) >= 15
    for module in modules:
        got, want = krull_schmidt_note(module), free_summands_by_hom_scan(module)
        assert got.free_rank == want.free_rank
        assert got.complement.zp_rank() == want.complement.zp_rank()
        assert got.complement.torsion_invariants() == want.complement.torsion_invariants()
        ranks.append(got.free_rank)
    assert {0, 1, 2} <= set(ranks)


def _pool(cfg):
    """The yakovlev battery's pool, at any group."""
    ideal = augmentation_ideal(cfg)
    pool = [ideal, free_module(cfg, 1), zp_trivial(cfg), direct_sum(zp_trivial(cfg), ideal).module]
    return pool + [j_module(cfg, e) for e in range(1, cfg.n + 2)]


def _pairs(cfg):
    for omega in lattices(cfg):
        yield plus_free(omega, 1 + omega.model_dim % 2), omega
    j1 = j_module(cfg, 1)
    yield plus_free(j1, 1), j1
    yield augmentation_ideal(cfg), zp_trivial(cfg)
    pool = _pool(cfg)
    for i, m1 in enumerate(pool):
        for m2 in pool[i + 1 :]:
            yield m1, m2


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "p%dn%d" % c[:2])
def test_stable_comparison_matches_the_padding_search(config):
    cfg = GroupConfig(*config)
    search = IsoSearchConfig()
    kinds = set()
    for m1, m2 in _pairs(cfg):
        got, want = stably_isomorphic(m1, m2, search), stably_isomorphic_by_padding(m1, m2, search)
        assert type(got) is type(want)
        if isinstance(got, StableIso):
            assert (got.pad_first, got.pad_second) == (want.pad_first, want.pad_second)
        kinds.add(type(got).__name__)
    assert {"StableIso", "NotStablyIsomorphic"} <= kinds


@pytest.mark.parametrize("config", [(3, 1, 11), (3, 2, 12)], ids=["p3n1", "p3n2"])
def test_a_rank_gap_of_four_free_summands_is_decided(config):
    # No padding budget: the four copies of Lambda are cancelled, however
    # many there are, and the complements are the ideal itself.
    cfg = GroupConfig(*config)
    ideal = augmentation_ideal(cfg)
    got = stably_isomorphic(plus_free(ideal, 4), ideal)
    assert isinstance(got, StableIso) and (got.pad_first, got.pad_second) == (0, 4)


def test_theorem1_compares_once_at_the_stripped_size(monkeypatch):
    # The chain's one hom space is the 17 -> 17 stable search; the input's
    # free summand is found by the norm test.  Both smith paths run.
    cfg = GroupConfig(3, 2, 12)
    data = _pipeline_input("J1+ideal+free", cfg)
    homs, paths = [], set()
    real_hom = oracle.hom_space_basis

    def hom_space_basis(source, target):
        homs.append((source.model_dim, target.model_dim))
        return real_hom(source, target)

    monkeypatch.setattr(oracle, "hom_space_basis", hom_space_basis)

    def recording(name):
        real = getattr(linalg, name)

        def path(*args):
            paths.add(name)
            return real(*args)

        return path

    for name in ("_smith_lists", "_smith_numpy"):
        monkeypatch.setattr(linalg, name, recording(name))
    report = theorem1_verify(data, IsoSearchConfig(seed=0))
    assert report.passed and report.stripped_free_rank == 0
    assert (report.stable_verdict.pad_first, report.stable_verdict.pad_second) == (1, 0)
    assert homs == [(17, 17)]
    assert paths == {"_smith_lists", "_smith_numpy"}
