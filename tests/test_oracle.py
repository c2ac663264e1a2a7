"""Hom spaces from generator images against the entry-wise system.

oracle.hom_space_basis solves for the images of the source's minimal
generators (g m2 unknowns); tests/_oracles.hom_space_entrywise solves
for every entry of the m2 x m1 matrix (m1 m2 unknowns).  On seeded
random pairs both must span the same submodule of the matrices with
row r read mod the target modulus q_r.  Raw residues mod p^N are not
compared: the entry-wise basis has members that are the zero hom once
their rows are reduced.

25 seeds per group, five pairs per seed: 750 pairs over six groups, of
which the 724 with at most MAX_ENTRYWISE_UNKNOWNS entries are compared.
"""

import random

import numpy as np
import pytest

from cyclomod import linalg
from cyclomod.config import GroupConfig
from cyclomod.modules import ModuleHom, trivial_module
from cyclomod.oracle import hom_space_basis
from cyclomod.suites import random_presented_module

from _oracles import hom_space_entrywise

# (7, 1, 11) has p^N just below 2^31, so it runs the limb-split int64 products.
CONFIGS = [(3, 1, 11), (3, 2, 12), (5, 1, 10), (2, 2, 12), (2, 3, 12), (7, 1, 11)]
SEEDS = range(25)
# The entry-wise oracle eliminates an (m1 m2)-square system, so pairs
# past this many unknowns are left out to keep the file fast.
MAX_ENTRYWISE_UNKNOWNS = 200


def _entrywise(source, target):
    ctx = linalg.Context(source.cfg.p, source.cfg.precision, 0)

    def kernel(rows):
        ker = linalg.kernel_cols(ctx, linalg.mat(ctx, rows))
        return [[int(v) for v in ker[:, j]] for j in range(ker.shape[1])]

    def ints(a):
        return [[int(v) for v in row] for row in a]

    return hom_space_entrywise(
        source.cfg.p,
        source.cfg.precision,
        ints(source.sigma_matrix),
        source.moduli,
        ints(target.sigma_matrix),
        target.moduli,
        kernel,
    )


def _span_dvals(ctx, target, m1, *members):
    """Smith valuations of the members' span inside the sum of Z/q_r."""
    m2 = target.model_dim
    cols = [np.ravel(np.array(x, dtype=object)) for x in members]
    for r, q in enumerate(target.moduli):
        if q is not None:
            for c in range(m1):
                col = [0] * (m2 * m1)
                col[r * m1 + c] = q
                cols.append(col)
    if not cols:
        return []
    a = linalg.mat(ctx, np.stack([np.array(c, dtype=object) for c in cols], axis=1))
    return linalg.smith(ctx, a, rows=False, cols=False).dvals


def _pairs(cfg, seed):
    rng = random.Random(seed)
    a = random_presented_module(cfg, rng)
    b = random_presented_module(cfg, rng)
    # Z/p^2 with trivial action (Z/9 at p = 3).
    z = trivial_module(cfg, 2)
    return [(a, b), (b, a), (a, a), (a, z), (z, b)]


@pytest.mark.filterwarnings("ignore:p = 2")
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "p%dn%dN%d" % c)
def test_generator_images_span_the_entrywise_hom_space(config):
    cfg = GroupConfig(*config)
    ctx = linalg.Context(cfg.p, cfg.precision, 0)
    for seed in SEEDS:
        for source, target in _pairs(cfg, seed):
            if source.model_dim * target.model_dim > MAX_ENTRYWISE_UNKNOWNS:
                continue
            fast = hom_space_basis(source, target)
            slow = _entrywise(source, target)
            for x in fast:
                ModuleHom(source, target, x)
            m1 = source.model_dim
            d_fast = _span_dvals(ctx, target, m1, *fast)
            d_slow = _span_dvals(ctx, target, m1, *slow)
            d_both = _span_dvals(ctx, target, m1, *fast, *slow)
            assert d_fast == d_both == d_slow, (config, seed)
