"""Elimination engine: smith form, solving, and the two kernel notions."""

import ast
import random
import weakref
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomod import cli, cohomology, linalg
from cyclomod.arith import norm_element, sigma_power
from cyclomod.config import GroupConfig, IsoSearchConfig
from cyclomod.constructions import j_module, lemma3_resolution, theorem1_verify
from cyclomod.errors import NotAUnit, PrecisionExhausted
from cyclomod.fileio import save_file
from cyclomod.modules import augmentation_ideal, direct_sum, trivial_module
from cyclomod.suites import _pipeline_input, random_presented_module

from _oracles import (
    GuardBand,
    cokernel_valuations_mod_pN,
    diagonal_matrix,
    kernel_cols_by_column,
    pivot_cols_by_column,
    search_invertible_in_full,
    smith_full_width,
    solve_by_entry,
    submodule_by_probe,
)


def ctx(p=3, precision=8, guard=2):
    return linalg.Context(p, precision, guard)


def random_matrix(ctx_, rng, rows, cols, skew=3):
    data = [
        [rng.randrange(ctx_.modulus) * ctx_.p ** rng.randrange(skew) for _ in range(cols)]
        for _ in range(rows)
    ]
    return linalg.mat(ctx_, data)


def test_smith_reconstructs_diagonal():
    c = ctx()
    rng = random.Random(11)
    for _ in range(25):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        a = random_matrix(c, rng, m, n)
        sm = linalg.smith(c, a)
        left_a_right = linalg.matmul(c, linalg.matmul(c, sm.left, a), sm.right)
        assert np.array_equal(left_a_right, diagonal_matrix(c, sm))
        assert sm.dvals == sorted(sm.dvals)
        assert all(v < c.guard_floor for v in sm.dvals)


def test_smith_transforms_are_inverse_pairs():
    c = ctx()
    rng = random.Random(7)
    for _ in range(15):
        a = random_matrix(c, rng, 4, 3)
        sm = linalg.smith(c, a)
        assert np.array_equal(linalg.matmul(c, sm.left, sm.left_inv), linalg.eye(c, 4))
        assert linalg.rank_mod_p(c.p, sm.right) == 3


def test_smith_matches_minor_gcd_oracle():
    c = ctx(p=3, precision=6, guard=1)
    rng = random.Random(23)
    for _ in range(20):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(-40, 41) for _ in range(n)] for _ in range(m)]
        try:
            sm = linalg.smith(c, rows)
        except PrecisionExhausted:
            continue
        got = sorted(v for v in sm.dvals if v > 0)
        got += [c.precision] * (m - len(sm.dvals))
        assert sorted(got) == cokernel_valuations_mod_pN(c.p, c.precision, rows)


def test_smith_object_dtype_path():
    c = ctx(p=5, precision=14, guard=2)
    assert c.dtype is object
    rng = random.Random(3)
    a = random_matrix(c, rng, 3, 4)
    sm = linalg.smith(c, a)
    left_a_right = linalg.matmul(c, linalg.matmul(c, sm.left, a), sm.right)
    assert np.array_equal(left_a_right, diagonal_matrix(c, sm))


def test_smith_guard_band_raises():
    c = ctx(p=3, precision=4, guard=2)
    with pytest.raises(PrecisionExhausted):
        linalg.smith(c, [[27]])


def test_smith_skipped_transforms_keep_the_pivots():
    c = ctx()
    rng = random.Random(13)
    for _ in range(10):
        a = random_matrix(c, rng, 4, 5)
        full = linalg.smith(c, a)
        rows_only = linalg.smith(c, a, cols=False)
        bare = linalg.smith(c, a, rows=False, cols=False)
        assert rows_only.dvals == bare.dvals == full.dvals
        assert np.array_equal(rows_only.left, full.left)
        assert np.array_equal(rows_only.left_inv, full.left_inv)
        assert rows_only.right is None
        assert bare.left is None and bare.left_inv is None


def test_smith_ceiling_at_raised_precision():
    # 3^5 is zero at N = 5; at N = 9 it is a pivot unless the ceiling
    # says otherwise, and the guard band stays [N0 - guard, N0).
    raised = linalg.Context(3, 9, 9 - 5 + 2)
    a = [[1, 0], [0, 3**5]]
    assert linalg.smith(raised, a, ceiling=5).dvals == [0]
    assert linalg.smith(linalg.Context(3, 9, 2), a).dvals == [0, 5]
    with pytest.raises(PrecisionExhausted):
        linalg.smith(raised, [[1, 0], [0, 3**4]], ceiling=5)


def test_context_cached_values_leave_equality_and_hash_alone():
    a, b = linalg.Context(7, 12, 2), linalg.Context(7, 12, 2)
    assert (a.modulus, a.dtype) == (7**12, object)
    assert a == b and hash(a) == hash(b)
    assert a != linalg.Context(7, 12, 3)


# (p, N): three int64 contexts, 5^13, whose products are cut into limbs,
# 7^12, which takes the object path, and 2^31 and 3^19, whose live
# blocks may take only 1 and 3 updates between reductions.
SMITH_CONTEXTS = [(3, 8), (2, 12), (5, 6), (5, 13), (7, 12), (2, 31), (3, 19)]


@st.composite
def smith_cases(draw):
    p, precision = draw(st.sampled_from(SMITH_CONTEXTS))
    c = linalg.Context(p, precision, draw(st.integers(0, 4)))
    # Small shapes, and wide ones like the Tate coordinate relations.
    m, n = draw(
        st.one_of(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            st.tuples(st.integers(0, 8), st.integers(0, 48)),
        )
    )
    # Entries u * p^k: many share a valuation, and k = N gives zeros.
    # They come from one drawn seed, not two draws per entry, which kept
    # hypothesis busier than the eliminations it feeds.
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))
    flat = [rng.randrange(c.modulus) * p ** rng.randrange(precision + 1) for _ in range(m * n)]
    a = linalg.mat(c, np.array(flat, dtype=object).reshape(m, n))
    ceiling = draw(st.one_of(st.none(), st.integers(1, precision)))
    return c, a, draw(st.booleans()), draw(st.booleans()), ceiling


# The largest N with p^N <= 2^31: the int64 moduli smith meets.
INT64_PRECISIONS = {2: 31, 3: 19, 5: 13, 7: 11}


@settings(max_examples=50, derandomize=True)
@given(st.sampled_from(sorted(INT64_PRECISIONS)), st.data())
def test_indivisible_matches_the_remainder(p, data):
    # Lazily reduced int64 entries, anywhere in [-2^62, 2^62]: 0, the
    # ends, multiples of p^e and their neighbours, for every e <= N, on
    # a strided view as smith scans one.
    bound = linalg._LAZY_BOUND
    d = p ** data.draw(st.integers(0, INT64_PRECISIONS[p]))
    multiple = st.integers(-(bound // d), bound // d).map(lambda k: k * d)
    near = st.tuples(multiple, st.integers(-2, 2)).map(lambda t: max(-bound, min(bound, sum(t))))
    edge = st.sampled_from([0, 1, -1, bound, -bound, bound - 1, 1 - bound])
    entry = st.one_of(edge, multiple, near, st.integers(-bound, bound))
    flat = data.draw(st.lists(entry, min_size=2, max_size=64))
    x = np.array(flat + flat, dtype=np.int64).reshape(2, -1)[:, ::2]
    for e in range(INT64_PRECISIONS[p] + 1):
        got = linalg._indivisible(p, e, np.int64)(x)
        assert got.dtype == bool and np.array_equal(got, x % p**e != 0)


@pytest.mark.parametrize("p, precision", sorted(INT64_PRECISIONS.items()))
def test_lazy_entries_stay_within_the_bound(monkeypatch, p, precision):
    # A = L U with every multiplier of L and U equal to -1, so each update
    # subtracts (p^N - 1)^2 from every live entry, the most it can: the
    # scans see the lowest values the reduction interval lets through.
    c = linalg.Context(p, precision, 2)
    real = linalg._indivisible

    def bounded(p_, e, dtype):
        test = real(p_, e, dtype)

        def checked(x):
            assert x.min() >= -linalg._LAZY_BOUND and x.max() <= linalg._LAZY_BOUND
            return test(x)

        return checked

    monkeypatch.setattr(linalg, "_indivisible", bounded)
    a = linalg.mat(c, [[min(i, j) + (1 if i == j else -1) for j in range(8)] for i in range(8)])
    sm = _smith_against_full_width(c, a, True, True, None, smith=_numpy_path)
    assert sm.dvals == [0] * 8


def _numpy_path(c, a, rows=True, cols=True, ceiling=None):
    """smith's numpy path, whatever the input's size (only it reduces lazily)."""
    top = c.precision if ceiling is None else ceiling
    return linalg._smith_numpy(c, linalg.mat(c, a), rows, cols, top)


def _smith_against_full_width(c, a, rows, cols, ceiling, smith=linalg.smith):
    """smith's result, asserted bit for bit equal to the full-width
    kernel's; a guard-band raise must come from both or neither."""
    try:
        want = smith_full_width(c.p, c.precision, c.guard, a.copy(), rows, cols, ceiling)
    except GuardBand:
        want = None
    try:
        sm = smith(c, a.copy(), rows=rows, cols=cols, ceiling=ceiling)
    except PrecisionExhausted:
        assert want is None
        raise
    assert want is not None
    assert sm.shape == a.shape
    assert sm.dvals == want[3]
    for got, ref in zip((sm.left, sm.left_inv, sm.right), want[:3]):
        if ref is None:
            assert got is None
        else:
            assert got.dtype == ref.dtype == c.dtype
            assert np.array_equal(got, ref)
    return sm


@settings(max_examples=400)
@given(smith_cases())
def test_smith_matches_the_full_width_kernel(case):
    # The in-place elimination must leave every output bit for bit as the
    # elimination that updates whole rows and columns produced it.
    try:
        _smith_against_full_width(*case)
    except PrecisionExhausted:
        pass


@settings(max_examples=150)
@given(smith_cases())
def test_kernel_cols_matches_the_column_loop(case):
    c, a, _, _, _ = case
    try:
        want = kernel_cols_by_column(c, a)
    except PrecisionExhausted:
        return
    got = linalg.kernel_cols(c, a)
    assert got.dtype == want.dtype == c.dtype
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("p, precision", SMITH_CONTEXTS)
def test_kernel_cols_on_each_kind_of_slot(p, precision):
    # Slots with dval 0 (dropped), 0 < dval < N (scaled) and N (kept
    # whole, also past min(m, n)), in several column orders, and the
    # empty shapes; with and without a precomputed Smith form.
    c = linalg.Context(p, precision, 2)
    a = linalg.mat(c, [[1, 0, 0, 0], [0, p**2, 0, 0], [0, 0, 0, 0]])
    empty = [linalg.zeros(c, *shape) for shape in ((0, 0), (0, 3), (3, 0))]
    for b in (a, a[:, [3, 1, 0, 2]], a.T, *empty):
        sm = linalg.smith(c, b, rows=False)
        for got, want in (
            (linalg.kernel_cols(c, b), kernel_cols_by_column(c, b)),
            (linalg.kernel_cols(c, b, sm), kernel_cols_by_column(c, b, sm)),
        ):
            assert got.dtype == want.dtype == c.dtype
            assert got.shape == want.shape and np.array_equal(got, want)


def _cohomology_maps(tmp_path):
    """`cohomology --maps` of J1 at C11, whose modulus 11^11 takes the object path."""
    path = str(tmp_path / "j1.json")
    save_file(path, j_module(GroupConfig(11, 1, 11), 1))
    assert cli.main(["--format", "machine", "cohomology", "--maps", path]) == 0


def test_workload_smith_calls_match_the_full_width_kernel(monkeypatch, tmp_path):
    # Every elimination of three workload-shaped runs, including the wide
    # Tate coordinate relations (r x (m + t + r), r <= m) that the cases
    # above never reach, must equal the full-width kernel bit for bit.  A fresh core
    # table and empty module caches make the Tate eliminations and the J1
    # and ideal constructions run here, whatever ran before in the session.
    monkeypatch.setattr(cohomology, "_cores", weakref.WeakValueDictionary())
    j_module.cache_clear()
    augmentation_ideal.cache_clear()
    real = linalg.smith
    shapes = []

    def checked(c, a, rows=True, cols=True, ceiling=None):
        a = linalg.mat(c, a)
        shapes.append((c.dtype, a.shape, ceiling))
        return _smith_against_full_width(c, a, rows, cols, ceiling, smith=real)

    monkeypatch.setattr(linalg, "smith", checked)
    for group in ((3, 2, 12), (2, 3, 12)):
        data = _pipeline_input("J1+ideal+free", GroupConfig(*group))
        assert theorem1_verify(data, IsoSearchConfig(seed=1)).passed
    _cohomology_maps(tmp_path)
    # The lemma-3 resolution at C25, and the wide numpy-path lattices its
    # element sets no longer build, since they take their own lattice:
    # the 25 x 650 orbits of J_1's 26 elements of Lambda and the 50 x 625
    # orbits of the 25 kernel vectors of the middle map, eliminated as the
    # orbit route eliminates them (a probe, then the lattice at a raised
    # precision with a ceiling).
    c25 = GroupConfig(5, 2, 10)
    res = lemma3_resolution(c25, 1)
    lam, lam2 = res.free_line, res.free_pair
    j1 = [lam.element([sigma_power(c25, t) * c25.p]) for t in range(c25.order)]
    submodule_by_probe(lam, j1 + [lam.element([norm_element(c25)])])
    kernel = linalg.saturated_kernel_cols(lam2.ctx, res.middle.matrix)
    submodule_by_probe(lam2, [lam2.element_from_model_coords(x) for x in kernel.T])
    assert len(shapes) > 300
    assert any(dtype is object for dtype, _, _ in shapes)
    assert any(n >= 5 * m > 0 for _, (m, n), _ in shapes)
    assert {(25, 650), (50, 625)} <= {shape for _, shape, _ in shapes}
    assert any(ceiling is not None for _, _, ceiling in shapes)


# (p, N): four int64 contexts and 11^11, which takes the object path.
PATH_CONTEXTS = [(3, 12), (2, 12), (5, 10), (7, 11), (11, 11)]
# Shapes on both sides of the bound: (45, 45) and (64, 32) hold 2,025 and
# 2,048 cells, (41, 50) and (9, 228) 2,050 and 2,052.
PATH_SHAPES = [
    (0, 3), (1, 1), (5, 9), (8, 8), (17, 9), (3, 40), (45, 45), (64, 32), (41, 50), (9, 228)
]


def _path_input(c, rng, kind, m, n):
    """An m x n input of one kind: sparse, dense, a rank-deficient product
    whose live block turns zero early, every entry divisible by p^2, or
    valuations around the guard band and the ceiling."""

    def matrix(rows, cols, valuations, density=1.0):
        flat = [
            rng.randrange(1, c.modulus) * c.p ** rng.choice(valuations)
            if rng.random() < density
            else 0
            for _ in range(rows * cols)
        ]
        return linalg.mat(c, np.array(flat, dtype=object).reshape(rows, cols))

    if kind == "low-rank":
        r = rng.randrange(0, min(m, n) // 2 + 1)
        return linalg.matmul(c, matrix(m, r, range(2)), matrix(r, n, range(2)))
    return matrix(m, n, *{
        "sparse": (range(3), 0.15),
        "dense": (range(3),),
        "divisible": (range(2, 5),),
        "guard": (range(c.guard_floor - 2, c.guard_floor + 5), 0.5),
    }[kind])


def _both_paths(c, a, rows, cols, top):
    out = []
    for path in (linalg._smith_lists, linalg._smith_numpy):
        try:
            out.append(path(c, a.copy(), rows, cols, top))
        except PrecisionExhausted as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("p, precision", PATH_CONTEXTS)
@pytest.mark.parametrize("kind", ["sparse", "dense", "low-rank", "divisible", "guard"])
def test_the_two_smith_paths_agree_bit_for_bit(p, precision, kind):
    # The lists path and the numpy path on the same inputs, with every
    # combination of transforms: equal dvals and transforms, values and
    # dtype, or the same guard-band message.  The guard inputs run as
    # _submodule runs them, at a raised precision with ceiling N and a
    # raised guard, so that the band stays [N - 2, N).
    rng = random.Random(f"{p}.{precision}.{kind}")
    c, top = linalg.Context(p, precision, 2), precision
    if kind == "guard":
        c = linalg.Context(p, precision + 3, 5)
    outcomes = set()
    for m, n in PATH_SHAPES:
        a = _path_input(c, rng, kind, m, n)
        for rows, cols in product((True, False), repeat=2):
            got, want = _both_paths(c, a, rows, cols, top)
            if isinstance(want, str):
                assert got == want
                outcomes.add("raised")
                continue
            assert got.dvals == want.dvals and got.shape == want.shape
            for name in ("left", "left_inv", "right"):
                x, y = getattr(got, name), getattr(want, name)
                assert (x is None) == (y is None)
                if x is not None:
                    assert x.dtype == y.dtype == c.dtype and np.array_equal(x, y)
            assert (got.left is None, got.right is None) == (not rows, not cols)
            outcomes.add("stopped" if len(got.dvals) < min(m, n) else "full")
    assert ("raised" in outcomes) == (kind == "guard")
    assert "stopped" in outcomes or kind in ("dense", "divisible")


def test_smith_routes_by_the_cell_bound(monkeypatch):
    # At the bound the lists path runs, one cell past it the numpy path.
    routed = []

    def recording(name):
        real = getattr(linalg, name)

        def path(*args):
            routed.append(name)
            return real(*args)

        return path

    for name in ("_smith_lists", "_smith_numpy"):
        monkeypatch.setattr(linalg, name, recording(name))
    c = ctx()
    for cells in (linalg._SMALL_CELLS, linalg._SMALL_CELLS + 1):
        linalg.smith(c, linalg.mat(c, np.arange(cells).reshape(1, cells)))
    assert routed == ["_smith_lists", "_smith_numpy"]


def test_solve_roundtrip_and_unsolvable():
    c = ctx()
    rng = random.Random(5)
    for _ in range(10):
        a = random_matrix(c, rng, 4, 3)
        x = random_matrix(c, rng, 3, 2, skew=1)
        b = linalg.matmul(c, a, x)
        got = linalg.solve(c, a, b)
        assert got is not None
        assert np.array_equal(linalg.matmul(c, a, got), b)
    assert linalg.solve(c, [[3]], [[1]]) is None


def test_solve_guard_band_raises():
    c = ctx(p=3, precision=4, guard=1)
    with pytest.raises(PrecisionExhausted):
        linalg.solve(c, [[1], [1]], [[0], [27]])


@pytest.mark.parametrize("p, precision", SMITH_CONTEXTS)
def test_solve_matches_the_entry_loop(p, precision):
    # Solvable right-hand sides (A X), unsolvable ones (A X plus a unit
    # in one entry), guard-band ones (plus p^k, k in the band) and both
    # at once, where the first failing entry decides, each against the
    # entry-by-entry test: the same solution, None or raise.
    rng = random.Random(p * precision)
    outcomes = set()
    for trial in range(80):
        c = linalg.Context(p, precision, rng.randrange(1, 4))
        rows = rng.randrange(2, 7)  # more rows than columns: slots past the rank
        a = random_matrix(c, rng, rows, rng.randrange(1, rows), skew=precision // 2)
        b = linalg.matmul(c, a, random_matrix(c, rng, a.shape[1], rng.randrange(1, 4), skew=1))
        band = rng.randrange(c.guard_floor, precision)
        for k in ([], [0], [band], [0, band])[trial % 4]:
            b[rng.randrange(b.shape[0]), rng.randrange(b.shape[1])] += p**k
        b %= c.modulus
        results = []
        for solve in (linalg.solve, solve_by_entry):
            try:
                results.append(solve(c, a, b))
            except PrecisionExhausted:
                results.append(PrecisionExhausted)
        got, want = results
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype == c.dtype and np.array_equal(got, want)
            outcomes.add("solved")
        else:
            assert got is want
            outcomes.add(want)
    assert outcomes == {"solved", None, PrecisionExhausted}


def test_mat_reduces_python_integers_before_the_int64_cast():
    # 10^30 = 2^30 5^30 is 0 mod 5^12 and mod 5^14: on either path the
    # matrix is [[0, 1], [2, 3]], of unit determinant.
    for precision in (12, 14):
        c = linalg.Context(5, precision, 2)
        a = linalg.mat(c, [[10**30, 1], [2, -(10**30) + 3]])
        assert a.dtype == c.dtype and a.tolist() == [[0, 1], [2, 3]]
        assert linalg.smith(c, [[10**30, 1], [2, 3]]).dvals == [0, 0]
    b = np.array([[7, -1]], dtype=np.int64)
    assert linalg.mat(linalg.Context(5, 12, 2), b).tolist() == [[7, 5**12 - 1]]
    # np.asarray reads Python integers in [2^63, 2^64) as float64.
    rows = [[2**63, 1], [2**64 - 1, -1]]
    for precision in (12, 30):
        c = linalg.Context(5, precision, 2)
        a = linalg.mat(c, rows)
        assert a.dtype == c.dtype
        assert a.tolist() == [[x % c.modulus for x in row] for row in rows]


def test_kernel_cols_spans_congruence_kernel():
    c = ctx(p=3, precision=3, guard=1)
    a = linalg.mat(c, [[3, 6], [0, 3]])
    k = linalg.kernel_cols(c, a)
    assert linalg.is_zero(linalg.matmul(c, a, k))
    true_kernel = set()
    for x0 in range(27):
        for x1 in range(27):
            if (3 * x0 + 6 * x1) % 27 == 0 and (3 * x1) % 27 == 0:
                true_kernel.add((x0, x1))
    span = set()
    for c0 in range(27):
        for c1 in range(27):
            v = (c0 * k[:, 0] + c1 * k[:, 1]) % 27
            span.add((int(v[0]), int(v[1])))
    assert span == true_kernel


def test_saturated_kernel_ignores_high_valuation_directions():
    c = ctx(p=3, precision=8, guard=2)
    # Second column is p^2 times the first: one genuine kernel direction.
    a = linalg.mat(c, [[2, 18], [1, 9]])
    sat = linalg.saturated_kernel_cols(c, a)
    assert sat.shape == (2, 1)
    assert linalg.is_zero(linalg.matmul(c, a, sat))
    # Full-rank column set: no saturated kernel, but congruence kernel
    # still picks up the p^(N-d) shadows.
    b = linalg.mat(c, [[9, 0], [0, 1]])
    assert linalg.saturated_kernel_cols(c, b).shape == (2, 0)
    assert linalg.kernel_cols(c, b).shape == (2, 1)


def test_invert():
    c = ctx()
    a = linalg.mat(c, [[2, 1], [1, 1]])
    inv = linalg.invert(c, a)
    assert np.array_equal(linalg.matmul(c, a, inv), linalg.eye(c, 2))
    with pytest.raises(NotAUnit):
        linalg.invert(c, [[3, 0], [0, 1]])


def test_rank_mod_p():
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 5]])
    assert linalg.rank_mod_p(5, a) == 1
    assert linalg.rank_mod_p(7, a) == 2


def test_matmul_matches_object_arithmetic():
    c = ctx(p=3, precision=8, guard=2)
    rng = random.Random(1)
    a = random_matrix(c, rng, 3, 5, skew=1)
    b = random_matrix(c, rng, 5, 2, skew=1)
    fast = linalg.matmul(c, a, b)
    slow = (np.array(a, dtype=object) @ np.array(b, dtype=object)) % c.modulus
    assert np.array_equal(np.array(fast, dtype=object), slow)


# Moduli just below 2^31: int64 arrays, products cut into 16-bit limbs.
LIMB_CONTEXTS = [(2, 30), (3, 19), (5, 13), (7, 11)]


def _object_twin(monkeypatch, c):
    """The same context on the object path: a Context reads its dtype once."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_INT64_LIMIT", 1)
        twin = linalg.Context(c.p, c.precision, c.guard)
        assert twin.dtype is object
    return twin


def _same(fast, slow):
    assert fast.dtype == np.int64 and slow.dtype == object
    assert fast.shape == slow.shape and np.array_equal(fast, slow)


@pytest.mark.parametrize("p, precision", LIMB_CONTEXTS)
def test_int64_path_matches_the_object_path(monkeypatch, p, precision):
    c = linalg.Context(p, precision, 2)
    assert c.dtype is np.int64 and c.modulus > linalg._ONE_LIMB_LIMIT
    slow = _object_twin(monkeypatch, c)
    rng = random.Random(precision)
    mod = c.modulus

    def agree(f, *args, **kwargs):
        """f on both paths: equal arrays, or a guard raise from both."""
        out = []
        for ctx_, dtype in ((c, np.int64), (slow, object)):
            try:
                got = f(ctx_, *(np.array(x, dtype=dtype) for x in args), **kwargs)
            except PrecisionExhausted:
                got = None
            out.append(got)
        fast, ref = out
        if isinstance(fast, linalg.Smith):
            assert fast.dvals == ref.dvals
            for name in ("left", "left_inv", "right"):
                _same(getattr(fast, name), getattr(ref, name))
        elif fast is None:
            assert ref is None
        else:
            _same(fast, ref)
        return fast

    # matmul past one chunk, with negative left entries
    width = 2 * linalg._INT64_CHUNK + 7
    a = [[rng.randrange(-mod + 1, mod) for _ in range(width)] for _ in range(3)]
    agree(linalg.matmul, a, [[rng.randrange(mod) for _ in range(4)] for _ in range(width)])
    # smith with every transform, at the ceiling N and below, kernel_cols
    # and solve; the last matrix raises in the guard band
    shapes = [(rng.randrange(1, 9), rng.randrange(1, 33)) for _ in range(40)]
    cases = [random_matrix(c, rng, m, n, skew=4) for m, n in shapes]
    cases.append(linalg.mat(c, [[1, 0], [0, p ** (precision - 1)]]))
    raised = 0
    for m in cases:
        raised += agree(linalg.smith, m) is None
        agree(linalg.smith, m, ceiling=precision - 1)
        agree(linalg.kernel_cols, m)
        x = random_matrix(c, rng, m.shape[1], 2, 1)
        agree(linalg.solve, m, linalg.matmul(c, m, x))
    assert raised


def test_tate_at_c25_is_the_same_on_both_paths(monkeypatch):
    # C25 at its default precision 5^12 is int64; forcing the object
    # path must leave every Tate group's invariants as they are.
    cfg = GroupConfig(5, 2, 12)
    assert linalg.context_of(cfg).dtype is np.int64

    def invariants(dtype):
        monkeypatch.setattr(cohomology, "_cores", weakref.WeakValueDictionary())
        mods = [augmentation_ideal.__wrapped__(cfg)]
        for seed in range(3):
            mod = random_presented_module(cfg, random.Random(seed))
            mods.append(direct_sum(mod, trivial_module(cfg, exponent=1 + seed)).module)
        assert all(m.sigma_matrix.dtype == dtype for m in mods)
        groups = [cohomology.tate(m, d, lv) for m in mods for lv in range(3) for d in (0, 1)]
        return [h.invariants for h in groups]

    want = invariants(np.int64)
    assert any(want)
    monkeypatch.setattr(linalg, "_INT64_LIMIT", 1)
    assert invariants(object) == want


@settings(max_examples=300, derandomize=True)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(0, 8),
    st.integers(0, 24),
    st.booleans(),
    st.integers(0, 2**64 - 1),
)
def test_pivot_cols_match_the_full_reduction(p, m, n, huge, seed):
    # Small and negative entries u p^k (|u| <= p, k <= 2), many of them
    # multiples of p, and on object arrays entries of size 10^30.  They
    # come from one drawn seed, as in smith_cases.
    rng = random.Random(seed)

    def entry():
        if huge and rng.random() < 0.5:
            return rng.randint(-(10**30), 10**30)
        return rng.randint(-p, p) * p ** rng.randint(0, 2)

    flat = [entry() for _ in range(m * n)]
    a = np.array(flat, dtype=object if huge else np.int64).reshape(m, n)
    assert linalg.pivot_cols_mod_p(p, a) == pivot_cols_by_column(p, a)


def test_no_matrix_product_outside_matmul():
    # linalg.matmul is the one product routine: it alone knows how to
    # keep int64 products from overflowing.
    allowed = {("linalg", "matmul")}
    found = []

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            if (module, scope) not in allowed:
                found.append(f"{module}.py:{node.lineno} in {scope or 'module'}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    assert not found


def _counting(verify):
    calls = []

    def wrapped(x):
        calls.append(x)
        return verify(x)

    return wrapped, calls


def _int64(*mats):
    return [np.array(a, dtype=np.int64) for a in mats]


def _unit_mod_3(x):
    return x if linalg.rank_mod_p(3, x) == x.shape[0] else None


def test_search_enumerates_a_span_without_units_in_full():
    # Rank-one matrices mod 3; the third member repeats the first two mod
    # 3 and the last is zero mod 3, so the mod-p rank is 2.  The zero
    # member is never tried: three members, then the (3**2 - 1) / 2
    # combinations whose first nonzero coefficient is 1.
    members = _int64([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[2, 1], [0, 0]], [[3, 0], [0, 3]])
    verify, calls = _counting(_unit_mod_3)
    miss = linalg.search_invertible(members, 27, 3, verify, IsoSearchConfig())
    assert miss == linalg.SearchMiss(rank=2, enumerated=True)
    assert len(calls) == 3 + 4
    assert not any(np.array_equal(x, members[3]) for x in calls)


def test_search_samples_past_the_enumeration_bound():
    members = _int64([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]])
    search = IsoSearchConfig(seed=5, max_samples=7, enumeration_bound=2)
    verify, calls = _counting(lambda x: None)
    first = (np.zeros((2, 2), dtype=np.int64),)
    miss = linalg.search_invertible(members, 27, 3, verify, search, first)
    assert miss == linalg.SearchMiss(rank=3, enumerated=False)
    assert len(calls) == len(first) + len(members) + search.max_samples


def test_search_samples_are_seeded():
    # No member is a unit mod 3 and the mod-3 rank 4 exceeds the bound,
    # so the accepted matrix is a sampled combination.
    members = _int64([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]])
    search = IsoSearchConfig(seed=11, enumeration_bound=1)
    first, again = (linalg.search_invertible(members, 9, 3, _unit_mod_3, search) for _ in range(2))
    assert isinstance(first, np.ndarray) and _unit_mod_3(first) is not None
    assert np.array_equal(first, again)


def test_search_samples_before_the_members():
    # Past the bound the seeded samples come first, each the sum of the
    # members with one drawn coefficient apiece, then the members.
    members = _int64([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]])
    search = IsoSearchConfig(seed=5, max_samples=7, enumeration_bound=2)
    verify, calls = _counting(lambda x: None)
    linalg.search_invertible(members, 27, 3, verify, search)
    rng = random.Random(5)
    for x in calls[: search.max_samples]:
        want = sum(rng.randrange(27) * m for m in members) % 27
        assert x.dtype == np.int64 and np.array_equal(x, want)
    assert all(np.array_equal(x, m) for x, m in zip(calls[search.max_samples :], members))


def test_search_normalized_enumeration_matches_the_full_one():
    # On enumerated spans, skipping the unit multiples changes nothing:
    # the same accepted matrix, or the same SearchMiss, as the frozen
    # search that tried every nonzero mod-p combination.  Some spans
    # keep the last row zero mod p, so that no member is a unit.
    rng = random.Random(23)
    outcomes = set()
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        c = linalg.Context(p, rng.randrange(1, 4), 0)
        size = rng.randrange(1, 4)
        singular = rng.random() < 0.4
        dirs = [random_matrix(c, rng, size, size, skew=2) for _ in range(rng.randrange(1, 5))]
        if singular:
            for d in dirs:
                d[-1] = (d[-1] * p) % c.modulus
        members = [
            sum(rng.randrange(c.modulus) * d for d in dirs) % c.modulus
            for _ in range(rng.randrange(1, 6))
        ]
        first = (random_matrix(c, rng, size, size, skew=2),) if rng.random() < 0.3 else ()

        def unit(x, p=p):
            return x if linalg.rank_mod_p(p, x) == x.shape[0] else None

        args = (members, c.modulus, p, unit, IsoSearchConfig(), first)
        want, got = search_invertible_in_full(*args), linalg.search_invertible(*args)
        if isinstance(want, linalg.SearchMiss):
            assert want.enumerated and got == want
            outcomes.add("miss")
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, want)
            outcomes.add("hit")
    assert outcomes == {"hit", "miss"}
