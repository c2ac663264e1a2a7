"""Elimination engine: smith form, solving, and the two kernel notions."""

import ast
import random
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomod import cli, cohomology, linalg
from cyclomod.config import GroupConfig, IsoSearchConfig
from cyclomod.constructions import Theorem1Input, j_module, theorem1_verify
from cyclomod.errors import NotAUnit, PrecisionExhausted
from cyclomod.fileio import save_file
from cyclomod.modules import augmentation_ideal, direct_sum, free_module, trivial_module
from cyclomod.suites import random_presented_module

from _oracles import (
    GuardBand,
    cokernel_valuations_mod_pN,
    kernel_cols_by_column,
    pivot_cols_by_column,
    smith_full_width,
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
        assert np.array_equal(left_a_right, sm.diagonal_matrix(c))
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
    assert np.array_equal(left_a_right, sm.diagonal_matrix(c))


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
# and 7^12, which takes the object path.
SMITH_CONTEXTS = [(3, 8), (2, 12), (5, 6), (5, 13), (7, 12)]


@st.composite
def smith_cases(draw):
    p, precision = draw(st.sampled_from(SMITH_CONTEXTS))
    c = linalg.Context(p, precision, draw(st.integers(0, 4)))
    # Small shapes, and wide ones like the Tate relation systems.
    m, n = draw(
        st.one_of(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            st.tuples(st.integers(0, 8), st.integers(0, 48)),
        )
    )
    # Entries u * p^k: many share a valuation, and k = N gives zeros.
    entry = st.builds(
        lambda u, k: (u * p**k) % c.modulus,
        st.integers(0, c.modulus - 1),
        st.integers(0, precision),
    )
    flat = draw(st.lists(entry, min_size=m * n, max_size=m * n))
    a = linalg.mat(c, np.array(flat, dtype=object).reshape(m, n))
    ceiling = draw(st.one_of(st.none(), st.integers(1, precision)))
    return c, a, draw(st.booleans()), draw(st.booleans()), ceiling


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


def _theorem1_chain(group):
    """theorem1_verify on J1 + ideal + free, as the pipeline battery builds it."""
    cfg = GroupConfig(*group)
    jm, ideal = j_module(cfg, 1), augmentation_ideal(cfg)
    lam = free_module(cfg, 1, names=["f"])
    ds = direct_sum(jm, ideal, lam)
    data = Theorem1Input(
        module=ds.module,
        free_witness=(
            ds.injections[0].apply(jm.generator(0)),
            ds.injections[2].apply(lam.generator(0)),
        ),
        ideal_witness=ds.injections[1].apply(ideal.generator(0)),
        rank=2,
    )
    assert theorem1_verify(data, IsoSearchConfig(seed=1)).passed


def _cohomology_maps(tmp_path):
    """`cohomology --maps` of J1 at C11, whose modulus 11^11 takes the object path."""
    path = str(tmp_path / "j1.json")
    save_file(path, j_module(GroupConfig(11, 1, 11), 1))
    assert cli.main(["--format", "machine", "cohomology", "--maps", path]) == 0


@pytest.mark.filterwarnings("ignore:p = 2")
def test_workload_smith_calls_match_the_full_width_kernel(monkeypatch, tmp_path):
    # Every elimination of three workload-shaped runs, including the wide
    # Tate relation systems (m x about 6m) that the cases above never
    # reach, must equal the full-width kernel bit for bit.  A fresh core
    # table makes the Tate eliminations run here.
    monkeypatch.setattr(cohomology, "_cores", weakref.WeakValueDictionary())
    real = linalg.smith
    shapes = []

    def checked(c, a, rows=True, cols=True, ceiling=None):
        a = linalg.mat(c, a)
        shapes.append((c.dtype, a.shape))
        return _smith_against_full_width(c, a, rows, cols, ceiling, smith=real)

    monkeypatch.setattr(linalg, "smith", checked)
    _theorem1_chain((3, 2, 12))
    _theorem1_chain((2, 3, 12))
    _cohomology_maps(tmp_path)
    assert len(shapes) > 300
    assert any(dtype is object for dtype, _ in shapes)
    assert any(n >= 5 * m > 0 for _, (m, n) in shapes)


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
    st.data(),
)
def test_pivot_cols_match_the_full_reduction(p, m, n, huge, data):
    # Small and negative entries, many of them multiples of p, and on
    # object arrays entries of size 10^30.
    small = st.builds(lambda u, k: u * p**k, st.integers(-p, p), st.integers(0, 2))
    entry = st.one_of(small, st.integers(-(10**30), 10**30)) if huge else small
    flat = data.draw(st.lists(entry, min_size=m * n, max_size=m * n))
    a = np.array(flat, dtype=object if huge else np.int64).reshape(m, n)
    assert linalg.pivot_cols_mod_p(p, a) == pivot_cols_by_column(p, a)


def test_no_matrix_product_outside_matmul():
    # linalg.matmul is the one product routine: it alone knows how to
    # keep int64 products from overflowing.  CohomMap.compose multiplies
    # object arrays and may keep its own product.
    allowed = {("linalg", "matmul"), ("cohomology", "CohomMap.compose")}
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
    # member is never tried: three members, then 3**2 - 1 combinations.
    members = _int64([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[2, 1], [0, 0]], [[3, 0], [0, 3]])
    verify, calls = _counting(_unit_mod_3)
    miss = linalg.search_invertible(members, 27, 3, verify, IsoSearchConfig())
    assert miss == linalg.SearchMiss(rank=2, enumerated=True)
    assert len(calls) == 3 + 3**2 - 1
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
