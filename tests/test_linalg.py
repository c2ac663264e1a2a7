"""Elimination engine: smith form, solving, and the two kernel notions."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomod import linalg
from cyclomod.config import IsoSearchConfig
from cyclomod.errors import NotAUnit, PrecisionExhausted

from _oracles import GuardBand, cokernel_valuations_mod_pN, smith_full_width


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
    c = ctx(p=5, precision=13, guard=2)
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


# (p, N): three int64 contexts and 7^12, which takes the object path.
SMITH_CONTEXTS = [(3, 8), (2, 12), (5, 6), (7, 12)]


@st.composite
def smith_cases(draw):
    p, precision = draw(st.sampled_from(SMITH_CONTEXTS))
    c = linalg.Context(p, precision, draw(st.integers(0, 4)))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
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


@settings(max_examples=400)
@given(smith_cases())
def test_smith_matches_the_full_width_kernel(case):
    # The live-block updates must leave every output bit for bit as the
    # elimination that updates whole rows and columns produced it.
    c, a, rows, cols, ceiling = case
    try:
        want = smith_full_width(c.p, c.precision, c.guard, a.copy(), rows, cols, ceiling)
    except GuardBand:
        want = None
    try:
        sm = linalg.smith(c, a.copy(), rows=rows, cols=cols, ceiling=ceiling)
    except PrecisionExhausted:
        assert want is None
        return
    assert want is not None
    assert sm.shape == a.shape
    assert sm.dvals == want[3]
    for got, ref in zip((sm.left, sm.left_inv, sm.right), want[:3]):
        if ref is None:
            assert got is None
        else:
            assert got.dtype == ref.dtype == c.dtype
            assert np.array_equal(got, ref)


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
