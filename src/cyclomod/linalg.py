"""Matrix arithmetic over Z/p^N with valuation-aware elimination.

Everything downstream (module normal forms, Tate groups, isomorphism
searches) reduces to a few primitives implemented here on numpy arrays:

* smith: diagonalization D = U A V with unit-determinant transforms,
  pivots chosen by minimal p-valuation, ties broken in row-major order.
  The pivot loop keeps its multipliers in place (LU storage) and the
  transforms are assembled once at the end; callers ask only for the
  ones they read, and may run it at a raised precision with a lower
  zero ceiling (see smith()).  Up to _SMALL_CELLS = 2048 cells it runs
  on lists of Python ints, past that crossover on numpy arrays.
* solve: particular solutions of A X = B mod p^N.
* kernel_cols: generators of the congruence kernel {x : A x = 0 mod p^N}.
* saturated_kernel_cols: generators of the p-adic kernel, i.e. the
  directions whose image vanishes identically rather than merely mod p^N.
* pivot_cols_mod_p / rank_mod_p: plain Gaussian elimination mod p.
* search_invertible: the search of a spanning set of a solution space
  for a member that passes an invertibility check, shared by the module
  and diagram isomorphism tests.

The distinction between the two kernels is what keeps truncated
arithmetic honest.  A column of A that is genuinely zero over Zp shows
up here as a diagonal slot with no pivot; a column that is merely
divisible by a high power of p shows up as a pivot near the precision
ceiling, and the guard band turns that into a PrecisionExhausted error
instead of a silent misclassification.

Arrays use int64 when p^N <= 2^31 and Python-integer object arrays
otherwise (Context.dtype).  Below 2^31 a residue times a residue, plus
one more residue, stays below 2^62, and smith on numpy reduces its
updates only as often as that bound needs.  Only matrix products need
more care, and matmul is the one routine that forms them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, product

import numpy as np

from .errors import NotAUnit, PrecisionExhausted

_INT64_LIMIT = 1 << 31
_LAZY_BOUND = 1 << 62
_INT64_CHUNK = 2048
# Above _ONE_LIMB_LIMIT, matmul cuts its right factor into _LIMB_BITS-bit limbs.
_ONE_LIMB_LIMIT = 1 << 25
_LIMB_BITS = 16
# Cells (m n) up to which smith runs on Python ints: on the benchmark's calls their
# total fell up to 1,024-2,048 cells, was flat to 4,096, and numpy won past it.
_SMALL_CELLS = 2048


@dataclass(frozen=True)
class Context:
    """Arithmetic context for Z/p^N matrices."""

    p: int
    precision: int
    guard: int

    @cached_property
    def modulus(self) -> int:
        return self.p**self.precision

    @cached_property
    def dtype(self):
        return np.int64 if self.modulus <= _INT64_LIMIT else object

    @property
    def guard_floor(self) -> int:
        """Smallest valuation inside the guard band."""
        return self.precision - self.guard


def context_of(cfg) -> Context:
    return Context(cfg.p, cfg.precision, cfg.guard)


def valuation_int(ctx: Context, x: int) -> int:
    """p-valuation of a residue; ctx.precision means zero mod p^N."""
    x = int(x) % ctx.modulus
    if x == 0:
        return ctx.precision
    v = 0
    while x % ctx.p == 0:
        x //= ctx.p
        v += 1
    return v


def mat(ctx: Context, data) -> np.ndarray:
    """Coerce to a canonical 2-d array with entries in [0, p^N)."""
    a = np.asarray(data)
    if a.dtype.kind in "fu":  # Python integers of 2^63 or more: keep them exact
        a = np.array(data, dtype=object)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if a.dtype == object:  # Python integers: reduce before any int64 cast
        return (a % ctx.modulus).astype(ctx.dtype)
    return a.astype(ctx.dtype, copy=False) % ctx.modulus


def zeros(ctx: Context, rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=ctx.dtype)


def eye(ctx: Context, size: int) -> np.ndarray:
    return np.eye(size, dtype=ctx.dtype)


def matmul(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product reduced mod p^N; the package's one matrix product.

    On the int64 path the inner sum is reduced every _INT64_CHUNK = 2^11
    terms.  Up to p^N = 2^25 a term is below 2^50 and a chunk below 2^61.
    Above that (up to 2^31) b = b_hi 2^16 + b_lo is cut into 16-bit limbs,
    multiplied at once as [b_hi | b_lo], and the result is ((a b_hi mod
    p^N) 2^16 + a b_lo) mod p^N: a term is below 2^31 2^16 = 2^47 and a
    chunk below 2^58.  Left entries may be negative (|a| < p^N).
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if a.shape[1] == 0:
        return zeros(ctx, a.shape[0], b.shape[1])
    split = ctx.modulus > _ONE_LIMB_LIMIT
    if ctx.dtype is object or not split and a.shape[1] <= _INT64_CHUNK:
        return (a @ b) % ctx.modulus
    if split:
        b = np.concatenate([b >> _LIMB_BITS, b & ((1 << _LIMB_BITS) - 1)], axis=1)
    out = (a[:, :_INT64_CHUNK] @ b[:_INT64_CHUNK]) % ctx.modulus
    for lo in range(_INT64_CHUNK, a.shape[1], _INT64_CHUNK):
        hi = lo + _INT64_CHUNK
        out = (out + a[:, lo:hi] @ b[lo:hi]) % ctx.modulus
    if split:
        c = out.shape[1] // 2
        out = ((out[:, :c] << _LIMB_BITS) + out[:, c:]) % ctx.modulus
    return out


@dataclass
class Smith:
    """Outcome of elimination: left @ original @ right is diagonal.

    dvals lists the valuations of the pivot entries, nondecreasing, each
    strictly below the guard band.  Diagonal slots past len(dvals) are
    zeros at the elimination's ceiling.  left, its inverse left_inv and
    right all have unit determinant; a transform the caller did not ask
    for is None.
    """

    left: np.ndarray | None
    left_inv: np.ndarray | None
    right: np.ndarray | None
    dvals: list
    shape: tuple


@lru_cache(maxsize=None)
def _indivisible(p: int, e: int, dtype):
    """The element-wise test "d = p^e does not divide x", |x| <= 2^62 on int64.

    Object arrays use %, p = 2 a bit mask, odd p a product on the uint64 view
    (Granlund and Montgomery, PLDI 1994): with K = d ceil(2^62 / d), d divides
    x + K in [0, 2^64) iff x d^-1 + K / d mod 2^64 is at most (2^64 - 1) // d.
    """
    d = p**e
    if dtype is object:
        return lambda x: x % d != 0
    if p == 2:
        return lambda x: (x & (d - 1)) != 0
    inv, shift = np.uint64(pow(d, -1, 1 << 64)), np.uint64(-(-_LAZY_BOUND // d))
    most = np.uint64((2**64 - 1) // d)
    return lambda x: x.view(np.uint64) * inv + shift > most


def _swap(x: np.ndarray, i: int, j: int) -> None:
    """Exchange rows i and j of x in place (cheaper than fancy indexing)."""
    row = x[i].copy()
    x[i] = x[j]
    x[j] = row


def smith(
    ctx: Context, a, rows: bool = True, cols: bool = True, ceiling: int | None = None
) -> Smith:
    """Diagonalize over Z/p^N with minimal-valuation pivoting.

    Raises PrecisionExhausted when the best remaining pivot has a
    valuation in the guard band: at that point "tiny but nonzero" cannot
    be told apart from "zero at higher precision".

    rows and cols say whether to build the row transforms (left,
    left_inv) and the column transform (right).  Residues of valuation
    at or above ceiling (default N) count as zero: a caller working at a
    raised precision N on residues known mod p^N0 passes ceiling=N0 and
    guard N - N0 + guard0, which keeps the guard band [N0 - guard0, N0).

    The elimination runs on one working array W = [A | I_m], with the
    identity block only when rows is set.  Row swaps move whole rows and
    column swaps whole columns of the A block, so the row operations
    reach left, the identity block, at no extra cost.  Pivot k of
    valuation v and unit u leaves u in W[k, k], the column multipliers
    W[i, k] // p^v below it and the row multipliers W[k, j] // p^v to
    its right (exact divisions: every live entry is divisible by p^v),
    where later swaps permute them as in-place LU storage does.  Only
    W[k+1:, k+1:] is updated, by one rank-one row operation; no column
    operation is applied, as no later pivot reads row k.

    With P and Q the row and column permutations, L the stored lower
    part with the units on its diagonal and T the stored unit upper
    part, left = L^-1 P, so left_inv = P^T L is read off without an
    inversion, and right = Q T^-1.  Rows r.. of T are the identity's, r
    the number of pivots, so only the r x r block T11 is inverted.  Up to
    _SMALL_CELLS cells the elimination runs on lists of Python ints
    (_smith_lists), past it on numpy arrays (_smith_numpy), alike bit for bit.
    """
    a = mat(ctx, a)
    top = ctx.precision if ceiling is None else ceiling
    eliminate = _smith_lists if a.size <= _SMALL_CELLS else _smith_numpy
    return eliminate(ctx, a, rows, cols, top)


def _smith_numpy(ctx: Context, a: np.ndarray, rows: bool, cols: bool, top: int) -> Smith:
    """smith on numpy arrays.  q and the row multipliers are canonical, so
    after t updates entries lie in (-t (p^N - 1)^2, p^N).  The live block
    is reduced when the next update could pass -2^62 (after 1 update at
    2^31, 3 at 5^13, about 48,000 at 5^10, every one on object arrays),
    and before it is tested for zero or read.  The scan (_indivisible)
    needs no reduction, as p^(pv+1) divides p^N.  T11 is inverted by back
    substitution, and T12 enters T^-1 through one product."""
    m, n = a.shape
    if rows:
        a = np.concatenate([a, eye(ctx, m)], axis=1)
    mod, p = ctx.modulus, ctx.p
    # Updates between reductions of the live block (1 above 2^31).
    lazy = max(1, (_LAZY_BOUND - mod) // max(mod - 1, 1) ** 2)
    row_of, col_of = list(range(m)), list(range(n))
    dvals: list = []
    k = pv = pending = 0
    while k < min(m, n):
        # Escalate pv until some live entry has valuation <= pv.  Valuations
        # never decrease under the row operations below, so the scan can
        # resume from the previous pivot's valuation.
        while pv < top:
            nz = _indivisible(p, pv + 1, ctx.dtype)(a[k:, k:n])
            i, j = divmod(int(nz.argmax()), n - k)
            if nz[i, j]:
                break
            if pending:
                a[k:, k:] %= mod
                pending = 0
            # A zero block has no pivot below the ceiling: stop at once.
            pv = pv + 1 if np.count_nonzero(a[k:, k:n]) else top
        else:
            break
        if pv >= ctx.guard_floor:
            raise PrecisionExhausted(
                f"pivot valuation {pv} inside guard band "
                f"[{ctx.guard_floor}, {top})"
            )
        i, j = i + k, j + k
        if i != k:
            _swap(a, k, i)
            row_of[k], row_of[i] = row_of[i], row_of[k]
        if j != k:
            _swap(a[:, :n].T, k, j)
            col_of[k], col_of[j] = col_of[j], col_of[k]
        if pending:
            a[k, k:] %= mod
            a[k + 1 :, k] %= mod
        pk = p**pv
        unit = int(a[k, k]) // pk
        if unit != 1:
            a[k, k + 1 :] = (a[k, k + 1 :] * pow(unit, -1, mod)) % mod
        a[k, k] = unit
        q = a[k + 1 :, k] // pk if pv else a[k + 1 :, k]
        if np.count_nonzero(q):
            live = a[k + 1 :, k + 1 :]
            live -= q[:, None] * a[k, k + 1 :]
            pending = (pending + 1) % lazy
            if not pending:
                live %= mod
            if pv:
                a[k + 1 :, k] = q
        if cols and pv:
            a[k, k + 1 : n] //= pk
        dvals.append(pv)
        k += 1
    u = uinv = v_ = None
    if rows:
        u = a[:, n:] % mod if pending else a[:, n:].copy()
        lower = eye(ctx, m)
        lower[:, :k] = np.tril(a[:, :k])
        uinv = np.empty_like(lower)
        uinv[row_of] = lower
    if cols:
        upper = eye(ctx, n)
        for s in range(k - 2, -1, -1):
            below = upper[s + 1 : k, s + 1 : k]
            upper[s, s + 1 : k] = -matmul(ctx, a[s : s + 1, s + 1 : k], below) % mod
        upper[:k, k:] = -matmul(ctx, upper[:k, :k], a[:k, k:n]) % mod
        v_ = np.empty_like(upper)
        v_[col_of] = upper
    return Smith(u, uinv, v_, dvals, (m, n))


def _smith_lists(ctx: Context, a: np.ndarray, rows: bool, cols: bool, top: int) -> Smith:
    """smith on lists of canonical residues.  A row swap exchanges two list
    entries; the pivot row's nonzero entries are gathered once, and only
    rows with a nonzero multiplier are updated, at those entries.  Row
    s < r of T^-1 is e_s - sum_(c > s) T[s, c] (row c of T^-1)."""
    m, n = a.shape
    mod, floor, pows = ctx.modulus, ctx.guard_floor, [ctx.p**e for e in range(top + 1)]
    w = a.tolist()
    w = [row + [0] * r + [1] + [0] * (m - r - 1) for r, row in enumerate(w)] if rows else w
    row_of, col_of = list(range(m)), list(range(n))
    dvals, k, pv = [], 0, 0
    while k < min(m, n):
        # The first entry of least valuation below top; valuations never fall.
        best, at = top, None
        for r in range(k, m):
            row = w[r]
            for c in range(k, n):
                x = row[c]
                if x % pows[best]:
                    best, at = pv, (r, c)
                    while not x % pows[best + 1]:
                        best += 1
                    if best == pv:
                        break
            if best == pv:
                break
        if at is None:
            break
        pv = best
        if pv >= floor:
            raise PrecisionExhausted(f"pivot valuation {pv} inside guard band [{floor}, {top})")
        (i, j), pk = at, pows[pv]
        w[k], w[i], row_of[k], row_of[i] = w[i], w[k], row_of[i], row_of[k]
        col_of[k], col_of[j] = col_of[j], col_of[k]
        for row in w if j != k else ():
            row[k], row[j] = row[j], row[k]
        pivot = w[k]
        unit = pivot[k] = pivot[k] // pk
        if unit != 1:
            inv = pow(unit, -1, mod)
            pivot[k + 1 :] = [x * inv % mod for x in pivot[k + 1 :]]
        hits = [row for row in w[k + 1 :] if row[k]]
        nz = [(c, x) for c, x in enumerate(pivot[k + 1 :], k + 1) if x] if hits else ()
        for row in hits:
            q = row[k] = row[k] // pk
            for c, x in nz:
                row[c] = (row[c] - q * x) % mod
        if cols and pv:
            pivot[k + 1 : n] = [x // pk for x in pivot[k + 1 : n]]
        dvals.append(pv)
        k += 1
    u = uinv = right = None
    if rows:
        u = np.array([row[n:] for row in w], dtype=ctx.dtype).reshape(m, m)
        lower = [  # row r of L: its stored part, then row r of the identity past column k
            w[r][: min(r + 1, k)] + [0] * (r - k) + [1] * (r >= k) + [0] * (m - r - 1)
            for r in sorted(range(m), key=row_of.__getitem__)
        ]
        uinv = np.array(lower, dtype=ctx.dtype).reshape(m, m)
    if cols:
        upper = [[0] * s + [1] + [0] * (n - s - 1) for s in range(n)]
        for s in range(k - 1, -1, -1):
            t = w[s]
            out = upper[s][: s + 1] + [-x for x in t[s + 1 : n]]
            for c in range(s + 1, k):
                x, row = t[c], upper[c]
                for cc in range(c + 1, n) if x else ():
                    out[cc] -= x * row[cc]
            upper[s] = [x % mod for x in out]
        upper = [upper[s] for s in sorted(range(n), key=col_of.__getitem__)]
        right = np.array(upper, dtype=ctx.dtype).reshape(n, n)
    return Smith(u, uinv, right, dvals, (m, n))


def solve(ctx: Context, a, b, sm: Smith | None = None):
    """One solution X of A X = B mod p^N, or None if there is none.

    Divisibility tests that land in the guard band raise
    PrecisionExhausted rather than committing either way.
    """
    if sm is None:
        sm = smith(ctx, a)
    b = mat(ctx, b)
    m, n = sm.shape
    if b.shape[0] != m:
        raise ValueError(f"rhs has {b.shape[0]} rows, expected {m}")
    y = matmul(ctx, sm.left, b)
    r = len(sm.dvals)
    pd = np.array([ctx.p**d for d in sm.dvals] + [ctx.modulus] * (m - r), dtype=ctx.dtype)
    fails = np.flatnonzero(y % pd[:, None])
    if fails.size:  # the first failing entry in row-major order decides
        i, c = divmod(int(fails[0]), y.shape[1])
        if valuation_int(ctx, y[i, c]) >= ctx.guard_floor:
            raise PrecisionExhausted(
                f"solvability test at diagonal slot {i} depends on a guard-band valuation"
            )
        return None
    z = zeros(ctx, n, b.shape[1])
    z[:r] = y[:r] // pd[:r, None]
    return matmul(ctx, sm.right, z)


def kernel_cols(ctx: Context, a, sm: Smith | None = None) -> np.ndarray:
    """Generators of the congruence kernel {x : A x = 0 mod p^N}.

    Column j of right scaled by p^(N - d_j), for each slot with d_j > 0.
    """
    if sm is None:
        sm = smith(ctx, a, rows=False)
    top = ctx.precision
    d = np.full(sm.shape[1], top)
    d[: len(sm.dvals)] = sm.dvals
    keep = np.flatnonzero(d)
    powers = np.array([ctx.p**e for e in range(top + 1)], dtype=ctx.dtype)
    return (sm.right[:, keep] * powers[top - d[keep]]) % ctx.modulus


def saturated_kernel_cols(ctx: Context, a, sm: Smith | None = None) -> np.ndarray:
    """Generators of the exact p-adic kernel of an integer matrix.

    Only the diagonal slots with no pivot at all contribute; pivoted
    directions are nonzero over Zp (the guard band in smith() guarantees
    every pivot valuation is well below the ceiling).
    """
    if sm is None:
        sm = smith(ctx, a, rows=False)
    return sm.right[:, len(sm.dvals) :].copy()


def _xgcd(a: int, b: int) -> tuple:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


# Unused in the package; kept because perfbench/tracer.py looks it up by name.
def exact_kernel_cols(a) -> np.ndarray:
    """Saturated integer kernel {x in Z^n : A x = 0} of an exact matrix.

    Column reduction by unimodular extended-gcd operations, tracked in a
    transform V; the non-pivot columns of V span the kernel exactly and
    extend to a basis of Z^n, so the span is saturated.  No modulus is
    involved: entries are Python integers and may grow during
    elimination, which is the price of exactness.
    """
    arr = np.asarray(a, dtype=object)
    if arr.ndim != 2:
        raise ValueError("expected a matrix")
    m, n = arr.shape
    cols = [[int(arr[i, j]) for i in range(m)] for j in range(n)]
    v = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    r = 0
    for i in range(m):
        piv = None
        for j in range(r, n):
            if cols[j][i]:
                piv = j
                break
        if piv is None:
            continue
        for j in range(piv + 1, n):
            if not cols[j][i]:
                continue
            aa, bb = cols[piv][i], cols[j][i]
            g, x, y = _xgcd(aa, bb)
            u1, u2 = aa // g, bb // g
            cp, cj = cols[piv], cols[j]
            cols[piv] = [x * s + y * t for s, t in zip(cp, cj)]
            cols[j] = [u1 * t - u2 * s for s, t in zip(cp, cj)]
            vp, vj = v[piv], v[j]
            v[piv] = [x * s + y * t for s, t in zip(vp, vj)]
            v[j] = [u1 * t - u2 * s for s, t in zip(vp, vj)]
        cols[r], cols[piv] = cols[piv], cols[r]
        v[r], v[piv] = v[piv], v[r]
        r += 1
    out = np.empty((n, n - r), dtype=object)
    for j in range(r, n):
        for i in range(n):
            out[i, j - r] = v[j][i]
    return out


def invert(ctx: Context, a, sm: Smith | None = None) -> np.ndarray:
    a = mat(ctx, a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("only square matrices can be inverted")
    if sm is None:
        sm = smith(ctx, a)
    if len(sm.dvals) != a.shape[0] or any(d != 0 for d in sm.dvals):
        raise NotAUnit("matrix determinant has positive valuation")
    return matmul(ctx, sm.right, sm.left)


def pivot_cols_mod_p(p: int, a: np.ndarray, limit=math.inf) -> list:
    """Pivot columns, left to right, of the row echelon form of A mod p,
    up to the first limit of them."""
    b = (np.asarray(a) % p).astype(np.int64, copy=False)
    m, n = b.shape
    pivots: list = []
    col = 0
    while len(pivots) < min(m, limit):
        rank = len(pivots)
        hits = np.flatnonzero(b[rank:, col:].any(axis=0))
        if not hits.size:
            break
        col += int(hits[0])
        nz = rank + np.flatnonzero(b[rank:, col])
        _swap(b, rank, nz[0])
        # Only the rows below with a nonzero entry in the pivot column move.
        rows = nz[1:]
        if rows.size:
            row = (b[rank, col:] * pow(int(b[rank, col]), -1, p)) % p
            b[rows, col:] = (b[rows, col:] - np.outer(b[rows, col], row)) % p
        pivots.append(col)
        col += 1
    return pivots


def rank_mod_p(p: int, a: np.ndarray) -> int:
    """Rank of a matrix reduced mod p (plain Gaussian elimination)."""
    return len(pivot_cols_mod_p(p, a))


@dataclass(frozen=True)
class SearchMiss:
    """search_invertible found nothing.

    rank is the mod-p rank of the span.  enumerated says every nonzero
    mod-p class of the span was tried, which makes the miss definitive.
    """

    rank: int
    enumerated: bool


def search_invertible(members, modulus: int, p: int, verify, search, first=()):
    """First non-None verify(x) over the span of members, or a SearchMiss.

    members are same-shape residue arrays spanning a solution space mod
    modulus; verify promotes a candidate to a result or returns None.
    Whether some member of the span is invertible depends only on its
    residue mod p (Nakayama's lemma over the local ring Zp[G]), so the
    mod-p span decides the question, and members that are zero mod p
    are dropped before any candidate is tried.  So c x + p y passes
    exactly when x does, for a unit c and y in the span: it lies in the
    span, so every linear check holds for it, and its residue c (x mod
    p) is invertible exactly when that of x is.  Candidates, in order:
    first (e.g. the identity); then, when at most
    search.enumeration_bound members are independent mod p (an
    elimination that stops one pivot past the bound tells), each member
    and every combination of those with coefficients in [0, p) whose
    first nonzero coefficient is 1 (in product order it precedes its
    multiples, so the first success is a full enumeration's); past the
    bound, search.max_samples seeded combinations drawing one
    coefficient in [0, modulus) per member, in order, then each member.
    When an isomorphism exists, random members of the span are units
    with good probability (the MeatAxe argument), so samples go first.
    """
    members = [x for x in members if (x % p).any()]
    for x in first:
        found = verify(x)
        if found is not None:
            return found
    span = np.stack([np.ravel(x) for x in members], axis=1) if members else np.zeros((0, 0))
    pivots = pivot_cols_mod_p(p, span, search.enumeration_bound + 1)
    ctx = Context(p, round(math.log(modulus, p)), 0)
    enumerated = len(pivots) <= search.enumeration_bound
    if enumerated:
        cols = pivots
        combos = (c for c in product(range(p), repeat=len(cols)) if next(filter(None, c), 0) == 1)
    else:
        cols, rng = slice(None), random.Random(search.seed)
        combos = ([rng.randrange(modulus) for _ in members] for _ in range(search.max_samples))
    combined = (matmul(ctx, span[:, cols], mat(ctx, c)).reshape(members[0].shape) for c in combos)
    for x in chain(members, combined) if enumerated else chain(combined, members):
        found = verify(x)
        if found is not None:
            return found
    return SearchMiss(len(pivots) if enumerated else rank_mod_p(p, span), enumerated)


def is_zero(a: np.ndarray) -> bool:
    return a.size == 0 or not (a != 0).any()


def hstack(ctx: Context, blocks) -> np.ndarray:
    blocks = list(blocks)
    if not blocks:
        raise ValueError("empty hstack")
    rows = blocks[0].shape[0]
    if any(b.shape[0] != rows for b in blocks):
        raise ValueError("row mismatch in hstack")
    return np.concatenate(blocks, axis=1)
