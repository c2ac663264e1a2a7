"""Matrix arithmetic over Z/p^N with valuation-aware elimination.

Everything downstream (module normal forms, Tate groups, isomorphism
searches) reduces to a few primitives implemented here on numpy arrays:

* smith: diagonalization D = U A V with unit-determinant transforms,
  pivots chosen by minimal p-valuation, ties broken in row-major order.
  Callers ask only for the transforms they read, and may run it at a
  raised precision with a lower zero ceiling (see smith()).
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

Arrays use int64 when p^N is small enough that intermediate products
cannot overflow, and Python-integer object arrays otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import NotAUnit, PrecisionExhausted

_INT64_LIMIT = 1 << 25
_INT64_CHUNK = 2048


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
    a = np.array(data, dtype=ctx.dtype)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a % ctx.modulus


def zeros(ctx: Context, rows: int, cols: int) -> np.ndarray:
    a = np.zeros((rows, cols), dtype=ctx.dtype)
    if ctx.dtype is object:
        a[:] = 0
    return a


def eye(ctx: Context, size: int) -> np.ndarray:
    a = zeros(ctx, size, size)
    for i in range(size):
        a[i, i] = 1
    return a


def matmul(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product reduced mod p^N, chunked to avoid int64 overflow."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if a.shape[1] == 0:
        return zeros(ctx, a.shape[0], b.shape[1])
    if ctx.dtype is object or a.shape[1] <= _INT64_CHUNK:
        return (a @ b) % ctx.modulus
    out = zeros(ctx, a.shape[0], b.shape[1])
    for lo in range(0, a.shape[1], _INT64_CHUNK):
        hi = lo + _INT64_CHUNK
        out = (out + a[:, lo:hi] @ b[lo:hi, :]) % ctx.modulus
    return out


def scalar_inverse(ctx: Context, x: int) -> int:
    x = int(x) % ctx.modulus
    if x % ctx.p == 0:
        raise NotAUnit(f"{x} is divisible by {ctx.p}, not invertible")
    return pow(x, -1, ctx.modulus)


@dataclass
class Smith:
    """Outcome of elimination: left @ original @ right is diagonal.

    dvals lists the valuations of the pivot entries, nondecreasing, each
    strictly below the guard band.  Diagonal slots past len(dvals) are
    zeros at the elimination's ceiling.  left, its tracked inverse and
    right all have unit determinant; a transform the caller did not ask
    for is None.
    """

    left: np.ndarray | None
    left_inv: np.ndarray | None
    right: np.ndarray | None
    dvals: list
    shape: tuple

    def dval_col(self, j: int, precision: int) -> int:
        return self.dvals[j] if j < len(self.dvals) else precision

    def diagonal_matrix(self, ctx: Context) -> np.ndarray:
        d = zeros(ctx, *self.shape)
        for i, v in enumerate(self.dvals):
            d[i, i] = ctx.p**v
        return d


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

    rows and cols say whether to keep the row transforms (left, left_inv)
    and the column transform (right); skipping an unread one saves a
    square update per pivot.  Residues of valuation at or above
    ceiling (default N) count as zero: a caller working at a raised
    precision N on residues known mod p^N0 passes ceiling=N0 and guard
    N - N0 + guard0, which keeps the guard band [N0 - guard0, N0).

    Only the live block is updated.  At pivot k, rows k.. are zero in
    columns ..k-1 and rows ..k-1 are zero off the diagonal, so the row
    operations, swaps and unit scaling touch columns k.. alone; once the
    rows below are cleared, column k is zero off the pivot and the column
    operations reduce to zeroing the rest of row k, which only right
    records.  That zeroing is exact: every entry of the live block is
    divisible by p^pv as an integer.
    """
    a = mat(ctx, a)
    m, n = a.shape
    u = uinv = v_ = None
    if rows:
        u, uinv = eye(ctx, m), eye(ctx, m)
    if cols:
        v_ = eye(ctx, n)
    mod = ctx.modulus
    p = ctx.p
    top = ctx.precision if ceiling is None else ceiling
    dvals: list = []
    k = 0
    pv = 0
    limit = min(m, n)
    while k < limit:
        sub = a[k:, k:]
        # Escalate pv until some remaining entry has valuation <= pv.
        # Valuations never decrease under the row operations below, so
        # the scan can resume from the previous pivot's valuation.
        loc = None
        while pv < top:
            nz = (sub % (p ** (pv + 1))) != 0
            if nz.any():
                flat = int(np.argmax(nz))
                loc = divmod(flat, sub.shape[1])
                break
            pv += 1
        if loc is None:
            break
        if pv >= ctx.guard_floor:
            raise PrecisionExhausted(
                f"pivot valuation {pv} inside guard band "
                f"[{ctx.guard_floor}, {top})"
            )
        i, j = loc[0] + k, loc[1] + k
        if i != k:
            _swap(a[:, k:], k, i)
            if rows:
                _swap(u, k, i)
                _swap(uinv.T, k, i)
        if j != k:
            _swap(a[k:, :].T, k, j)
            if cols:
                _swap(v_.T, k, j)
        pk = p**pv
        unit = int(a[k, k]) // pk
        if unit != 1:
            w = scalar_inverse(ctx, unit)
            a[k, k:] = (a[k, k:] * w) % mod
            if rows:
                u[k, :] = (u[k, :] * w) % mod
                uinv[:, k] = (uinv[:, k] * unit) % mod
        col = a[k + 1 :, k]
        if col.size and (col != 0).any():
            q = col // pk
            a[k + 1 :, k:] = (a[k + 1 :, k:] - q[:, None] * a[k, k:]) % mod
            if rows:
                u[k + 1 :, :] = (u[k + 1 :, :] - q[:, None] * u[k, :]) % mod
                uinv[:, k] = (uinv[:, k] + matmul(ctx, uinv[:, k + 1 :], q.reshape(-1, 1)).ravel()) % mod
        row = a[k, k + 1 :]
        if row.size and (row != 0).any():
            if cols:
                q = row // pk
                v_[:, k + 1 :] = (v_[:, k + 1 :] - v_[:, k : k + 1] * q[None, :]) % mod
            a[k, k + 1 :] = 0
        dvals.append(pv)
        k += 1
    return Smith(u, uinv, v_, dvals, (m, n))


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
    z = zeros(ctx, n, b.shape[1])
    r = len(sm.dvals)
    for i in range(m):
        d = sm.dvals[i] if i < r else ctx.precision
        pd = ctx.p**d
        for c in range(b.shape[1]):
            e = int(y[i, c])
            if e % pd == 0:
                if i < r:
                    z[i, c] = e // pd
            else:
                if valuation_int(ctx, e) >= ctx.guard_floor:
                    raise PrecisionExhausted(
                        f"solvability test at diagonal slot {i} depends on a "
                        f"guard-band valuation"
                    )
                return None
    return matmul(ctx, sm.right, z)


def kernel_cols(ctx: Context, a, sm: Smith | None = None) -> np.ndarray:
    """Generators of the congruence kernel {x : A x = 0 mod p^N}."""
    if sm is None:
        sm = smith(ctx, a, rows=False)
    n = sm.shape[1]
    cols = []
    for j in range(n):
        d = sm.dval_col(j, ctx.precision)
        if d == 0:
            continue
        cols.append((sm.right[:, j] * (ctx.p ** (ctx.precision - d))) % ctx.modulus)
    if not cols:
        return zeros(ctx, n, 0)
    return np.stack(cols, axis=1)


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


def pivot_cols_mod_p(p: int, a: np.ndarray) -> list:
    """Pivot columns, left to right, of the row echelon form of A mod p."""
    b = (np.array(a, dtype=object) % p).astype(np.int64)
    m, n = b.shape
    pivots: list = []
    for col in range(n):
        rank = len(pivots)
        if rank == m:
            break
        nz = np.flatnonzero(b[rank:, col])
        if not nz.size:
            continue
        piv = rank + int(nz[0])
        b[[rank, piv], :] = b[[piv, rank], :]
        inv = pow(int(b[rank, col]), -1, p)
        b[rank, :] = (b[rank, :] * inv) % p
        mask = b[:, col] != 0
        mask[rank] = False
        if mask.any():
            b[mask, :] = (b[mask, :] - np.outer(b[mask, col], b[rank, :])) % p
        pivots.append(col)
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
    are dropped before any candidate is tried.  Candidates, in this
    order: first (e.g. the identity), each remaining member, then every
    nonzero combination with coefficients in [0, p) of the members that
    are independent mod p, when there are at most
    search.enumeration_bound of them; otherwise search.max_samples
    seeded combinations that draw one coefficient in [0, modulus) per
    remaining member, in order.
    """
    members = [x for x in members if (x % p).any()]
    for x in (*first, *members):
        found = verify(x)
        if found is not None:
            return found
    pivots = []
    if members:
        pivots = pivot_cols_mod_p(p, np.stack([np.ravel(x) for x in members], axis=1))
    enumerated = len(pivots) <= search.enumeration_bound
    if enumerated:
        span = [members[j] for j in pivots]
        combos = (c for c in product(range(p), repeat=len(span)) if any(c))
    else:
        span = members
        rng = random.Random(search.seed)
        combos = ([rng.randrange(modulus) for _ in span] for _ in range(search.max_samples))
    for coeffs in combos:
        x = 0
        for c, member in zip(coeffs, span):
            x = (x + c * member) % modulus
        found = verify(x)
        if found is not None:
            return found
    return SearchMiss(len(pivots), enumerated)


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
