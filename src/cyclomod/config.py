"""Session configuration objects.

A GroupConfig pins everything global for a computation: the prime p, the
exponent n of the cyclic group G of order p^n, the working precision N
(all scalars live in Z/p^N as truncations of p-adic integers) and the
guard width used to detect decisions that are too close to the precision
ceiling.

Precision policy.  Results are exact provided every torsion exponent that
genuinely occurs in the session is at most N - n - guard.  Under that
assumption a nonzero residue whose valuation reaches the guard band
[N - guard, N) can only arise from an ill-posed decision, and the linear
algebra layer raises PrecisionExhausted instead of guessing.  Residues
that are exactly zero mod p^N are treated as true zeros.  A level-i Tate
group needs N >= g + i, g the largest elementary divisor valuation of its
boundary kernel; the theorem-1 chains have g = 2n at level n: N >= 3n.

Instances are frozen; sharing them across threads is safe.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import PreconditionViolated

DEFAULT_GUARD = 2

#: Environment variable that overrides the default precision (read only here).
PRECISION_ENV_VAR = "CYCLOMOD_PRECISION"


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def default_precision(n: int, guard: int = DEFAULT_GUARD) -> int:
    """Default working exponent N for a group of order p^n.

    The larger of n + guard + 8 (room for torsion up to p^8 above the
    n + guard + 1 floor) and 3n, the Tate margin of the policy above.
    A nonempty CYCLOMOD_PRECISION overrides it and must be an integer.
    """
    env = os.environ.get(PRECISION_ENV_VAR)
    if not env:
        return max(n + guard + 8, 3 * n)
    try:
        return int(env)
    except ValueError:
        raise PreconditionViolated(f"{PRECISION_ENV_VAR}={env!r} is not an integer") from None


@dataclass(frozen=True)
class GroupConfig:
    """Prime, group size exponent, working precision and guard width."""

    p: int
    n: int
    precision: int
    guard: int = DEFAULT_GUARD

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise PreconditionViolated(f"p = {self.p} is not prime")
        if self.n < 0:
            raise PreconditionViolated(f"n = {self.n} must be >= 0")
        if self.guard < 1:
            raise PreconditionViolated(f"guard = {self.guard} must be >= 1")
        if self.precision < self.n + self.guard + 1:
            raise PreconditionViolated(
                f"precision {self.precision} below n + guard + 1 = "
                f"{self.n + self.guard + 1}"
            )

    @property
    def order(self) -> int:
        """Order p^n of the acting cyclic group."""
        return self.p**self.n

    @property
    def modulus(self) -> int:
        """Scalar modulus p^N."""
        return self.p**self.precision

    def quotient(self, i: int) -> "GroupConfig":
        """Config for the quotient group G / G_i of order p^(n-i)."""
        if not 0 <= i <= self.n:
            raise PreconditionViolated(f"subgroup index {i} out of range")
        return GroupConfig(self.p, self.n - i, self.precision, self.guard)

    def describe(self) -> str:
        return f"p={self.p} n={self.n} N={self.precision} guard={self.guard}"


@dataclass(frozen=True)
class IsoSearchConfig:
    """Budgets and seeding for isomorphism searches.

    enumeration_bound is a dimension: when the mod-p solution space of a
    constraint system has dimension at most this, candidates are
    enumerated exhaustively; otherwise max_samples seeded random
    combinations are tried, and a search that finds no witness among
    them answers Undecided.  Stable comparisons have no budget of their
    own: they cancel free summands and search the complements.
    """

    seed: int = 0
    max_samples: int = 512
    enumeration_bound: int = 4

    def __post_init__(self) -> None:
        if self.max_samples < 1 or self.enumeration_bound < 0:
            raise PreconditionViolated("search budgets must be positive")
