"""Scalars mod p^N and the group ring Zp[G] for G cyclic of order p^n.

Truncated p-adic integers are exact as long as every quantity of
interest stays below the precision ceiling.  The one place truncation
could lie is the valuation of zero: a residue equal to 0 mod p^N might
be an actual zero or an element of valuation >= N.  valuation() returns
the SATURATED marker in that case instead of a number, so callers are
forced to treat "zero at this precision" as its own answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

import numpy as np

from . import linalg
from .config import GroupConfig
from .errors import NotAUnit


@total_ordering
class _Saturated:
    """Valuation marker for residues that vanish mod p^N.

    Compares greater than every integer, so threshold checks like
    ``val >= e`` do the right thing for honest-to-goodness zeros.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "SATURATED"

    def __eq__(self, other):
        return other is self

    def __lt__(self, other):
        if isinstance(other, (int, np.integer)):
            return False
        if other is self:
            return False
        return NotImplemented

    def __hash__(self):
        return hash("SATURATED")


SATURATED = _Saturated()


@dataclass(frozen=True)
class PadicInt:
    """A residue in Z/p^N standing in for a p-adic integer."""

    p: int
    precision: int
    value: int

    def __post_init__(self):
        if self.p < 2 or self.precision < 1:
            raise ValueError("need p >= 2 and precision >= 1")
        object.__setattr__(self, "value", int(self.value) % self.modulus)

    @property
    def modulus(self) -> int:
        return self.p**self.precision

    def valuation(self):
        """p-valuation, or SATURATED when the residue is 0 mod p^N."""
        if self.value == 0:
            return SATURATED
        v = 0
        x = self.value
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

    def is_unit(self) -> bool:
        return self.value % self.p != 0

    def unit_inverse(self) -> "PadicInt":
        if not self.is_unit():
            raise NotAUnit(f"{self.value} has positive valuation at p={self.p}")
        return self._wrap(pow(self.value, -1, self.modulus))

    def _wrap(self, value: int) -> "PadicInt":
        return PadicInt(self.p, self.precision, value)

    def _check(self, other: "PadicInt"):
        if not isinstance(other, PadicInt):
            raise TypeError(f"expected PadicInt, got {type(other).__name__}")
        if (other.p, other.precision) != (self.p, self.precision):
            raise ValueError("mixed moduli in PadicInt arithmetic")

    def __add__(self, other):
        self._check(other)
        return self._wrap(self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return self._wrap(self.value - other.value)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap(self.value * other)
        self._check(other)
        return self._wrap(self.value * other.value)

    __rmul__ = __mul__

    def __neg__(self):
        return self._wrap(-self.value)

    def __repr__(self) -> str:
        return f"PadicInt({self.value} mod {self.p}^{self.precision})"


class GroupRingElement:
    """Element of Zp[G] written sum_t c_t * sigma^t, sigma a fixed generator.

    Coefficients are residues mod p^N in the order t = 0 .. p^n - 1.
    """

    __slots__ = ("cfg", "values")

    def __init__(self, cfg: GroupConfig, values):
        d = cfg.order
        vals = [int(v.value if isinstance(v, PadicInt) else v) % cfg.modulus for v in values]
        if len(vals) != d:
            raise ValueError(f"need {d} coefficients, got {len(vals)}")
        self.cfg = cfg
        self.values = tuple(vals)

    @property
    def coeffs(self) -> tuple:
        return tuple(PadicInt(self.cfg.p, self.cfg.precision, v) for v in self.values)

    def augmentation(self) -> PadicInt:
        return PadicInt(self.cfg.p, self.cfg.precision, sum(self.values))

    def _check(self, other: "GroupRingElement"):
        if not isinstance(other, GroupRingElement):
            raise TypeError(f"expected GroupRingElement, got {type(other).__name__}")
        if other.cfg != self.cfg:
            raise ValueError("mixed group rings")

    def __add__(self, other):
        self._check(other)
        return GroupRingElement(
            self.cfg, [a + b for a, b in zip(self.values, other.values)]
        )

    def __sub__(self, other):
        self._check(other)
        return GroupRingElement(
            self.cfg, [a - b for a, b in zip(self.values, other.values)]
        )

    def __neg__(self):
        return GroupRingElement(self.cfg, [-a for a in self.values])

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(self.cfg, [a * other for a in self.values])
        self._check(other)
        d = self.cfg.order
        out = [0] * d
        for s, a in enumerate(self.values):
            if a == 0:
                continue
            for t, b in enumerate(other.values):
                if b == 0:
                    continue
                out[(s + t) % d] += a * b
        return GroupRingElement(self.cfg, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and other.cfg == self.cfg
            and other.values == self.values
        )

    def __hash__(self):
        return hash((self.cfg, self.values))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def regular_matrix(self) -> np.ndarray:
        """Matrix of left multiplication by this element on Zp[G].

        Column t holds the coefficients of self * sigma^t, so the matrix
        acts on coefficient columns the way the element acts on the ring.
        """
        ctx = linalg.context_of(self.cfg)
        d = self.cfg.order
        m = linalg.zeros(ctx, d, d)
        for t in range(d):
            for s, a in enumerate(self.values):
                m[(s + t) % d, t] = (int(m[(s + t) % d, t]) + a) % self.cfg.modulus
        return m

    def __repr__(self) -> str:
        terms = []
        for t, v in enumerate(self.values):
            if v == 0:
                continue
            if t == 0:
                terms.append(f"{v}")
            elif t == 1:
                terms.append(f"{v}*s" if v != 1 else "s")
            else:
                terms.append(f"{v}*s^{t}" if v != 1 else f"s^{t}")
        body = " + ".join(terms) if terms else "0"
        return f"GroupRingElement({body})"


def zero_element(cfg: GroupConfig) -> GroupRingElement:
    return GroupRingElement(cfg, [0] * cfg.order)


def one_element(cfg: GroupConfig) -> GroupRingElement:
    return sigma_power(cfg, 0)


def sigma_power(cfg: GroupConfig, t: int) -> GroupRingElement:
    vals = [0] * cfg.order
    vals[t % cfg.order] = 1
    return GroupRingElement(cfg, vals)


def norm_element(cfg: GroupConfig) -> GroupRingElement:
    """Sum of all group elements."""
    return GroupRingElement(cfg, [1] * cfg.order)


def subgroup_norm(cfg: GroupConfig, i: int) -> GroupRingElement:
    """Norm of the subgroup of order p^i, generated by sigma^(p^(n-i))."""
    if not 0 <= i <= cfg.n:
        raise ValueError(f"subgroup level {i} outside [0, {cfg.n}]")
    vals = [0] * cfg.order
    step = cfg.p ** (cfg.n - i)
    for t in range(cfg.p**i):
        vals[(t * step) % cfg.order] = 1
    return GroupRingElement(cfg, vals)
