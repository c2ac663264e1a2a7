"""The group ring Zp[G] for G cyclic of order p^n.

Elements are coefficient tuples of residues mod p^N in the basis
1, sigma, ..., sigma^(p^n - 1).  Valuations of residues are
linalg.valuation_int.
"""

from __future__ import annotations

from .config import GroupConfig


class GroupRingElement:
    """Element of Zp[G] written sum_t c_t * sigma^t, sigma a fixed generator.

    Coefficients are residues mod p^N in the order t = 0 .. p^n - 1.
    """

    __slots__ = ("cfg", "values")

    def __init__(self, cfg: GroupConfig, values):
        d, mod = cfg.order, cfg.modulus
        vals = [int(v) % mod for v in values]
        if len(vals) != d:
            raise ValueError(f"need {d} coefficients, got {len(vals)}")
        self.cfg = cfg
        self.values = tuple(vals)

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
