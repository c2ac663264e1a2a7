"""Group-ring arithmetic, plus the smith form over Z/p^N."""

import random

import numpy as np
import pytest

from cyclomod import linalg
from cyclomod.arith import (
    GroupRingElement,
    norm_element,
    sigma_power,
    subgroup_norm,
    zero_element,
)
from cyclomod.config import GroupConfig
from cyclomod.errors import PrecisionExhausted
from cyclomod.modules import free_module

from _oracles import cokernel_valuations_mod_pN, diagonal_matrix


def cfg(p=3, n=1, precision=6):
    return GroupConfig(p=p, n=n, precision=precision)


def test_group_ring_basic_identities():
    c = cfg()
    s = sigma_power(c, 1)
    one = sigma_power(c, 0)
    nm = norm_element(c)
    assert s * s * s == one
    assert (s - one) * nm == zero_element(c)
    assert nm * nm == 3 * nm
    assert sum(nm.values) % c.modulus == 3
    assert sum((s - one).values) % c.modulus == 0


def test_group_ring_convolution_order():
    c = cfg(n=2, precision=8)
    assert sigma_power(c, 4) * sigma_power(c, 7) == sigma_power(c, 2)


def test_subgroup_norm_support():
    c = cfg(n=2, precision=8)
    nm1 = subgroup_norm(c, 1)
    assert nm1.values == (1, 0, 0, 1, 0, 0, 1, 0, 0)
    assert subgroup_norm(c, 0) == sigma_power(c, 0)
    assert subgroup_norm(c, 2) == norm_element(c)


def test_group_ring_action_is_cyclic_shift():
    c = cfg()
    m = free_module(c, 1).act_matrix(sigma_power(c, 1))
    expected = np.zeros((3, 3), dtype=m.dtype)
    expected[1, 0] = expected[2, 1] = expected[0, 2] = 1
    assert np.array_equal(m, expected)


def test_group_ring_action_respects_products():
    c = cfg(n=2, precision=8)
    ring = free_module(c, 1)
    rng = random.Random(9)
    for _ in range(5):
        a = GroupRingElement(c, [rng.randrange(c.modulus) for _ in range(9)])
        b = GroupRingElement(c, [rng.randrange(c.modulus) for _ in range(9)])
        prod = (ring.act_matrix(a) @ ring.act_matrix(b)) % c.modulus
        assert np.array_equal(prod, ring.act_matrix(a * b))


def test_smith_normal_form_frozen_example():
    c = linalg.Context(3, 5, 1)
    a = linalg.mat(c, [[3, 1], [0, 3]])
    sm = linalg.smith(c, a)
    assert sm.dvals == [0, 2]
    d = linalg.matmul(c, linalg.matmul(c, sm.left, a), sm.right)
    assert d[0, 0] == 1 and d[1, 1] == 9
    assert d[0, 1] == 0 and d[1, 0] == 0


def test_smith_normal_form_saturated_slot():
    c = linalg.Context(3, 4, 1)
    sm = linalg.smith(c, [[0, 0], [0, 0]])
    assert sm.dvals == []
    assert np.array_equal(diagonal_matrix(c, sm), linalg.mat(c, [[0, 0], [0, 0]]))


def test_smith_normal_form_guard():
    with pytest.raises(PrecisionExhausted):
        linalg.smith(linalg.Context(3, 4, 2), [[27]])


def test_smith_normal_form_matches_oracle():
    rng = random.Random(31)
    c = linalg.Context(3, 6, 1)
    for _ in range(15):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        rows = [[rng.randrange(-30, 31) for _ in range(n)] for _ in range(m)]
        try:
            sm = linalg.smith(c, rows)
        except PrecisionExhausted:
            continue
        got = sorted(v for v in sm.dvals if v > 0)
        got += [c.precision] * (m - len(sm.dvals))
        assert sorted(got) == cokernel_valuations_mod_pN(c.p, c.precision, rows)
