"""Seeded Zp[G]-lattices with something in them, shared by the tests.

suites.random_presented_module gives the zero module or a free one on
most seeds, so its syzygies are mostly zero.  Adding a trivial Z/p^e
summand first gives every seed a module with cohomology, and its
syzygies are lattices that are neither zero nor free.
"""

import random

from cyclomod.errors import PrecisionExhausted
from cyclomod.modules import (
    ModuleHom,
    direct_sum,
    free_module,
    kernel_of,
    minimal_generators,
    trivial_module,
)
from cyclomod.suites import random_presented_module

SEEDS = range(4)


def syzygy(module, extra=0, rng=None):
    """The kernel of a cover by the minimal generators plus extra random
    combinations of them, which adds a free summand per extra one."""
    gens = minimal_generators(module)
    gens += [sum((rng.randrange(9) * g for g in gens), module.zero()) for _ in range(extra)]
    free = free_module(module.cfg, len(gens))
    return kernel_of(ModuleHom.from_generator_images(free, module, gens)).module


def plus_free(module, copies):
    return direct_sum(module, free_module(module.cfg, copies)).module


def seeded(cfg, seed):
    """A seeded random module plus Z/p^e, and the generator that drew it."""
    rng = random.Random(seed)
    module = random_presented_module(cfg, rng)
    return direct_sum(module, trivial_module(cfg, exponent=rng.randrange(1, 3))).module, rng


def lattices(cfg, seeds=SEEDS):
    """Syzygies of seeded random modules plus Z/p^e, the same plus Lambda^a
    (as a direct sum and through a cover with spare generators), and
    second syzygies.  A syzygy that raises is the known kernel failure
    at p = 2 (ROADMAP item 23) and is left out."""
    for seed in seeds:
        module, rng = seeded(cfg, seed)
        try:
            omega = syzygy(module)
            yield from (omega, plus_free(omega, rng.randrange(1, 3)), syzygy(module, 1, rng))
            yield syzygy(omega)
        except PrecisionExhausted:
            continue
