"""Machine-format battery and CLI reports, byte for byte.

tests/golden/<suite>.json holds fileio.machine_report of each battery
at its default settings.  A refactor of the search, the cohomology or
the module code must leave every verdict, reason string and check
order as it was; an intended change of a report regenerates the file
with

    PYTHONPATH=src python -c "from cyclomod import fileio; \
from cyclomod.suites import ALL_SUITES; \
print(fileio.machine_report(ALL_SUITES['<suite>']().to_dict()), end='')" \
    > tests/golden/<suite>.json

tests/golden/cli/<tag>.<command>.json holds the `--format machine`
stdout of the CLI commands whose output depends on the chosen Tate
representatives: transfer matrices (`cohomology --maps`), the level
diagram's sigma/alpha/beta matrices (`delta`) and a found diagram
isomorphism (`delta-compare`), on J-module documents at C11 (11^11 takes
the object-dtype path), C7 and C9, each at the default precision.  An
intended change regenerates them with

    PYTHONPATH=src python -c "from cyclomod import fileio; \
from cyclomod.config import GroupConfig; \
from cyclomod.constructions import j_module; \
[fileio.save_file(f'/tmp/{t}.J{e}.json', j_module(GroupConfig(p, n, N), e)) \
for t, p, n, N in (('p11n1', 11, 1, 11), ('p7n1', 7, 1, 11), ('p3n2', 3, 2, 12)) \
for e in (1, 2)]"
    cyclomod --format machine cohomology --maps /tmp/<tag>.J1.json \
        > tests/golden/cli/<tag>.cohomology.json
    cyclomod --format machine delta /tmp/<tag>.J2.json \
        > tests/golden/cli/<tag>.delta.json
    cyclomod --format machine delta-compare /tmp/p3n2.J1.json /tmp/p3n2.J1.json \
        > tests/golden/cli/p3n2.delta-compare.json

J1 against J1 is decided by the identity alone.  The
<tag>.delta-compare-sums.json files compare A = ideal + Z/p + Z/p^2
with B = Z/p^2 + ideal + Z/p, where the identity is rejected and the
search returns non-identity level matrices read from the constraint
basis: at C9 over two levels, at C8 over three (so alpha and beta
enter at two level pairs).  At C7 the identity is accepted, so C7 is
not used.  They are regenerated with

    PYTHONPATH=src python -c "from cyclomod import fileio; \
from cyclomod.config import GroupConfig; \
from cyclomod.modules import augmentation_ideal as I, direct_sum as S, \
trivial_module as T; \
[(fileio.save_file(f'/tmp/{t}.A.json', S(I(c), T(c, 1), T(c, 2)).module), \
fileio.save_file(f'/tmp/{t}.B.json', S(T(c, 2), I(c), T(c, 1)).module)) \
for t, c in (('p3n2', GroupConfig(3, 2, 12)), ('p2n3', GroupConfig(2, 3, 12)))]"
    cyclomod --format machine delta-compare /tmp/<tag>.A.json /tmp/<tag>.B.json \
        > tests/golden/cli/<tag>.delta-compare-sums.json

(`python -m cyclomod.cli` in place of `cyclomod` without an install).
The reports name no file, so the documents may live anywhere.

tests/golden/extensions.json holds fileio.machine_report of the
extension documents built by extension_documents() below: split,
carry, coboundary-shifted and re-extracted class tables on Z/p^2, the
group ring mod p and their sum, over six groups, and the class that
theorem1_verify extracts for the `ideal` and `J1+ideal` inputs at C9.
An intended change regenerates it with

    PYTHONPATH=src:tests python -c "from test_reports_stable import \
extension_documents; print(extension_documents(), end='')" \
        > tests/golden/extensions.json

tests/golden/modules.json holds save_text of the module documents
built by module_documents() below, and save_text of each reloaded:
the augmentation ideal, J_0..J_2, a three-summand direct sum, a
quotient of the group ring, the fixed points of the ideal and of the
quotient; seeded random
presentations with their fixed points and the fixed points of those;
and the kernels of hand-written extension documents.  Some of the
fixed points (of the quotient at p = 3, of random5.fixed at C4) lie
in derived ambients whose centered model is not a module, so they
are found on the ambient re-normalized from its synthesized
relations (modules._renormalized_lift).  An intended change regenerates it
with

    PYTHONPATH=src:tests python -c "from test_reports_stable import \
module_documents; print(module_documents(), end='')" \
        > tests/golden/modules.json
"""

import json
import random
from pathlib import Path

import pytest

from cyclomod import fileio
from cyclomod.cli import main
from cyclomod.config import GroupConfig
from cyclomod.constructions import (
    carry_cocycle,
    coboundary_shift,
    cocycle_from_section,
    j_module,
    splitting_module,
    theorem1_verify,
    zero_extension,
)
from cyclomod.arith import sigma_power
from cyclomod.modules import (
    PresentedModule,
    Submodule,
    augmentation_ideal,
    direct_sum,
    fixed_points,
    free_module,
    quotient_by_image,
    scalar_action_hom,
    trivial_module,
)
from cyclomod.suites import (
    ALL_SUITES,
    _pipeline_input,
    _random_cochain,
    random_presented_module,
)

GOLDEN = Path(__file__).parent / "golden"

# (p, n, precision) of the groups the CLI goldens run at
CLI_GROUPS = {"p11n1": (11, 1, 11), "p7n1": (7, 1, 11), "p3n2": (3, 2, 12), "p2n3": (2, 3, 12)}
CLI_DOCUMENTS = {
    "J1": lambda c: j_module(c, 1),
    "J2": lambda c: j_module(c, 2),
    "A": lambda c: direct_sum(
        augmentation_ideal(c), trivial_module(c, 1), trivial_module(c, 2)
    ).module,
    "B": lambda c: direct_sum(
        trivial_module(c, 2), augmentation_ideal(c), trivial_module(c, 1)
    ).module,
}
# (golden file stem, group tag, argv naming documents of CLI_DOCUMENTS)
CLI_CASES = [
    ("p11n1.cohomology", "p11n1", ["cohomology", "--maps", "J1"]),
    ("p11n1.delta", "p11n1", ["delta", "J2"]),
    ("p7n1.cohomology", "p7n1", ["cohomology", "--maps", "J1"]),
    ("p7n1.delta", "p7n1", ["delta", "J2"]),
    ("p3n2.cohomology", "p3n2", ["cohomology", "--maps", "J1"]),
    ("p3n2.delta", "p3n2", ["delta", "J2"]),
    ("p3n2.delta-compare", "p3n2", ["delta-compare", "J1", "J1"]),
    ("p3n2.delta-compare-sums", "p3n2", ["delta-compare", "A", "B"]),
    ("p2n3.delta-compare-sums", "p2n3", ["delta-compare", "A", "B"]),
]


@pytest.mark.parametrize("suite", sorted(ALL_SUITES))
def test_machine_report_matches_golden(suite):
    got = fileio.machine_report(ALL_SUITES[suite]().to_dict())
    assert got == (GOLDEN / f"{suite}.json").read_text()


@pytest.mark.parametrize("stem,tag,argv", CLI_CASES, ids=[s for s, _, _ in CLI_CASES])
def test_cli_machine_output_matches_golden(tmp_path, capsys, stem, tag, argv):
    docs = {}
    for name in sorted(set(argv) & set(CLI_DOCUMENTS)):
        docs[name] = str(tmp_path / f"{name}.json")
        fileio.save_file(docs[name], CLI_DOCUMENTS[name](GroupConfig(*CLI_GROUPS[tag])))
    code = main(["--format", "machine"] + [docs.get(a, a) for a in argv])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "cli" / f"{stem}.json").read_text()


# (p, n, precision); 7^11, just below 2^31, takes the limb-split int64 products
EXTENSION_GROUPS = [(3, 1, 11), (3, 2, 12), (2, 2, 12), (2, 3, 12), (5, 1, 10), (7, 1, 11)]


def extension_documents() -> str:
    """The extension documents pinned by tests/golden/extensions.json."""
    docs = {}
    for p, n, precision in EXTENSION_GROUPS:
        cfg = GroupConfig(p, n, precision)
        d = cfg.order
        cyclic = trivial_module(cfg, 2)
        ring = PresentedModule(cfg, ["x"], [((p,) + (0,) * (d - 1),)])
        norm = ring.element([(1,) * d])
        ds = direct_sum(ring, cyclic)
        # each kernel with a sigma-fixed value for its carry table
        kernels = {
            "Z/p^2": (cyclic, cyclic.generator(0)),
            "ring/p": (ring, norm),
            "ring/p+Z/p^2": (
                ds.module,
                ds.injections[0].apply(norm) + ds.injections[1].apply(cyclic.generator(0)),
            ),
        }
        for name, (kernel, fixed) in kernels.items():
            tag = f"p{p}n{n}.{name}"
            carry = carry_cocycle(kernel, fixed)
            shifted = coboundary_shift(carry, _random_cochain(kernel, random.Random(tag)))
            built = splitting_module(shifted)
            again = cocycle_from_section(
                built.projection, Submodule(built.kernel_hom.source, built.kernel_hom)
            )
            for kind, ext in (
                ("split", zero_extension(kernel)),
                ("carry", carry),
                ("shifted", shifted),
                ("reextracted", again),
            ):
                docs[f"{tag}.{kind}"] = fileio.to_dict(ext)
    for shape in ("ideal", "J1+ideal"):
        report = theorem1_verify(_pipeline_input(shape, GroupConfig(3, 2, 12)))
        docs[f"theorem1.p3n2.{shape}"] = fileio.to_dict(report.extension)
    return fileio.machine_report(docs)


def test_extension_documents_match_golden():
    assert extension_documents() == (GOLDEN / "extensions.json").read_text()


# (p, n, precision); 7^11, just below 2^31, takes the limb-split int64 products
MODULE_GROUPS = [(3, 1, 11), (3, 2, 12), (2, 2, 12), (7, 1, 11)]
# (kernel_invariants, action) of split extension documents; a 0 invariant
# kills its generator, and the actions need not satisfy sigma^d = 1
EXTENSION_KERNELS = [
    ([2, 0], [[1, 1], [0, 1]]),
    ([1, 0, 2], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
    ([0, 3, 1], [[2, -1, 0], [1, 1, 1], [0, 4, -1]]),
]


def module_documents() -> str:
    """The module documents pinned by tests/golden/modules.json."""
    docs = {}
    for p, n, precision in MODULE_GROUPS:
        cfg = GroupConfig(p, n, precision)
        ideal = augmentation_ideal(cfg)
        lam = free_module(cfg, 1)
        pushed = p * (sigma_power(cfg, 1) - sigma_power(cfg, 0))
        quotient = quotient_by_image(scalar_action_hom(lam, pushed)).module
        modules = {
            "ideal": ideal,
            **{f"J{e}": j_module(cfg, e) for e in range(3)},
            "sum": direct_sum(ideal, trivial_module(cfg, 1), trivial_module(cfg, 2)).module,
            "quotient": quotient,
            "ideal.fixed": fixed_points(ideal).module,
            "quotient.fixed": fixed_points(quotient).module,
        }
        for seed in range(6):
            module = random_presented_module(cfg, random.Random(seed))
            fixed = fixed_points(module).module
            modules[f"random{seed}"] = module
            modules[f"random{seed}.fixed"] = fixed
            modules[f"random{seed}.fixed.fixed1"] = fixed_points(fixed, 1).module
        for i, (invariants, action) in enumerate(EXTENSION_KERNELS):
            text = json.dumps({
                "kind": "extension", "p": p, "n": n, "precision": precision,
                "kernel_invariants": invariants, "action": action, "cocycle": "split",
            })
            modules[f"kernel{i}"] = fileio.load_text(text).kernel
        for name, module in modules.items():
            saved = fileio.save_text(module)
            docs[f"p{p}n{n}.{name}"] = [saved, fileio.save_text(fileio.load_text(saved))]
    return fileio.machine_report(docs)


def test_module_documents_match_golden():
    assert module_documents() == (GOLDEN / "modules.json").read_text()
