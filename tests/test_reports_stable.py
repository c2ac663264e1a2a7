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
isomorphism (`delta-compare`), on J-module documents at C7 (the
object-dtype path) and at C9, each at the default precision.  An
intended change regenerates them with

    PYTHONPATH=src python -c "from cyclomod import fileio; \
from cyclomod.config import GroupConfig; \
from cyclomod.constructions import j_module; \
[fileio.save_file(f'/tmp/{t}.J{e}.json', j_module(GroupConfig(p, n, N), e)) \
for t, p, n, N in (('p7n1', 7, 1, 11), ('p3n2', 3, 2, 12)) for e in (1, 2)]"
    cyclomod --format machine cohomology --maps /tmp/<tag>.J1.json \
        > tests/golden/cli/<tag>.cohomology.json
    cyclomod --format machine delta /tmp/<tag>.J2.json \
        > tests/golden/cli/<tag>.delta.json
    cyclomod --format machine delta-compare /tmp/p3n2.J1.json /tmp/p3n2.J1.json \
        > tests/golden/cli/p3n2.delta-compare.json

(`python -m cyclomod.cli` in place of `cyclomod` without an install).
The reports name no file, so the documents may live anywhere.
"""

from pathlib import Path

import pytest

from cyclomod import fileio
from cyclomod.cli import main
from cyclomod.config import GroupConfig
from cyclomod.constructions import j_module
from cyclomod.suites import ALL_SUITES

GOLDEN = Path(__file__).parent / "golden"

CLI_GROUPS = {"p7n1": GroupConfig(7, 1, 11), "p3n2": GroupConfig(3, 2, 12)}
CLI_CASES = [
    ("p7n1", "cohomology", ["cohomology", "--maps", "J1"]),
    ("p7n1", "delta", ["delta", "J2"]),
    ("p3n2", "cohomology", ["cohomology", "--maps", "J1"]),
    ("p3n2", "delta", ["delta", "J2"]),
    ("p3n2", "delta-compare", ["delta-compare", "J1", "J1"]),
]


@pytest.mark.filterwarnings("ignore:p = 2")
@pytest.mark.parametrize("suite", sorted(ALL_SUITES))
def test_machine_report_matches_golden(suite):
    got = fileio.machine_report(ALL_SUITES[suite]().to_dict())
    assert got == (GOLDEN / f"{suite}.json").read_text()


@pytest.mark.parametrize("tag,command,argv", CLI_CASES, ids=[f"{t}.{c}" for t, c, _ in CLI_CASES])
def test_cli_machine_output_matches_golden(tmp_path, capsys, tag, command, argv):
    docs = {}
    for name in sorted(set(argv) & {"J1", "J2"}):
        docs[name] = str(tmp_path / f"{name}.json")
        fileio.save_file(docs[name], j_module(CLI_GROUPS[tag], int(name[1])))
    code = main(["--format", "machine"] + [docs.get(a, a) for a in argv])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "cli" / f"{tag}.{command}.json").read_text()
