"""Machine-format battery reports, byte for byte.

tests/golden/<suite>.json holds fileio.machine_report of each battery
at its default settings.  A refactor of the search, the cohomology or
the module code must leave every verdict, reason string and check
order as it was; an intended change of a report regenerates the file
with

    PYTHONPATH=src python -c "from cyclomod import fileio; \
from cyclomod.suites import ALL_SUITES; \
print(fileio.machine_report(ALL_SUITES['<suite>']().to_dict()), end='')" \
    > tests/golden/<suite>.json
"""

from pathlib import Path

import pytest

from cyclomod import fileio
from cyclomod.suites import ALL_SUITES

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.filterwarnings("ignore:p = 2")
@pytest.mark.parametrize("suite", sorted(ALL_SUITES))
def test_machine_report_matches_golden(suite):
    got = fileio.machine_report(ALL_SUITES[suite]().to_dict())
    assert got == (GOLDEN / f"{suite}.json").read_text()
