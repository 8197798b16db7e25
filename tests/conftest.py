import calendar
from pathlib import Path

import pytest
from hypothesis import settings

from tracerecon import merge_packs, parse_signature_pack

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
PACKAGED_SIG_DIR = ROOT / "src" / "tracerecon" / "data" / "signatures"

# Hypothesis loads its "ci" profile when CI is set, and that profile replays
# the same examples on every run.  Registering the loaded profile again, with
# fresh examples, reloads it; print_blob still prints each failure's
# @reproduce_failure line.
settings.register_profile("ci", parent=settings.get_profile("ci"), derandomize=False)


def epoch(y, mo, d, h, mi, s):
    """UTC calendar time to epoch seconds."""
    return calendar.timegm((y, mo, d, h, mi, s, 0, 0, 0))


@pytest.fixture(scope="session")
def ff3_pack():
    return parse_signature_pack((PACKAGED_SIG_DIR / "ff3.sig").read_text())


@pytest.fixture(scope="session")
def ie8_pack():
    return parse_signature_pack((PACKAGED_SIG_DIR / "ie8.sig").read_text())


@pytest.fixture(scope="session")
def browser_pack(ff3_pack, ie8_pack):
    return merge_packs([ff3_pack, ie8_pack])


@pytest.fixture(scope="session")
def worked_example_pack():
    return parse_signature_pack((FIXTURES / "worked_example.sig").read_text())
