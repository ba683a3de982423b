import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# One line per acceptance criterion, filled in by test_acceptance.py and
# echoed after the run so the checklist is visible without -s.
ACCEPTANCE_LINES = []

# test_acceptance.py reaches this module as ``import conftest``.  When
# bench/tests is collected in the same session, its conftest.py is imported
# under the same top-level name after this one and replaces it in
# sys.modules, so the name is pointed back here before collection starts.
_THIS = sys.modules[__name__]


def pytest_sessionstart(session):
    sys.modules["conftest"] = _THIS


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
