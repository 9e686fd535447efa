import pytest
from hypothesis import settings

# Fixed examples, no example database: a result must not depend on what an
# earlier run left in .hypothesis/.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    """Record a one-line verdict for an acceptance criterion and assert it."""

    def record(criterion: int, ok: bool, detail: str):
        line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES,
                           key=lambda l: int(l.split(":")[0].split()[1])):
            terminalreporter.write_line(line)
