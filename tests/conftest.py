import pytest
from hypothesis import settings

# Fixed examples, no example database: a result must not depend on what an
# earlier run left in .hypothesis/.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session", autouse=True)
def support_cache_dir(tmp_path_factory):
    """Keep the on-disk support cache in a temporary directory, so the
    suite neither reads nor writes the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        path = tmp_path_factory.mktemp("qlocal-cache")
        mp.setenv("QLOCAL_CACHE_DIR", str(path))
        yield path


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
