"""Settings shared by the whole test suite."""
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic; no deadline, since run time
# varies with the host.
settings.register_profile("hkit", derandomize=True, database=None, deadline=None)
settings.load_profile("hkit")

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Hypothesis also caches the constants it reads from the source under
    # test, in ./.hypothesis unless told otherwise; keep that cache in a
    # temporary directory that lives as long as the test session.
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()
