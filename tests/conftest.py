"""Hypothesis settings shared by the property tests.

Examples are derandomized, so the suite is deterministic, and there is no
deadline, because a loaded machine would make slow examples fail.  Each
test sets only its own ``max_examples``.  Hypothesis keeps no example
database, and the files it still caches (constants read from the package
sources) go to a temporary directory removed after the run, so a run
leaves no ``.hypothesis/`` directory behind.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("mslqr", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("mslqr")


def pytest_configure(config):
    home = tempfile.mkdtemp(prefix="mslqr-hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)
