"""Hypothesis settings: derandomized examples and no example database, so a
run is reproducible and needs no network. Hypothesis's other on-disk cache
(constants parsed from source files) goes to a temporary directory removed at
exit, so a test run writes no ``.hypothesis/`` into the checkout."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_STORAGE = tempfile.TemporaryDirectory(prefix="particle-em-hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)

settings.register_profile("particle-em", derandomize=True, database=None, deadline=None)
settings.load_profile("particle-em")
