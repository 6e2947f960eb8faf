"""Benchmark-suite configuration.

Each benchmark regenerates a paper table/figure once (``pedantic`` with a
single round): the interesting output is the experiment result, not
timing statistics of the harness itself.  Findings land in the
committed ``results/`` only under ``pytest --record-results`` (the option
is declared in the repository-root ``conftest.py``).
"""

import sys
import os

sys.path.insert(0, os.path.dirname(__file__))

import common  # noqa: E402 — needs the path above


def pytest_configure(config):
    # The default covers runs rooted inside benchmarks/, which do not
    # load the repository-root conftest that declares the option.
    common.RECORD_RESULTS = config.getoption("--record-results",
                                             default=False)
