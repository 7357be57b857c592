"""Repo-level pytest configuration.

Two things live here because they must be shared by *both* test trees
(``tests/`` and ``benchmarks/``):

* the ``--update-golden`` flag consumed by ``tests/golden`` (must be
  registered in an initial conftest, which only the rootdir one is
  guaranteed to be),
* the shared ``rng`` fixture — the single way test code obtains a
  :class:`numpy.random.Generator`.  It is seeded from the requesting
  test's node id, so every test gets an independent stream that is
  byte-stable across reruns and under ``pytest -p no:randomly`` /
  randomized orderings alike,
* the ``slow`` marker and its ``--runslow`` gate — soak-class tests
  (minutes of wall clock; the serve engine's 5k-frame soak) are skipped
  from the tier-1 run and exercised by the nightly CI workflow,
* the autouse ``leak_guard`` — every test runs inside a
  :class:`repro.analysis.sanitize.LeakGuard`, so a test that forgets
  to stop a gateway (leaking its pump thread), drops a child process,
  or never closes a socket (leaking descriptors) fails with a named
  leak instead of poisoning later tests.
"""

import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent / "src"))

from repro.analysis.sanitize import LeakGuard  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the frozen byte-level fixtures under "
        "tests/golden/data/ instead of comparing against them",
    )
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked slow (nightly soak tests)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: soak-class test, skipped unless --runslow is given "
        "(run nightly in CI)",
    )
    config.addinivalue_line(
        "markers",
        "no_leak_check: opt this test out of the autouse leak guard "
        "(for tests that intentionally leave resources behind)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def rng(request) -> np.random.Generator:
    """Deterministic per-test RNG (seeded from the test's node id)."""
    seed = zlib.crc32(request.node.nodeid.encode())
    return np.random.default_rng(seed)


@pytest.fixture(autouse=True)
def leak_guard(request):
    """Fail any test that leaks threads, child processes or fds.

    Tolerant by design (daemon helpers and stdlib feeder threads are
    whitelisted, descriptor growth has slack for import-time caching);
    the sanitizer's own unit tests exercise the strict settings.  Tests
    that *intentionally* leave resources behind can opt out with
    ``@pytest.mark.no_leak_check``.
    """
    if request.node.get_closest_marker("no_leak_check"):
        yield
        return
    with LeakGuard(grace_s=5.0, fd_tolerance=16) as guard:
        yield
    report = guard.check()
    if not report.ok:
        pytest.fail(
            f"resource leak detected by repro.analysis.sanitize:\n"
            f"{report.describe()}",
            pytrace=False,
        )
