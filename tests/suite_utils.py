"""Helpers shared across test suites (cluster, chaos, tenancy, ...).

Importable as ``suite_utils`` from any test module: pytest puts this
directory on ``sys.path`` because it holds the root ``conftest.py``.
"""

import importlib.util
import pathlib
import time


def wait_until(predicate, timeout=10.0, interval=0.01):
    """Poll ``predicate`` until truthy; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(
        f"condition not reached within {timeout}s: {predicate}"
    )


def load_recovery_harness():
    """The kill-at-every-offset harness of tests/store/test_recovery.py.

    The failover and chaos proofs reuse the recovery proof's acceptance
    matrix (SPECS), fingerprinting, and kill-point enumeration — loaded
    by path because pytest only puts sibling test directories on
    ``sys.path`` while collecting them.
    """
    here = pathlib.Path(__file__).resolve().parent
    path = here / "store" / "test_recovery.py"
    spec = importlib.util.spec_from_file_location(
        "repro_store_recovery_harness", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
