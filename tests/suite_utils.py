"""Helpers shared across test suites (cluster, chaos, tenancy, ...).

Importable as ``suite_utils`` from any test module: pytest puts this
directory on ``sys.path`` because it holds the root ``conftest.py``.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import textwrap
import time

import repro


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


def run_fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; return the JSON it prints last.

    The child imports the same ``repro`` as this process, whether that
    comes from ``src`` or an installed package.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])
