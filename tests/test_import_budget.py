"""Each entry point imports only the modules its work needs.

Every case runs in a fresh interpreter, because ``sys.modules`` in the
test process already holds whatever earlier tests imported.  The cases
pin the cold-start contract of ``docs/architecture.md`` ("What each
entry point loads"): a volatile windowed session never loads NumPy, the
serve stack or the shard backends; a single-session server never loads
the tenant catalog, the cluster or the experiment harness; and a batch
dense enough for the NumPy mirror still takes it.
"""

from __future__ import annotations

import textwrap

import pytest
from suite_utils import run_fresh

from repro.sampling.ndadjacency import NUMPY_AVAILABLE


def loaded(names) -> str:
    """Code that prints which of ``names`` ended up in sys.modules."""
    return (
        "import json, sys\n"
        f"print(json.dumps(sorted(m for m in {list(names)!r} "
        "if m in sys.modules)))\n"
    )


def test_windowed_session_loads_no_optional_stack():
    forbidden = [
        "numpy",
        "asyncio",
        "ssl",
        "multiprocessing",
        "repro.serve",
        "repro.tenancy",
        "repro.cluster",
        "repro.shard.backends",
        "repro.experiments",
    ]
    code = """
        from repro import insertion, deletion, open_session

        with open_session("abacus:budget=200,seed=1", window=220) as s:
            for i in range(1500):
                s.ingest(insertion(i % 97, (i * 7) % 89))
                if i % 5 == 4:
                    s.ingest(deletion(i % 97, (i * 7) % 89))
            assert s.estimate >= 0.0
    """
    assert run_fresh(textwrap.dedent(code) + loaded(forbidden)) == []


def test_server_loads_no_tenancy_cluster_or_experiments(tmp_path):
    forbidden = [
        "numpy",
        "multiprocessing",
        "repro.tenancy",
        "repro.cluster",
        "repro.experiments",
    ]
    code = f"""
        import repro.cli
        from repro.api import open_session
        from repro.serve.server import EstimatorServer

        session = open_session(
            "abacus:budget=200,seed=1", durable_dir={str(tmp_path)!r}
        )
        server = EstimatorServer(session)
        session.close()
    """
    assert run_fresh(textwrap.dedent(code) + loaded(forbidden)) == []


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="needs numpy")
def test_dense_batch_still_takes_the_numpy_mirror():
    # K_{20,20} fills the sample to mean degree 20 >= VECTOR_CUTOFF, so
    # the second batch must run on the mirror — importing NumPy on the
    # way — and land exactly where the per-element path does.
    code = """
        import json, sys
        from repro import Abacus, deletion, insertion
        from repro.core.counting import VECTOR_CUTOFF

        edges = [(u, 100 + v) for u in range(20) for v in range(20)]
        assert 2 * len(edges) >= VECTOR_CUTOFF * 40
        churn = [deletion(u, v) for u, v in edges[::3]]
        churn += [insertion(u, v) for u, v in edges[::3]]
        fill = [insertion(u, v) for u, v in edges]

        batched = Abacus(budget=1000, seed=3)
        batched.process_batch(fill)
        before = "numpy" in sys.modules
        batched.process_batch(churn)
        element = Abacus(budget=1000, seed=3)
        for e in fill + churn:
            element.process(e)
        print(json.dumps({
            "numpy_before": before,
            "numpy_after": "numpy" in sys.modules,
            "mirror": batched._mirror is not None,
            "equal": batched.estimate == element.estimate,
            "work_equal": batched.total_work == element.total_work,
            "estimate": batched.estimate,
        }))
    """
    result = run_fresh(code)
    assert result["numpy_before"] is False
    assert result["numpy_after"] is True
    assert result["mirror"] is True
    assert result["equal"] and result["work_equal"]
    assert result["estimate"] > 0.0
