"""Self-test of the benchmark at tiny size; finishes in about a minute.

    python3 perfbench/selftest.py

From the repository root.  It proves four things:

1. every workload runs end to end through ``run.py`` at ``--size tiny``,
   untraced and traced, and prints every metric ``BENCHMARK.json``
   names, each with its declared unit;
2. each correctness check passes on true references and fails when its
   reference is tampered with;
3. the regime guard refuses a workload whose input left its regime,
   and ``dense-mirror`` when the kernel runs without NumPy;
4. in a directory holding only ``BENCHMARK.json`` and the benchmark,
   ``run.py`` exits with an error and prints no result.

Exits 0 when all hold, 1 on the first that does not.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from repro import open_session  # noqa: E402
from repro.core import abacus  # noqa: E402
from repro.sampling import ndadjacency  # noqa: E402
from repro.window import expand_window_stream  # noqa: E402

from perfbench import checks, workloads  # noqa: E402
from perfbench.served import served_round  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

TINY = workloads.SIZES["tiny"]
SCRATCH = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def run_benchmark(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_metrics_emitted() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    names = [w["name"] for w in declared["workloads"]]
    expect(names == list(workloads.WORKLOADS), f"workloads {names}")
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    wanted = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: per_layer,
    }
    for workload in names:
        for trace in (0, 1):
            done = run_benchmark(ROOT, workload, trace)
            expect(done.returncode == 0, f"{workload} trace {trace}: {done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                f"result keys {sorted(result)}",
            )
            expect(result["correct"] is True, f"{workload} trace {trace} incorrect")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{workload} trace {trace} metrics {got}")
            for key, metric in result["metrics"].items():
                expect(
                    isinstance(metric["value"], (int, float)),
                    f"{workload} {key} is not a number",
                )
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics with units")


def test_served_check(workdir: str) -> None:
    inputs = workloads.make_inputs("served-durable-sparse", 5, TINY)
    spec = inputs.spec(9)
    rnd = served_round(
        ROOT, workdir, spec, inputs.chunks, workloads.QUERY_RATE, Tracer(False), 0
    )
    views = checks.replay_views(spec, inputs.chunks).views
    expect(not checks.check_served(rnd.observed, rnd.final, rnd.recovered, views),
           "served check fails on the true replay")
    expect(rnd.observed, "the reader observed no views")
    seen = rnd.observed[len(rnd.observed) // 2][0]
    end = max(views)
    for offset in {seen, end}:
        tampered = dict(views)
        tampered[offset] += 1.0
        expect(checks.check_served(rnd.observed, rnd.final, rnd.recovered, tampered),
               f"served check passes a replay tampered at offset {offset}")
    other = checks.replay_views(inputs.spec(10), inputs.chunks).views
    expect(checks.check_served(rnd.observed, rnd.final, rnd.recovered, other),
           "served check passes a replay with another seed")
    print("ok   served check fails on a tampered replay")


def test_dense_check() -> None:
    inputs = workloads.make_inputs("dense-mirror", 5, TINY)
    session = open_session(inputs.spec(9))
    for chunk in inputs.chunks:
        session.ingest(chunk)
    batch = session.estimator
    element = checks.element_path(inputs.budget, 9, inputs.stream)
    para = checks.parabacus_path(inputs.budget, 9, inputs.chunks)
    expect(not checks.check_dense(batch, element, para),
           "dense check fails on true references")
    wrong_element = checks.element_path(inputs.budget, 10, inputs.stream)
    expect(checks.check_dense(batch, wrong_element, para),
           "dense check passes a per-element reference with another seed")
    short_element = checks.element_path(inputs.budget, 9, inputs.stream[:-1])
    expect(checks.check_dense(batch, short_element, para),
           "dense check passes a per-element reference missing an element")
    wrong_para = checks.parabacus_path(inputs.budget, 10, inputs.chunks)
    expect(checks.check_dense(batch, element, wrong_para),
           "dense check passes a Parabacus reference with another seed")
    print("ok   dense check fails on a tampered per-element or Parabacus reference")


def test_window_check() -> None:
    inputs = workloads.make_inputs("window-churn", 5, TINY)
    session = open_session(inputs.spec(9), window=inputs.window)
    for chunk in inputs.chunks:
        session.ingest(chunk)
    expanded = list(expand_window_stream(inputs.stream, window=inputs.window, strict=False))
    reference = checks.window_reference(inputs.budget, 9, expanded, workloads.CHUNK)
    expect(not checks.check_window(session.estimate, reference),
           "window check fails on the true expansion")
    dropped = checks.window_reference(
        inputs.budget, 9, _drop_first_deletion(expanded), workloads.CHUNK
    )
    reseeded = checks.window_reference(inputs.budget, 10, expanded, workloads.CHUNK)
    for label, bad in (
        ("drops an expiry deletion", dropped), ("uses another seed", reseeded)
    ):
        expect(checks.check_window(session.estimate, bad),
               f"window check passes a reference that {label}")
    print("ok   window check fails on a tampered expansion reference")


def _drop_first_deletion(expanded):
    index = next(i for i, e in enumerate(expanded) if e.is_deletion)
    return expanded[:index] + expanded[index + 1 :]


def expect_refused(size: workloads.Size, workdir: str, label: str) -> None:
    try:
        workloads.measure("dense-mirror", 5, 0.0, size, ROOT, workdir, Tracer(False))
    except workloads.RegimeError as exc:
        print(f"ok   regime guard refuses dense-mirror {label} ({exc})")
        return
    raise SelfTestFailure(f"dense-mirror {label} was not refused")


def test_regime_guard(workdir: str) -> None:
    sparse_dense = dataclasses.replace(TINY, dense_side=400, dense_edges=3000)
    expect_refused(sparse_dense, workdir, "on a sparse stream")
    # Without NumPy the kernel never takes the mirror: patch the flag
    # the kernel reads and the one the guard reads, as a NumPy-less
    # interpreter would have them.
    saved = ndadjacency.NUMPY_AVAILABLE, abacus.NUMPY_AVAILABLE
    ndadjacency.NUMPY_AVAILABLE = abacus.NUMPY_AVAILABLE = False
    try:
        expect_refused(TINY, workdir, "without NumPy")
    finally:
        ndadjacency.NUMPY_AVAILABLE, abacus.NUMPY_AVAILABLE = saved


def test_bare_directory() -> None:
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run_benchmark(bare, "dense-mirror", 0)
    lines = done.stdout.strip().splitlines()
    expect(done.returncode != 0, "run.py succeeded without the program")
    expect(not (lines and lines[-1].startswith("{")), "run.py printed a result")
    print(f"ok   without src/ run.py exits {done.returncode} and prints no result")


def main() -> int:
    workdir = os.path.join(SCRATCH, "work")
    os.makedirs(workdir)
    try:
        test_dense_check()
        test_window_check()
        test_served_check(workdir)
        test_regime_guard(workdir)
        test_bare_directory()
        test_metrics_emitted()
    except SelfTestFailure as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
