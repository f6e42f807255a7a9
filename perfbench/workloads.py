"""The three workloads: inputs, measured rounds, checks and regime guards.

Why these three (each stresses a different layer; see README.md):

* ``served-durable-sparse`` — a sparse power-law stream served by a
  durable ``python -m repro serve`` subprocess over the binary wire.
  The kernel is cheap here (no batch takes the NumPy mirror), so the
  wire, the writer-thread hop, the WAL and view publishing dominate.
* ``dense-mirror`` — a dense uniform stream, in process, volatile.
  Nearly every batch takes the NumPy mirror and intersection work is
  nearly all of the time; serve and store do nothing.
* ``window-churn`` — the sparse stream through an in-process count
  window slightly larger than the budget: every element past the window
  synthesizes a deletion, so window expansion and sample mutation
  dominate.

A run repeats rounds until ``--seconds`` have passed; each round is a
fresh session (or server) over the same seeded stream with its own
estimator seed, and timings are pooled or take the median over rounds.
"""

from __future__ import annotations

import os
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro import open_session, restore_session
from repro.window import expand_window_stream

from perfbench import checks, streams
from perfbench.served import served_round, vmhwm_mb
from perfbench.tracer import Tracer, percentile

WORKLOADS = ("served-durable-sparse", "dense-mirror", "window-churn")
BUDGET = 4000
CHUNK = 256
#: Served ``estimate`` requests per second (README.md gives the basis).
QUERY_RATE = 200.0
#: In-process reads timed together after each chunk, reported per read.
READ_BLOCK = 32
DELETION_SHARE = 0.2
SETUP_PROBES = 5


class RegimeError(Exception):
    """The generated input left the regime its workload exists for."""


@dataclass(frozen=True)
class Size:
    """Stream dimensions of one run size (``full`` or the self-test's ``tiny``)."""

    sparse_side: int
    served_edges: int
    window_edges: int
    sparse_budget: int
    window: int
    dense_side: int
    dense_edges: int
    dense_budget: int


# The dense stream must be several times longer than it takes to fill
# the sample past the mirror's density cutoff (mean sampled degree 16),
# or the mirror share guard refuses it; that is why even the tiny dense
# stream has ~11k elements.
SIZES = {
    "full": Size(
        sparse_side=2000, served_edges=30000, window_edges=10000,
        sparse_budget=BUDGET, window=4400,
        dense_side=150, dense_edges=15000, dense_budget=BUDGET,
    ),
    "tiny": Size(
        sparse_side=400, served_edges=1500, window_edges=1500,
        sparse_budget=200, window=220,
        dense_side=100, dense_edges=9500, dense_budget=1800,
    ),
}


@dataclass
class Inputs:
    """One workload's seeded stream and per-round estimator seeds."""

    name: str
    stream: List
    chunks: List[List]
    budget: int
    window: int  # 0: no window
    rng: random.Random

    def spec(self, seed: int) -> str:
        return f"abacus:budget={self.budget},seed={seed}"


def make_inputs(name: str, seed: int, size: Size) -> Inputs:
    """The seeded stream of workload ``name`` at ``size``."""
    rng = random.Random(f"{name}:{seed}")
    budget = size.sparse_budget
    if name == "dense-mirror":
        budget = size.dense_budget
        edges = streams.erdos_renyi_edges(
            rng, size.dense_side, size.dense_side, size.dense_edges
        )
    else:
        count = size.served_edges if name == "served-durable-sparse" else size.window_edges
        edges = streams.chung_lu_edges(
            rng, size.sparse_side, size.sparse_side, count, exponent=2.2
        )
    stream = streams.with_deletions(rng, edges, DELETION_SHARE)
    window = size.window if name == "window-churn" else 0
    return Inputs(
        name, stream, streams.chunked(stream, CHUNK), budget, window, rng
    )


# ----------------------------------------------------------------------
# In-process rounds
# ----------------------------------------------------------------------
@dataclass
class InprocRound:
    """What one in-process round measured and observed."""

    ingest_s: float
    batch_ms: List[float]
    query_ms: List[float]
    recovery_s: float
    estimate: float
    recovered: float
    elements: int
    batches: int
    mirror_batches: int
    mutations: int
    attempted: int
    failed: int
    session: object


def inproc_round(
    inputs: Inputs, seed: int, workdir: str, tracer: Tracer
) -> InprocRound:
    """One in-process round: open, ingest chunk by chunk, snapshot, restore."""
    with tracer.span("loadgen.round"):
        with tracer.span("api.open_session"):
            session = open_session(inputs.spec(seed), window=inputs.window or None)
        estimator = session.estimator
        kernel = estimator.inner if inputs.window else estimator
        sample = kernel.sampler.sample
        version = sample.version
        batch_ms: List[float] = []
        query_ms: List[float] = []
        mirror = 0
        for chunk in inputs.chunks:
            mirror += checks.mirror_engaged(sample)
            t0 = time.perf_counter()
            with tracer.span("api.ingest"):
                session.ingest(chunk)
            batch_ms.append((time.perf_counter() - t0) * 1e3)
            # The read path itself, timed from its own call: one block
            # of reads after every chunk, reported per read.
            with tracer.span("api.estimate"):
                t0 = time.perf_counter()
                for _ in range(READ_BLOCK):
                    session.estimate
                query_ms.append((time.perf_counter() - t0) * 1e3 / READ_BLOCK)
        path = os.path.join(workdir, "snapshot.json")
        session.save(path)
        t0 = time.perf_counter()
        with tracer.span("api.restore_session"):
            restored = restore_session(path)
        recovery_s = time.perf_counter() - t0
    result = InprocRound(
        # Time inside Session.ingest only: the benchmark's own per-chunk
        # regime probe and timers stay out of ingest_eps.
        ingest_s=sum(batch_ms) / 1e3,
        batch_ms=batch_ms,
        query_ms=query_ms,
        recovery_s=recovery_s,
        estimate=session.estimate,
        recovered=restored.estimate,
        elements=session.elements,
        batches=len(inputs.chunks),
        mirror_batches=mirror,
        mutations=sample.version - version,
        attempted=len(inputs.chunks) + 2 + READ_BLOCK * len(query_ms),
        failed=0,
        session=session,
    )
    restored.close()
    return result


def setup_probe(root: str, spec: str, window: int) -> float:
    """Seconds from spawning a fresh interpreter to an open session."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(root, "perfbench", "ready.py"), spec, str(window)],
        cwd=root, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        line = proc.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - started
        if line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        if proc.wait(timeout=60.0) != 0:
            raise RuntimeError("set-up probe exited with an error")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return elapsed


# ----------------------------------------------------------------------
# A whole run
# ----------------------------------------------------------------------
@dataclass
class Measured:
    """Everything a run measured, before it becomes metrics."""

    inputs: Inputs
    rounds: List
    seeds: List[int]
    setup_s: List[float]
    peak_rss_mb: float
    failures: List[str]
    regime: Dict[str, float]
    rel_error: float
    expanded: Optional[List] = None  # window-churn: the reference expansion


def run_rounds(
    seconds: float, make_round: Callable[[int], object], min_rounds: int = 2
) -> List:
    """Call ``make_round(i)`` until ``seconds`` have passed (and ``min_rounds``)."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        rounds.append(make_round(len(rounds)))
    return rounds


def measure(
    name: str, seed: int, seconds: float, size: Size, root: str, workdir: str,
    tracer: Tracer, alternate_trace: bool = False,
) -> Measured:
    """Run ``name``'s rounds for ``seconds``, then check and guard them.

    With ``alternate_trace`` the tracer records only odd rounds, so the
    even rounds measure the same code untraced.
    """
    inputs = make_inputs(name, seed, size)
    seeds: List[int] = []

    def begin_round(index: int) -> int:
        """Switch tracing for round ``index``; return its estimator seed."""
        if alternate_trace:
            tracer.enabled = index % 2 == 1
        seeds.append(inputs.rng.randrange(1, 2**31))
        return seeds[index]

    if name == "served-durable-sparse":
        rounds = run_rounds(
            seconds,
            lambda i: served_round(
                root, workdir, inputs.spec(begin_round(i)), inputs.chunks,
                QUERY_RATE, tracer, i,
            ),
        )
        setup = [r.setup_s for r in rounds]
        peak_rss = statistics.median(r.peak_rss_mb for r in rounds)
        return _finish_served(inputs, rounds, seeds, setup, peak_rss)
    setup = [
        setup_probe(root, inputs.spec(0), inputs.window)
        for _ in range(SETUP_PROBES)
    ]

    def one_round(index: int) -> InprocRound:
        rnd = inproc_round(inputs, begin_round(index), workdir, tracer)
        if index:
            rnd.session = None  # only round 0 is checked against references
        return rnd

    rounds = run_rounds(seconds, one_round)
    peak_rss = vmhwm_mb()
    if name == "dense-mirror":
        return _finish_dense(inputs, rounds, seeds, setup, peak_rss)
    return _finish_window(inputs, rounds, seeds, setup, peak_rss)


def _finish_served(inputs, rounds, seeds, setup, peak_rss) -> Measured:
    failures: List[str] = []
    mirror = mutations = batches = elements = 0
    for seed, rnd in zip(seeds, rounds):
        replay = checks.replay_views(inputs.spec(seed), inputs.chunks)
        failures += checks.check_served(
            rnd.observed, rnd.final, rnd.recovered, replay.views
        )
        mirror += replay.mirror_batches
        batches += replay.batches
        mutations += replay.mutations
        elements += replay.elements
    exact = streams.exact_butterflies(streams.live_edges_after(inputs.stream))
    regime = _regime(inputs, mirror / batches, mutations / elements)
    if regime["mirror_share"] != 0.0:
        raise RegimeError(
            f"served-durable-sparse needs mirror share 0, got {regime['mirror_share']:.3f}"
        )
    rel = _rel_error([r.final["estimate"] for r in rounds], exact)
    return Measured(inputs, rounds, seeds, setup, peak_rss, failures, regime, rel)


def _finish_dense(inputs, rounds, seeds, setup, peak_rss) -> Measured:
    regime = _inproc_regime(inputs, rounds)
    if regime["mirror_share"] < 0.8:
        raise RegimeError(
            f"dense-mirror needs mirror share >= 0.8, got {regime['mirror_share']:.3f}"
        )
    failures = _inproc_failures(inputs, rounds)
    element = checks.element_path(inputs.budget, seeds[0], inputs.stream)
    para = checks.parabacus_path(inputs.budget, seeds[0], inputs.chunks)
    failures += checks.check_dense(rounds[0].session.estimator, element, para)
    exact = streams.exact_butterflies(streams.live_edges_after(inputs.stream))
    rel = _rel_error([r.estimate for r in rounds], exact)
    return Measured(inputs, rounds, seeds, setup, peak_rss, failures, regime, rel)


def _finish_window(inputs, rounds, seeds, setup, peak_rss) -> Measured:
    regime = _inproc_regime(inputs, rounds)
    regime["peak_live_per_budget"] = inputs.window / inputs.budget
    if inputs.window <= inputs.budget:
        raise RegimeError(
            "window-churn needs a window larger than the budget, or the "
            "sample holds the whole window and nothing is estimated"
        )
    if regime["mutations_per_el"] < 1.0:
        raise RegimeError(
            "window-churn needs >= 1 sample mutation per element, got "
            f"{regime['mutations_per_el']:.3f}"
        )
    failures = _inproc_failures(inputs, rounds)
    expanded = list(
        expand_window_stream(inputs.stream, window=inputs.window, strict=False)
    )
    reference = checks.window_reference(inputs.budget, seeds[0], expanded, CHUNK)
    failures += checks.check_window(rounds[0].estimate, reference)
    exact = streams.exact_butterflies(streams.live_edges_after(expanded))
    rel = _rel_error([r.estimate for r in rounds], exact)
    return Measured(
        inputs, rounds, seeds, setup, peak_rss, failures, regime, rel, expanded
    )


def _inproc_failures(inputs: Inputs, rounds: Sequence[InprocRound]) -> List[str]:
    """Per-round checks every in-process round gets: counts and restore."""
    failures = []
    for rnd in rounds:
        if rnd.elements != len(inputs.stream):
            failures.append(
                f"session counted {rnd.elements} of {len(inputs.stream)} elements"
            )
        if rnd.recovered != rnd.estimate:
            failures.append(
                f"restored estimate {rnd.recovered!r} != {rnd.estimate!r}"
            )
    return failures


def _inproc_regime(inputs: Inputs, rounds: Sequence[InprocRound]) -> Dict[str, float]:
    batches = sum(r.batches for r in rounds)
    elements = sum(r.elements for r in rounds)
    return _regime(
        inputs,
        sum(r.mirror_batches for r in rounds) / batches,
        sum(r.mutations for r in rounds) / elements,
    )


def _regime(inputs: Inputs, mirror_share: float, mutations_per_el: float) -> Dict[str, float]:
    share = streams.deletion_share(inputs.stream)
    peak = streams.peak_live_edges(inputs.stream)
    if share <= 0.0:
        raise RegimeError(f"{inputs.name} needs deletions in its stream")
    if peak <= inputs.budget:
        raise RegimeError(
            f"{inputs.name} needs more live edges ({peak}) than its budget "
            f"({inputs.budget}), or nothing is sampled"
        )
    return {
        "mirror_share": mirror_share,
        "mutations_per_el": mutations_per_el,
        "deletion_share": share,
        "peak_live_per_budget": peak / inputs.budget,
    }


def _rel_error(estimates: Sequence[float], exact: int) -> float:
    """Mean relative error of the rounds' estimates against the exact count.

    A reference with no butterflies (possible for a tiny window) counts
    the absolute error instead.
    """
    return statistics.fmean(abs(e - exact) / max(exact, 1) for e in estimates)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def ingest_eps(rounds: Sequence, elements: int) -> float:
    """Median over rounds of elements per second of ingest time."""
    return statistics.median(elements / r.ingest_s for r in rounds)


def end_to_end(measured: Measured) -> Dict[str, Dict[str, float]]:
    """The end-to-end metrics of an untraced run, with their units."""
    rounds = measured.rounds
    elements = len(measured.inputs.stream)
    batch = [ms for r in rounds for ms in r.batch_ms]
    query = [ms for r in rounds for ms in r.query_ms]
    values = {
        "ingest_eps": (ingest_eps(rounds, elements), "el/s"),
        "ingest_batch_p50_ms": (percentile(batch, 0.5), "ms"),
        "ingest_batch_p90_ms": (percentile(batch, 0.9), "ms"),
        "query_p50_ms": (percentile(query, 0.5), "ms"),
        "query_p90_ms": (percentile(query, 0.9), "ms"),
        "recovery_s": (statistics.median(r.recovery_s for r in rounds), "s"),
        "peak_rss_mb": (measured.peak_rss_mb, "MiB"),
        "setup_s": (statistics.median(measured.setup_s), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def informational(measured: Measured) -> Dict[str, float]:
    """Figures printed for information only (no bound applies)."""
    rounds = measured.rounds
    batch = [ms for r in rounds for ms in r.batch_ms]
    query = [ms for r in rounds for ms in r.query_ms]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    info = {
        "rounds": len(rounds),
        "ingest_batches": len(batch),
        "queries": len(query),
        "ingest_batch_p99_ms": percentile(batch, 0.99),
        "query_p99_ms": percentile(query, 0.99),
        "rel_error": measured.rel_error,
        "failed_share": failed / attempted,
        **{f"regime.{k}": v for k, v in measured.regime.items()},
    }
    if measured.inputs.name == "served-durable-sparse":
        info["query_late_p90_ms"] = query_late_p90_ms(rounds)
    return info


def query_late_p90_ms(rounds: Sequence) -> float:
    """p90 of how late the served reader sent, over served rounds."""
    return percentile([ms for r in rounds for ms in r.late_ms], 0.9)


def result(measured: Measured, metrics: Dict[str, Dict[str, float]]) -> Dict:
    """Print the informational figures and failures; build the result object."""
    name = measured.inputs.name
    for key, value in informational(measured).items():
        print(f"{name} {key} {value:.6g}")
    for failure in measured.failures:
        print(f"{name} CHECK FAILED: {failure}")
    rounds = measured.rounds
    return {
        "correct": not measured.failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
