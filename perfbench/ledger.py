"""The traced run: per-layer ledger for one workload's stream.

A traced run does two things.

1. It runs the workload's own rounds, alternating untraced and traced
   rounds, so ``trace.ingest_eps`` next to ``trace.untraced_ingest_eps``
   states what the spans cost.
2. It drives the same stream through each layer stack in turn — bare
   kernel (per-element, batch, ``Parabacus``), volatile ``Session``,
   window, codec, durable ``Session`` with checkpoint and recovery, and
   one served round — and reports each layer's cost against the layer
   below it.  Every pass is also checked against the one below it, so
   the ledger doubles as a cross-layer equivalence check.

Spans (``perfbench.tracer``) wrap every call into the program; the
trace file written at the end holds them all plus per-layer self time.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from typing import Dict, List, Sequence

from repro import Abacus, open_session
from repro.serve.protocol import encode_message, payload_fields
from repro.store import codec
from repro.window import expand_window_stream

from perfbench import checks, streams
from perfbench.served import ping_latencies_ms, served_round
from perfbench.tracer import Tracer, percentile
from perfbench import workloads

#: Input elements the window probe expands on the workloads without a
#: window of their own (the reference expansion is O(window) per element).
WINDOW_PREFIX = 6000
PINGS = 200
LEDGER_REPS = 3
SELF_TIME = "trace.self_s."


def _timed_chunks(tracer: Tracer, span: str, call, chunks) -> float:
    """Seconds spent in ``call(chunk)`` over all chunks, one span each."""
    total = 0.0
    for chunk in chunks:
        t0 = time.perf_counter()
        with tracer.span(span):
            call(chunk)
        total += time.perf_counter() - t0
    return total


def batch_pass(inputs, seed: int, tracer: Tracer):
    """Bare ``Abacus.process_batch``: (seconds, estimator)."""
    kernel = Abacus(inputs.budget, seed=seed)
    with tracer.span("loadgen.kernel_pass"):
        seconds = _timed_chunks(
            tracer, "core.process_batch", kernel.process_batch, inputs.chunks
        )
    return seconds, kernel


def reference_pass(tracer: Tracer, span: str, build):
    """Time one whole reference pass ``build()``: (seconds, estimator)."""
    t0 = time.perf_counter()
    with tracer.span(span):
        estimator = build()
    return time.perf_counter() - t0, estimator


def durable_pass(inputs, seed: int, tracer: Tracer, directory: str) -> Dict:
    """Durable ``Session`` with a checkpoint at the midpoint, then recovery."""
    middle = len(inputs.chunks) // 2
    durable = open_session(inputs.spec(seed), durable_dir=directory)
    seconds = 0.0
    with tracer.span("loadgen.durable_pass"):
        for index, chunk in enumerate(inputs.chunks):
            if index == middle:
                durable.sync()
                offset = durable.elements
                wal_bytes = sum(
                    entry.stat().st_size
                    for entry in os.scandir(directory)
                    if entry.name.startswith("wal-")
                )
                t0 = time.perf_counter()
                with tracer.span("store.checkpoint"):
                    durable.checkpoint()
                checkpoint_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            with tracer.span("store.ingest"):
                durable.ingest(chunk)
            seconds += time.perf_counter() - t0
    estimate = durable.estimate
    durable.close()
    copy = directory + "-copy"
    shutil.copytree(directory, copy)
    t0 = time.perf_counter()
    with tracer.span("store.recover"):
        recovered = open_session(durable_dir=copy)
    replay_s = time.perf_counter() - t0
    recovered_estimate = recovered.estimate
    recovered.close()
    return {
        "seconds": seconds,
        "checkpoint_s": checkpoint_s,
        "wal_bytes_per_el": wal_bytes / offset,
        "replay_eps": (len(inputs.stream) - offset) / replay_s,
        "estimate": estimate,
        "recovered": recovered_estimate,
    }


def window_input(inputs, expanded, tracer: Tracer):
    """The window probe's (window, input stream, expanded stream).

    The window workload probes its own window over its whole stream;
    the others a window of 1.1 x budget over a prefix of theirs.
    """
    if inputs.window:
        return inputs.window, inputs.stream, expanded
    window = round(1.1 * inputs.budget)
    stream = inputs.stream[:WINDOW_PREFIX]
    with tracer.span("loadgen.expand_window"):
        expanded = list(expand_window_stream(stream, window=window, strict=False))
    return window, stream, expanded


def window_pass(inputs, seed: int, tracer: Tracer, window: int, stream):
    """Windowed ``Session`` over ``stream``: (seconds, estimate)."""
    session = open_session(inputs.spec(seed), window=window)
    with tracer.span("loadgen.window_pass"):
        seconds = _timed_chunks(
            tracer, "window.ingest", session.ingest,
            streams.chunked(stream, workloads.CHUNK),
        )
    estimate = session.estimate
    session.close()
    return seconds, estimate


def ledger_passes(inputs, seed: int, tracer, workdir, expanded, failures) -> Dict:
    """Every in-process layer pass, the timed ones repeated and interleaved.

    Repeating each pass ``LEDGER_REPS`` times in turn and taking medians
    keeps a burst of machine noise from landing on one layer only; the
    layer ratios compare passes that ran seconds apart.
    """
    n = len(inputs.stream)
    window, window_stream, expanded = window_input(inputs, expanded, tracer)
    times: Dict[str, List[float]] = {}
    durable: List[Dict] = []

    def record(key: str, seconds: float) -> None:
        times.setdefault(key, []).append(seconds)

    for rep in range(LEDGER_REPS):
        seconds, kernel = batch_pass(inputs, seed, tracer)
        record("kernel", seconds)
        seconds, replay = reference_pass(
            tracer, "api.session_pass",
            lambda: checks.replay_views(inputs.spec(seed), inputs.chunks),
        )
        record("session", seconds)
        if replay.views[n] != kernel.estimate:
            failures.append(
                f"session estimate {replay.views[n]!r} != bare kernel "
                f"{kernel.estimate!r}"
            )
        with tracer.span("loadgen.codec_pass"):
            record("encode", _timed_chunks(
                tracer, "store.encode_batch", codec.encode_batch, inputs.chunks
            ))
        durable.append(
            durable_pass(inputs, seed, tracer, os.path.join(workdir, f"durable-{rep}"))
        )
        record("durable", durable[-1]["seconds"])
        for label in ("estimate", "recovered"):
            if durable[-1][label] != kernel.estimate:
                failures.append(
                    f"durable {label} {durable[-1][label]!r} != bare kernel "
                    f"{kernel.estimate!r}"
                )
        seconds, windowed = window_pass(inputs, seed, tracer, window, window_stream)
        record("windowed", seconds)
        seconds, inner = reference_pass(
            tracer, "core.window_inner",
            lambda: checks.window_reference(
                inputs.budget, seed, expanded, workloads.CHUNK
            ),
        )
        record("inner", seconds)
        failures += checks.check_window(windowed, inner)
    element_s, element = reference_pass(
        tracer, "core.element_path",
        lambda: checks.element_path(inputs.budget, seed, inputs.stream),
    )
    para_s, para = reference_pass(
        tracer, "core.parabacus",
        lambda: checks.parabacus_path(inputs.budget, seed, inputs.chunks),
    )
    failures += checks.check_dense(kernel, element, para)
    t = {key: statistics.median(values) for key, values in times.items()}
    return {
        "values": {
            "core.kernel_eps": n / t["kernel"],
            "core.element_path_eps": n / element_s,
            "core.work_per_el": kernel.total_work / n,
            "core.parabacus_eps": n / para_s,
            "sampling.sample_edges": kernel.memory_edges,
            "api.session_eps": n / t["session"],
            "api.overhead_pct": 100.0 * (t["session"] - t["kernel"]) / t["kernel"],
            "window.expanded_per_el": len(expanded) / len(window_stream),
            "window.inner_eps": len(window_stream) / t["inner"],
            "window.engine_share": (t["windowed"] - t["inner"]) / t["windowed"],
            "store.durable_eps": n / t["durable"],
            "store.wal_share": (t["durable"] - t["session"]) / t["durable"],
            "store.codec_encode_eps": n / t["encode"],
            "store.wal_bytes_per_el": durable[0]["wal_bytes_per_el"],
            "store.checkpoint_ms": 1e3 * statistics.median(
                d["checkpoint_s"] for d in durable
            ),
            "store.replay_eps": statistics.median(d["replay_eps"] for d in durable),
        },
        "views": replay.views,
    }


def serve_layer(rounds: Sequence, chunks, root, workdir, spec, tracer) -> Dict:
    """``serve``: wire, writer hop and publish, from traced served rounds."""
    ingest_s = sum(r.ingest_s for r in rounds)
    busy_s = sum(r.processing_seconds for r in rounds)
    elements = sum(len(chunk) for chunk in chunks) * len(rounds)
    pings = ping_latencies_ms(root, workdir, spec, PINGS)
    encode_ms = []
    with tracer.span("loadgen.encode_pass"):
        for chunk in chunks:
            t0 = time.perf_counter()
            with tracer.span("serve.client_encode"):
                encode_message({"id": 1, "op": "ingest", **payload_fields(chunk)})
            encode_ms.append((time.perf_counter() - t0) * 1e3)
    return {
        "serve.ping_ms_p50": percentile(pings, 0.5),
        "serve.session_busy_share": busy_s / ingest_s,
        "serve.outside_session_us_per_el": (ingest_s - busy_s) / elements * 1e6,
        "serve.client_encode_ms_p50": percentile(encode_ms, 0.5),
        "serve.backpressure": sum(r.backpressure for r in rounds),
    }


def per_layer(root: str) -> Dict[str, str]:
    """name -> unit of every per-layer metric ``BENCHMARK.json`` declares."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def traced_run(name, seed, seconds, size, root, workdir, trace_path) -> Dict:
    """Run ``name`` traced (see the module docstring); return the result."""
    tracer = Tracer(True)
    measured = workloads.measure(
        name, seed, seconds, size, root, workdir, tracer, alternate_trace=True
    )
    tracer.enabled = True  # the rounds alternated; every ledger pass is traced
    inputs = measured.inputs
    failures = list(measured.failures)
    rounds = measured.rounds
    traced = rounds[1::2]
    n = len(inputs.stream)
    ledger_seed = measured.seeds[0]
    passes = ledger_passes(
        inputs, ledger_seed, tracer, workdir, measured.expanded,
        failures,
    )
    values = passes["values"]
    # Counted on the workload's own rounds (the windowed kernel on
    # window-churn, the server-equivalent replay on the served workload).
    values["core.mirror_batch_share"] = measured.regime["mirror_share"]
    values["sampling.mutations_per_el"] = measured.regime["mutations_per_el"]
    spec = inputs.spec(ledger_seed)
    if name == "served-durable-sparse":
        served = traced
    else:
        served = [served_round(
            root, workdir, spec, inputs.chunks, workloads.QUERY_RATE, tracer, 0
        )]
        failures += checks.check_served(
            served[0].observed, served[0].final, served[0].recovered,
            passes["views"],
        )
    values.update(serve_layer(served, inputs.chunks, root, workdir, spec, tracer))

    info = workloads.informational(measured)
    traced_eps = workloads.ingest_eps(traced, n)
    untraced_eps = workloads.ingest_eps(rounds[0::2], n)
    self_s = tracer.self_seconds()
    values.update({
        "loadgen.query_late_ms_p90": workloads.query_late_p90_ms(served),
        "loadgen.ingest_batch_p99_ms": info["ingest_batch_p99_ms"],
        "loadgen.query_p99_ms": info["query_p99_ms"],
        "loadgen.failed_share": info["failed_share"],
        "quality.rel_error": measured.rel_error,
        "trace.ingest_eps": traced_eps,
        "trace.untraced_ingest_eps": untraced_eps,
        "trace.overhead_pct": 100.0 * (untraced_eps - traced_eps) / untraced_eps,
    })
    declared = per_layer(root)
    for metric in declared:
        if metric.startswith(SELF_TIME):
            values[metric] = self_s.get(metric[len(SELF_TIME):], 0.0)
    metrics = {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit in declared.items()
    }
    tracer.write(trace_path, {"workload": name, "seed": seed, "ledger": values})
    measured.failures = failures
    return workloads.result(measured, metrics)
