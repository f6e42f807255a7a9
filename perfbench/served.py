"""Drive a ``python -m repro serve`` subprocess over the binary wire.

One round of the served workload:

1. start a server on a fresh durable directory and time it until the
   first ``ping`` answers (one set-up sample);
2. a writer connection sends the stream in fixed-size chunks in a
   closed loop, with one ``checkpoint`` at the stream midpoint, while a
   reader connection sends ``estimate`` in an open loop at a fixed
   rate, each request timed from its scheduled send time;
3. after the last ack, read the server's ``stats`` and peak RSS, shut
   it down, restart it on the same directory and time it until the
   first answered ``ping`` (recovery), then read the recovered view.

The load generator is this one process: two threads, two connections.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ServeError
from repro.serve import ServeClient
from repro.types import StreamElement

from perfbench.tracer import Tracer

_ADDRESS = re.compile(r" on ([0-9.]+):(\d+)")
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0


class ServerProcess:
    """One ``python -m repro serve --durable-dir`` child on a free port."""

    def __init__(
        self, root: str, durable_dir: str, log_path: str, spec: Optional[str]
    ) -> None:
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--durable-dir", durable_dir,
        ]
        if spec is not None:
            command += ["--estimator", spec]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["TMPDIR"] = os.path.dirname(durable_dir)
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.address = self._read_address()

    def _read_address(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        fd = self.proc.stdout.fileno()
        line = b""
        while b"\n" not in line:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(0.0, remaining))
            if not ready:
                self.kill()
                raise ServeError("server did not report its address in time")
            data = os.read(fd, 4096)
            if not data:
                self.kill()
                raise ServeError("server exited before serving")
            line += data
        match = _ADDRESS.search(line.decode("utf-8", "replace"))
        if match is None:
            self.kill()
            raise ServeError(f"unexpected server banner: {line!r}")
        return match.group(1), int(match.group(2))

    def stop(self, client: ServeClient) -> None:
        """Ask the server to shut down over ``client`` and wait for exit."""
        try:
            client.shutdown()
        finally:
            client.close()
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServeError("server did not exit after shutdown")
        finally:
            self._close_pipes()
        if code != 0:
            raise ServeError(f"server exited with code {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        self.proc.stdout.close()
        self._log.close()


def vmhwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of process ``pid``, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def connect(address: Tuple[str, int]) -> ServeClient:
    return ServeClient(*address, binary=True, timeout=60.0, connect_retries=5)


@dataclass
class ServedRound:
    """What one served round measured and observed."""

    setup_s: float
    ingest_s: float
    batch_ms: List[float]
    query_ms: List[float]
    late_ms: List[float]
    observed: List[Tuple[int, float]]
    final: Dict
    recovered: Dict
    recovery_s: float
    peak_rss_mb: float
    processing_seconds: float
    backpressure: int
    attempted: int
    failed: int


class _Reader(threading.Thread):
    """Open-loop ``estimate`` requests at a fixed rate on their own connection."""

    def __init__(
        self, address: Tuple[str, int], rate: float, tracer: Tracer,
        parent: Optional[int],
    ) -> None:
        super().__init__(name="perfbench-reader", daemon=True)
        self._client = connect(address)
        self._period = 1.0 / rate
        self._tracer = tracer
        self._parent = parent
        self.stop_event = threading.Event()
        self.latency_ms: List[float] = []
        self.late_ms: List[float] = []
        self.observed: List[Tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            due = time.perf_counter()
            while not self.stop_event.is_set():
                wait = due - time.perf_counter()
                if wait > 0 and self.stop_event.wait(wait):
                    break
                sent = time.perf_counter()
                self.attempted += 1
                try:
                    with self._tracer.span("serve.estimate", parent=self._parent):
                        view = self._client.estimate()
                except ServeError:
                    self.failed += 1
                else:
                    done = time.perf_counter()
                    self.latency_ms.append((done - due) * 1e3)
                    self.late_ms.append((sent - due) * 1e3)
                    self.observed.append((view["elements"], view["estimate"]))
                due += self._period
        except BaseException as exc:  # reported by the writer after join
            self.error = exc
        finally:
            self._client.close()


def served_round(
    root: str,
    workdir: str,
    spec: str,
    chunks: Sequence[Sequence[StreamElement]],
    query_rate: float,
    tracer: Tracer,
    round_index: int,
) -> ServedRound:
    """Run one served round (see the module docstring) and return it."""
    durable_dir = os.path.join(workdir, f"served-{round_index}")
    log_path = os.path.join(workdir, "server.log")
    middle = len(chunks) // 2
    with tracer.span("loadgen.round"):
        started = time.perf_counter()
        with tracer.span("serve.start"):
            server = ServerProcess(root, durable_dir, log_path, spec)
            try:
                writer = connect(server.address)
                writer.ping()
            except BaseException:
                server.kill()
                raise
        setup_s = time.perf_counter() - started
        try:
            reader = _Reader(server.address, query_rate, tracer, tracer.current())
            batch_ms: List[float] = []
            offset = 0
            reader.start()
            loop_start = time.perf_counter()
            try:
                for index, chunk in enumerate(chunks):
                    if index == middle:
                        with tracer.span("serve.checkpoint"):
                            covered = writer.checkpoint()
                        if covered != offset:
                            raise ServeError(
                                f"checkpoint covered {covered}, expected {offset}"
                            )
                    t0 = time.perf_counter()
                    with tracer.span("serve.ingest"):
                        ack = writer.ingest(chunk)
                    batch_ms.append((time.perf_counter() - t0) * 1e3)
                    offset += len(chunk)
                    if ack["accepted"] != len(chunk) or ack["elements"] != offset:
                        raise ServeError(f"unexpected ingest ack {ack}")
                ingest_s = time.perf_counter() - loop_start
            finally:
                reader.stop_event.set()
                reader.join(timeout=STOP_TIMEOUT)
            if reader.is_alive():
                raise ServeError("reader thread did not stop")
            if reader.error is not None:
                raise reader.error
            with tracer.span("serve.stats"):
                stats = writer.stats()
                final = writer.estimate()
            peak_rss_mb = vmhwm_mb(server.proc.pid)
            with tracer.span("serve.shutdown"):
                server.stop(writer)
        except BaseException:
            server.kill()
            raise
        restarted = time.perf_counter()
        with tracer.span("serve.recover"):
            server = ServerProcess(root, durable_dir, log_path, None)
            try:
                client = connect(server.address)
                client.ping()
                recovery_s = time.perf_counter() - restarted
                recovered = client.estimate()
                server.stop(client)
            except BaseException:
                server.kill()
                raise
    # Requests: every ingest, the checkpoint, stats + estimate, both
    # start-up pings, the recovered estimate, the two shutdowns.
    attempted = len(chunks) + 8 + reader.attempted
    return ServedRound(
        setup_s=setup_s,
        ingest_s=ingest_s,
        batch_ms=batch_ms,
        query_ms=reader.latency_ms,
        late_ms=reader.late_ms,
        observed=reader.observed,
        final=final,
        recovered=recovered,
        recovery_s=recovery_s,
        peak_rss_mb=peak_rss_mb,
        processing_seconds=stats["processing_seconds"],
        backpressure=stats["backpressure"],
        attempted=attempted,
        failed=reader.failed,
    )


def ping_latencies_ms(root: str, workdir: str, spec: str, count: int) -> List[float]:
    """Round-trip times of ``count`` pings to an idle fresh server."""
    durable_dir = os.path.join(workdir, "ping")
    server = ServerProcess(root, durable_dir, os.path.join(workdir, "server.log"), spec)
    try:
        client = connect(server.address)
        client.ping()
        times = []
        for _ in range(count):
            t0 = time.perf_counter()
            client.ping()
            times.append((time.perf_counter() - t0) * 1e3)
        server.stop(client)
    except BaseException:
        server.kill()
        raise
    return times
