"""Multi-tenant serving: wire ops, fair-share, byte-compatibility.

The server-side contract (``docs/multitenancy.md``): a catalog-hosting
server answers tenant-scoped requests through per-tenant fair-share
lanes feeding the one writer thread; a server *without* a catalog
keeps the exact single-tenant protocol of previous releases.
"""

import threading

import pytest
from suite_utils import wait_until

from repro.api import open_session
from repro.errors import ServeError
from repro.serve import ServeClient, serve_in_background
from repro.serve.server import EstimatorServer
from repro.tenancy import TenantCatalog
from repro.types import insertion

BUTTERFLY = [
    insertion("u1", "v1"),
    insertion("u1", "v2"),
    insertion("u2", "v1"),
    insertion("u2", "v2"),
]


def _batch(n, base=0):
    return [insertion(f"u{base + i}", f"v{base + i}") for i in range(n)]


def catalog_server(root, session=None, **server_kwargs):
    """A background server hosting a TenantCatalog at ``root``."""

    def factory(inner_session, host, port):
        return EstimatorServer(
            inner_session,
            host=host,
            port=port,
            catalog=TenantCatalog(root),
            **server_kwargs,
        )

    return serve_in_background(session, server_factory=factory)


@pytest.fixture
def server(tmp_path):
    with catalog_server(tmp_path / "root") as background:
        yield background


class TestTenantWireOps:
    def test_create_list_drop(self, server):
        with ServeClient(*server.address) as client:
            created = client.create_tenant(
                "alice", "abacus:budget=64,seed=1", quota=4
            )
            assert created["tenant"] == "alice"
            assert created["quota"] == 4
            client.create_tenant("bob", "exact")
            listing = client.list_tenants()
            names = [t["name"] for t in listing["tenants"]]
            assert names == ["alice", "bob"]
            dropped = client.drop_tenant("bob")
            assert dropped["dropped"] == "bob"
            assert dropped["tenants"] == ["alice"]

    def test_tenants_are_isolated(self, server):
        with ServeClient(*server.address) as client:
            client.create_tenant("alice", "exact")
            client.create_tenant("bob", "exact")
            client.ingest(BUTTERFLY, tenant="alice")
            assert (
                client.estimate(tenant="alice")["estimate"] == 1.0
            )
            bob = client.estimate(tenant="bob")
            assert bob["elements"] == 0
            assert bob["estimate"] == 0.0

    def test_tenant_stats_carry_lane_counters(self, server):
        with ServeClient(*server.address) as client:
            client.create_tenant("alice", "exact", quota=3)
            client.ingest(BUTTERFLY, tenant="alice")
            stats = client.stats(tenant="alice")
            assert stats["tenant"] == "alice"
            assert stats["elements"] == 4
            assert stats["writes"] >= 1
            assert stats["max_pending_writes"] == 3
            assert stats["backpressure"] >= 0

    def test_untenanted_stats_reports_catalog_and_fairness(
        self, server
    ):
        with ServeClient(*server.address) as client:
            client.create_tenant("alice", "exact")
            client.ingest(BUTTERFLY, tenant="alice")
            stats = client.stats()
            assert "alice" in stats["catalog"]["tenants"]
            assert stats["tenants"]["alice"]["writes"] >= 1
            fairness = stats["fairness"]
            assert 0.0 < fairness["jain_index"] <= 1.0

    def test_tenant_checkpoint_and_snapshot(self, server, tmp_path):
        with ServeClient(*server.address) as client:
            client.create_tenant("alice", "abacus:budget=32,seed=5")
            client.ingest(_batch(10), tenant="alice")
            assert client.checkpoint(tenant="alice") == 10
            snapshot = client.snapshot(tenant="alice")
            assert snapshot["state"]


class TestTenantWireErrors:
    def test_unknown_tenant_is_refused(self, server):
        with ServeClient(*server.address) as client:
            with pytest.raises(ServeError, match="unknown tenant"):
                client.ingest(BUTTERFLY, tenant="ghost")
            with pytest.raises(ServeError, match="unknown tenant"):
                client.estimate(tenant="ghost")

    def test_catalog_only_server_refuses_untenanted_writes(
        self, server
    ):
        with ServeClient(*server.address) as client:
            with pytest.raises(ServeError, match="name a tenant"):
                client.ingest(BUTTERFLY)
            with pytest.raises(ServeError):
                client.estimate()

    def test_tenant_and_stream_together_are_refused(self, server):
        with ServeClient(*server.address) as client:
            client.create_tenant("alice", "exact")
            with pytest.raises(ServeError):
                client.call(
                    "estimate", tenant="alice", stream="shared"
                )

    def test_duplicate_create_is_a_clean_error(self, server):
        with ServeClient(*server.address) as client:
            client.create_tenant("alice", "exact")
            with pytest.raises(ServeError, match="TenancyError"):
                client.create_tenant("alice", "exact")
            # The connection survives the refusal.
            assert client.ping()["pong"]


class TestByteCompatibility:
    """A server without a catalog is byte-for-byte the old protocol."""

    def test_no_catalog_stats_has_no_tenancy_keys(self):
        with serve_in_background(open_session("exact")) as background:
            with ServeClient(*background.address) as client:
                client.ingest(BUTTERFLY)
                stats = client.stats()
        for key in ("catalog", "tenants", "streams", "fairness"):
            assert key not in stats, key

    def test_no_catalog_server_refuses_tenant_ops(self):
        with serve_in_background(open_session("exact")) as background:
            with ServeClient(*background.address) as client:
                with pytest.raises(ServeError, match="catalog"):
                    client.create_tenant("alice", "exact")
                with pytest.raises(ServeError, match="catalog"):
                    client.ingest(BUTTERFLY, tenant="alice")

    def test_default_session_still_served_alongside_catalog(
        self, tmp_path
    ):
        session = open_session("exact")
        with catalog_server(tmp_path / "root", session) as background:
            with ServeClient(*background.address) as client:
                client.create_tenant("alice", "exact")
                client.ingest(BUTTERFLY)  # untenanted: default session
                assert client.estimate()["estimate"] == 1.0
                assert client.estimate(tenant="alice")["elements"] == 0


class TestStreamWireOps:
    def test_bind_ingest_estimate_drop(self, server):
        with ServeClient(*server.address) as client:
            client.create_tenant("a", "abacus:budget=32,seed=1")
            client.create_tenant("b", "abacus:budget=32,seed=2")
            bound = client.bind_stream("shared", ["a", "b"])
            assert bound["stream"] == "shared"
            summary = client.ingest(_batch(12), stream="shared")
            assert summary["accepted"] == 12
            assert set(summary["estimates"]) == {"a", "b"}
            view = client.estimate(stream="shared")
            assert view["elements"] == 12
            # A bound member's tenant-scoped read works too.
            member = client.estimate(tenant="a")
            assert member["elements"] == 12
            dropped = client.drop_stream("shared")
            assert dropped["dropped"] == "shared"

    def test_stream_snapshot_is_refused(self, server):
        with ServeClient(*server.address) as client:
            client.create_tenant("a", "abacus:budget=32,seed=1")
            client.create_tenant("b", "abacus:budget=32,seed=2")
            client.bind_stream("shared", ["a", "b"])
            with pytest.raises(ServeError, match="stream"):
                client.call("snapshot", stream="shared")

    def test_bound_tenant_write_is_refused(self, server):
        with ServeClient(*server.address) as client:
            client.create_tenant("a", "abacus:budget=32,seed=1")
            client.create_tenant("b", "abacus:budget=32,seed=2")
            client.bind_stream("shared", ["a", "b"])
            with pytest.raises(ServeError):
                client.ingest(BUTTERFLY, tenant="a")


def _queue_behind_blocked_writer(background, writes):
    """Send ``writes`` concurrently while the one writer thread is
    blocked, then release it; return the lane keys the drainer
    dispatched meanwhile, in order.

    Each entry of ``writes`` is a callable taking a fresh client.
    Release waits until every write has reached the drainer: one is
    in flight on the blocked writer, the rest sit in lane queues.
    """
    server = background.server
    trace_start = len(server._fair_trace)

    def reached_drainer():
        queued = sum(len(lane.queue) for lane in list(server._lanes.values()))
        return queued + len(server._fair_trace) - trace_start

    gate = threading.Event()
    server._writer_pool.submit(gate.wait)
    threads = []
    try:
        for write in writes:
            def send(write=write):
                with ServeClient(*background.address) as client:
                    write(client)

            thread = threading.Thread(target=send)
            thread.start()
            threads.append(thread)
        wait_until(lambda: reached_drainer() == len(writes))
    finally:
        gate.set()
        for thread in threads:
            thread.join(timeout=30)
    return server._fair_trace[trace_start:]


def _longest_run(picks):
    longest, run = 1, 1
    for previous, current in zip(picks, picks[1:]):
        run = run + 1 if current == previous else 1
        longest = max(longest, run)
    return longest


class TestFairShare:
    def test_round_robin_interleaves_lanes(self, tmp_path):
        """Queue bursts on two lanes while the writer is blocked;
        the drainer must alternate lanes, not drain one then the
        other."""
        with catalog_server(tmp_path / "root") as background:
            with ServeClient(*background.address) as admin:
                admin.create_tenant("alice", "exact", quota=8)
                admin.create_tenant("bob", "exact", quota=8)
                # Prime both lanes (creates them) so the burst below
                # only queues writes.
                admin.ingest([insertion("w", "x")], tenant="alice")
                admin.ingest([insertion("w", "x")], tenant="bob")
                trace = _queue_behind_blocked_writer(background, [
                    lambda client, name=name, i=i: client.ingest(
                        [insertion(f"a{i}", f"b{i}")], tenant=name
                    )
                    for i in range(4)
                    for name in ("alice", "bob")
                ])
            alice = ("tenant", "alice")
            bob = ("tenant", "bob")
            picks = [key for key in trace if key in (alice, bob)]
            assert picks.count(alice) == 4
            assert picks.count(bob) == 4
            # Strict round-robin: among the dispatches that were
            # queued together, no lane is ever picked twice while the
            # other still has queued work — the longest same-lane run
            # is bounded by 2 (one in-flight straggler at the edges).
            assert _longest_run(picks) <= 2, picks

    def test_untenanted_writes_share_the_round_robin(self, tmp_path):
        """The default session's writes ride the server's implicit
        lane ``("server", "")`` through the same drainer, so they
        alternate with a tenant's instead of bypassing it."""
        session = open_session("exact")
        with catalog_server(tmp_path / "root", session) as background:
            with ServeClient(*background.address) as admin:
                admin.create_tenant("alice", "exact", quota=8)
                admin.ingest([insertion("w", "x")], tenant="alice")
                trace = _queue_behind_blocked_writer(background, [
                    lambda client, i=i: client.ingest(
                        [insertion(f"s{i}", f"t{i}")]
                    )
                    for i in range(4)
                ] + [
                    lambda client, i=i: client.ingest(
                        [insertion(f"a{i}", f"b{i}")], tenant="alice"
                    )
                    for i in range(4)
                ])
                stats = admin.stats()
            own = ("server", "")
            alice = ("tenant", "alice")
            picks = [key for key in trace if key in (own, alice)]
            assert picks.count(own) == 4
            assert picks.count(alice) == 4
            assert _longest_run(picks) <= 2, picks
            assert stats["elements"] == 4
            assert stats["tenants"]["alice"]["writes"] == 5

    def test_quota_backpressure_is_counted(self, tmp_path):
        with catalog_server(tmp_path / "root") as background:
            server = background.server
            with ServeClient(*background.address) as admin:
                admin.create_tenant("alice", "exact", quota=1)
                admin.ingest([insertion("w", "x")], tenant="alice")
                lane = server._lanes[("tenant", "alice")]
                gate = threading.Event()
                server._writer_pool.submit(gate.wait)
                try:
                    threads = []
                    for i in range(3):
                        def send(i=i):
                            with ServeClient(
                                *background.address
                            ) as client:
                                client.ingest(
                                    [insertion(f"a{i}", f"b{i}")],
                                    tenant="alice",
                                )
                        thread = threading.Thread(target=send)
                        thread.start()
                        threads.append(thread)
                    wait_until(lambda: lane.backpressure >= 2)
                finally:
                    gate.set()
                for thread in threads:
                    thread.join(timeout=30)
                stats = admin.stats(tenant="alice")
            assert stats["backpressure"] >= 2
            assert stats["writes"] == 4

    def test_writes_parked_on_a_dropped_tenant_fail(self, tmp_path):
        """Writes waiting on a tenant's quota when the tenant is
        dropped must fail cleanly, not wait forever on a retired lane
        that nothing drains."""
        with catalog_server(tmp_path / "root") as background:
            server = background.server
            with ServeClient(*background.address) as admin:
                admin.create_tenant("alice", "exact", quota=1)
                admin.ingest([insertion("w", "x")], tenant="alice")
            lane = server._lanes[("tenant", "alice")]
            outcomes = []

            def send(i):
                with ServeClient(*background.address, timeout=10) as client:
                    try:
                        client.ingest(
                            [insertion(f"a{i}", f"b{i}")], tenant="alice"
                        )
                        outcomes.append("ok")
                    except ServeError as exc:
                        outcomes.append(str(exc))

            def drop():
                with ServeClient(*background.address) as client:
                    client.drop_tenant("alice")

            gate = threading.Event()
            server._writer_pool.submit(gate.wait)
            threads = [threading.Thread(target=send, args=(i,))
                       for i in range(3)]
            try:
                for thread in threads:
                    thread.start()
                # One write in flight, two parked on the quota of 1.
                wait_until(lambda: lane.backpressure >= 2)
                threads.append(threading.Thread(target=drop))
                threads[-1].start()
                # Dispatch queues the drop behind the blocked writer.
                wait_until(
                    lambda: server._counters.get("drop_tenant") == 1
                )
            finally:
                gate.set()
                for thread in threads:
                    thread.join(timeout=30)
        assert len(outcomes) == 3
        assert "ok" in outcomes
        # A refusal names the drop ("was dropped before this write
        # ran", or "unknown tenant" once the catalog forgot it); a
        # client timeout here means a write was stranded.
        for outcome in outcomes:
            assert outcome == "ok" or "TenancyError" in outcome, outcomes


class TestScopedConsistency:
    def test_read_your_writes_per_tenant(self, server):
        with ServeClient(*server.address) as client:
            client.create_tenant("alice", "exact")
            summary = client.ingest(BUTTERFLY, tenant="alice")
            view = client.estimate(
                tenant="alice",
                read_mode="read_your_writes",
                min_offset=summary["elements"],
            )
            assert view["elements"] >= summary["elements"]

    def test_stale_read_is_refused(self, server):
        with ServeClient(*server.address) as client:
            client.create_tenant("alice", "exact")
            client.ingest(BUTTERFLY, tenant="alice")
            with pytest.raises(ServeError, match="StaleReadError"):
                client.estimate(
                    tenant="alice",
                    read_mode="read_your_writes",
                    min_offset=10_000,
                )

    def test_dropped_tenant_reads_cleanly_refused(self, server):
        with ServeClient(*server.address) as client:
            client.create_tenant("alice", "exact")
            client.ingest(BUTTERFLY, tenant="alice")
            client.drop_tenant("alice")
            with pytest.raises(ServeError):
                client.estimate(tenant="alice")
            assert client.ping()["pong"]


class TestDurabilityAcrossRestart:
    def test_tenants_recover_after_server_restart(self, tmp_path):
        root = tmp_path / "root"
        with catalog_server(root) as background:
            with ServeClient(*background.address) as client:
                client.create_tenant(
                    "alice", "abacus:budget=32,seed=5"
                )
                client.create_tenant("bob", "exact")
                client.ingest(_batch(10), tenant="alice")
                expected = client.estimate(tenant="alice")["estimate"]
        with catalog_server(root) as background:
            with ServeClient(*background.address) as client:
                listing = client.list_tenants()
                names = [t["name"] for t in listing["tenants"]]
                assert names == ["alice", "bob"]
                view = client.estimate(tenant="alice")
                assert view["elements"] == 10
                assert view["estimate"] == expected
