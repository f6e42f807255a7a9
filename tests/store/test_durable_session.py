"""The durable-session facade: open_session(durable_dir=...) semantics."""

import os
import random

import pytest

from repro.api import build_estimator, open_session
from repro.errors import EstimatorError, SpecError, StoreError
from repro.graph.generators import bipartite_erdos_renyi
from repro.store import DurableStore
from repro.store import wal as wal_module
from repro.store.wal import scan_wal
from repro.streams import make_fully_dynamic
from repro.types import insertion

SPEC = "abacus:budget=64,seed=21"


def _stream(seed=5, edges=40):
    base = bipartite_erdos_renyi(10, 10, edges, random.Random(seed))
    return list(
        make_fully_dynamic(base, alpha=0.2, rng=random.Random(seed + 1))
    )


class TestOpening:
    def test_fresh_directory_needs_a_spec(self, tmp_path):
        with pytest.raises(SpecError, match="no session yet"):
            open_session(durable_dir=tmp_path)

    def test_no_spec_and_no_dir_is_an_error(self):
        with pytest.raises(SpecError, match="needs an estimator spec"):
            open_session()

    def test_instance_cannot_be_durable(self, tmp_path):
        with pytest.raises(SpecError, match="not an instance"):
            open_session(build_estimator("exact"), durable_dir=tmp_path)

    def test_reopen_without_spec_uses_stored_one(self, tmp_path):
        with open_session(SPEC, durable_dir=tmp_path) as session:
            session.ingest(insertion(1, 2))
        with open_session(durable_dir=tmp_path) as session:
            assert session.spec.to_string() == SPEC
            assert session.elements == 1

    def test_reopen_with_matching_spec_is_fine(self, tmp_path):
        open_session(SPEC, durable_dir=tmp_path).close()
        with open_session(SPEC, durable_dir=tmp_path) as session:
            assert session.durable

    def test_reopen_with_different_spec_refuses(self, tmp_path):
        open_session(SPEC, durable_dir=tmp_path).close()
        with pytest.raises(SpecError, match="refusing to continue"):
            open_session("abacus:budget=9,seed=21", durable_dir=tmp_path)

    def test_reopen_without_spec_refuses_wrapping_options(
        self, tmp_path
    ):
        open_session(SPEC, durable_dir=tmp_path).close()
        with pytest.raises(SpecError, match="stored one"):
            open_session(durable_dir=tmp_path, window=5)

    def test_sharding_and_windowing_recorded_in_meta(self, tmp_path):
        with open_session(
            "abacus:budget=32,seed=3",
            shards=2,
            window=16,
            durable_dir=tmp_path,
        ) as session:
            stored = DurableStore(tmp_path).spec
            assert stored == session.spec.to_string()
            assert stored.startswith("windowed:")
            assert "sharded" in stored

    def test_store_and_durable_surface(self, tmp_path):
        with open_session(SPEC, durable_dir=tmp_path) as session:
            assert session.durable
            assert session.store is not None
            assert session.store.directory == tmp_path
        with open_session(SPEC) as session:
            assert not session.durable
            assert session.store is None


class TestWriteAheadBehavior:
    def test_elements_logged_before_close(self, tmp_path):
        stream = _stream()
        session = open_session(SPEC, durable_dir=tmp_path)
        session.ingest(stream)
        session.sync()  # no close — crash semantics
        scan = scan_wal(tmp_path / f"wal-{0:020d}.log")
        assert scan.records == len(stream)

    def test_both_ingest_paths_log(self, tmp_path):
        stream = _stream()
        session = open_session(SPEC, durable_dir=tmp_path)
        for element in stream[:10]:
            session.ingest(element)  # element path
        session.ingest(stream[10:], batch_size=8)  # batched path
        session.close()
        assert DurableStore(tmp_path).recover().offset == len(stream)

    def test_close_makes_the_log_durable(self, tmp_path):
        stream = _stream()
        with open_session(SPEC, durable_dir=tmp_path) as session:
            session.ingest(stream)
        recovered = open_session(durable_dir=tmp_path)
        assert recovered.elements == len(stream)
        recovered.close()


class TestCheckpoint:
    def test_checkpoint_requires_durability(self):
        with open_session(SPEC) as session:
            with pytest.raises(EstimatorError, match="durable"):
                session.checkpoint()

    def test_checkpoint_rotates_and_prunes(self, tmp_path):
        stream = _stream()
        session = open_session(SPEC, durable_dir=tmp_path)
        session.ingest(stream[:20])
        assert session.checkpoint() == 20
        session.ingest(stream[20:30])
        assert session.checkpoint() == 30
        session.ingest(stream[30:])
        session.close()
        names = sorted(p.name for p in tmp_path.iterdir())
        # Two snapshots kept; segments cover from the older one on.
        assert f"snapshot-{20:020d}.json" in names
        assert f"snapshot-{30:020d}.json" in names
        assert f"wal-{0:020d}.log" not in names
        assert f"wal-{20:020d}.log" in names
        assert f"wal-{30:020d}.log" in names

    def test_third_checkpoint_drops_the_first(self, tmp_path):
        stream = _stream()
        session = open_session(SPEC, durable_dir=tmp_path)
        for mark in (10, 20, 30):
            session.ingest(stream[mark - 10 : mark])
            session.checkpoint()
        session.close()
        store = DurableStore(tmp_path)
        assert store.snapshots.offsets() == (20, 30)
        assert [base for base, _ in store.segments()] == [20, 30]

    def test_recovery_prefers_newest_snapshot(self, tmp_path):
        stream = _stream()
        session = open_session(SPEC, durable_dir=tmp_path)
        session.ingest(stream[:20])
        session.checkpoint()
        session.ingest(stream[20:])
        session.checkpoint()
        session.close()
        recovered = DurableStore(tmp_path).recover()
        assert recovered.snapshot is not None
        assert recovered.snapshot["session"]["elements"] == len(stream)
        assert recovered.tail == []

    def test_recovery_decodes_only_the_tail(self, tmp_path, monkeypatch):
        stream = [insertion(i, 1000 + (i * 7) % 97) for i in range(900)]
        session = open_session(SPEC, durable_dir=tmp_path)
        for mark in (300, 600):
            session.ingest(stream[mark - 300 : mark])
            session.checkpoint()
        session.ingest(stream[600:])
        session.close()
        store = DurableStore(tmp_path)
        assert [base for base, _ in store.segments()] == [300, 600]
        # wal-300 is fully covered by the snapshot at 600: its records
        # are checksummed but must not be decoded.
        decoded = []
        decode = wal_module._decode

        def counting_decode(payload, format, path):
            decoded.append(path)
            return decode(payload, format, path)

        monkeypatch.setattr(wal_module, "_decode", counting_decode)
        recovered = store.recover()
        store.close()
        assert len(decoded) == 300
        assert {os.path.basename(path) for path in decoded} == {
            f"wal-{600:020d}.log"
        }
        assert recovered.tail == stream[600:]
        assert recovered.offset == 900

    def test_corrupt_newest_snapshot_falls_back(self, tmp_path):
        stream = _stream()
        session = open_session(SPEC, durable_dir=tmp_path)
        session.ingest(stream[:20])
        session.checkpoint()
        session.ingest(stream[20:])
        session.checkpoint()
        session.close()
        # Tear the newest snapshot: recovery must fall back to the
        # older one and replay the tail segment instead.
        newest = tmp_path / f"snapshot-{len(stream):020d}.json"
        newest.write_text("{torn", encoding="utf-8")
        with open_session(durable_dir=tmp_path) as session:
            assert session.elements == len(stream)
            reference = open_session(SPEC)
            reference.ingest(stream)
            assert session.estimate == reference.estimate


class TestSnapshotFreeEstimators:
    def test_durable_without_snapshot_support_replays_fully(
        self, tmp_path
    ):
        spec = "fleet:budget=64,seed=13"
        stream = [e for e in _stream() if e.is_insertion]
        session = open_session(spec, durable_dir=tmp_path)
        session.ingest(stream)
        estimate = session.estimate
        with pytest.raises(SpecError):
            session.checkpoint()  # no snapshot protocol
        session.close()
        with open_session(durable_dir=tmp_path) as recovered:
            assert recovered.elements == len(stream)
            assert recovered.estimate == estimate


class TestProcessBackendRecovery:
    def test_durable_sharded_process_session_restores_workers(
        self, tmp_path
    ):
        spec = (
            "sharded:inner=[abacus:budget=32,seed=5],shards=2,"
            "backend=process"
        )
        stream = _stream(seed=8)
        session = open_session(spec, durable_dir=tmp_path)
        session.ingest(stream[:30])
        session.checkpoint()
        session.ingest(stream[30:])
        session.close()  # shuts worker processes down cleanly
        recovered = open_session(durable_dir=tmp_path)
        try:
            reference = open_session(
                "sharded:inner=[abacus:budget=32,seed=5],shards=2"
            )
            reference.ingest(stream)
            assert recovered.elements == len(stream)
            assert recovered.estimate == reference.estimate
        finally:
            recovered.close()


class TestRefusedElements:
    """A refused element must leave the log — never poison the store."""

    STRICT = "windowed:inner=[abacus:budget=32,seed=5],window=8,strict=true"

    def test_refused_element_is_rolled_back(self, tmp_path):
        from repro.errors import StreamError
        from repro.types import deletion

        session = open_session(self.STRICT, durable_dir=tmp_path)
        session.ingest([insertion(1, 2), insertion(3, 4)])
        with pytest.raises(StreamError):
            session.ingest(deletion("never", "inserted"))
        # Log and session agree again: the poison record is gone.
        assert session.store.offset == session.elements == 2
        assert session.checkpoint() == 2
        session.ingest(insertion(5, 6))
        session.close()
        with open_session(durable_dir=tmp_path) as recovered:
            assert recovered.elements == 3

    def test_refused_batch_is_rolled_back(self, tmp_path):
        from repro.errors import StreamError

        session = open_session(self.STRICT, durable_dir=tmp_path)
        session.ingest(insertion(1, 2))
        with pytest.raises(StreamError):
            # The duplicate-while-live insert fails mid-batch; the
            # whole uncounted chunk must leave the log with it.
            session.ingest([insertion(3, 4), insertion(1, 2)])
        assert session.store.offset == session.elements == 1
        assert session.checkpoint() == 1
        session.close()
        with open_session(durable_dir=tmp_path) as recovered:
            assert recovered.elements == 1

    def test_rolled_back_records_stay_gone_across_crashes(
        self, tmp_path
    ):
        from repro.errors import StreamError
        from repro.types import deletion

        session = open_session(self.STRICT, durable_dir=tmp_path)
        session.ingest(insertion(1, 2))
        with pytest.raises(StreamError):
            session.ingest(deletion(9, 9))
        session.sync()  # crash without close
        recovered = open_session(durable_dir=tmp_path)
        assert recovered.elements == 1
        recovered.close()


class TestBrokenState:
    def test_foreign_meta_raises(self, tmp_path):
        (tmp_path / "meta.json").write_text("not json", encoding="utf-8")
        with pytest.raises(StoreError, match="meta"):
            open_session(SPEC, durable_dir=tmp_path)

    def test_missing_tail_segment_recovers_at_checkpoint(self, tmp_path):
        # A deleted tail segment is indistinguishable from "nothing
        # ingested since the checkpoint": recovery lands exactly on
        # the newest snapshot instead of failing.
        stream = _stream()
        session = open_session(SPEC, durable_dir=tmp_path)
        session.ingest(stream[:30])
        session.checkpoint()
        session.ingest(stream[30:])
        session.close()
        (tmp_path / f"wal-{30:020d}.log").unlink()
        with open_session(durable_dir=tmp_path) as recovered:
            assert recovered.elements == 30

    def test_gap_between_snapshot_and_wal_raises(self, tmp_path):
        stream = _stream()
        session = open_session(SPEC, durable_dir=tmp_path)
        session.ingest(stream[:20])
        session.checkpoint()
        session.ingest(stream[20:30])
        session.checkpoint()
        session.ingest(stream[30:])
        session.close()
        # Tear the newest snapshot (fall back to offset 20) and delete
        # the segment that covers [20, 30): a genuine coverage gap.
        (tmp_path / f"snapshot-{30:020d}.json").write_text(
            "{torn", encoding="utf-8"
        )
        (tmp_path / f"wal-{20:020d}.log").unlink()
        with pytest.raises(StoreError, match="gap"):
            open_session(durable_dir=tmp_path)

    def test_mid_log_corruption_is_fatal(self, tmp_path):
        stream = _stream()
        session = open_session(SPEC, durable_dir=tmp_path)
        session.ingest(stream[:20])
        session.checkpoint()
        session.ingest(stream[20:])
        session.close()
        # Corrupt a non-final segment: recovery must refuse rather
        # than silently skip logged elements.  The first segment is
        # pruned at checkpoint, so recreate an older one with junk.
        older = tmp_path / f"wal-{0:020d}.log"
        from repro.store.wal import WAL_MAGIC

        older.write_bytes(WAL_MAGIC + b"\x05\x00\x00\x00junk")
        with pytest.raises(StoreError, match="final segment"):
            open_session(durable_dir=tmp_path)
