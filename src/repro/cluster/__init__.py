"""The replicated serving cluster: WAL shipping over the wire.

One durable primary (:mod:`repro.cluster.primary`) ships its
write-ahead log to any number of followers
(:mod:`repro.cluster.follower`), each of which re-logs the stream to
its own disk and serves reads from it; a
:class:`~repro.cluster.client.ClusterClient` routes mutations to the
primary and fans reads across the followers.  The replication wire
grammar lives in :mod:`repro.cluster.protocol`, lag accounting in
:func:`repro.metrics.replication.lag_summary`, and the design —
including the proven failover contract — in ``docs/replication.md``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CATCHUP_BATCH",
    "ClusterClient",
    "DEFAULT_HEARTBEAT_S",
    "FollowerServer",
    "REPLICATION_MAX_LINE",
    "REPLICATION_PROTOCOL_VERSION",
    "ReplicatingServer",
    "ack_message",
    "batch_message",
    "bootstrap_follower",
    "decode_ack",
    "decode_stream_message",
    "follow_in_background",
    "handshake_request",
    "heartbeat_message",
    "install_snapshot",
    "replicate_in_background",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.cluster.client": ("ClusterClient",),
        "repro.cluster.follower": (
            "FollowerServer",
            "bootstrap_follower",
            "follow_in_background",
            "install_snapshot",
        ),
        "repro.cluster.primary": (
            "ReplicatingServer",
            "replicate_in_background",
        ),
        "repro.cluster.protocol": (
            "CATCHUP_BATCH",
            "DEFAULT_HEARTBEAT_S",
            "REPLICATION_MAX_LINE",
            "REPLICATION_PROTOCOL_VERSION",
            "ack_message",
            "batch_message",
            "decode_ack",
            "decode_stream_message",
            "handshake_request",
            "heartbeat_message",
        ),
    },
)
