"""Exception hierarchy for the :mod:`repro` LSM engine.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base class. Programming errors (bad arguments) raise the standard
:class:`ValueError`/:class:`TypeError` instead.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro LSM engine."""


class ClosedError(ReproError):
    """An operation was attempted on a closed tree, WAL, or store."""


class CorruptionError(ReproError):
    """Persistent state (WAL, manifest, or SSTable file) failed validation.

    Carries structured context for diagnosis — which file, which record,
    at what byte offset, and the expected-vs-actual checksum when the
    failure was a CRC mismatch. All fields are optional; whatever is known
    at the raise site is folded into the message and kept as attributes.
    """

    def __init__(
        self,
        message: str,
        *,
        path: "str | None" = None,
        record_index: "int | None" = None,
        byte_offset: "int | None" = None,
        expected_crc: "int | None" = None,
        actual_crc: "int | None" = None,
    ) -> None:
        context = []
        if path is not None:
            context.append(f"path={path}")
        if record_index is not None:
            context.append(f"record={record_index}")
        if byte_offset is not None:
            context.append(f"offset={byte_offset}")
        if expected_crc is not None:
            context.append(f"expected_crc={expected_crc:#010x}")
        if actual_crc is not None:
            context.append(f"actual_crc={actual_crc:#010x}")
        if context:
            message = f"{message} ({', '.join(context)})"
        super().__init__(message)
        self.path = path
        self.record_index = record_index
        self.byte_offset = byte_offset
        self.expected_crc = expected_crc
        self.actual_crc = actual_crc


class DurabilityError(ReproError):
    """A WAL sync (flush or fsync) failed; the write was *not* acknowledged.

    Follows the fsyncgate contract: once a segment's sync has failed, the
    OS may have silently dropped the dirty pages, so the segment is
    poisoned — every later append to it raises this error too — and the
    caller must treat the failed write (and the segment's tail) as not
    durable. The original ``OSError`` is chained as ``__cause__``.
    """


class CompactionError(ReproError):
    """A compaction job could not be planned or executed."""


class ConfigError(ReproError):
    """A request the configuration does not allow: an invalid
    :class:`~repro.core.config.LSMConfig` combination, or a cluster
    request the node's map or a shard's stream state refuses (a
    migration onto the shard's owner, a superseded stream's late frame).
    On the wire it is ``ERR REFUSED``."""


class FilterError(ReproError):
    """A probabilistic filter was constructed or probed incorrectly."""


class BackgroundError(ReproError):
    """A background flush or compaction worker failed.

    Raised on the next foreground operation after the failure, wrapping the
    worker's original exception as ``__cause__`` (RocksDB's background-error
    contract). The tree stays readable for diagnosis but refuses further
    writes until it is closed.
    """


class ReplicationError(ReproError):
    """Shipping a committed WAL group to a shard's replica failed.

    Raised on the primary's write path: the write *is* durable locally
    (its WAL sync already succeeded), but the replica did not — or could
    not — acknowledge it. In sync mode that means the caller must not
    treat the write as replicated; the store responds by dropping the
    shard to primary-only service (``replica-lost``), so later writes
    succeed without replication until an operator intervenes. The
    applier's root cause is chained as ``__cause__``.
    """


class TxnConflictError(ReproError):
    """A cross-shard transactional batch was rolled back before commit.

    Raised by the two-phase-commit write path when the transaction could
    not reach its commit point — most commonly because the coordinator
    decision record could not be made durable after the per-shard
    prepares succeeded. The contract is all-or-nothing: when this error
    is raised, *no* shard has applied any of the batch (every prepared
    sub-batch was rolled back), so the whole batch can simply be
    retried. The serving layer maps it to the retryable structured reply
    ``ERR TXN <detail>``. The root cause is chained as ``__cause__``.
    """


class SnapshotExpiredError(ReproError):
    """A read at a snapshot the engine can no longer serve consistently.

    Snapshots pin the pre-snapshot versions that in-memory overwrites
    would otherwise drop, but that pinning is bounded: once the engine
    garbage-collects versions at or below a snapshot's sequence number —
    a compaction merging them away, or the pin buffer overflowing — any
    ``get``/``scan`` at that snapshot raises this error instead of
    silently returning a half-old, half-new view. Take a fresh snapshot
    and retry; the serving layer maps it to ``ERR SNAPEXPIRED <detail>``.
    ``seqno`` (when known) is the snapshot sequence number that expired.
    """

    def __init__(self, message: str, *, seqno: "int | None" = None) -> None:
        super().__init__(message)
        self.seqno = seqno


class ShardMovedError(ReproError):
    """An operation routed to a shard this node no longer (or never) owns.

    The cluster-mode sibling of :class:`ShardUnavailableError`: the data
    is alive and serving, just on *another node*. Carries everything a
    client needs to redirect — the owning node's identity and address and
    the cluster-map epoch the verdict is based on — and the serving layer
    maps it to the retryable ``ERR MOVED <shard> <host>:<port> <epoch>``
    reply (Redis-Cluster semantics: follow the redirect, refresh the map
    when the epoch is newer than yours).
    """

    def __init__(
        self, shard: int, node_id: str, host: str, port: int, epoch: int
    ) -> None:
        super().__init__(
            f"shard {shard} is owned by {node_id} at {host}:{port} "
            f"(epoch {epoch})"
        )
        self.shard = shard
        self.node_id = node_id
        self.host = host
        self.port = port
        self.epoch = epoch


class ShardFencedError(ReproError):
    """A write routed to a shard briefly fenced for migration handoff.

    Raised only inside the atomic ownership flip at the end of a live
    shard migration, while the source drains its in-flight commits. The
    condition clears within milliseconds, so the serving layer maps it to
    the retryable ``BUSY`` reply — clients absorb the fence with their
    ordinary backoff loop and never observe an error.
    """

    def __init__(self, shard: int) -> None:
        super().__init__(
            f"shard {shard} is fenced for migration handoff; retry"
        )
        self.shard = shard


class MigrationUnresolvedError(ReproError):
    """A live migration's ownership flip could not be resolved.

    Raised by the source-side migration driver when its ``MIG.SEAL``
    call failed *and* the destination cannot be reached to learn whether
    the seal took effect (the request may have been applied with only
    the reply lost). Aborting would lift the source's fence while the
    destination might own the shard at a higher epoch — a dual-ownership
    window whose acknowledged writes are lost once clients follow the
    newer epoch — so the shard is left **fenced** on the source instead:
    writes answer ``BUSY`` until an operator (or a retried ``MIGRATE``)
    re-drives the flip once the destination is reachable again. The last
    probe failure is chained as ``__cause__``.
    """

    def __init__(self, shard: int, dest_id: str, message: str) -> None:
        super().__init__(
            f"shard {shard}: seal outcome on {dest_id} unknown ({message}); "
            "shard stays fenced until the flip is resolved"
        )
        self.shard = shard
        self.dest_id = dest_id


class ShardUnavailableError(ReproError):
    """An operation routed to a quarantined shard of a sharded store.

    A shard is quarantined when its background workers die
    (:class:`BackgroundError`); the rest of the store keeps serving. The
    failure is retryable in the sense that *other* keys stay available —
    the serving layer maps it to ``ERR UNAVAILABLE <shard>`` so clients
    can distinguish a dead shard from a dead store.
    """

    def __init__(self, shard: int, message: str) -> None:
        super().__init__(f"shard {shard} unavailable: {message}")
        self.shard = shard
