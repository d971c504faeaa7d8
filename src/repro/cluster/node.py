"""ClusterNode: a :class:`~repro.server.KVServer` speaking cluster verbs.

One ClusterNode fronts one :class:`~repro.cluster.NodeStore` — everything
the serving layer already does (pipelining, per-shard group commit,
admission control, degraded-mode replies) applies unchanged, because the
NodeStore satisfies the same :class:`~repro.api.KVStore` protocol and
exposes ``num_shards``/``shard_index`` for the per-shard committers. On
top of that, this subclass:

* maps :class:`~repro.errors.ShardMovedError` to the retryable
  ``ERR MOVED <shard> <host>:<port> <epoch>`` reply and
  :class:`~repro.errors.ShardFencedError` to ``BUSY`` (a fenced shard is
  milliseconds from flipping, so the client's ordinary BUSY backoff
  absorbs the handoff invisibly);
* serves ``CLUSTER`` — fetch the node's epoch'd map, or push a newer map
  (:meth:`~repro.cluster.NodeStore.adopt_map`: membership changes ride
  this, a map that takes shards away demotes, one that grants shards is
  refused — ownership is gained through the migration protocol or a
  promotion only);
* serves the two inbound streams that fill a shard's one slot
  (:meth:`~repro.cluster.NodeStore.inbound_begin`) — ``MIG.BEGIN`` /
  ``MIG.APPLY`` / ``MIG.SEAL`` for a migration, ``REPL.SYNC`` /
  ``REPL.SHIP`` / ``REPL.SEEDED`` for a standby; the handlers differ
  only in the role they pass;
* serves ``MIGRATE <shard> <node_id>`` — the source role: run
  :func:`~repro.cluster.migrate_shard`, the one migration driver,
  against a :class:`_WirePeer` and reply with its stats.

Both streams rely on a protocol guarantee the server already provides:
requests on one connection are answered strictly in order, so a single
peer connection gives BEGIN → APPLY* → SEAL (or SYNC → SHIP*) exactly
the ordering the store needs. ``MIGRATE`` itself is handled inline on
the requesting connection, its driver on a thread of its own — only that
connection blocks for the duration; every other connection (including
the writes being migrated under) keeps being served by the event loop.

**Cross-node replication and failover (PR 9).** When the map assigns a
shard a replica node, the owning ClusterNode runs a
:class:`_ShardShipper`: it reseeds the peer's standby over ``REPL.SYNC``
plus the snapshot pager's batches, then forwards every WAL commit group
over ``REPL.SHIP`` on the same ordered connection (the migration tail's
last-arrival-wins argument applies verbatim) — except while the shard
is migrating off this node, when it opens no new session. A commit is
held until the replica acknowledged the group, so an acked write is on
both nodes; when the replica becomes unreachable
the shipper *degrades* — waiters release, writes keep committing
locally, and the standby is wiped and reseeded on reconnect. Every node
with replication configured also runs a jittered heartbeat loop
(``REPL.PING``, carrying map epochs so newer maps gossip through it); a
replica node declares a peer dead only after ``lease_timeout_s`` of
silence, and then promotes exactly the shards whose standby is provably
current — seeded in this process lifetime *and* whose ship stream was
alive when the peer was last alive (a stream that died earlier may be
missing acked writes; refusing beats promoting a stale copy). Promotion
persists the bumped-epoch map before serving (seal-before-release), so
there is exactly one writable owner at every instant under crash-stop
failures; a restarted old primary hears the newer epoch via heartbeat
gossip or the promoted node's ``REPL.SYNC`` and demotes itself
(:meth:`~repro.cluster.NodeStore.adopt_map`).

**Partitions and self-fencing (PR 10).** Crash-stop is not the only
failure: under an asymmetric partition the old primary is alive,
reachable by clients, and cut off from its standby — the classic
split-brain window. With ``self_fence`` enabled the primary closes it
from its own side: once the standby has shown no sign of life for
``fence_timeout_s`` (derived: strictly inside the lease window, with inbound ship
traffic feeding both ends' contact clocks so they cannot drift apart by
more than a frame), the shard stops *acking* writes — admission answers
BUSY via :meth:`~repro.cluster.NodeStore.repl_fence`, and the exact
ack-time check in the shipper's commit tap refuses the ack for writes
already in flight whose replica confirmation never arrived. The fence
lifts only when the ship stream is fully re-established (whose
``REPL.SYNC`` reply would carry a newer map if the standby promoted —
demoting us instead of un-fencing) or when a newer epoch demotes the
shard away. Both checks guard only *armed* shards — ones whose standby
completed a seed in this node's ownership tenure, the only standbys the
peer's promotion gate would accept — so a freshly promoted node (whose
standby is the dead old primary) keeps acking writes and failover
availability is preserved. Heartbeats gossip maps in both directions: a node that
answers a ping with a stale epoch is *pushed* the newer map on the same
connection, so even a primary that can only receive traffic demotes.
Every node-to-node dial goes through :meth:`ClusterNode._dial` and so
honors ``dial_overrides``, which is how the deterministic network fault
layer (:mod:`repro.faults.net`) interposes per-link relays to prove all
of this under scripted partitions.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import asynccontextmanager
from typing import AsyncIterator, Deque, Dict, List, Optional, Set, Tuple

from ..core.entry import Entry
from ..errors import (
    ConfigError,
    MigrationUnresolvedError,
    ReproError,
    ShardFencedError,
    ShardMovedError,
)
from ..faults.registry import fault_point
from ..server.client import KVClient, backoff_delays
from ..server.protocol import BatchOp, ProtocolError, decode_batch, encode_batch
from ..server.server import KVServer
from .client import fetch_map, push_map
from .map import ClusterMap, NodeInfo
from .store import (
    MIGRATION,
    REPLICA,
    NodeStore,
    entries_to_batch_ops,
    migrate_shard,
    migration_stats,
    promote_local,
)

#: Verbs this subclass dispatches ahead of the base server.
_CLUSTER_VERBS = (
    "CLUSTER", "MIGRATE", "MIG.BEGIN", "MIG.APPLY", "MIG.SEAL",
    "REPL.SYNC", "REPL.SHIP", "REPL.SEEDED", "REPL.PING",
)


class ClusterNode(KVServer):
    """One cluster member: a KVServer bound at its map address.

    Args:
        store: The node's :class:`~repro.cluster.NodeStore`; its map
            entry provides the default bind address (pass ``host`` /
            ``port`` to override, e.g. ``port=0`` in tests — but then
            the map the *other* members route by must be built from the
            resolved :attr:`port`).
        heartbeat_interval_s: Target gap between peer heartbeat rounds
            (each round is jittered ±25% so a fleet started together
            does not ping in lockstep).
        lease_timeout_s: Silence after which a peer is declared dead and
            its shards considered for promotion. Defaults to four
            heartbeat intervals. Every other window is derived from
            these two (:attr:`fence_timeout_s`, :attr:`promotion_slack_s`,
            :attr:`ping_budget_s`, :attr:`ship_backoff_cap_s`).
        repl_timeout_s: Per-request bound on replication wire calls
            (the ship stream, a failover map broadcast).
        self_fence: Opt-in split-brain protection for partitions. When
            true, a primary whose standby has been silent past
            :attr:`fence_timeout_s` stops *acking* writes to the
            replicated shard (retryable BUSY, mirroring the migration
            fence) until the ship stream re-establishes or a newer map
            demotes it — so under an asymmetric partition the stale
            primary goes write-unavailable *before* the standby's lease
            can expire, and "one node acks writes per shard at every
            instant" holds. It stays an option, off by default, because
            it trades availability and both settings have a caller: with
            a 2-node shard the death of the *standby* also fences the
            primary until contact resumes, which is what the ledger's
            ``cluster_repl`` workload (two nodes, no partitions injected)
            must not pay, while the partition experiment (e29) and the
            sweep's partition runs turn it on to prove the split-brain
            window closed.
        dial_overrides: Peer node id → ``(host, port)`` to dial instead
            of the map address — the hook the deterministic network
            fault layer (:mod:`repro.faults.net`) uses to route every
            node-to-node connection through a per-link :class:`NetProxy`.
        options: Forwarded to :class:`~repro.server.KVServer`.
    """

    def __init__(
        self,
        store: NodeStore,
        *,
        heartbeat_interval_s: float = 1.0,
        lease_timeout_s: Optional[float] = None,
        repl_timeout_s: float = 5.0,
        self_fence: bool = False,
        dial_overrides: Optional[Dict[str, Tuple[str, int]]] = None,
        **options: object,
    ) -> None:
        info = store.map.nodes[store.node_id]
        options.setdefault("host", info.host)
        options.setdefault("port", info.port)
        super().__init__(store, **options)  # type: ignore[arg-type]
        self.node_store = store
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.lease_timeout_s = (
            float(lease_timeout_s)
            if lease_timeout_s is not None
            else 4.0 * self.heartbeat_interval_s
        )
        self.repl_timeout_s = float(repl_timeout_s)
        self.self_fence = bool(self_fence)
        self.dial_overrides: Dict[str, Tuple[str, int]] = dict(
            dial_overrides or {}
        )
        #: Self-fence transitions (shard, "fence"/"unfence", epoch),
        #: oldest first — observability for tests and the bench.
        self.fence_events: List[Tuple[int, str, int]] = []
        #: Completed outbound migrations (stats dicts), oldest first.
        self.migrations: List[Dict[str, object]] = []
        #: Completed failover promotions (stats dicts), oldest first.
        self.promotions: List[Dict[str, object]] = []
        #: Flips whose ``MIG.SEAL`` outcome is unknown (destination
        #: unreachable at the seal instant): shard → the proposed map.
        #: The shard stays fenced until a retried ``MIGRATE`` resolves
        #: it against the destination's durable map.
        self._unresolved_flips: Dict[int, ClusterMap] = {}
        #: In-flight outbound migrations: shard → (the driver's peer
        #: connection, the future of its thread). :meth:`stop` closes
        #: the connection so the driver unwinds through its abort path.
        self._outbound: Dict[int, Tuple[KVClient, asyncio.Future]] = {}
        #: Live outbound shippers, one per owned shard with a replica.
        self._shippers: Dict[int, "_ShardShipper"] = {}
        #: Peer node id → monotonic instant it last proved alive
        #: (a heartbeat answered, or an inbound ``REPL.PING``).
        self._last_seen: Dict[str, float] = {}
        #: Shard → monotonic instant of the last inbound ship-stream
        #: activity (``REPL.SYNC``/``REPL.SHIP``/``REPL.SEEDED``); the
        #: promotion gate compares it against the owner's last sign of
        #: life to refuse standbys whose stream died early.
        self._ship_seen: Dict[int, float] = {}
        #: Owned shards whose standby completed a seed in *this node's
        #: ownership tenure* — the only standbys the peer's promotion
        #: gate would accept, hence the only ones self-fencing must
        #: guard against. A freshly promoted shard is unarmed (its
        #: standby is the dead old primary, provably unpromotable until
        #: we reseed it), so failover availability survives self-fencing
        #: mode. Mutated on the event loop, read by the engine thread in
        #: the ack-time fence check (GIL-atomic set membership).
        self._standby_armed: Set[int] = set()
        #: Where a peer's inbound stream verbs (``MIG.*``, ``REPL.SYNC``/
        #: ``SHIP``/``SEEDED``) run: threads of their own, so an apply
        #: never queues behind this node's commit threads — which sit in
        #: :meth:`_ShardShipper._on_commit` waiting for the *peer's*
        #: apply, while the peer's commit threads wait for ours. An
        #: inbound call takes only the slot tree's locks and waits on no
        #: ack, so the cycle is broken by construction. One thread per
        #: shard: each stream is ordered, one apply in flight at a time.
        self._inbound_executor = ThreadPoolExecutor(
            max_workers=store.num_shards, thread_name_prefix="kv-inbound"
        )
        self._hb_task: Optional[asyncio.Task] = None
        self._closing = False

    # -- timing: two settings, four derived windows ---------------------------

    @property
    def fence_timeout_s(self) -> float:
        """Standby silence after which a self-fencing primary fences.
        Strictly inside the lease window — the primary must fence before
        any standby's lease on it can expire, with slack for one
        jittered heartbeat round of detection latency — which is why it
        is derived and not settable: a value at or past the lease would
        silently void that argument."""
        margin = 2.0 * self.heartbeat_interval_s
        if self.lease_timeout_s > margin:
            return self.lease_timeout_s - margin
        return self.lease_timeout_s / 2.0

    @property
    def promotion_slack_s(self) -> float:
        """How long before its primary's last sign of life a standby's
        ship stream may have gone quiet and still be promoted (an idle
        stream's keepalive runs once a heartbeat)."""
        return 2.0 * self.heartbeat_interval_s + 0.05

    @property
    def ping_budget_s(self) -> float:
        """Bound on one heartbeat exchange, connect included."""
        return max(self.lease_timeout_s / 2.0, 0.05)

    @property
    def ship_backoff_cap_s(self) -> float:
        """Ceiling of a shipper's doubling retry backoff."""
        return 2.0 * self.lease_timeout_s

    def peer_address(self, info: NodeInfo) -> Tuple[str, int]:
        """Where to dial ``info``'s node: its map address, unless a
        ``dial_overrides`` entry routes the link through a relay."""
        return self.dial_overrides.get(info.node_id, (info.host, info.port))

    @asynccontextmanager
    async def _dial(
        self, info: NodeInfo, budget_s: Optional[float] = None
    ) -> AsyncIterator[KVClient]:
        """One connection to a peer, closed on exit — the only place
        this node dials another, so every link honors
        :meth:`peer_address`. With a ``budget_s`` the connect and every
        request are bounded by it and nothing is retried (a probe or a
        session that must fail fast; cluster verbs skip admission, so a
        peer never answers them BUSY); without, the client's defaults."""
        options: Dict[str, object] = {}
        if budget_s is not None:
            options = dict(
                timeout_s=budget_s, connect_timeout_s=budget_s, retry_s=0.0
            )
        peer = await asyncio.wait_for(
            KVClient.connect(*self.peer_address(info), **options),
            budget_s,
        )
        try:
            yield peer
        finally:
            await peer.close()

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        self._reconcile_replication()

    async def stop(self) -> None:
        self._closing = True
        if self._hb_task is not None:
            self._hb_task.cancel()
            try:
                await self._hb_task
            except asyncio.CancelledError:
                pass
            self._hb_task = None
        shippers = list(self._shippers.values())
        self._shippers.clear()
        for shipper in shippers:
            shipper.stop()
        for shipper in shippers:
            await shipper.wait_stopped()
        outbound = list(self._outbound.values())
        for peer, _job in outbound:
            await peer.close()  # fails the driver's in-flight call
        if outbound:
            await asyncio.wait([job for _peer, job in outbound])
        await super().stop()
        self._inbound_executor.shutdown(wait=True)

    # -- error mapping --------------------------------------------------------

    def _error_reply(self, exc: BaseException) -> List[str]:
        if isinstance(exc, ShardMovedError):
            return [
                "ERR",
                "MOVED",
                str(exc.shard),
                f"{exc.host}:{exc.port}",
                str(exc.epoch),
                str(exc),
            ]
        if isinstance(exc, ShardFencedError):
            # Not an error to the client: the shard flips owners within
            # milliseconds, and BUSY is the "retry shortly" signal the
            # client already absorbs with jittered backoff.
            return ["BUSY", str(exc)]
        return super()._error_reply(exc)

    # -- cluster verbs --------------------------------------------------------

    async def _dispatch_read(
        self, request: List[str], conn=None, settle=None
    ) -> List[str]:
        verb = request[0]
        if verb not in _CLUSTER_VERBS:
            return await super()._dispatch_read(request, conn, settle)
        started = time.perf_counter()
        try:
            reply = await self._dispatch_cluster(request)
        except Exception as exc:
            self.metrics.errors_total += 1
            return self._error_reply(exc)
        self.metrics.record_op(
            verb, (time.perf_counter() - started) * 1e6
        )
        return reply

    async def _dispatch_cluster(self, request: List[str]) -> List[str]:
        verb = request[0]
        store = self.node_store
        if verb == "CLUSTER":
            if len(request) == 1:
                return ["CLUSTER", store.map.to_json()]
            if len(request) == 2:
                # A pushed map may *demote* this node (a failover
                # happened while it was away); granting it shards is
                # rejected.
                changed = await self._adopt_remote_map(
                    ClusterMap.from_json(request[1])
                )
                return ["OK", "installed" if changed else "ignored"]
            raise ProtocolError("CLUSTER takes at most a map payload")
        if verb == "MIGRATE":
            if len(request) != 3:
                raise ProtocolError(
                    "MIGRATE needs a shard index and a destination node id"
                )
            stats = await self._migrate_shard(
                self._parse_shard(request[1]), request[2]
            )
            return ["OK", json.dumps(stats, sort_keys=True)]
        # The two inbound streams differ only in role: MIG.* fills a
        # slot that ends in a seal, REPL.* one that stays a standby.
        replica = verb.startswith("REPL.")
        if verb in ("MIG.BEGIN", "REPL.SYNC"):
            if len(request) != 2 + replica:
                raise ProtocolError(
                    "REPL.SYNC needs a shard index and a map payload"
                    if replica
                    else "MIG.BEGIN needs exactly a shard index"
                )
            shard = self._parse_shard(request[1])
            await self._run_inbound(
                store.inbound_begin,
                shard,
                REPLICA if replica else MIGRATION,
                ClusterMap.from_json(request[2]) if replica else None,
            )
            if replica:
                self._reconcile_replication()  # adopting the map may demote us
                self._note_stream(shard)
            # Reply with our map too: a source whose map lags ours (it
            # missed migrations we took part in) fast-forwards before
            # computing the flip epoch, which must exceed *both* maps.
            return ["OK", store.node_id, store.map.to_json()]
        if verb in ("MIG.APPLY", "REPL.SHIP"):
            if len(request) < 2:
                raise ProtocolError(f"{verb} needs a shard index")
            shard = self._parse_shard(request[1])
            ops = decode_batch(["BATCH", *request[2:]])
            await self._run_inbound(
                store.replica_apply if replica else store.migration_apply,
                shard,
                ops,
            )
            if replica:
                self._note_stream(shard)
            return ["OK", str(len(ops))]
        if verb == "MIG.SEAL":
            if len(request) != 3:
                raise ProtocolError(
                    "MIG.SEAL needs a shard index and a map payload"
                )
            shard = self._parse_shard(request[1])
            sealed = ClusterMap.from_json(request[2])
            await self._run_inbound(store.migration_seal, shard, sealed)
            self._reconcile_replication()  # the new shard may need a shipper
            return ["OK", str(sealed.epoch)]
        if verb == "REPL.SEEDED":
            if len(request) != 2:
                raise ProtocolError(
                    "REPL.SEEDED needs exactly a shard index"
                )
            shard = self._parse_shard(request[1])
            await self._run_inbound(store.replica_mark_seeded, shard)
            self._note_stream(shard)
            return ["OK", str(shard)]
        if verb == "REPL.PING":
            if len(request) != 3:
                raise ProtocolError("REPL.PING needs a node id and an epoch")
            self._last_seen[request[1]] = time.monotonic()
            return ["OK", store.node_id, str(store.map.epoch)]
        raise ProtocolError(f"unknown command {verb!r}")  # unreachable

    async def _run_inbound(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._inbound_executor, fn, *args
        )

    def _note_stream(self, shard: int) -> None:
        """Record inbound ship-stream activity for ``shard``. It is also
        a sign of life from the shard's primary — recording that
        alongside ``_ship_seen`` keeps both ends' contact clocks within
        one frame of each other, which is what lets the primary's fence
        window provably undercut this node's lease window."""
        store = self.node_store
        now = time.monotonic()
        self._ship_seen[shard] = now
        owner = store.map.owner_id(shard)
        if owner != store.node_id:
            self._last_seen[owner] = now

    @staticmethod
    def _parse_shard(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ProtocolError(
                f"shard index must be an integer, got {text!r}"
            ) from None

    # -- outbound migration driver -------------------------------------------

    async def _migrate_shard(
        self, shard: int, dest_id: str
    ) -> Dict[str, object]:
        """Serve ``MIGRATE``: run :func:`~repro.cluster.migrate_shard`
        against a :class:`_WirePeer` and report its stats. The driver
        gets a thread of its own — outside the bounded engine pool, so
        a seconds-long migration never takes a committer's worker — and
        the event loop, and with it the writes being migrated under,
        never stalls; the only write-visible window is the fence,
        measured and reported as ``fence_ms``."""
        store = self.node_store
        if dest_id == store.node_id:
            raise ConfigError(f"shard {shard} already lives on {dest_id}")
        dest = store.map.nodes.get(dest_id)
        if dest is None:
            raise ConfigError(
                f"unknown destination node {dest_id!r}; push a map that "
                "adds it first (CLUSTER <map>)"
            )
        pending = self._unresolved_flips.pop(shard, None)
        if pending is not None:
            resolved = await self._resolve_pending_flip(shard, pending)
            if resolved is not None:
                return resolved  # the earlier flip had in fact sealed
        async with self._dial(dest) as client:
            # Checked here, with no await before the registration below.
            if self._closing or shard in self._outbound:
                raise ConfigError(
                    f"shard {shard} cannot start migrating off "
                    f"{store.node_id}: it already is, or the node is stopping"
                )
            job = asyncio.get_running_loop().run_in_executor(
                None, migrate_shard, store, _WirePeer(self, dest, client), shard
            )
            self._outbound[shard] = (client, job)
            try:
                stats = await job
            finally:
                del self._outbound[shard]
        # The shard's shipper (and its armed standby) go with the shard.
        self._reconcile_replication()
        self.migrations.append(stats)
        return stats

    async def _resolve_pending_flip(
        self, shard: int, new_map: ClusterMap
    ) -> Optional[Dict[str, object]]:
        """Finish an earlier flip whose seal outcome was unknown.

        Consults the destination's durable map: if it sealed, the
        source releases the shard now (returning synthetic stats — the
        data already moved); if it provably did not, the migration state
        is aborted (unfencing the shard) and ``None`` is returned so a
        fresh migration can proceed. Still-unreachable destinations
        re-raise :class:`~repro.errors.MigrationUnresolvedError` and
        keep the shard fenced.
        """
        store = self.node_store
        dest_id = new_map.owner_id(shard)
        flip_map = await self._confirm_seal(
            new_map.nodes[dest_id],
            shard,
            new_map,
            ConnectionError("unresolved earlier flip"),
        )
        if flip_map is None:
            await self._run_engine(store.abort_migration, shard)
            return None
        await self._run_engine(store.release_shard, shard, flip_map)
        self._reconcile_replication()
        stats = migration_stats(
            store, shard, dest_id, resolved_earlier_flip=True
        )
        self.migrations.append(stats)
        return stats

    async def _confirm_seal(
        self,
        dest: NodeInfo,
        shard: int,
        new_map: ClusterMap,
        cause: BaseException,
    ) -> Optional[ClusterMap]:
        """After a failed ``MIG.SEAL`` call: did the destination seal?

        Probes the destination's ``CLUSTER`` map over a fresh connection
        (the migration peer's transport is suspect). Returns the map to
        release under when the destination's durable map assigns the
        shard to it at (at least) the proposed epoch, ``None`` when that
        map proves the seal never took effect — ``migration_seal``
        persists the map *before* adopting the shard, so a durable map
        still assigning the shard to us is proof — and records the flip
        as unresolved and raises
        :class:`~repro.errors.MigrationUnresolvedError` when the
        destination cannot be reached: the one case where neither
        releasing nor aborting is safe, so the shard stays fenced
        (writes answer BUSY) until a retried ``MIGRATE`` resolves it.
        """
        last: BaseException = cause
        for attempt in range(4):
            if attempt:
                await asyncio.sleep(0.05 * (2 ** (attempt - 1)))
            try:
                async with self._dial(dest) as probe:
                    dest_map = await fetch_map(probe)
            except (
                ConnectionError,
                OSError,
                asyncio.TimeoutError,
                ReproError,
            ) as exc:
                last = exc
                continue
            if (
                dest_map.owner_id(shard) == dest.node_id
                and dest_map.epoch >= new_map.epoch
            ):
                # Sealed. Release under the destination's (possibly
                # even newer) map so this side's epoch keeps growing.
                return dest_map
            return None
        self._unresolved_flips[shard] = new_map
        raise MigrationUnresolvedError(shard, dest.node_id, str(last)) from last

    # -- cross-node replication ----------------------------------------------

    def _reconcile_replication(self) -> None:
        """Match live shippers to the current map; start the heartbeat
        loop once the map carries any replica. Called after every map
        change (install, seal, promotion, demotion) — a shipper whose
        shard moved away or whose replica target changed is stopped, a
        newly replicated owned shard gets one."""
        if self._closing:
            return
        store = self.node_store
        cluster_map = store.map
        desired: Dict[int, str] = {}
        for shard in store.owned_shards():
            replica = cluster_map.replica_id(shard)
            if replica is not None and replica != store.node_id:
                desired[shard] = replica
        for shard, shipper in list(self._shippers.items()):
            if desired.get(shard) != shipper.target_id:
                shipper.stop()
                del self._shippers[shard]
                # The standby relationship ended (shard moved away, or
                # its replica was re-homed); a future shipper re-arms.
                self._standby_armed.discard(shard)
        for shard, target in desired.items():
            if shard not in self._shippers:
                self._shippers[shard] = _ShardShipper(self, shard, target)
        replicated = any(
            cluster_map.replica_id(shard) is not None
            for shard in range(cluster_map.num_shards)
        )
        if replicated and (self._hb_task is None or self._hb_task.done()):
            self._hb_task = asyncio.get_running_loop().create_task(
                self._heartbeat_loop()
            )

    async def _heartbeat_loop(self) -> None:
        """Jittered peer heartbeats, epoch gossip, and lease-expiry
        failover decisions. Runs only when the map replicates."""
        store = self.node_store
        while not self._closing:
            await asyncio.sleep(
                self.heartbeat_interval_s * (0.75 + random.random() * 0.5)
            )
            if self._closing or store._closed:
                return
            fault_point("repl.node.heartbeat", scope=store.node_id)
            self._reconcile_replication()
            peers = [
                info
                for node_id, info in store.map.nodes.items()
                if node_id != store.node_id
            ]
            await asyncio.gather(
                *(self._ping_peer(info) for info in peers),
                return_exceptions=True,
            )
            now = time.monotonic()
            await self._check_leases(now)
            await self._update_fences(now)

    async def _ping_peer(self, info: NodeInfo) -> None:
        """One REPL.PING exchange; records liveness, pulls newer maps."""
        store = self.node_store
        try:
            async with self._dial(info, self.ping_budget_s) as peer:
                reply = await peer.command(
                    ["REPL.PING", store.node_id, str(store.map.epoch)]
                )
                self._last_seen[info.node_id] = time.monotonic()
                peer_epoch = int(reply[2])
                if peer_epoch > store.map.epoch:
                    await self._adopt_remote_map(await fetch_map(peer))
                elif peer_epoch < store.map.epoch:
                    # Gossip *push*: under a lopsided partition the
                    # stale peer may be unable to dial anyone (its pull
                    # path is dead) while still answering inbound
                    # connections — this reply-path push is the only way
                    # a newer epoch reaches it, and the stale primary's
                    # adopt_map demotion rides on it.
                    await push_map(peer, store.map)
        except Exception:
            return  # unreachable or refused: the lease clock decides

    async def _adopt_remote_map(self, new_map: ClusterMap) -> bool:
        """Adopt a map learned from outside (a push, gossip, a peer's
        reply) and re-match the shippers; whether anything changed."""
        changed = await self._run_engine(self.node_store.adopt_map, new_map)
        if changed:
            self._reconcile_replication()
        return changed

    async def _check_leases(self, now: float) -> None:
        """Promote shards whose primary's lease expired as of ``now``
        (the heartbeat loop's ``time.monotonic()``)."""
        store = self.node_store
        for peer_id in list(store.map.nodes):
            if peer_id == store.node_id:
                continue
            last = self._last_seen.get(peer_id)
            if last is None:
                # First round that looks for this peer starts its lease
                # now, not at minus infinity.
                self._last_seen[peer_id] = now
                continue
            if now - last < self.lease_timeout_s:
                continue
            shards = self._promotable_from(peer_id, last)
            if shards:
                try:
                    await self._promote_from(peer_id, shards, last)
                except Exception:
                    # A lost race (the map moved under us) or an engine
                    # refusal: leave the lease expired; the next round
                    # re-evaluates against the fresh map.
                    continue

    def _promotable_from(self, peer_id: str, last_seen: float) -> List[int]:
        """The subset of ``peer_id``'s shards this node may promote:
        replicated here, seeded this lifetime, and with a ship stream
        that was still alive when the peer last was — a stream that died
        earlier may be missing acked writes, and refusing to promote a
        possibly stale standby beats serving wrong data."""
        store = self.node_store
        fresh = set(store.promotable_shards())
        slack = self.promotion_slack_s
        shards: List[int] = []
        for shard in store.map.shards_of(peer_id):
            if store.map.replica_id(shard) != store.node_id:
                continue
            if shard not in fresh:
                continue
            stream_seen = self._ship_seen.get(shard)
            if stream_seen is None or last_seen - stream_seen > slack:
                continue
            shards.append(shard)
        return shards

    async def _promote_from(
        self, peer_id: str, shards: List[int], last_seen: float
    ) -> None:
        """Fenced failover: bump the epoch, persist, serve, publish."""
        new_map = await self._run_engine(promote_local, self.node_store, shards)
        self.promotions.append(
            {
                "from": peer_id,
                "shards": list(shards),
                "epoch": new_map.epoch,
                "silence_s": round(time.monotonic() - last_seen, 3),
            }
        )
        # The dead peer is now the *replica* of the promoted shards;
        # reconciling spawns shippers that retry against it with backoff
        # — their eventual REPL.SYNC is exactly the rejoin reseed.
        self._reconcile_replication()
        await self._broadcast_map(new_map, exclude=(peer_id,))

    async def _update_fences(self, now: float) -> None:
        """Primary self-fencing (opt-in via ``self_fence``), as of ``now``.

        Fence: an owned replicated shard whose standby has shown no sign
        of life for ``fence_timeout_s`` stops acking writes — before any
        standby's lease on *us* can expire, because the fence window
        undercuts the lease window and inbound ship traffic keeps the
        two contact clocks in step (:meth:`_note_stream`).

        Unfence: only when the shipper is *streaming* again — that
        requires a full ``REPL.SYNC`` round trip whose reply carries the
        standby's map, so a standby that promoted while we were fenced
        demotes us (the shipper adopts its newer map) instead of the
        fence silently lifting into a split brain. Raw contact (a ping
        getting through) is deliberately not enough.
        """
        if not self.self_fence:
            return
        store = self.node_store
        for shard, shipper in list(self._shippers.items()):
            if shard not in self._standby_armed:
                # An unarmed standby (never seeded this tenure) cannot
                # pass the peer's promotion gate — nothing to fence
                # against, and fencing here would make every failover
                # permanently write-unavailable until the dead peer
                # rejoined.
                continue
            last = self._last_seen.get(shipper.target_id)
            if last is None:
                # The fence clock starts at first sight of the shipper,
                # like the lease clock in _check_leases.
                self._last_seen[shipper.target_id] = now
                continue
            if now - last >= self.fence_timeout_s:
                if await self._run_engine(store.repl_fence, shard):
                    self.fence_events.append(
                        (shard, "fence", store.map.epoch)
                    )
            elif shipper.streaming:
                if await self._run_engine(store.repl_unfence, shard):
                    self.fence_events.append(
                        (shard, "unfence", store.map.epoch)
                    )

    async def _broadcast_map(
        self, new_map: ClusterMap, exclude: Tuple[str, ...] = ()
    ) -> None:
        """Best-effort CLUSTER push of ``new_map`` to every other peer
        (unreachable ones learn it via heartbeat gossip instead)."""
        store = self.node_store
        for node_id, info in new_map.nodes.items():
            if node_id == store.node_id or node_id in exclude:
                continue
            try:
                async with self._dial(info, self.repl_timeout_s) as peer:
                    await push_map(peer, new_map)
            except Exception:
                continue

    # -- introspection --------------------------------------------------------

    def health(self) -> dict:
        """HEALTH payload plus peer liveness and replication lag."""
        payload = super().health()
        now = time.monotonic()
        payload["peers"] = {
            peer_id: round(now - last, 3)
            for peer_id, last in sorted(dict(self._last_seen).items())
        }
        payload["replication"] = {
            str(shard): shipper.summary()
            for shard, shipper in sorted(dict(self._shippers).items())
        }
        payload["lease_timeout_s"] = self.lease_timeout_s
        payload["promotions"] = list(self.promotions)
        payload["self_fence"] = self.self_fence
        if self.self_fence:
            payload["fence_timeout_s"] = self.fence_timeout_s
            payload["repl_fenced"] = self.node_store.repl_fenced_shards()
        return payload


class _WirePeer:
    """The migration driver's destination when it is another process:
    the five names an in-process :class:`NodeStore` answers to, spoken
    as ``MIG.BEGIN/APPLY/SEAL`` over one connection (answered strictly
    in order: the single ordered channel the driver needs).

    Blocking by design: the driver is synchronous and runs on a thread,
    so each call hands a coroutine to the node's event loop and waits.
    What only a wire can add — a seal whose outcome is unknown — is
    owned here, not by the driver (:meth:`migration_seal`).
    """

    def __init__(
        self, node: ClusterNode, dest: NodeInfo, client: KVClient
    ) -> None:
        self._node = node
        self._dest = dest
        self._client = client
        self._loop = asyncio.get_running_loop()
        self.node_id = dest.node_id
        #: The destination's map, as of its ``MIG.BEGIN`` reply.
        self.map = node.node_store.map

    def _on_loop(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def inbound_begin(self, shard: int, role: str) -> None:
        reply = self._on_loop(self._client.command(["MIG.BEGIN", str(shard)]))
        self.map = ClusterMap.from_json(reply[2])

    def migration_apply(self, shard: int, ops: List[BatchOp]) -> None:
        self._on_loop(
            self._client.command(
                ["MIG.APPLY", str(shard), *encode_batch(ops)[1:]]
            )
        )

    def migration_seal(self, shard: int, new_map: ClusterMap) -> ClusterMap:
        """``MIG.SEAL``; returns the map to release under.

        A failed call does not mean a failed seal: the client is
        at-least-once, so the request may have been applied with only
        the reply lost. Blindly aborting would lift the fence while the
        destination owns the shard at a higher epoch — dual ownership,
        with this side's acks lost once clients follow the newer epoch
        — so ask the destination's durable map what actually happened
        (:meth:`ClusterNode._confirm_seal`): sealed → its map; provably
        unsealed → the original error (aborting is safe); unreachable →
        :class:`~repro.errors.MigrationUnresolvedError`.
        """
        return self._on_loop(self._seal(shard, new_map))

    async def _seal(self, shard: int, new_map: ClusterMap) -> ClusterMap:
        try:
            await self._client.command(
                ["MIG.SEAL", str(shard), new_map.to_json()]
            )
            return new_map
        except Exception as seal_exc:
            flip_map = await self._node._confirm_seal(
                self._dest, shard, new_map, seal_exc
            )
            if flip_map is None:
                raise
            return flip_map


class _ShardShipper:
    """Ships one owned shard's commit stream to its replica node.

    Lifecycle: connect → ``REPL.SYNC`` (wipes and reopens the peer's
    standby; the reply may carry a newer map) → attach the WAL commit
    tap → snapshot chunks interleaved with buffered live groups over one
    ordered connection (same last-arrival-wins argument as migration) →
    ``REPL.SEEDED`` → stream forever, with an empty ``REPL.SHIP`` as
    keepalive when idle so the replica's stream lease stays warm. Any
    failure degrades: sync waiters release *without error* (the primary
    keeps serving un-replicated — availability over replication), and
    the session retries with jittered backoff, reseeding from scratch.
    That retry loop doubles as the rejoin path: after this node promotes
    a dead peer's shards, its shipper keeps knocking until the peer
    restarts, and the first successful ``REPL.SYNC`` hands the old
    primary the failover map (demoting it) and rebuilds its standby.

    **No new session while the shard is migrating off this node**: the
    retry loop backs off instead. A two-node replicated cluster migrates
    every shard onto its own replica node, where ``MIG.BEGIN``
    supersedes the standby, this stream's next ``REPL.SHIP`` is refused,
    and a ``REPL.SYNC`` retry would in turn supersede — wipe — the
    migration. A session already streaming to a *third* node is
    untouched. One interleaving remains — a retry that passed the check
    an instant before the tail was attached, whose ``REPL.SYNC`` lands
    after ``MIG.BEGIN`` — and the slot rule makes it cost a cleanly
    aborted, retryable ``MIGRATE`` (its next ``MIG.APPLY`` is refused),
    never two trees; hence no lock held across a network call.
    """

    def __init__(
        self, node: ClusterNode, shard: int, target_id: str
    ) -> None:
        self.node = node
        self.shard = shard
        self.target_id = target_id
        self.state = "seeding"
        self.shipped_groups = 0
        self.shipped_ops = 0
        #: Records committed while the stream was down (observability:
        #: the size of the un-replicated window the next reseed covers).
        self.missed_records = 0
        self._lock = threading.Lock()
        self._buffer: Deque[
            Tuple[List[BatchOp], Optional["_Waiter"]]
        ] = deque()
        self._pending_records = 0
        self._pending_bytes = 0
        self._accepting = False
        self._streaming = False
        self._stopped = False
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._task = self._loop.create_task(self._run())

    @property
    def streaming(self) -> bool:
        """Whether the live commit stream is up (seed done, replica
        acking) — the only state a self-fence may lift in."""
        with self._lock:
            return self._streaming

    def summary(self) -> Dict[str, object]:
        with self._lock:
            return {
                "target": self.target_id,
                "state": self.state,
                "shipped_groups": self.shipped_groups,
                "shipped_ops": self.shipped_ops,
                "lag_records": self._pending_records,
                "lag_bytes": self._pending_bytes,
                "missed_records": self.missed_records,
            }

    # -- engine-thread side ---------------------------------------------------

    def _on_commit(self, entries: List[Entry]) -> None:
        """WAL commit tap: runs on the committing engine thread, under
        the shard's write mutex, after the group is locally durable."""
        ops = entries_to_batch_ops(entries, context="cross-node replication")
        waiter: Optional[_Waiter] = None
        with self._lock:
            if self._accepting:
                if self._streaming:
                    waiter = _Waiter()
                self._buffer.append((ops, waiter))
                self._pending_records += len(ops)
                self._pending_bytes += _ops_bytes(ops)
            else:
                self.missed_records += len(ops)
        self._loop.call_soon_threadsafe(self._wake.set)
        acked = False
        if waiter is not None:
            # Hold the commit until the replica acked the
            # group (or the stream degraded and released everyone).
            # Bounded — a hung replica must not wedge the primary's
            # write path past the lease it would be declared dead by.
            done = waiter.event.wait(self.node.lease_timeout_s)
            acked = done and waiter.acked
        if (
            self.node.self_fence
            and not acked
            and self.shard in self.node._standby_armed
        ):
            # The ack-time half of self-fencing, exact where the
            # heartbeat-grained admission fence cannot be: this write is
            # locally durable but was never confirmed on a standby that
            # *could promote over us* (it seeded in our tenure, so the
            # peer's promotion gate would accept it) — the stream is
            # degraded or mid-partition, and by the time an ack could go
            # out that standby may legitimately have promoted; acking
            # would lose the write on heal. BUSY instead (the client's
            # retry lands wherever the map then points), so in
            # self-fencing mode an acked write on an armed shard is on
            # both nodes, always. An *unarmed* shard (standby never
            # seeded this tenure — a freshly promoted shard, or one
            # whose peer died before its first seed) acks unreplicated:
            # that standby provably cannot pass the promotion gate.
            raise ShardFencedError(self.shard)

    # -- event-loop side ------------------------------------------------------

    def stop(self) -> None:
        self._stopped = True
        self._release_all("stopped")
        self._task.cancel()

    async def wait_stopped(self) -> None:
        try:
            await self._task
        except (asyncio.CancelledError, Exception):
            pass

    def _release_all(self, state: str) -> None:
        """Degrade: stop accepting, drop the buffer, release waiters
        (without error — the primary keeps serving un-replicated)."""
        with self._lock:
            self._accepting = False
            self._streaming = False
            dropped = list(self._buffer)
            self._buffer.clear()
            self._pending_records = 0
            self._pending_bytes = 0
            self.state = state
            for ops, _waiter in dropped:
                self.missed_records += len(ops)
        for _ops, waiter in dropped:
            if waiter is not None:
                # Released without acked=True: in self-fencing mode the
                # engine-side wait turns this into a BUSY instead of a
                # silent un-replicated ack.
                waiter.event.set()

    async def _run(self) -> None:
        store = self.node.node_store
        delays = backoff_delays(
            self.node.heartbeat_interval_s, self.node.ship_backoff_cap_s
        )
        try:
            # The commit tap lives for the shipper's whole lifetime, not
            # per-session: between sessions (stream degraded, standby
            # unreachable) commits must still reach _on_commit so the
            # ack-time self-fence can refuse them while the shard is
            # armed. Buffering is gated separately by _accepting.
            await self.node._run_engine(
                store.attach_replication, self.shard, self._on_commit
            )
            while not self._stopped:
                cluster_map = store.map
                if (
                    cluster_map.owner_id(self.shard) != store.node_id
                    or cluster_map.replica_id(self.shard) != self.target_id
                ):
                    return  # reassigned under us; reconcile reaps us
                try:
                    if self.shard in store.migrating_shards():
                        raise ConfigError("no replica session mid-migration")
                    await self._session()
                    return
                except asyncio.CancelledError:
                    raise
                except Exception:
                    self._release_all("retrying")
                    await asyncio.sleep(next(delays))
        finally:
            self._release_all("stopped")
            if not store._closed:
                try:
                    store.detach_replication(self.shard)
                except Exception:
                    pass

    async def _session(self) -> None:
        """One seed-then-stream session; raises on any wire failure."""
        node = self.node
        store = node.node_store
        target = store.map.nodes.get(self.target_id)
        if target is None:
            raise ConfigError(
                f"replica node {self.target_id!r} left the map"
            )
        self.state = "seeding"
        async with node._dial(target, node.repl_timeout_s) as peer:
            reply = await peer.command(
                ["REPL.SYNC", str(self.shard), store.map.to_json()]
            )
            peer_map = ClusterMap.from_json(reply[2])
            if peer_map.epoch > store.map.epoch:
                # The replica lives in a newer world (e.g. we are a
                # rejoined primary racing a promotion we have not heard
                # about): adopt it and re-evaluate responsibility.
                await node._adopt_remote_map(peer_map)
                raise ConfigError("map advanced during replica sync")
            # The standby just wiped itself for the reseed: whatever
            # promotable copy it held is gone until REPL.SEEDED.
            node._standby_armed.discard(self.shard)
            with self._lock:
                self._accepting = True
                self._streaming = False
            try:
                # Seed: pager batches interleaved with live-group
                # drains on this one connection — arrival order is
                # apply order, and per key the last arrival wins.
                batches = store.snapshot_batches(self.shard)
                while True:
                    batch = await node._run_engine(next, batches, None)
                    if batch is None:
                        break
                    await self._ship_ops(peer, batch, count_groups=False)
                    await self._drain(peer)
                await peer.command(["REPL.SEEDED", str(self.shard)])
                # From here the standby passes the peer's promotion
                # gate: self-fencing must guard this shard. Armed
                # *before* streaming flips, so no write can slip an
                # unreplicated ack between the two.
                node._standby_armed.add(self.shard)
                with self._lock:
                    self._streaming = True
                    self.state = "streaming"
                while not self._stopped:
                    cluster_map = store.map
                    if (
                        cluster_map.owner_id(self.shard) != store.node_id
                        or cluster_map.replica_id(self.shard)
                        != self.target_id
                    ):
                        return
                    self._wake.clear()
                    if await self._drain(peer):
                        continue
                    try:
                        await asyncio.wait_for(
                            self._wake.wait(),
                            node.heartbeat_interval_s,
                        )
                    except asyncio.TimeoutError:
                        # Idle keepalive: proves the stream (not just
                        # the node) is alive, which the peer's
                        # promotion gate requires.
                        await peer.command(
                            ["REPL.SHIP", str(self.shard)]
                        )
            finally:
                # The commit tap stays attached (the shipper owns it,
                # see _run): only buffering stops, so inter-session
                # commits still hit the ack-time fence.
                with self._lock:
                    self._accepting = False
                    self._streaming = False

    async def _drain(self, peer: KVClient) -> int:
        """Ship every buffered commit group, in order; returns op count."""
        total = 0
        while True:
            with self._lock:
                if not self._buffer:
                    return total
                ops, waiter = self._buffer[0]
            acked = False
            try:
                await self._ship_ops(peer, ops, count_groups=True)
                acked = True
            finally:
                # Acked or failed, this group's commit may proceed: a
                # failure degrades the stream rather than failing the
                # (already locally durable) write — unless self-fencing
                # is on, where the un-acked release becomes a BUSY.
                with self._lock:
                    if self._buffer and self._buffer[0][0] is ops:
                        self._buffer.popleft()
                        self._pending_records -= len(ops)
                        self._pending_bytes -= _ops_bytes(ops)
                if waiter is not None:
                    waiter.acked = acked
                    waiter.event.set()
            total += len(ops)

    async def _ship_ops(
        self, peer: KVClient, ops: List[BatchOp], *, count_groups: bool
    ) -> None:
        await peer.command(
            ["REPL.SHIP", str(self.shard), *encode_batch(ops)[1:]]
        )
        # A shipped-and-acked group is as strong a sign of replica life
        # as an answered ping; feeding the contact clock from it keeps a
        # write-heavy primary from fencing between heartbeat rounds.
        self.node._last_seen[self.target_id] = time.monotonic()
        with self._lock:
            if count_groups:
                self.shipped_groups += 1
            self.shipped_ops += len(ops)


class _Waiter:
    """One sync-mode commit's hold: released by the shipper with
    ``acked`` telling the engine thread whether the replica confirmed
    the group (vs. a degrade/stop release)."""

    __slots__ = ("event", "acked")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.acked = False


def _ops_bytes(ops: List[BatchOp]) -> int:
    return sum(
        len(key) + len(value or "") for _kind, key, value in ops
    )
