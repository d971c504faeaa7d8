"""ClusterNode: a :class:`~repro.server.KVServer` with the cluster verbs.

One ClusterNode fronts one :class:`~repro.cluster.NodeStore` through one
:class:`~repro.server.KVServer` it builds — everything the serving layer
already does (pipelining, per-shard group commit, admission control,
degraded-mode replies, the ``MOVED``/``BUSY`` replies of its one error
map) applies unchanged, because the NodeStore satisfies the same
:class:`~repro.api.KVStore` protocol and exposes
``num_shards``/``shard_index`` for the per-shard committers. Into that
server's verb table the node registers:

* ``CLUSTER`` — fetch the node's epoch'd map, or push a newer map
  (:meth:`~repro.cluster.NodeStore.adopt_map`: membership changes ride
  this, a map that takes shards away demotes, one that grants shards is
  refused — ownership is gained through the migration protocol or a
  promotion only);
* hands the two inbound streams that fill a shard's one slot
  (:meth:`~repro.cluster.NodeStore.inbound_begin`) — ``MIG.BEGIN`` /
  ``MIG.APPLY`` / ``MIG.SEAL`` for a migration, ``REPL.SYNC`` /
  ``REPL.SHIP`` / ``REPL.SEEDED`` for a standby — to threads of their
  own: the opening verb upgrades its connection
  (:class:`~repro.cluster.shipper.InboundStream`), and the handlers
  differ only in the role they pass;
* serves ``MIGRATE <shard> <node_id>`` — the source role: run
  :func:`~repro.cluster.migrate_shard`, the one migration driver,
  against a :class:`~repro.cluster.shipper._WirePeer` and reply with
  its stats.

Both streams rely on one ordered connection: a stream thread answers
its connection's requests strictly in order, so a single peer
connection gives BEGIN → APPLY* → SEAL (or SYNC → SHIP*) exactly the
ordering the store needs. ``MIGRATE`` itself is handled inline on the
requesting connection, its driver on a thread of its own — only that
connection blocks for the duration; every other connection (including
the writes being migrated under) keeps being served by the event loop.

**Which thread runs what.** The event loop runs nothing a stream sends:

==========================  ===============================================
thread                      runs
==========================  ===============================================
event loop (one per node)   client verbs, ``CLUSTER``, ``MIGRATE``,
                            ``REPL.PING``, heartbeats, lease and fence
                            checks, and every change to loop-owned state
                            (``_standby_armed``, map adoption,
                            ``_reconcile_replication``, ``_shippers``)
committing thread           a commit; while its shard streams it ships
(``kv-engine``)             its own group inline and waits for the ack
inbound stream              one per stream: its ``REPL.SYNC`` /
(``kv-stream``)             ``MIG.BEGIN`` and every later frame, replies
                            included
shipper session             one per replicated owned shard: dial,
(``kv-ship-<shard>``)       ``REPL.SYNC``, seed pages, ``REPL.SEEDED``,
                            keepalive, backoff
migration driver            :func:`~repro.cluster.migrate_shard`, ``MIG.*``
(default executor)          over its own blocking connection
==========================  ===============================================

Threads reach loop-owned state only through :meth:`_from_thread`
(``run_coroutine_threadsafe``). A stream thread never waits on an ack,
so two nodes' committing threads — each holding a write mutex while it
waits for the *other* node's apply — can never wait on each other.

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
import socket
import threading
import time
from contextlib import asynccontextmanager
from typing import AsyncIterator, Dict, List, Optional, Set, Tuple

from ..errors import (
    ClosedError,
    ConfigError,
    MigrationUnresolvedError,
    ReproError,
)
from ..faults.registry import fault_point
from ..server.client import KVClient
from ..server.protocol import FrameParser, ProtocolError
from ..server.server import KVServer
from .client import fetch_map, push_map
from .map import ClusterMap, NodeInfo
from .shipper import (
    InboundStream,
    _ShardShipper,
    _WirePeer,
    _Worker,
    parse_shard,
)
from .store import NodeStore, migrate_shard, migration_stats, promote_local


class ClusterNode:
    """One cluster member: a KVServer bound at its map address, with the
    cluster verbs in its verb table.

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
        repl_timeout_s: Per-request bound on node-to-node wire calls
            (the ship and migration streams, a failover map broadcast).
            A commit waits for its standby's ack at most
            ``min(repl_timeout_s, lease_timeout_s)``.
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
        options: Forwarded to :class:`~repro.server.KVServer`
            (:attr:`server`).
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
        self.host = options["host"]
        self.node_store = store
        self.server = KVServer(
            store,
            verbs={
                "CLUSTER": self._dispatch_read,
                "MIGRATE": self._dispatch_read,
                "REPL.PING": self._dispatch_read,
                "INFO": self._dispatch_read,
                "HEALTH": self._dispatch_read,
                "REPL.SYNC": self._upgrade,
                "MIG.BEGIN": self._upgrade,
                "REPL.SHIP": self._dispatch_read,
                "REPL.SEEDED": self._dispatch_read,
                "MIG.APPLY": self._dispatch_read,
                "MIG.SEAL": self._dispatch_read,
            },
            **options,  # type: ignore[arg-type]
        )
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
        #: In-flight outbound migrations: shard → (the driver's peer,
        #: the future of its thread). :meth:`stop` shuts the peer's
        #: connection down so the driver unwinds through its abort path.
        self._outbound: Dict[int, Tuple[_WirePeer, asyncio.Future]] = {}
        #: Live outbound shippers, one per owned shard with a replica.
        self._shippers: Dict[int, _ShardShipper] = {}
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
        #: Every live stream and session thread (loop-owned).
        self._workers: Set[_Worker] = set()
        #: Per shard: held by an inbound stream across a begin, or across
        #: the binding check and the call it guards.
        self._stream_locks = [
            threading.Lock() for _ in range(store.num_shards)
        ]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
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

    @property
    def port(self) -> int:
        """The bound port (resolved by :meth:`start` when 0)."""
        return self.server.port

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.start()
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
        self._shippers.clear()
        workers = list(self._workers)
        for worker in workers:
            worker.stop()
        outbound = list(self._outbound.values())
        for peer, _job in outbound:
            peer.stop()  # fails the driver's in-flight call
        if outbound:
            await asyncio.wait([job for _peer, job in outbound])
        for worker in workers:
            await worker.stopped
        await self.server.stop()

    def _from_thread(self, fn, *args):
        """Run ``fn(*args)`` — a plain or a coroutine function — on the
        event loop and return its result: how a stream, session or
        migration thread reaches loop-owned node state
        (``_standby_armed``, map adoption, ``_reconcile_replication``,
        ``_shippers``)."""

        async def call():
            result = fn(*args)
            if asyncio.iscoroutine(result):
                result = await result
            return result

        return asyncio.run_coroutine_threadsafe(call(), self._loop).result()

    # -- cluster verbs --------------------------------------------------------

    async def _dispatch_read(
        self, request: List[str], conn=None, settle=None
    ) -> List[str]:
        """The node's verbs answered on the loop: ``CLUSTER``,
        ``MIGRATE``, ``REPL.PING``, ``INFO`` / ``HEALTH`` with the node's
        own payloads, and the refusal of a shard stream's verb that
        reached the loop without its opener."""
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
                parse_shard(request[1]), request[2]
            )
            return ["OK", json.dumps(stats, sort_keys=True)]
        if verb == "REPL.PING":
            if len(request) != 3:
                raise ProtocolError("REPL.PING needs a node id and an epoch")
            self._last_seen[request[1]] = time.monotonic()
            return ["OK", store.node_id, str(store.map.epoch)]
        if verb == "INFO":
            return ["INFO", json.dumps(self.info(), sort_keys=True)]
        if verb == "HEALTH":
            if len(request) != 1:
                raise ProtocolError("HEALTH takes no arguments")
            payload = await self.server.run_engine(self.health)
            return ["HEALTH", json.dumps(payload, sort_keys=True)]
        if self._closing:
            raise ClosedError(f"node {store.node_id} is stopping")
        raise ProtocolError(
            f"{verb} belongs to a shard stream; open one with REPL.SYNC "
            "or MIG.BEGIN"
        )

    async def _upgrade(
        self, request: List[str], conn, settle=None
    ) -> List[str]:
        """``REPL.SYNC`` / ``MIG.BEGIN``: the connection becomes the
        stream's; its own thread runs this verb and every later one
        (:meth:`_open_stream`)."""
        if self._closing:
            raise ClosedError(f"node {self.node_store.node_id} is stopping")
        conn.upgrade = self._open_stream
        return []

    def _open_stream(
        self,
        sock: socket.socket,
        parser: FrameParser,
        requests: List[List[str]],
        leftover: bytes,
    ) -> None:
        """Upgrade hook: serve the stream on a thread of its own. An
        upgraded connection leaves the server's count, so the node's
        stream and session threads are bounded by ``max_connections``
        instead: past it the stream is closed unanswered."""
        if self._closing or len(self._workers) >= self.server.max_connections:
            sock.close()
            return
        InboundStream(self, sock, parser, requests, leftover)

    def _note_stream(self, shard: int) -> None:
        """Record inbound ship-stream activity for ``shard`` (from its
        stream's thread: two GIL-atomic dict stores). It is also a sign
        of life from the shard's primary — recording that alongside
        ``_ship_seen`` keeps both ends' contact clocks within one frame
        of each other, which is what lets the primary's fence window
        provably undercut this node's lease window."""
        store = self.node_store
        now = time.monotonic()
        self._ship_seen[shard] = now
        owner = store.map.owner_id(shard)
        if owner != store.node_id:
            self._last_seen[owner] = now

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
        # Checked here, with no await before the registration below.
        if self._closing or shard in self._outbound:
            raise ConfigError(
                f"shard {shard} cannot start migrating off "
                f"{store.node_id}: it already is, or the node is stopping"
            )
        peer = _WirePeer(self, dest)

        def drive() -> Dict[str, object]:
            try:
                return migrate_shard(store, peer, shard)
            finally:
                peer.close()

        job = asyncio.get_running_loop().run_in_executor(None, drive)
        self._outbound[shard] = (peer, job)
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
            await self.server.run_engine(store.abort_migration, shard)
            return None
        await self.server.run_engine(store.release_shard, shard, flip_map)
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
        changed = await self.server.run_engine(
            self.node_store.adopt_map, new_map
        )
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
        new_map = await self.server.run_engine(
            promote_local, self.node_store, shards
        )
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
                if await self.server.run_engine(store.repl_fence, shard):
                    self.fence_events.append(
                        (shard, "fence", store.map.epoch)
                    )
            elif shipper.streaming:
                if await self.server.run_engine(store.repl_unfence, shard):
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

    def info(self) -> dict:
        """The INFO payload, its ``health`` the node's :meth:`health`."""
        return {**self.server.info(), "health": self.health()}

    def health(self) -> dict:
        """HEALTH payload plus peer liveness and replication lag."""
        payload = self.server.health()
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
