"""Shard streams off the event loop: both ends of ``REPL.*`` and ``MIG.*``.

A shard stream is one ordered connection between two nodes: a
replica's seed then its live commit groups (``REPL.SYNC`` /
``REPL.SHIP`` / ``REPL.SEEDED``), or a migration's pages, tail and seal
(``MIG.BEGIN`` / ``MIG.APPLY`` / ``MIG.SEAL``). None of it touches the
node's event loop past the first frame:

* :class:`StreamConnection` — the sending end: one blocking socket,
  one request in flight, its reply read off the same socket.
* :class:`_ShardShipper` — a replicated shard's sender. A session
  thread dials, sends ``REPL.SYNC``, iterates the seed pages and sends
  ``REPL.SEEDED``; from then on the thread that commits a group ships
  it itself, inline on the session's connection, and its commit is
  held until the standby's ack arrives on that socket.
* :class:`_WirePeer` — the migration driver's destination, spoken over
  a :class:`StreamConnection` from the driver's own thread.
* :class:`InboundStream` — the receiving end. The opening verb
  upgrades its server connection (``ClusterNode._upgrade`` sets the
  hook, ``KVServer._handle_connection`` hands over the socket), and one
  thread per stream runs that verb and every later one, writing the
  replies itself through the server's one answer path
  (:meth:`~repro.server.KVServer.answer`).

**Why this cannot deadlock.** A committing thread holds its shard's
write mutex while it waits for the standby's ack, and the peer's
committing threads wait on this node's acks the same way. An
:class:`InboundStream` thread never waits on an ack: it takes only the
slot tree's locks and its shard's stream lock, which no committing
thread holds. So two nodes' committing threads can never wait on each
other.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from ..core.entry import Entry
from ..errors import ConfigError, ShardFencedError
from ..server.client import KVClient, backoff_delays
from ..server.protocol import (
    MAX_FRAME_BYTES,
    BatchOp,
    FrameParser,
    ProtocolError,
    decode_batch,
    encode_batch,
    encode_message,
    encode_messages,
)
from .map import ClusterMap, NodeInfo
from .store import MIGRATION, REPLICA, entries_to_batch_ops

if TYPE_CHECKING:
    from .node import ClusterNode

#: Bytes asked of one ``recv``. Smaller than the server's 64 KiB reads:
#: a live group's frame is far smaller, a seed page takes a few reads,
#: and each receiving thread's allocator arena grows by about this much
#: (at 64 KiB the two-node ledger stack peaked ~1 MB higher).
_RECV_BYTES = 16 * 1024


def parse_shard(text: str) -> int:
    """A request's shard index field, as an int."""
    try:
        return int(text)
    except ValueError:
        raise ProtocolError(
            f"shard index must be an integer, got {text!r}"
        ) from None


class _Worker:
    """A daemon thread the node's event loop can stop and await.

    It is registered in ``node._workers`` from start until it has
    returned: :meth:`ClusterNode.stop` stops every registered worker and
    awaits :attr:`stopped`, which resolves on the loop only after the
    thread is joined — so once it has, no stream or session thread is
    alive.
    """

    def __init__(
        self,
        node: "ClusterNode",
        name: str,
        run: Callable[[], None],
        stop: Callable[[], None],
    ) -> None:
        self._node = node
        self.stop = stop
        self.stopped: asyncio.Future = node._loop.create_future()
        self._thread = threading.Thread(
            target=self._main, args=(run,), name=name, daemon=True
        )
        node._workers.add(self)
        self._thread.start()

    def _main(self, run: Callable[[], None]) -> None:
        try:
            run()
        finally:
            try:
                self._node._loop.call_soon_threadsafe(self._finish)
            except RuntimeError:
                pass  # the loop is gone, and with it every waiter

    def _finish(self) -> None:
        self._thread.join()  # returning already: a few instructions
        self._node._workers.discard(self)
        self.stopped.set_result(None)


class StreamConnection:
    """One blocking node-to-node connection: a stream's requests, one in
    flight at a time, each answered in order on the same socket.

    A call cut short (timeout, reset, shutdown) leaves request and reply
    out of step, so it shuts the connection down: every later call
    fails at once. :meth:`shutdown` is safe from any thread and wakes a
    call blocked in ``recv``; :meth:`close` is the owner's.
    """

    def __init__(self, address: Tuple[str, int], timeout_s: float) -> None:
        self.timeout_s = timeout_s
        self._sock = socket.create_connection(address, timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._parser = FrameParser(MAX_FRAME_BYTES)
        self._replies: Deque[List[str]] = deque()

    def call(
        self, fields: List[str], deadline: Optional[float] = None
    ) -> List[str]:
        """Send one request and return its reply; ``ERR`` and ``BUSY``
        raise the client's typed errors. ``deadline`` (monotonic) bounds
        the whole call, else :attr:`timeout_s` bounds each socket wait."""
        sock = self._sock
        try:
            sock.settimeout(self._remaining(deadline))
            sock.sendall(encode_message(fields))
            while not self._replies:
                if deadline is not None:
                    sock.settimeout(self._remaining(deadline))
                data = sock.recv(_RECV_BYTES)
                if not data:
                    raise ConnectionError("the stream's peer closed it")
                self._replies.extend(self._parser.feed(data))
        except BaseException:
            self.shutdown()
            raise
        reply = self._replies.popleft()
        if reply[0] == "ERR" or reply[0] == "BUSY":
            raise KVClient._reply_error(reply)
        return reply

    def _remaining(self, deadline: Optional[float]) -> float:
        if deadline is None:
            return self.timeout_s
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("stream call past its deadline")
        return left

    def shutdown(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected through, or already down

    def close(self) -> None:
        self.shutdown()
        self._sock.close()


class InboundStream:
    """The receiving end of one ``REPL.*`` or ``MIG.*`` stream, served on
    a thread of its own from the upgrading verb on.

    The thread is bound to the slot its begin created
    (:meth:`~repro.cluster.NodeStore.inbound_begin`): a later batch,
    ``REPL.SEEDED`` or ``MIG.SEAL`` is refused once the shard's slot is a
    different object — a newer begin superseded this stream, whatever
    either stream's role — so a late batch never lands in a newer slot.
    The check and the call it guards run under the shard's stream lock,
    which every begin takes too.
    """

    def __init__(
        self,
        node: "ClusterNode",
        sock: socket.socket,
        parser: FrameParser,
        requests: List[List[str]],
        leftover: bytes,
    ) -> None:
        self.node = node
        self._sock = sock
        self._parser = parser
        self._requests = requests
        self._leftover = leftover
        self._shard = -1
        self._slot = None
        _Worker(node, "kv-stream", self._serve, self._shutdown)

    def _shutdown(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _serve(self) -> None:
        sock = self._sock
        requests = self._requests
        data = self._leftover
        answer = self.node.server.answer
        try:
            sock.settimeout(None)
            while True:
                if data:
                    try:
                        requests.extend(self._parser.feed(data))
                    except ProtocolError as exc:
                        sock.sendall(
                            encode_message(["ERR", "PROTOCOL", str(exc)])
                        )
                        return
                if requests:
                    replies = []
                    for request in requests:
                        started = time.perf_counter()
                        try:
                            outcome = self._dispatch(request)
                        except Exception as exc:
                            outcome = exc
                        replies.append(answer(request[0], started, outcome))
                    # One send per chunk of pipelined requests, as on
                    # the loop.
                    sock.sendall(encode_messages(replies))
                    requests.clear()
                data = sock.recv(_RECV_BYTES)
                if not data:
                    return
        except OSError:
            return  # the peer went, or the node shut the stream down
        finally:
            sock.close()

    def _dispatch(self, request: List[str]) -> List[str]:
        node = self.node
        store = node.node_store
        verb = request[0]
        if verb in ("REPL.SYNC", "MIG.BEGIN"):
            replica = verb == "REPL.SYNC"
            if len(request) != 2 + replica:
                raise ProtocolError(
                    "REPL.SYNC needs a shard index and a map payload"
                    if replica
                    else "MIG.BEGIN needs exactly a shard index"
                )
            shard = parse_shard(request[1])
            if not 0 <= shard < store.num_shards:
                raise ProtocolError(f"no shard {shard}")
            role = REPLICA if replica else MIGRATION
            source_map = ClusterMap.from_json(request[2]) if replica else None
            self._slot = None
            with node._stream_locks[shard]:
                slot = store.inbound_begin(shard, role, source_map)
            self._shard, self._slot = shard, slot
            if replica:
                # Adopting the shipped map may have demoted us.
                node._from_thread(node._reconcile_replication)
                node._note_stream(shard)
            # Reply with our map too: a source whose map lags ours (it
            # missed migrations we took part in) fast-forwards before
            # computing the flip epoch, which must exceed *both* maps.
            return ["OK", store.node_id, store.map.to_json()]
        if verb in ("REPL.SHIP", "MIG.APPLY"):
            replica = verb == "REPL.SHIP"
            shard = self._bound(request, REPLICA if replica else MIGRATION)
            ops = decode_batch(["BATCH", *request[2:]])
            apply = store.replica_apply if replica else store.migration_apply
            self._guarded(shard, apply, ops)
            if replica:
                node._note_stream(shard)
            return ["OK", str(len(ops))]
        if verb == "REPL.SEEDED":
            if len(request) != 2:
                raise ProtocolError("REPL.SEEDED needs exactly a shard index")
            shard = self._bound(request, REPLICA)
            self._guarded(shard, store.replica_mark_seeded)
            node._note_stream(shard)
            return ["OK", str(shard)]
        if verb == "MIG.SEAL":
            if len(request) != 3:
                raise ProtocolError(
                    "MIG.SEAL needs a shard index and a map payload"
                )
            shard = self._bound(request, MIGRATION)
            sealed = ClusterMap.from_json(request[2])
            self._guarded(shard, store.migration_seal, sealed)
            node._from_thread(node._reconcile_replication)  # may now ship
            return ["OK", str(sealed.epoch)]
        raise ProtocolError(f"{verb!r} is not a verb of a shard stream")

    def _guarded(self, shard: int, call: Callable, *args: object) -> None:
        """``call(shard, *args)``, if this stream's begin still owns the
        shard's slot. Checked once before the lock too: a superseded
        stream is refused at once, not after the current stream's
        in-flight apply."""
        store = self.node.node_store
        store.check_inbound(shard, self._slot)
        with self.node._stream_locks[shard]:
            store.check_inbound(shard, self._slot)
            call(shard, *args)

    def _bound(self, request: List[str], role: str) -> int:
        """The shard ``request`` names, if this stream began it in
        ``role``; refused otherwise."""
        if len(request) < 2:
            raise ProtocolError(f"{request[0]} needs a shard index")
        shard = parse_shard(request[1])
        slot = self._slot
        if slot is None or shard != self._shard or role != slot.role:
            raise ConfigError(
                f"this connection streams no {role} for shard {shard}"
            )
        return shard


class _WirePeer:
    """The migration driver's destination when it is another process:
    the five names an in-process :class:`NodeStore` answers to, spoken
    as ``MIG.BEGIN/APPLY/SEAL`` over one :class:`StreamConnection`
    (answered strictly in order: the single ordered channel the driver
    needs), dialled on the driver's thread at its first call.

    What only a wire can add — a seal whose outcome is unknown — is
    owned here, not by the driver (:meth:`migration_seal`).
    """

    def __init__(self, node: "ClusterNode", dest: NodeInfo) -> None:
        self._node = node
        self._dest = dest
        self._lock = threading.Lock()
        self._conn: Optional[StreamConnection] = None
        self._stopped = False
        self.node_id = dest.node_id
        #: The destination's map, as of its ``MIG.BEGIN`` reply.
        self.map = node.node_store.map

    def _call(self, fields: List[str]) -> List[str]:
        if self._conn is None:
            conn = StreamConnection(
                self._node.peer_address(self._dest), self._node.repl_timeout_s
            )
            with self._lock:
                if self._stopped:
                    conn.close()
                    raise ConnectionError("the node is stopping")
                self._conn = conn
        return self._conn.call(fields)

    def stop(self) -> None:
        """Fail the driver's in-flight and later calls (any thread)."""
        with self._lock:
            self._stopped = True
            conn = self._conn
        if conn is not None:
            conn.shutdown()

    def close(self) -> None:
        """Close the connection; the driver's thread, once it is done."""
        if self._conn is not None:
            self._conn.close()

    def inbound_begin(self, shard: int, role: str) -> None:
        reply = self._call(["MIG.BEGIN", str(shard)])
        self.map = ClusterMap.from_json(reply[2])

    def migration_apply(self, shard: int, ops: List[BatchOp]) -> None:
        self._call(["MIG.APPLY", str(shard), *encode_batch(ops)[1:]])

    def migration_seal(self, shard: int, new_map: ClusterMap) -> ClusterMap:
        """``MIG.SEAL``; returns the map to release under.

        A failed call does not mean a failed seal: the request may have
        been applied with only the reply lost. Blindly aborting would
        lift the fence while the destination owns the shard at a higher
        epoch — dual ownership, with this side's acks lost once clients
        follow the newer epoch — so ask the destination's durable map
        what actually happened (:meth:`ClusterNode._confirm_seal`, on
        the loop): sealed → its map; provably unsealed → the original
        error (aborting is safe); unreachable →
        :class:`~repro.errors.MigrationUnresolvedError`.
        """
        try:
            self._call(["MIG.SEAL", str(shard), new_map.to_json()])
            return new_map
        except Exception as seal_exc:
            flip_map = self._node._from_thread(
                self._node._confirm_seal, self._dest, shard, new_map, seal_exc
            )
            if flip_map is None:
                raise
            return flip_map


class _ShardShipper:
    """Ships one owned shard's commit stream to its replica node.

    Lifecycle, on the session thread: dial → ``REPL.SYNC`` (wipes and
    reopens the peer's standby; the reply may carry a newer map) →
    snapshot pages, each followed by the live groups buffered meanwhile,
    over the one ordered connection (same last-arrival-wins argument as
    migration) → ``REPL.SEEDED`` → streaming. While streaming, the thread
    that commits a group ships it itself, under :attr:`_wire`, and its
    commit is held until the standby acked — after the standby's fsync —
    or until ``min(repl_timeout_s, lease_timeout_s)`` passed; the
    session thread only sends an empty ``REPL.SHIP`` as keepalive when a
    heartbeat interval passed without a ship, so the replica's stream
    lease stays warm. Any failure degrades: a commit whose group went
    unacked returns *without error* (the primary keeps serving
    un-replicated — availability over replication), the connection is
    shut down, and the session retries with jittered backoff, reseeding
    from scratch.
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
        self, node: "ClusterNode", shard: int, target_id: str
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
        #: Guards the fields below; never held across a network call.
        self._lock = threading.Lock()
        #: The connection's turn: one request in flight, held from send
        #: to reply by whichever thread ships.
        self._wire = threading.Lock()
        self._conn: Optional[StreamConnection] = None
        #: Live groups committed while the seed is in flight.
        self._buffer: Deque[List[BatchOp]] = deque()
        self._pending_records = 0
        self._pending_bytes = 0
        self._accepting = False
        self._streaming = False
        self._last_ship = 0.0
        #: Set by :meth:`stop`: ends the session thread's backoff.
        self._stop = threading.Event()
        #: Set by :meth:`stop` and by a failed inline ship: the session
        #: thread wakes from its keepalive wait.
        self._wake = threading.Event()
        _Worker(node, f"kv-ship-{shard}", self._run, self.stop)

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

    # -- the committing thread ------------------------------------------------

    def _on_commit(self, entries: List[Entry]) -> None:
        """WAL commit tap: runs on the committing engine thread, under
        the shard's write mutex, after the group is locally durable.
        While streaming it ships the group and returns once the standby
        acked it; while seeding it buffers the group for the session."""
        ops = entries_to_batch_ops(entries, context="cross-node replication")
        with self._lock:
            streaming = self._streaming
            if not streaming:
                if self._accepting:
                    self._buffer.append(ops)
                    self._pending_records += len(ops)
                    self._pending_bytes += _ops_bytes(ops)
                else:
                    self.missed_records += len(ops)
        acked = streaming and self._ship_inline(ops)
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

    def _ship_inline(self, ops: List[BatchOp]) -> bool:
        """Ship one live group and wait for its ack; whether it came.
        Bounded — a hung replica must not wedge the primary's write path
        past the lease it would be declared dead by. A group not acked
        is not on the standby, so the stream degrades and reseeds."""
        node = self.node
        hold = min(node.repl_timeout_s, node.lease_timeout_s)
        deadline = time.monotonic() + hold
        if not self._wire.acquire(timeout=hold):
            self._degrade(len(ops))
            return False
        try:
            with self._lock:
                conn = self._conn if self._streaming else None
                if conn is None:  # degraded while this group waited
                    self.missed_records += len(ops)
            if conn is None:
                return False
            try:
                self._ship(conn, ops, deadline=deadline, group=True)
            except Exception:
                self._degrade(len(ops))
                return False
            return True
        finally:
            self._wire.release()

    # -- the event loop -------------------------------------------------------

    def stop(self) -> None:
        self._stop.set()
        self._release_all("stopped")
        with self._lock:
            conn = self._conn
        if conn is not None:
            conn.shutdown()  # wakes a call blocked on the peer
        self._wake.set()

    # -- any thread -----------------------------------------------------------

    def _release_all(self, state: str) -> None:
        """Degrade: stop accepting and streaming, drop the buffer."""
        with self._lock:
            self._accepting = False
            self._streaming = False
            self.missed_records += self._pending_records
            self._buffer.clear()
            self._pending_records = 0
            self._pending_bytes = 0
            self.state = state

    def _degrade(self, missed: int) -> None:
        """A live group of ``missed`` records went unacked: release,
        shut the connection down, and wake the session thread to
        reconnect and reseed."""
        self._release_all("retrying")
        with self._lock:
            self.missed_records += missed
            conn = self._conn
        if conn is not None:
            conn.shutdown()
        self._wake.set()

    # -- the session thread ---------------------------------------------------

    def _run(self) -> None:
        store = self.node.node_store
        delays = backoff_delays(
            self.node.heartbeat_interval_s, self.node.ship_backoff_cap_s
        )
        attached = False
        try:
            while not self._stop.is_set() and self._assigned():
                try:
                    if not attached:
                        # The commit tap lives for the shipper's whole
                        # lifetime, not per session: between sessions
                        # commits must still reach _on_commit so the
                        # ack-time self-fence can refuse them while the
                        # shard is armed (buffering is gated by
                        # _accepting). It is refused while a retired
                        # shipper of this shard still holds it: retry.
                        store.attach_replication(self.shard, self._on_commit)
                        attached = True
                    if self.shard in store.migrating_shards():
                        raise ConfigError("no replica session mid-migration")
                    self._session()
                    return
                except Exception:
                    self._release_all("retrying")
                    self._stop.wait(next(delays))
        finally:
            self._release_all("stopped")
            if attached and not store._closed:
                try:
                    store.detach_replication(self.shard)
                except Exception:
                    pass

    def _assigned(self) -> bool:
        """Whether the map still has us ship this shard to the target
        (reassigned under us: the loop's reconcile reaps us)."""
        store = self.node.node_store
        cluster_map = store.map
        return (
            cluster_map.owner_id(self.shard) == store.node_id
            and cluster_map.replica_id(self.shard) == self.target_id
        )

    def _session(self) -> None:
        """One seed-then-stream session; raises on any wire failure."""
        node = self.node
        store = node.node_store
        target = store.map.nodes.get(self.target_id)
        if target is None:
            raise ConfigError(
                f"replica node {self.target_id!r} left the map"
            )
        with self._lock:
            self.state = "seeding"
        conn = StreamConnection(node.peer_address(target), node.repl_timeout_s)
        with self._lock:
            self._conn = conn
        try:
            if self._stop.is_set():  # stop() ran before it saw conn
                return
            reply = conn.call(
                ["REPL.SYNC", str(self.shard), store.map.to_json()]
            )
            peer_map = ClusterMap.from_json(reply[2])
            if peer_map.epoch > store.map.epoch:
                # The replica lives in a newer world (e.g. we are a
                # rejoined primary racing a promotion we have not heard
                # about): adopt it and re-evaluate responsibility.
                node._from_thread(node._adopt_remote_map, peer_map)
                raise ConfigError("map advanced during replica sync")
            # The standby just wiped itself for the reseed: whatever
            # promotable copy it held is gone until REPL.SEEDED.
            node._from_thread(node._standby_armed.discard, self.shard)
            with self._lock:
                self._accepting = True
                self._streaming = False
            # Seed: pager batches interleaved with the groups buffered
            # meanwhile, on this one connection — arrival order is apply
            # order, and per key the last arrival wins.
            for batch in store.snapshot_batches(self.shard):
                self._ship(conn, batch, group=False)
                self._drain(conn)
            with self._wire:
                self._drain(conn)
                conn.call(["REPL.SEEDED", str(self.shard)])
                # From here the standby passes the peer's promotion
                # gate: self-fencing must guard this shard. Armed
                # *before* streaming flips, so no write can slip an
                # unreplicated ack between the two.
                node._from_thread(node._standby_armed.add, self.shard)
                with self._lock:
                    self._streaming = True
                    self.state = "streaming"
                # Groups buffered since the last drain go before any
                # committing thread's, which waits for _wire.
                self._drain(conn)
            interval = node.heartbeat_interval_s
            while not self._stop.is_set() and self._assigned():
                self._wake.wait(interval)
                self._wake.clear()
                with self._wire:
                    if not self.streaming:
                        raise ConnectionError("the live stream degraded")
                    if time.monotonic() - self._last_ship >= interval:
                        # Idle keepalive: proves the stream (not just
                        # the node) is alive, which the peer's
                        # promotion gate requires.
                        self._ship(conn, [], group=False)
        finally:
            # The commit tap stays attached (the shipper owns it, see
            # _run): only buffering stops, so inter-session commits
            # still hit the ack-time fence.
            with self._lock:
                self._accepting = False
                self._streaming = False
                self._conn = None
            conn.close()

    def _drain(self, conn: StreamConnection) -> None:
        """Ship every buffered group, oldest first."""
        while True:
            with self._lock:
                if not self._buffer:
                    return
                ops = self._buffer.popleft()
                self._pending_records -= len(ops)
                self._pending_bytes -= _ops_bytes(ops)
            self._ship(conn, ops, group=True)

    def _ship(
        self,
        conn: StreamConnection,
        ops: List[BatchOp],
        *,
        group: bool,
        deadline: Optional[float] = None,
    ) -> None:
        conn.call(
            ["REPL.SHIP", str(self.shard), *encode_batch(ops)[1:]], deadline
        )
        now = time.monotonic()
        self._last_ship = now
        # A shipped-and-acked group is as strong a sign of replica life
        # as an answered ping; feeding the contact clock from it keeps a
        # write-heavy primary from fencing between heartbeat rounds.
        self.node._last_seen[self.target_id] = now
        with self._lock:
            if group:
                self.shipped_groups += 1
            self.shipped_ops += len(ops)


def _ops_bytes(ops: List[BatchOp]) -> int:
    return sum(
        len(key) + len(value or "") for _kind, key, value in ops
    )
