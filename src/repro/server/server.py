"""Asyncio TCP front-end for any KV store: pipelining, parallel group
commit, admission control.

This is the process boundary the ROADMAP's "serving heavy traffic" goal
needs: a :class:`KVServer` owns any :class:`~repro.api.KVStore` — a single
:class:`~repro.core.tree.LSMTree` (typically in ``background_mode``), a
:class:`~repro.shard.ShardedStore`, or a cluster node's
:class:`~repro.cluster.NodeStore` — and speaks the length-prefixed
protocol of :mod:`repro.server.protocol` to any number of concurrent
connections.

Three serving-layer mechanisms do the heavy lifting:

* **Pipelining, a window at a time** — each connection's requests are
  decoded incrementally and every chunk read off the socket (a client's
  pipelined window) is served as a unit. Replies leave strictly in
  arrival order, in one buffer; a write's effects are as if executed in
  arrival order on its connection. Inside a window the writes
  (PUT/DELETE/BATCH, and MULTI where one committer serves the whole
  store) are *deferred* into one run and committed together. A plain
  ``GET`` and a ``SCAN`` with a limit are answered at once, from the
  store as it stands — unless the run writes a key inside the read's
  answer, in which case the run commits first and the read answers
  after it (read your pipelined writes). Every other verb is a barrier:
  the run commits, then the verb runs. A read that does not conflict
  may therefore be answered from the state before its window's writes
  commit; those writes are still unacknowledged when the read is
  invoked, so that is a legal linearization. Ordering is
  per-connection; different connections interleave freely.
* **Parallel group commit** — writes from all connections are coalesced
  into shared :meth:`~repro.api.KVStore.write_batch` calls: one
  write-mutex acquisition and one WAL flush for N client writes (Luo &
  Carey's ingestion-batching observation applied at the serving
  boundary), and one submission per window rather than per request.
  When the store is sharded (it exposes ``num_shards``/``shard_index``),
  the server runs **one committer per shard**: each write is routed to
  its shard's committer, so different shards' commits — including their
  WAL fsyncs — are in flight simultaneously instead of serializing on
  one commit pipeline.
* **Admission control** — before a write run is admitted the server takes
  one :meth:`~repro.api.KVStore.backpressure` snapshot: the *slowdown*
  state delays the reply (client-visible pushback that costs no thread),
  and the *stop* state is converted into a retryable ``BUSY`` reply
  instead of parking an executor thread on the engine's stall condition.
  Connection count and per-request frame size are bounded the same way.

Plain ``GET`` (no ``AT``), ``SCAN`` with a limit (no ``AT``) and
``PING`` run on the event loop itself: a latest-state read takes no lock
that is held across I/O on any store (the rule
:meth:`repro.api.KVStore.get` and :meth:`~repro.api.KVStore.scan`
state), so the executor hop would only add latency. Everything that can
wait — every write, snapshot reads, ``SNAP``, ``HEALTH``, cluster verbs —
and a ``SCAN`` without a limit, whose work has no bound, runs on a
bounded thread-pool executor, so the loop never blocks on a commit; a
failing background flush/compaction surfaces as a structured
``ERR BACKGROUND`` reply (the store stays readable), never as a hung or
dropped connection. A verb may also *upgrade* its connection (a cluster
node's shard streams, :mod:`repro.cluster.shipper`): the loop answers
what came before it and hands the socket to the hook it set.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Awaitable,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..api import KVStore, Snapshot
from ..errors import (
    BackgroundError,
    ClosedError,
    ConfigError,
    ReplicationError,
    ShardFencedError,
    ShardMovedError,
    ShardUnavailableError,
    SnapshotExpiredError,
    TxnConflictError,
)
from .metrics import ServerMetrics
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    BatchOp,
    FrameParser,
    ProtocolError,
    decode_batch,
    encode_message,
    encode_messages,
)

#: Verbs deferred into a window's write run on every server. ``MULTI``
#: joins them only where one committer serves the whole store (see
#: :attr:`KVServer._run_verbs`): its store-wide atomicity contract must
#: reach the engine as one ``write_batch`` call, never split across
#: per-shard committers.
_WRITE_VERBS = ("PUT", "DELETE", "BATCH")

#: Reads a window answers on the loop, by their field count: ``GET key``
#: and ``SCAN lo hi limit`` — no ``AT`` (it takes the write mutex) and,
#: for a scan, a limit (without one its work has no bound).
_LOOP_READ_FIELDS = {"GET": 2, "SCAN": 4}

#: Ceiling on snapshots held open per connection: each pins engine-side
#: versions, so an unbounded registry would let one client pin memory
#: without limit.
_MAX_SNAPSHOTS_PER_CONN = 64


#: Takes over an upgraded connection: its socket (a duplicate the loop
#: no longer reads), its frame parser, the requests from the upgrading
#: verb on, and the bytes read off the socket but not yet parsed.
Upgrade = Callable[[socket.socket, FrameParser, List[List[str]], bytes], None]

#: Answers one verb of the verb table: ``handler(request, conn, settle)``
#: returns the reply or raises (``settle``: see :meth:`KVServer._dispatch_read`).
Handler = Callable[..., Awaitable[List[str]]]


class _ConnState:
    """Per-connection protocol state: negotiated version + live snapshots.

    A connection starts at protocol version 1 (the pre-``HELLO`` verb
    set) and upgrades via ``HELLO``. ``snapshots`` maps each token issued
    by this connection's ``SNAP`` to its engine handle; the handles are
    released on ``SNAP.END`` or when the connection closes.

    A verb that opens a stream sets ``upgrade``: the window stops at it,
    and the connection — that verb and every request after it
    (``upgrade_requests``) — leaves the event loop for the hook.
    """

    __slots__ = (
        "protocol_version", "snapshots", "upgrade", "upgrade_requests"
    )

    def __init__(self) -> None:
        self.protocol_version = 1
        self.snapshots: Dict[str, Snapshot] = {}
        self.upgrade: Optional[Upgrade] = None
        self.upgrade_requests: List[List[str]] = []

    def close_snapshots(self) -> None:
        for snapshot in self.snapshots.values():
            try:
                snapshot.close()
            except Exception:
                pass  # a dying engine's pins die with it
        self.snapshots.clear()

#: Cap on client ops folded into one group commit.
_GROUP_COMMIT_MAX_OPS = 512

#: Reply delay applied per write run while the engine reports the
#: *slowdown* state.
_SLOWDOWN_DELAY_S = 0.002

#: Transport write-buffer high-water mark. Raised above asyncio's 64 KiB
#: default so a burst of coalesced pipelined replies does not flap the
#: flow-control pause/resume machinery.
_WRITE_BUFFER_HIGH = 256 * 1024

#: A connection yields to the loop after every this many requests of a
#: window: loop reads never suspend, so a 64 KiB chunk of them would
#: otherwise hold every other connection for its whole length.
_LOOP_HOLD_REQUESTS = 128


def _answer_end(
    lo: str, hi: str, limit: int, pairs: Sequence[Tuple[str, str]]
) -> str:
    """Exclusive end of a limited scan's answer ``[lo, end)``, the keys
    whose writes would change it: a full answer ends just past its last
    key (``+ "\\x00"`` is the next string up), a short one covers all of
    ``[lo, hi)``, a zero limit nothing."""
    if len(pairs) < limit:
        return hi
    return pairs[-1][0] + "\x00" if pairs else lo


def tune_transport(writer: asyncio.StreamWriter) -> None:
    """Apply hot-path socket/transport tuning to one connection.

    ``TCP_NODELAY`` disables Nagle so a coalesced reply burst leaves
    immediately (asyncio enables it by default for TCP since 3.6; set
    explicitly so the guarantee does not depend on loop implementation),
    and the write-buffer high-water mark is raised so pipelined reply
    bursts don't bounce off flow control.
    """
    transport = writer.transport
    sock = transport.get_extra_info("socket")
    if sock is not None and sock.family in (socket.AF_INET, socket.AF_INET6):
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
    try:
        transport.set_write_buffer_limits(high=_WRITE_BUFFER_HIGH)
    except (NotImplementedError, RuntimeError):
        pass


class _GroupCommitter:
    """Coalesces concurrent write submissions into engine batch commits.

    Connections submit ``(ops, future)`` pairs; a single drain task folds
    everything queued at that moment into one
    :meth:`~repro.api.KVStore.write_batch` call on the executor and
    resolves every submitter's future with the outcome. While one commit
    is on the executor, new submissions pile up and ride the next commit
    — exactly the classic group-commit window, sized by load instead of
    by a timer.

    A sharded server runs one committer per shard (every op a committer
    sees belongs to its shard), so the per-shard commit pipelines proceed
    in parallel while each stays a serial group-commit window.
    """

    def __init__(
        self,
        store: KVStore,
        executor: ThreadPoolExecutor,
        metrics: ServerMetrics,
    ) -> None:
        self._store = store
        self._executor = executor
        self._metrics = metrics
        self._queue: Deque[Tuple[List[BatchOp], asyncio.Future]] = deque()
        self._wakeup = asyncio.Event()
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        """Spawn the drain task on the running loop."""
        self._task = asyncio.get_running_loop().create_task(self._drain())

    async def stop(self) -> None:
        """Cancel the drain task, failing any not-yet-committed writes."""
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None
        while self._queue:
            _, future = self._queue.popleft()
            if not future.done():
                future.set_exception(ClosedError("server is shutting down"))

    def submit_nowait(self, ops: List[BatchOp]) -> asyncio.Future:
        """Queue ``ops``; the returned future resolves when durable.

        Returning the bare future (instead of a coroutine) lets callers
        gather a pipelined window without creating one task per request.
        """
        future = asyncio.get_running_loop().create_future()
        self._queue.append((ops, future))
        self._wakeup.set()
        return future

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            while self._queue:
                batch: List[Tuple[List[BatchOp], asyncio.Future]] = []
                ops: List[BatchOp] = []
                while self._queue and len(ops) < _GROUP_COMMIT_MAX_OPS:
                    sub_ops, future = self._queue.popleft()
                    batch.append((sub_ops, future))
                    ops.extend(sub_ops)
                try:
                    await loop.run_in_executor(
                        self._executor, self._store.write_batch, ops
                    )
                except Exception as exc:  # surfaced per submitter
                    for _, future in batch:
                        if not future.done():
                            future.set_exception(exc)
                else:
                    self._metrics.group_commits += 1
                    self._metrics.group_committed_ops += len(ops)
                    for _, future in batch:
                        if not future.done():
                            future.set_result(None)


class KVServer:
    """An asyncio TCP server fronting any :class:`~repro.api.KVStore`.

    Args:
        store: The engine to serve — an ``LSMTree``, ``ShardedStore``,
            ``NodeStore``, or anything else satisfying the protocol.
            When the store is sharded (exposes ``num_shards`` and
            ``shard_index``), group commit runs one committer per shard so
            commits on different shards proceed in parallel. The server
            does *not* close the store unless ``owns_tree=True`` (the CLI
            sets that).
        host / port: Bind address; ``port=0`` picks a free port, readable
            from :attr:`port` after :meth:`start`.
        max_connections: Connections beyond this are answered with one
            ``ERR MAXCONN`` frame and closed immediately. (A frame
            larger than :data:`~repro.server.protocol.MAX_FRAME_BYTES`
            gets ``ERR PROTOCOL`` and the connection is closed too:
            framing cannot be trusted past that point.)
        executor_threads: Bound on concurrent engine calls. ``None``
            (default) sizes it to ``max(4, num_shards)`` so every shard's
            commit can be in flight at once.
        group_commit: Coalesce concurrent writes into shared engine
            commits (on by default; off = one engine call per request,
            the contrast ``bench_e22`` measures).
        owns_tree: Close the store on :meth:`stop`.
        verbs: Handlers added to the verb table :meth:`_dispatch_read`
            answers through (a cluster node's verbs), by verb.
    """

    def __init__(
        self,
        store: KVStore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 128,
        executor_threads: Optional[int] = None,
        group_commit: bool = True,
        owns_tree: bool = False,
        verbs: Optional[Dict[str, Handler]] = None,
    ) -> None:
        self.store = store
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.group_commit = group_commit
        self.metrics = ServerMetrics()
        self._owns_tree = owns_tree
        #: One committer per shard when the store routes by shard; a
        #: single committer (index 0) otherwise.
        self._shard_index: Optional[Callable[[str], int]] = getattr(
            store, "shard_index", None
        )
        num_committers = (
            int(getattr(store, "num_shards", 1))
            if self._shard_index is not None
            else 1
        )
        if executor_threads is None:
            executor_threads = max(4, num_committers)
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads, thread_name_prefix="kv-engine"
        )
        self._committers = [
            _GroupCommitter(store, self._executor, self.metrics)
            for _ in range(num_committers)
        ]
        #: Verbs a window defers into its write run. One committer makes
        #: one ``write_batch`` — one WAL group record — of whole
        #: submissions, so there ``MULTI`` keeps its all-or-nothing
        #: contract inside the run; with per-shard committers it stays a
        #: barrier and its own engine call (:meth:`_dispatch_multi`).
        self._run_verbs = _WRITE_VERBS + (
            ("MULTI",) if num_committers == 1 else ()
        )
        #: The verb table: a handler for every verb a window answers
        #: outside its write run, bar ``MULTI`` (:meth:`_dispatch_multi`).
        self._verbs: Dict[str, Handler] = {
            "PING": self._ping,
            "HELLO": self._hello,
            "SNAP": self._snap,
            "SNAP.END": self._snap_end,
            "GET": self._get,
            "SCAN": self._scan,
            "INFO": self._info,
            "HEALTH": self._health,
            **(verbs or {}),
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._started_at = time.time()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self.group_commit:
            for committer in self._committers:
                committer.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, close live connections, release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for committer in self._committers:
            await committer.stop()
        for writer in list(self._writers):
            writer.close()
        for writer in list(self._writers):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._writers.clear()
        self._executor.shutdown(wait=True)
        if self._owns_tree:
            self.store.close()

    async def serve_forever(self) -> None:
        """Block until the server is cancelled (CLI entry point)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if len(self._writers) >= self.max_connections:
            self.metrics.connections_rejected += 1
            writer.write(
                encode_message(
                    ["ERR", "MAXCONN", "connection limit reached; retry later"]
                )
            )
            await self._close_writer(writer)
            return
        self._writers.add(writer)
        self.metrics.connection_opened()
        tune_transport(writer)
        parser = FrameParser(MAX_FRAME_BYTES)
        conn = _ConnState()
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    break
                try:
                    requests = parser.feed(data)
                except ProtocolError as exc:
                    self.metrics.protocol_errors += 1
                    writer.write(
                        encode_message(["ERR", "PROTOCOL", str(exc)])
                    )
                    await writer.drain()
                    break
                # Reply cork: everything this chunk's requests produce is
                # written as one buffer — one send(2) per pipelined window.
                if requests:
                    writer.write(
                        encode_messages(
                            await self._serve_window(conn, requests)
                        )
                    )
                await writer.drain()
                if conn.upgrade is not None:
                    self._hand_off(conn, reader, writer, parser)
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            conn.close_snapshots()
            self.metrics.connection_closed()
            self._writers.discard(writer)
            await self._close_writer(writer)

    @staticmethod
    def _hand_off(
        conn: _ConnState,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        parser: FrameParser,
    ) -> None:
        """Give an upgraded connection to its hook: the loop stops
        reading, and the hook gets a duplicate of the socket plus every
        byte already read off it (the reader's buffer: a ``read`` returns
        at most what it was asked for). Closing the transport afterwards
        closes only the loop's descriptor, so the peer sees no EOF."""
        writer.transport.pause_reading()
        leftover = bytes(reader._buffer)
        reader._buffer.clear()
        conn.upgrade(
            writer.get_extra_info("socket").dup(),
            parser,
            conn.upgrade_requests,
            leftover,
        )

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _serve_window(
        self, conn: _ConnState, requests: List[List[str]]
    ) -> List[List[str]]:
        """Answer one chunk of pipelined requests, in arrival order.

        Writes are parsed once and deferred into ``run``; the run is
        committed — one :meth:`_dispatch_writes` call, so one commit
        group per committer — when a later request needs its effects and
        at the end of the window. ``PING``, a plain ``GET`` and a
        ``SCAN`` with a limit are loop reads, answered at once from the
        store as it stands; one rule decides when such a read needs the
        run: it does when the run writes a key inside the read's answer
        — a ``GET``'s key; a full scan's ``[lo, last key returned]``; a
        short scan's whole ``[lo, hi)``. A ``GET`` knows its answer
        before it reads, so the run commits first; a scan learns it from
        its result, so on a hit the run commits and the scan reads again
        (``settle``). Any other verb is a barrier: the run commits, then
        the verb runs; a barrier that upgrades the connection (it set
        ``conn.upgrade``) ends the window, and only the replies before it
        are the loop's. Deferring costs no latency: the reply cork holds
        every reply until the window is done anyway.
        """
        replies: List[List[str]] = [[]] * len(requests)
        run: List[Tuple[str, List[BatchOp]]] = []
        slots: List[int] = []  # run[i] answers into replies[slots[i]]
        written: Set[str] = set()  # every key an op of the run touches

        async def commit_run() -> None:
            for index, reply in zip(slots, await self._dispatch_writes(run)):
                replies[index] = reply
            run.clear()
            slots.clear()
            written.clear()

        async def settle(lo: str, end: str) -> bool:
            """Commit the run if it writes a key in ``[lo, end)``; say
            whether it did."""
            if not any(lo <= key < end for key in written):
                return False
            await commit_run()
            return True

        for slot, request in enumerate(requests):
            verb = request[0]
            if verb in self._run_verbs:
                try:
                    ops = self._parse_write(request, conn)
                except (ProtocolError, ValueError) as exc:
                    # No effects to order: fails alone, in its slot.
                    self.metrics.errors_total += 1
                    replies[slot] = ["ERR", "BADREQ", str(exc)]
                else:
                    run.append((verb, ops))
                    slots.append(slot)
                    written.update(op[1] for op in ops)
            elif verb == "PING" or (
                _LOOP_READ_FIELDS.get(verb) == len(request)
            ):
                if verb == "GET" and request[1] in written:
                    await commit_run()
                replies[slot] = await self._dispatch_read(
                    request, conn, settle
                )
            else:
                if run:
                    await commit_run()
                if verb == "MULTI":
                    replies[slot] = await self._dispatch_multi(conn, request)
                else:
                    replies[slot] = await self._dispatch_read(request, conn)
                    if conn.upgrade is not None:
                        # It opened a stream: this request and the rest
                        # are the stream's to answer, off the loop.
                        conn.upgrade_requests = requests[slot:]
                        return replies[:slot]
            if slot % _LOOP_HOLD_REQUESTS == _LOOP_HOLD_REQUESTS - 1:
                await asyncio.sleep(0)
        if run:
            await commit_run()
        return replies

    # -- write path ---------------------------------------------------------

    async def _dispatch_writes(
        self, run: List[Tuple[str, List[BatchOp]]]
    ) -> List[List[str]]:
        """Admit, commit, and answer a window's run of parsed writes:
        one ``(verb, ops)`` and one reply per request."""
        started = time.perf_counter()
        busy = await self._admit(len(run))
        if busy is not None:
            return [busy] * len(run)
        parsed = [ops for _, ops in run]

        # Per-request fault isolation: each request commits (and fails)
        # on its own, so one quarantined shard errors only the writes
        # that touch it — the requests next to them in the pipeline
        # still succeed. Group commit still coalesces: all submissions
        # below enter the committer queues before the drain task runs.
        outcomes: List[Optional[BaseException]]
        if self.group_commit and len(self._committers) == 1:
            # Single committer: the drain loop folds every submission in
            # this run into one commit and resolves them all with the
            # same outcome, so one combined submission (one future, no
            # gather) is behaviorally identical and much cheaper.
            combined: List[BatchOp] = []
            for sub_ops in parsed:
                combined.extend(sub_ops)
            try:
                await self._committers[0].submit_nowait(combined)
            except Exception as exc:
                outcomes = [exc] * len(parsed)
            else:
                outcomes = [None] * len(parsed)
        elif self.group_commit:
            raw = await asyncio.gather(
                *(self._submit_grouped(sub_ops) for sub_ops in parsed),
                return_exceptions=True,
            )
            outcomes = [
                result if isinstance(result, BaseException) else None
                for result in raw
            ]
        else:
            # Per-request commit: one engine call — one write-mutex
            # acquisition and one WAL sync — per client request, the
            # baseline bench_e22 contrasts group commit against.
            loop = asyncio.get_running_loop()
            outcomes = []
            for sub_ops in parsed:
                try:
                    await loop.run_in_executor(
                        self._executor, self.store.write_batch, sub_ops
                    )
                except Exception as exc:
                    outcomes.append(exc)
                else:
                    outcomes.append(None)

        replies: List[List[str]] = []
        for (verb, sub_ops), error in zip(run, outcomes):
            ok = ["OK"] if verb in ("PUT", "DELETE") else ["OK", str(len(sub_ops))]
            replies.append(self.answer(verb, started, ok if error is None else error))
        return replies

    def _submit_grouped(self, ops: List[BatchOp]) -> "asyncio.Future":
        """Route ops to their shards' committers; resolve when committed.

        Non-sharded stores have exactly one committer, so this degenerates
        to the classic single group-commit pipeline. For sharded stores
        each sub-list rides its own shard's commit window — the windows
        fill and drain concurrently, which is where the write parallelism
        of ``bench_e23`` comes from. A multi-shard client batch resolves
        when *all* its sub-commits have settled; per-shard atomicity is
        the store's documented contract.

        Returns an awaitable future rather than running as a coroutine:
        the write dispatcher gathers one of these per pipelined request,
        and futures ride the gather without a task apiece.
        """
        if len(self._committers) == 1 or self._shard_index is None:
            return self._committers[0].submit_nowait(ops)
        by_shard: Dict[int, List[BatchOp]] = {}
        for op in ops:
            by_shard.setdefault(self._shard_index(op[1]), []).append(op)
        if len(by_shard) == 1:
            index, sub_ops = next(iter(by_shard.items()))
            return self._committers[index].submit_nowait(sub_ops)
        return asyncio.gather(
            *(
                self._committers[index].submit_nowait(sub_ops)
                for index, sub_ops in by_shard.items()
            )
        )

    def _parse_write(
        self, request: Sequence[str], conn: _ConnState
    ) -> List[BatchOp]:
        verb = request[0]
        if verb == "PUT":
            if len(request) != 3:
                raise ProtocolError("PUT needs exactly a key and a value")
            return [("put", request[1], request[2])]
        if verb == "DELETE":
            if len(request) != 2:
                raise ProtocolError("DELETE needs exactly a key")
            return [("delete", request[1], None)]
        if verb == "MULTI":
            self._require_v2(conn, "MULTI")
        return decode_batch(request)

    async def _admit(self, requests: int) -> Optional[List[str]]:
        """Admission for ``requests`` writes, decided from one
        backpressure snapshot: the BUSY reply if the engine is
        write-stopped, else ``None`` — after delaying the caller while
        the engine reports the slowdown state.

        For sharded stores the check is conservative: the aggregate state
        is the worst shard's, so one write-stopped shard sheds writes for
        all — the simple policy that can never admit a write its shard
        cannot take.
        """
        state = self.store.backpressure()
        if state["state"] == "stop":
            self.metrics.busy_rejections += requests
            return [
                "BUSY",
                "engine write-stopped "
                f"(level0_runs={state['level0_runs']}, "
                f"immutable_buffers={state['immutable_buffers']}); retry",
            ]
        if state["state"] == "slowdown":
            await asyncio.sleep(_SLOWDOWN_DELAY_S)
            self.metrics.slowdown_delays += requests
        return None

    # -- transactional write path (v2) --------------------------------------

    async def _dispatch_multi(
        self, conn: _ConnState, request: List[str]
    ) -> List[str]:
        """Answer one ``MULTI`` on a server with per-shard committers: a
        store-wide atomic batch.

        (With a single committer ``MULTI`` rides the window's write run
        instead — see ``_run_verbs``.) Here it bypasses the group
        committers: the whole batch must reach the engine as a single
        ``write_batch`` call so its atomicity contract (two-phase commit
        when it spans shards) holds, and that call runs on one executor
        thread end to end — the 2PC coordinator holds reentrant shard
        mutexes across the prepare→commit window, so the protocol is
        thread-affine.
        """
        started = time.perf_counter()
        try:
            ops = self._parse_write(request, conn)
            busy = await self._admit(1)
            if busy is not None:
                return busy
            await self.run_engine(self.store.write_batch, ops)
        except Exception as exc:
            return self.answer("MULTI", started, exc)
        return self.answer("MULTI", started, ["OK", str(len(ops))])

    # -- read path ----------------------------------------------------------

    @staticmethod
    def _require_v2(conn: _ConnState, verb: str) -> None:
        if conn.protocol_version < 2:
            raise ProtocolError(
                f"{verb} requires protocol version 2; send HELLO 2 first"
            )

    async def _dispatch_read(
        self,
        request: List[str],
        conn: _ConnState,
        settle: Optional[Callable[[str, str], Awaitable[bool]]] = None,
    ) -> List[str]:
        """Answer one request a window does not defer, through the verb
        table; one latency sample per request answered here (a verb that
        upgrades its connection is answered by its stream instead).

        ``settle(lo, end)`` (from :meth:`_serve_window`) commits the
        window's pending writes when one falls in ``[lo, end)`` and says
        whether it did: a loop scan passes its answer's range and, on a
        hit, reads again.
        """
        started = time.perf_counter()
        verb = request[0]
        try:
            handler = self._verbs.get(verb)
            if handler is None:
                raise ProtocolError(f"unknown command {verb!r}")
            outcome = await handler(request, conn, settle)
        except Exception as exc:
            outcome = exc
        if conn.upgrade is not None:
            return []
        return self.answer(verb, started, outcome)

    def answer(
        self, verb: str, started: float, outcome: Union[List[str], BaseException]
    ) -> List[str]:
        """The one answer path — the verb table, the write run, ``MULTI``
        and a cluster node's stream threads: ``verb`` began at ``started``
        (``perf_counter``) and ended in its reply (latency recorded) or in
        an exception (counted in ``errors_total``, mapped to its reply)."""
        if isinstance(outcome, BaseException):
            self.metrics.errors_total += 1
            return self._error_reply(outcome)
        self.metrics.record_op(verb, (time.perf_counter() - started) * 1e6)
        return outcome

    # -- the base verbs: handlers of the verb table -------------------------

    async def _ping(self, request, conn=None, settle=None) -> List[str]:
        return ["PONG"]

    async def _hello(self, request, conn=None, settle=None) -> List[str]:
        if len(request) != 2:
            raise ProtocolError("HELLO needs exactly a version")
        try:
            requested = int(request[1])
        except ValueError:
            raise ProtocolError("HELLO version must be an integer") from None
        if requested < 1:
            raise ProtocolError("HELLO version must be >= 1")
        conn.protocol_version = min(requested, PROTOCOL_VERSION)
        return ["HELLO", str(conn.protocol_version)]

    async def _snap(self, request, conn=None, settle=None) -> List[str]:
        self._require_v2(conn, "SNAP")
        if len(request) != 1:
            raise ProtocolError("SNAP takes no arguments")
        if len(conn.snapshots) >= _MAX_SNAPSHOTS_PER_CONN:
            raise ProtocolError(
                f"too many open snapshots (limit "
                f"{_MAX_SNAPSHOTS_PER_CONN}); SNAP.END some first"
            )
        snapshot = await self.run_engine(self.store.snapshot)
        if snapshot.token in conn.snapshots:
            # Same sequence point as one already held: drop the
            # duplicate's pin (overwriting the registry entry would leak
            # the displaced handle's pin forever).
            snapshot.close()
        else:
            conn.snapshots[snapshot.token] = snapshot
        return ["SNAP", snapshot.token]

    async def _snap_end(self, request, conn=None, settle=None) -> List[str]:
        self._require_v2(conn, "SNAP.END")
        if len(request) != 2:
            raise ProtocolError("SNAP.END needs exactly a token")
        snapshot = conn.snapshots.pop(request[1], None)
        if snapshot is not None:
            snapshot.close()
        # An unknown token still answers OK: releasing is idempotent, and
        # a client retrying after a lost reply must not see an error for
        # work already done.
        return ["OK"]

    async def _get(self, request, conn=None, settle=None) -> List[str]:
        at: Optional[str] = None
        if len(request) == 4 and request[2] == "AT":
            self._require_v2(conn, "GET ... AT")
            at = request[3]
        elif len(request) != 2:
            raise ProtocolError("GET needs a key (optionally: AT token)")
        if at is None:
            # On the loop: a latest-state point read never waits (no I/O,
            # no lock held across I/O — the KVStore.get contract), so a
            # thread hop would only add latency.
            value = self.store.get(request[1])
        else:
            value = await self.run_engine(
                lambda: self.store.get(request[1], at=at)
            )
        return ["NONE"] if value is None else ["VALUE", value]

    async def _scan(self, request, conn=None, settle=None) -> List[str]:
        fields = list(request)
        at: Optional[str] = None
        if len(fields) >= 5 and fields[-2] == "AT":
            self._require_v2(conn, "SCAN ... AT")
            at = fields[-1]
            fields = fields[:-2]
        if len(fields) not in (3, 4):
            raise ProtocolError(
                "SCAN needs lo, hi, and an optional limit "
                "(optionally: AT token)"
            )
        limit: Optional[int] = None
        if len(fields) == 4:
            try:
                limit = int(fields[3])
            except ValueError:
                raise ProtocolError("SCAN limit must be an integer") from None
            if limit < 0:
                raise ProtocolError("SCAN limit must be non-negative")
        lo, hi = fields[1], fields[2]
        if at is None and limit is not None:
            # On the loop, like a plain GET: a latest-state scan never
            # waits (the KVStore.scan contract), and the limit bounds its
            # work.
            pairs = self.store.scan(lo, hi, limit)
            if settle is not None and await settle(
                lo, _answer_end(lo, hi, limit, pairs)
            ):
                pairs = self.store.scan(lo, hi, limit)
        elif at is None:
            pairs = await self.run_engine(self.store.scan, lo, hi, limit)
        else:
            pairs = await self.run_engine(
                lambda: self.store.scan(lo, hi, limit, at=at)
            )
        reply = ["PAIRS"]
        for key, value in pairs:
            reply.extend((key, value))
        return reply

    async def _info(self, request, conn=None, settle=None) -> List[str]:
        return ["INFO", json.dumps(self.info(), sort_keys=True)]

    async def _health(self, request, conn=None, settle=None) -> List[str]:
        if len(request) != 1:
            raise ProtocolError("HEALTH takes no arguments")
        payload = await self.run_engine(self.health)
        return ["HEALTH", json.dumps(payload, sort_keys=True)]

    async def run_engine(self, fn, *args):
        """``fn(*args)`` on the engine executor: a call that may wait."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    def _error_reply(self, exc: BaseException) -> List[str]:
        """Map an exception onto a structured reply: the one error map.

        A cluster node's :class:`~repro.errors.ShardMovedError` becomes
        the retryable ``ERR MOVED <shard> <host>:<port> <epoch>
        <detail>``. :class:`~repro.errors.ShardUnavailableError` becomes the
        retryable ``ERR UNAVAILABLE <shard> <detail>`` — the degraded
        mode's wire form: only the affected shard's keys fail and the
        connection stays usable. :class:`~repro.errors.BackgroundError`
        gets its own code — a failed background flush/compaction must
        reach the client as data, not as a hung connection — and
        includes the worker's root cause.
        """
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
        if isinstance(exc, ShardUnavailableError):
            self.metrics.unavailable_errors += 1
            return ["ERR", "UNAVAILABLE", str(exc.shard), str(exc)]
        if isinstance(exc, ReplicationError):
            # Sync replication: the write is durable on the primary but
            # its replica ack failed; the client must not assume it is
            # replicated. The store has already dropped the shard to
            # primary-only service, so a retry will succeed.
            self.metrics.replication_errors += 1
            return ["ERR", "REPLICATION", str(exc)]
        if isinstance(exc, BackgroundError):
            self.metrics.background_errors += 1
            cause = exc.__cause__
            detail = f"{exc} (cause: {cause!r})" if cause else str(exc)
            return ["ERR", "BACKGROUND", detail]
        if isinstance(exc, ClosedError):
            return ["ERR", "CLOSED", str(exc)]
        if isinstance(exc, SnapshotExpiredError):
            # The snapshot's versions were reclaimed (compaction or pin
            # overflow). The client should take a fresh SNAP and retry.
            return ["ERR", "SNAPEXPIRED", str(exc)]
        if isinstance(exc, TxnConflictError):
            # The batch was rolled back before its commit point: nothing
            # was applied on any shard, so a retry is safe.
            return ["ERR", "TXN", str(exc)]
        if isinstance(exc, (ProtocolError, ValueError)):
            return ["ERR", "BADREQ", str(exc)]
        if isinstance(exc, ConfigError):
            # A refusal by rule (a cluster request the map or a stream's
            # state does not allow), not a fault.
            return ["ERR", "REFUSED", str(exc)]
        return ["ERR", "INTERNAL", f"{type(exc).__name__}: {exc}"]

    # -- introspection ------------------------------------------------------

    def health(self) -> dict:
        """The HEALTH payload: degraded-mode state of the backing store.

        Sharded stores report per-shard quarantine state via
        ``check_health``; single-tree stores are probed through
        ``background_error`` (non-raising), so the reply works even while
        the engine refuses all data operations.
        """
        check = getattr(self.store, "check_health", None)
        if callable(check):
            return check()
        probe = getattr(self.store, "background_error", None)
        error = probe() if callable(probe) else None
        payload: dict = {
            "state": "healthy" if error is None else "failed",
            "num_shards": int(getattr(self.store, "num_shards", 1)),
            "quarantined": [],
        }
        if error is not None:
            payload["error"] = f"{type(error).__name__}: {error}"
        return payload

    def info(self) -> dict:
        """The INFO payload: serving metrics + engine snapshot.

        ``engine`` is uniform across store kinds (a
        :meth:`~repro.core.stats.TreeStats.to_dict` snapshot — a merged
        rollup for aggregating stores); ``levels`` appears for stores
        exposing a level summary (single trees) and ``shards`` carries the
        per-shard breakdown for sharded/partitioned stores.
        """
        payload = {
            "server": {
                "uptime_s": time.time() - self._started_at,
                "group_commit": self.group_commit,
                "committers": len(self._committers),
                "max_connections": self.max_connections,
                **self.metrics.to_dict(),
            },
            "backpressure": self.store.backpressure(),
            "health": self.health(),
            "engine": self.store.stats.to_dict(),
        }
        level_summary = getattr(self.store, "level_summary", None)
        if callable(level_summary):
            payload["levels"] = level_summary()
        shard_summary = getattr(self.store, "shard_summary", None)
        if callable(shard_summary):
            payload["shards"] = shard_summary()
        replication_summary = getattr(self.store, "replication_summary", None)
        if callable(replication_summary):
            payload["replication"] = replication_summary()
        return payload
