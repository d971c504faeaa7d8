"""Asyncio client for the KV server: pipelining, timeouts, retry, reconnect.

:class:`KVClient` keeps one TCP connection and correlates replies to
requests purely by order (the server answers strictly in arrival order).
Because each operation coroutine writes its request *before* awaiting its
reply future, running many operations concurrently — for example with
``asyncio.gather`` — pipelines them over the single connection::

    client = await KVClient.connect("127.0.0.1", port)
    await asyncio.gather(*(client.put(f"k{i}", "v") for i in range(64)))

Failure handling, from transient to terminal (:func:`classify` names
the class, for this client and the cluster client alike):

* A ``BUSY`` reply (admission control shedding a write while the engine
  is write-stopped, or a fenced shard) backs off and retries on the same
  connection.
* A connection reset or EOF — including mid-pipeline, where every
  in-flight request fails with ``ConnectionError`` — redials the
  recorded address (clients built via :meth:`connect`) and resends the
  call. **At-least-once caveat:** a write whose reply was lost to the
  reset may have committed before the crash; resending it applies it
  again. That is idempotent for PUT/DELETE but double-applies
  merge-style batches.
* Both spend one ``retry_s`` budget on one backoff schedule
  (:func:`backoff_delays`), then the last error surfaces. A
  :class:`~repro.cluster.ClusterClient` pools ``retry_s=0`` clients:
  it owns the retry for its stack.
* ``ERR UNAVAILABLE <shard>`` (a quarantined shard in degraded mode)
  raises :class:`UnavailableError` immediately — it is retryable *by the
  application* once the operator restores the shard, but the client does
  not spin on it because quarantine rarely clears within a backoff
  window. Every other ``ERR`` surfaces as :class:`ServerError` carrying
  the structured code.
* A reply timeout poisons the connection (ordering can no longer be
  trusted) and fails all in-flight requests; it is not auto-retried.
"""

from __future__ import annotations

import asyncio
import json
import random
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import ReproError
from ..errors import SnapshotExpiredError as _EngineSnapshotExpiredError
from ..errors import TxnConflictError as _EngineTxnConflictError
from .protocol import (
    MAX_FRAME_BYTES,
    BatchOp,
    FrameParser,
    ProtocolError,
    encode_batch,
    encode_message,
)


#: The one backoff schedule's first delay and ceiling (both client
#: layers, the cluster client's circuit breaker, the shard shipper).
BACKOFF_BASE_S = 0.005
BACKOFF_MAX_S = 0.25

#: The failure classes :func:`classify` returns.
MOVED, BUSY, TRANSPORT, TIMEOUT, FATAL = (
    "moved", "busy", "transport", "timeout", "fatal"
)


def backoff_delays(
    base: Optional[float] = None, cap: Optional[float] = None
) -> Iterator[float]:
    """The one retry schedule: doubling from ``base`` up to ``cap``
    (default :data:`BACKOFF_BASE_S` / :data:`BACKOFF_MAX_S`, read at the
    call), each delay drawn from the upper half of its step."""
    cap = BACKOFF_MAX_S if cap is None else cap
    delay = min(BACKOFF_BASE_S if base is None else base, cap)
    while True:
        yield random.uniform(delay / 2, delay)
        delay = min(delay * 2, cap)


async def _open_connection(
    host: str, port: int, timeout_s: float
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """``asyncio.open_connection`` bounded by ``timeout_s``.

    A timed-out connect surfaces as :class:`ConnectionError`: a
    blackholed address is a ``transport`` failure, like a refused one.
    """
    try:
        return await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout_s
        )
    except (asyncio.TimeoutError, TimeoutError):
        raise ConnectionError(
            f"connect to {host}:{port} timed out after {timeout_s}s"
        ) from None


class ServerError(ReproError):
    """The server answered with a structured ``ERR code message`` reply."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.detail = message


class BusyError(ServerError):
    """The server kept answering ``BUSY`` past the retry budget.

    BUSY is the admission-control signal for the engine's write-stop
    state; it is always safe to retry later.
    """

    def __init__(self, message: str) -> None:
        super().__init__("BUSY", message)


class UnavailableError(ServerError):
    """The key's shard is quarantined (``ERR UNAVAILABLE <shard>``).

    Degraded-mode serving: the connection and every other shard keep
    working; only operations touching ``shard`` fail. Safe to retry once
    the shard is restored, but not auto-retried (quarantine clears on
    operator action, not within a backoff window).
    """

    def __init__(self, shard: int, message: str) -> None:
        super().__init__("UNAVAILABLE", f"shard {shard}: {message}")
        self.shard = shard


class MovedError(ServerError):
    """The shard lives on another node (``ERR MOVED`` redirect).

    Cluster mode's routing signal, not a failure: the reply names the
    owning node's address and the cluster-map epoch it is based on, so
    the caller can retry immediately at ``host:port`` (and refresh its
    map when ``epoch`` is newer than its own). A plain :class:`KVClient`
    surfaces it — following redirects is the
    :class:`~repro.cluster.ClusterClient`'s job.
    """

    def __init__(
        self, shard: int, host: str, port: int, epoch: int, message: str
    ) -> None:
        super().__init__(
            "MOVED",
            f"shard {shard} moved to {host}:{port} (epoch {epoch})"
            + (f": {message}" if message else ""),
        )
        self.shard = shard
        self.host = host
        self.port = port
        self.epoch = epoch


class SnapshotExpiredError(ServerError, _EngineSnapshotExpiredError):
    """``ERR SNAPEXPIRED``: the snapshot's versions were reclaimed.

    Subclasses both :class:`ServerError` and the engine's
    :class:`repro.errors.SnapshotExpiredError`, so a caller holding
    either a local store or a remote client can catch the engine type
    and handle both identically: take a fresh snapshot and retry.
    """

    def __init__(self, message: str) -> None:
        super().__init__("SNAPEXPIRED", message)


class TxnError(ServerError, _EngineTxnConflictError):
    """``ERR TXN``: a transactional batch was rolled back before commit.

    All-or-nothing held: no shard applied any of the batch, so the
    whole MULTI can simply be resent. Subclasses the engine's
    :class:`repro.errors.TxnConflictError` for uniform handling.
    """

    def __init__(self, message: str) -> None:
        super().__init__("TXN", message)


def classify(exc: BaseException) -> str:
    """The class both client layers retry a failed call by: moved,
    busy, timeout, transport (reset, EOF, failed connect, open circuit)
    or fatal. Timeouts go first: from Python 3.11 they are ``OSError``
    too, and the order makes every version agree."""
    if isinstance(exc, (asyncio.TimeoutError, TimeoutError)):
        return TIMEOUT
    if isinstance(exc, MovedError):
        return MOVED
    if isinstance(exc, BusyError):
        return BUSY
    if isinstance(exc, (ConnectionError, OSError)):
        return TRANSPORT
    return FATAL


class KVClient:
    """One pipelined connection to a :class:`~repro.server.KVServer`.

    Args:
        timeout_s: Per-request reply timeout; expiry poisons the
            connection (reply ordering is lost past a missing reply).
        retry_s: Each call's budget for BUSY backoff and redials
            (these need a client built via :meth:`connect`), from its
            first failure; ``0`` makes every call one attempt.
        connect_timeout_s: Bound on establishing the TCP connection, in
            :meth:`connect` and every reconnect. Without it a blackholed
            address (a partitioned node, a dropped SYN) hangs the
            connect for the kernel's SYN timeout — minutes — while the
            reply timeout never arms because no request was ever sent;
            with it the caller (and the cluster client's circuit
            breaker) sees a fast ``ConnectionError`` instead.
        protocol_version: Wire protocol version to request via the
            ``HELLO`` handshake at connect time. The default ``1`` sends
            no handshake at all — the byte stream is identical to older
            clients — and leaves the v2 surface (:meth:`snapshot`,
            ``at=`` reads, :meth:`multi`) disabled. Pass ``2`` to
            negotiate the transactional protocol; the server answers
            with the highest version it speaks and
            :attr:`protocol_version` records the result.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        timeout_s: float = 10.0,
        retry_s: float = 2.0,
        connect_timeout_s: float = 5.0,
        protocol_version: int = 1,
    ) -> None:
        self._reader = reader
        self._writer = writer
        #: The version negotiated with the server (1 until a HELLO ran).
        self.protocol_version = 1
        self._requested_version = protocol_version
        self.timeout_s = timeout_s
        self.retry_s = retry_s
        self.connect_timeout_s = connect_timeout_s
        #: BUSY replies absorbed by the retry loop (observability).
        self.busy_retries = 0
        #: Successful reconnects performed by the retry loop.
        self.reconnects = 0
        self._address: Optional[Tuple[str, int]] = None
        self._closed = False
        self._reconnect_lock = asyncio.Lock()
        self._parser = FrameParser(MAX_FRAME_BYTES)
        #: FIFO of ``(reply_future, deadline, expected, accumulator)``;
        #: replies match by order. Single requests carry ``expected=1`` and
        #: no accumulator (the future resolves with the reply itself); a
        #: :meth:`request_many` window carries one entry for the whole
        #: window and accumulates its replies into the list.
        self._pending: Deque[
            Tuple[asyncio.Future, float, int, Optional[List[List[str]]]]
        ] = deque()
        #: One timer watching the *oldest* pending deadline, instead of
        #: one ``wait_for`` wrapper (a task plus a timer) per request —
        #: FIFO ordering means the head is always the first to expire.
        self._timeout_handle: Optional[asyncio.TimerHandle] = None
        self._broken: Optional[Exception] = None
        #: Write cork: frames written in one event-loop tick are coalesced
        #: into a single transport write (one ``send(2)`` per pipelined
        #: window instead of one per request). Flushed by a ``call_soon``
        #: callback, so ordering against the pending-reply queue holds.
        self._outbuf = bytearray()
        self._flush_scheduled = False
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(
        cls, host: str, port: int, **options: object
    ) -> "KVClient":
        """Open a connection and return a ready client.

        Clients built this way remember the address and transparently
        reconnect after a connection reset (see the module docstring for
        the at-least-once caveat on resent writes).
        """
        timeout_s = float(options.get("connect_timeout_s", 5.0))  # type: ignore[arg-type]
        reader, writer = await _open_connection(host, port, timeout_s)
        client = cls(reader, writer, **options)  # type: ignore[arg-type]
        client._address = (host, port)
        if client._requested_version > 1:
            await client._handshake()
        return client

    async def close(self) -> None:
        """Close the connection; in-flight requests fail, no reconnect."""
        self._closed = True
        self._poison(ConnectionError("client closed"))
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "KVClient":
        return self

    async def __aexit__(self, *_exc_info: object) -> None:
        await self.close()

    # -- operations ---------------------------------------------------------

    async def ping(self) -> bool:
        """Round-trip liveness check."""
        return (await self._call(["PING"]))[0] == "PONG"

    async def get(self, key: str, at: Optional[object] = None) -> Optional[str]:
        """Point lookup; ``None`` when the key is absent.

        ``at=`` (a snapshot token from :meth:`snapshot`, or any object
        with a ``token`` attribute such as an engine ``Snapshot``) reads
        the key as of that snapshot instead of the latest version.
        """
        if at is None:
            request = ["GET", key]
        else:
            self._require_v2("get(at=...)")
            request = ["GET", key, "AT", self.at_token(at)]
        reply = await self._call(request)
        if reply[0] == "VALUE":
            return reply[1]
        if reply[0] == "NONE":
            return None
        raise ProtocolError(f"unexpected GET reply {reply[0]!r}")

    async def put(self, key: str, value: str) -> None:
        """Insert or update one key (retried on BUSY)."""
        await self._call(["PUT", key, value])

    async def delete(self, key: str) -> None:
        """Delete one key (retried on BUSY)."""
        await self._call(["DELETE", key])

    def request_many(self, requests: List[List[str]]) -> "asyncio.Future":
        """Issue a whole pipelined window; one future for all its replies.

        The hot-path issue API: a plain synchronous call — no
        per-request coroutine, task, or flow-control await. N requests
        ride one encoded buffer, one pending-queue entry, and one reply
        future that resolves to the N raw replies in request order. This
        is the cheapest way to drive a deep pipeline — per *window* cost
        replaces per *request* cost for the future, the timeout
        accounting, and the gather bookkeeping the caller no longer
        needs. The replies are raw (``["OK"]``, ``["BUSY", ...]``,
        ``["ERR", ...]``, ...): unlike :meth:`put` / :meth:`get`,
        nothing is retried or raised for error replies; callers that
        need those guarantees use the coroutine API. Raises the
        poisoning error immediately if the connection is already broken.
        """
        if self._broken is not None:
            raise self._broken
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if not requests:
            future.set_result([])
            return future
        self._pending.append(
            (future, loop.time() + self.timeout_s, len(requests), [])
        )
        if self._timeout_handle is None:
            self._arm_timeout()
        self._send_frame(
            b"".join(encode_message(fields) for fields in requests)
        )
        return future

    async def scan(
        self,
        lo: str,
        hi: str,
        limit: Optional[int] = None,
        at: Optional[object] = None,
    ) -> List[Tuple[str, str]]:
        """Range lookup over ``[lo, hi)``; ``limit`` caps the result.

        ``at=`` scans as of a snapshot token (see :meth:`get`).
        """
        request = ["SCAN", lo, hi]
        if limit is not None:
            request.append(str(limit))
        if at is not None:
            self._require_v2("scan(at=...)")
            request.extend(("AT", self.at_token(at)))
        reply = await self._call(request)
        if reply[0] != "PAIRS" or len(reply) % 2 != 1:
            raise ProtocolError("malformed SCAN reply")
        return [
            (reply[index], reply[index + 1])
            for index in range(1, len(reply), 2)
        ]

    async def batch(self, ops: Iterable[BatchOp]) -> int:
        """Apply several writes as one request; returns the op count."""
        reply = await self._call(encode_batch(ops))
        return int(reply[1]) if len(reply) > 1 else 0

    # -- transactional / snapshot operations (protocol v2) -------------------

    async def snapshot(self) -> str:
        """Open a server-side snapshot; returns its token.

        The token names one consistent store-wide sequence point: pass
        it as ``at=`` to :meth:`get`/:meth:`scan` for repeatable reads,
        and release it with :meth:`end_snapshot` when done. The server
        also releases every snapshot a connection holds when the
        connection closes — but a *reconnect* builds a fresh connection,
        so tokens taken before a reset lose their pins and reads at them
        may raise :class:`SnapshotExpiredError` once the engine reclaims
        those versions.
        """
        self._require_v2("snapshot")
        reply = await self._call(["SNAP"])
        if reply[0] != "SNAP" or len(reply) != 2:
            raise ProtocolError(f"unexpected SNAP reply {reply!r}")
        return reply[1]

    async def end_snapshot(self, token: str) -> None:
        """Release a snapshot taken with :meth:`snapshot` (idempotent)."""
        self._require_v2("end_snapshot")
        await self._call(["SNAP.END", token])

    async def multi(self, ops: Iterable[BatchOp]) -> int:
        """Apply several writes as ONE atomic unit; returns the op count.

        Unlike :meth:`batch` — whose atomicity is per *shard* — a MULTI
        is all-or-nothing across the whole store: the server hands it to
        the engine as a single transactional ``write_batch`` (two-phase
        commit when it spans shards). ``ERR TXN`` (the batch rolled back
        before its commit point, nothing applied) surfaces as
        :class:`TxnError` and is safe to resend.
        """
        self._require_v2("multi")
        reply = await self._call(["MULTI"] + encode_batch(ops)[1:])
        return int(reply[1]) if len(reply) > 1 else 0

    def _require_v2(self, operation: str) -> None:
        if self.protocol_version < 2:
            raise ProtocolError(
                f"{operation}() needs protocol v2; connect with "
                f"protocol_version=2 (negotiated: {self.protocol_version})"
            )

    async def _handshake(self) -> None:
        """Run the HELLO exchange for the requested protocol version.

        Uses the raw request path (no BUSY/reconnect retry loop): the
        handshake runs inside connect/reconnect, where a failure should
        surface to the owning retry machinery, not start a nested one.
        """
        reply = await self._request(["HELLO", str(self._requested_version)])
        if reply[0] != "HELLO" or len(reply) != 2:
            raise ProtocolError(f"unexpected HELLO reply {reply!r}")
        self.protocol_version = int(reply[1])

    @staticmethod
    def at_token(at: object) -> str:
        """Coerce ``at=`` (a token string or a Snapshot handle) to a token."""
        if isinstance(at, str):
            return at
        token = getattr(at, "token", None)
        if not isinstance(token, str):
            raise ProtocolError(
                f"at= must be a snapshot token or handle, got {type(at)!r}"
            )
        return token

    async def command(self, fields: List[str]) -> List[str]:
        """Issue a raw request through the full retry machinery.

        Same BUSY/reconnect absorption and structured-ERR raising as the
        typed operations, for verbs without a dedicated method (the
        cluster layer's ``CLUSTER``/``MIGRATE``/``MIG.*`` traffic).
        Returns the raw reply fields.
        """
        return await self._call(fields)

    async def info(self) -> Dict[str, object]:
        """The server's INFO snapshot, parsed from JSON."""
        reply = await self._call(["INFO"])
        return json.loads(reply[1])

    async def health(self) -> Dict[str, object]:
        """The server's HEALTH payload (degraded-mode state), parsed."""
        reply = await self._call(["HEALTH"])
        return json.loads(reply[1])

    # -- plumbing -----------------------------------------------------------

    async def _call(self, fields: List[str]) -> List[str]:
        """Send a request; absorb BUSY and connection resets; raise ERR.

        A BUSY backs off on its connection; a transport failure (a
        failed redial included) redials and resends. The ``retry_s``
        deadline is taken at the first failure, so the success path
        reads no clock. A timed-out call is never resent here.
        """
        delays: Optional[Iterator[float]] = None
        deadline = 0.0
        while True:
            try:
                if delays is not None and self._broken is not None:
                    await self._reconnect()
                reply = await self._request(fields)
                if reply[0] != "BUSY" and reply[0] != "ERR":
                    return reply
                raise self._reply_error(reply)
            except Exception as exc:
                kind = classify(exc)
                if kind == TRANSPORT:
                    self._poison(exc)
                    if self._closed or self._address is None:
                        raise
                elif kind != BUSY:
                    raise
                now = asyncio.get_running_loop().time()
                if delays is None:
                    delays = backoff_delays()
                    deadline = now + self.retry_s
                if now >= deadline:
                    raise
                if kind == BUSY:
                    self.busy_retries += 1
                await asyncio.sleep(min(next(delays), deadline - now))

    @staticmethod
    def _reply_error(reply: List[str]) -> ServerError:
        """The structured error a ``BUSY`` or ``ERR`` reply stands for
        (``ERR MOVED shard host:port epoch detail`` → :class:`MovedError`
        when its fields parse)."""
        if reply[0] == "BUSY":
            return BusyError(reply[1] if len(reply) > 1 else "busy")
        code = reply[1] if len(reply) > 1 else "UNKNOWN"
        detail = reply[2] if len(reply) > 2 else ""
        if code in ("UNAVAILABLE", "MOVED"):
            try:
                shard = int(reply[2])
                if code == "UNAVAILABLE":
                    return UnavailableError(shard, " ".join(reply[3:4]))
                host, _, port = reply[3].rpartition(":")
                return MovedError(
                    shard, host, int(port), int(reply[4]), " ".join(reply[5:6])
                )
            except (ValueError, IndexError):
                if code == "UNAVAILABLE" and len(reply) > 2:
                    return UnavailableError(-1, " ".join(reply[3:4]))
                return ServerError(code, " ".join(reply[2:]))
        if code == "SNAPEXPIRED":
            return SnapshotExpiredError(detail)
        if code == "TXN":
            return TxnError(detail)
        return ServerError(code, detail)

    async def _reconnect(self) -> None:
        """Replace the dead transport with a fresh connection.

        Serialized on a lock so concurrent pipelined calls that all hit
        the same reset perform one reconnect between them: the first
        caller rebuilds the transport, the rest see ``_broken is None``
        and simply resend on the new connection.
        """
        async with self._reconnect_lock:
            if self._closed:
                raise ConnectionError("client closed")
            if self._broken is None:
                return  # another caller already reconnected
            assert self._address is not None
            self._read_task.cancel()
            try:
                await self._read_task
            except asyncio.CancelledError:
                pass
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            reader, writer = await _open_connection(
                *self._address, self.connect_timeout_s
            )
            self._reader = reader
            self._writer = writer
            self._parser = FrameParser(MAX_FRAME_BYTES)
            self._pending = deque()  # poisoned futures have already failed
            self._outbuf.clear()  # corked frames belong to failed calls
            self._broken = None
            self.reconnects += 1
            self._read_task = asyncio.get_running_loop().create_task(
                self._read_loop()
            )
            if self._requested_version > 1:
                # The server starts every connection at v1; renegotiate
                # so v2 calls keep working after the reset. Snapshots
                # taken on the dead connection lost their server-side
                # pins — reads at their tokens may now raise
                # SnapshotExpiredError once those versions are
                # reclaimed.
                self.protocol_version = 1
                await self._handshake()

    def _send_frame(self, data: bytes) -> None:
        """Queue one encoded frame on the write cork.

        The actual transport write happens in :meth:`_flush_outbuf` on the
        next loop iteration, so every request issued in the same tick — a
        pipelined ``asyncio.gather`` window, typically — rides one write.
        """
        self._outbuf += data
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush_outbuf)

    def _flush_outbuf(self) -> None:
        self._flush_scheduled = False
        if not self._outbuf:
            return
        data = bytes(self._outbuf)
        self._outbuf.clear()
        if (
            self._closed
            or self._broken is not None
            or self._writer.is_closing()
        ):
            return  # the owning calls have already failed or are retrying
        self._writer.write(data)

    async def _request(self, fields: List[str]) -> List[str]:
        if self._broken is not None:
            raise self._broken
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending.append((future, loop.time() + self.timeout_s, 1, None))
        if self._timeout_handle is None:
            self._arm_timeout()
        self._send_frame(encode_message(fields))
        await self._writer.drain()
        # On expiry the sweeper sets TimeoutError on the head future and
        # poisons the rest, matching the old per-request wait_for shape.
        return await future

    def _arm_timeout(self) -> None:
        """Schedule the sweeper for the oldest pending deadline."""
        if not self._pending:
            return
        loop = asyncio.get_running_loop()
        delay = self._pending[0][1] - loop.time()
        self._timeout_handle = loop.call_later(
            max(0.0, delay), self._on_timeout
        )

    def _on_timeout(self) -> None:
        self._timeout_handle = None
        if self._broken is not None or not self._pending:
            return
        head_future, deadline = self._pending[0][:2]
        if asyncio.get_running_loop().time() < deadline:
            self._arm_timeout()  # head changed since the timer was set
            return
        # Ordering is lost once a reply is missing: the overdue request
        # times out, everything behind it is poisoned.
        if not head_future.done():
            head_future.set_exception(asyncio.TimeoutError())
        self._poison(
            ConnectionError(
                f"no reply within {self.timeout_s}s; connection poisoned"
            )
        )

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self._reader.read(64 * 1024)
                if not data:
                    self._poison(ConnectionError("server closed connection"))
                    return
                pending = self._pending
                for message in self._parser.feed(data):
                    if not pending:
                        continue
                    future, _deadline, expected, replies = pending[0]
                    if replies is None:
                        pending.popleft()
                        if not future.done():
                            future.set_result(message)
                        continue
                    replies.append(message)
                    if len(replies) == expected:
                        pending.popleft()
                        if not future.done():
                            future.set_result(replies)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # ProtocolError, ConnectionError, ...
            self._poison(exc)

    def _poison(self, exc: Exception) -> None:
        if self._broken is None:
            self._broken = exc
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
            self._timeout_handle = None
        while self._pending:
            future = self._pending.popleft()[0]
            if not future.done():
                future.set_exception(exc)
