"""One retry owner per client stack, on a virtual clock.

Stub members on loopback sockets answer every request one way — BUSY
forever, reset every connection, refuse, never reply, or MOVED to each
other — and both clients run on an event loop whose clock jumps to the
next timer whenever no socket is ready. Backoff sleeps, reply timeouts
and deadlines are therefore exact and cost no wall time: the table test
measures each call's total wait until it ends.
"""

from __future__ import annotations

import asyncio
import random
import selectors
from typing import Dict, List, Optional, Tuple

import pytest

from repro.cluster import ClusterClient, ClusterError, ClusterMap, NodeInfo
from repro.cluster.local import local_cluster
from repro.server import client as wire
from repro.server.client import (
    BUSY,
    FATAL,
    MOVED,
    TIMEOUT,
    TRANSPORT,
    BusyError,
    KVClient,
    MovedError,
    UnavailableError,
    classify,
)
from repro.server.protocol import MAX_FRAME_BYTES, FrameParser, encode_message


class _VirtualSelector(selectors.DefaultSelector):
    """Real sockets, virtual time: when no socket is ready the clock
    jumps to the loop's next timer instead of waiting for it."""

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0

    def select(self, timeout: Optional[float] = None):
        if timeout == 0:
            return super().select(0)
        # A millisecond of real time lets loopback traffic in flight land.
        events = super().select(0.001)
        if events:
            return events
        if timeout is None:
            return super().select(10.0)  # no timer: only I/O can wake us
        self.now += timeout
        return []


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    def __init__(self) -> None:
        super().__init__(_VirtualSelector())

    def time(self) -> float:
        return self._selector.now  # type: ignore[attr-defined]


def run_virtual(coro):
    loop = VirtualTimeLoop()
    try:
        return loop.run_until_complete(coro)
    finally:
        leftovers = asyncio.all_tasks(loop)  # stub handlers of aborted peers
        for task in leftovers:
            task.cancel()
        if leftovers:
            loop.run_until_complete(asyncio.wait(leftovers))
        loop.close()


class Stub:
    """A loopback member answering every request one way: ``ok``,
    ``busy``, ``moved`` (to :attr:`moved_to`), ``silent`` or ``reset``.
    Any but ``silent`` / ``reset`` answers ``CLUSTER`` with :attr:`map`."""

    def __init__(self, behaviour: str) -> None:
        self.behaviour = behaviour
        self.map: Optional[ClusterMap] = None
        self.moved_to = 0
        self.port = 0
        self._writers: List[asyncio.StreamWriter] = []

    async def start(self) -> "Stub":
        self._server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        self._server.close()
        for writer in self._writers:
            writer.transport.abort()
        await self._server.wait_closed()

    def info(self, node_id: str) -> NodeInfo:
        return NodeInfo(node_id, "127.0.0.1", self.port)

    def _reply(self, request: List[str]) -> Optional[List[str]]:
        if self.behaviour == "silent":
            return None
        if request[0] == "CLUSTER":
            assert self.map is not None
            return ["CLUSTER", self.map.to_json()]
        if self.behaviour == "busy":
            return ["BUSY", "stub write-stopped"]
        if self.behaviour == "moved":
            return ["ERR", "MOVED", "0", f"127.0.0.1:{self.moved_to}", "2", ""]
        return ["OK"]

    async def _serve(self, reader, writer) -> None:
        self._writers.append(writer)
        if self.behaviour == "reset":
            writer.transport.abort()
            return
        parser = FrameParser(MAX_FRAME_BYTES)
        try:
            while data := await reader.read(64 * 1024):
                for request in parser.feed(data):
                    reply = self._reply(request)
                    if reply is not None:
                        writer.write(encode_message(reply))
        except ConnectionError:
            pass


async def _members(owner: str, other: str, replicated: bool):
    """Start stub ``a`` (owner of the map's one shard) and ``b``."""
    a, b = await Stub(owner).start(), await Stub(other).start()
    cmap = ClusterMap.even(
        1, [a.info("a"), b.info("b")], epoch=1, replicated=replicated
    )
    a.map = b.map = cmap
    a.moved_to, b.moved_to = b.port, a.port
    return a, b, cmap


class TestClassify:
    @pytest.mark.parametrize(
        "exc, kind",
        [
            (asyncio.TimeoutError(), TIMEOUT),
            (TimeoutError(), TIMEOUT),
            (ConnectionResetError(), TRANSPORT),
            (ConnectionError("circuit open"), TRANSPORT),
            (BusyError("fenced"), BUSY),
            (MovedError(3, "127.0.0.1", 7000, 2, ""), MOVED),
            (UnavailableError(3, "quarantined"), FATAL),
            (ValueError("bug"), FATAL),
        ],
    )
    def test_one_class_per_failure(self, exc, kind):
        assert classify(exc) == kind


class TestPool:
    def test_hung_connect_does_not_stall_other_members(self, monkeypatch):
        """One member's connect hangs (on an event, not a sleep); another
        member's connect must finish while it is still pending."""
        real = wire._open_connection

        async def scenario():
            hung, healthy = await Stub("ok").start(), await Stub("ok").start()
            release = asyncio.Event()

            async def gated(host, port, timeout_s):
                if port == hung.port:
                    await release.wait()
                return await real(host, port, timeout_s)

            monkeypatch.setattr("repro.server.client._open_connection", gated)
            client = ClusterClient(
                ClusterMap.even(2, [hung.info("a"), healthy.info("b")])
            )
            try:
                stalled = asyncio.create_task(
                    client._client_for("127.0.0.1", hung.port)
                )
                await asyncio.sleep(0)  # its dial is in flight
                conn = await asyncio.wait_for(
                    client._client_for("127.0.0.1", healthy.port), 1.0
                )
                assert not stalled.done()
                assert conn is await client._client_for(
                    "127.0.0.1", healthy.port
                )
                release.set()
                assert (await stalled)._broken is None
            finally:
                release.set()
                await client.close()
                await hung.stop()
                await healthy.stop()

        run_virtual(scenario())

    def test_broken_pooled_connection_is_redialled(self):
        """A member that restarted is redialled, never handed out dead."""

        async def scenario():
            member = await Stub("ok").start()
            client = ClusterClient(
                ClusterMap.even(1, [member.info("a")]), retry_s=0.0
            )
            try:
                await client.put("k", "v")
                first = await client._client_for("127.0.0.1", member.port)
                for writer in member._writers:
                    writer.transport.abort()  # the member's side goes away
                await asyncio.sleep(0.01)
                assert first._broken is not None
                await client.put("k", "v")  # one attempt, on a fresh dial
                assert (
                    await client._client_for("127.0.0.1", member.port)
                ) is not first
            finally:
                await client.close()
                await member.stop()

        run_virtual(scenario())


class TestTimeoutFailover:
    def test_silent_replicated_owner_fails_over(self):
        """An owner that accepts and never answers is a failover in
        progress on a replicated shard, on every Python version."""

        async def scenario():
            a, b, cmap = await _members("silent", "ok", replicated=True)
            b.map = ClusterMap.even(
                1, [b.info("b"), a.info("a")], epoch=2, replicated=True
            )
            client = ClusterClient(cmap, retry_s=2.0, timeout_s=0.5)
            loop = asyncio.get_running_loop()
            try:
                started = loop.time()
                await client.put("k", "v")
                waited = loop.time() - started
            finally:
                await client.close()
                await a.stop()
                await b.stop()
            assert client.failover_retries >= 1
            assert client.map.owner_id(0) == "b"
            assert waited <= client.retry_s + 0.5

        run_virtual(scenario())


class TestDialSkipsAdmission:
    def test_budgeted_dial_is_never_answered_busy(self, tmp_path):
        """``ClusterNode._dial`` with a budget retries nothing: the verbs
        it sends skip admission, so even a write-stopped peer answers."""

        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                stores[1].backpressure = lambda: {
                    "state": "stop", "level0_runs": 9, "immutable_buffers": 9
                }
                direct = await KVClient.connect(
                    "127.0.0.1", servers[1].port, retry_s=0.0
                )
                async with direct:
                    with pytest.raises(BusyError):
                        await direct.put("k", "v")
                async with servers[0]._dial(live.nodes["b"], 1.0) as peer:
                    assert peer.retry_s == 0.0
                    reply = await peer.command(
                        ["REPL.PING", "a", str(live.epoch)]
                    )
                    assert reply[:2] == ["OK", "b"]
                    assert (await peer.command(["CLUSTER"]))[0] == "CLUSTER"

        asyncio.run(scenario())


#: Error class → (owner stub, other stub).
_CLASSES: Dict[str, Tuple[str, str]] = {
    "busy": ("busy", "ok"),
    "reset": ("reset", "ok"),
    "refuse": ("ok", "ok"),  # the owner is stopped before the call
    "timeout": ("silent", "ok"),
    "moved": ("moved", "moved"),
}

#: Cells whose call spends its whole ``retry_s`` before surfacing.
_RETRIED = {
    ("kv", "busy"), ("kv", "reset"), ("kv", "refuse"),
    ("replicated", "busy"), ("replicated", "reset"),
    ("replicated", "refuse"), ("replicated", "moved"),
    ("unreplicated", "busy"), ("unreplicated", "moved"),
}

_ERRORS = {
    "busy": BusyError,
    "reset": ConnectionError,
    "refuse": ConnectionError,
    "timeout": asyncio.TimeoutError,
}


async def _worst_wait(stack: str, error_class: str) -> Tuple[float, BaseException]:
    """Total virtual wait of one default-configured ``put`` that cannot
    succeed, and the error it ended with."""
    random.seed(7)
    a, b, cmap = await _members(
        *_CLASSES[error_class], replicated=stack == "replicated"
    )
    if stack == "kv":
        client = await KVClient.connect("127.0.0.1", a.port)
    else:
        client = ClusterClient(cmap)
    if error_class == "refuse":
        await a.stop()
        await asyncio.sleep(0)
    loop = asyncio.get_running_loop()
    started = loop.time()
    try:
        await client.put("k", "v")
    except Exception as exc:  # every cell fails; the table needs which way
        error = exc
    else:
        raise AssertionError(f"{stack}/{error_class} succeeded")
    waited = loop.time() - started
    await client.close()
    for stub in (a, b):
        if stub is not a or error_class != "refuse":
            await stub.stop()
    return waited, error


class TestWorstCaseWait:
    @pytest.mark.parametrize("error_class", sorted(_CLASSES))
    @pytest.mark.parametrize("stack", ["kv", "replicated", "unreplicated"])
    def test_every_call_ends_within_its_budget(self, stack, error_class):
        waited, error = run_virtual(_worst_wait(stack, error_class))
        retry_s = 2.0 if stack == "kv" else 10.0
        timeout_s = 10.0  # one attempt's bound: the default reply timeout
        if error_class == "moved":
            expected = MovedError if stack == "kv" else ClusterError
        else:
            expected = _ERRORS[error_class]
        assert isinstance(error, expected), error
        assert waited <= retry_s + timeout_s
        if (stack, error_class) in _RETRIED:
            assert waited >= retry_s
        else:
            assert waited <= timeout_s
