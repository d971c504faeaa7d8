"""Shard streams off the event loop: where ``REPL.*`` / ``MIG.*`` run.

The opening verb of a stream (``REPL.SYNC``, ``MIG.BEGIN``) upgrades
its server connection to a thread of its own, which answers it and
every later frame; a committing thread ships its own group over the
shipper's blocking connection. These tests pin the placement, the
binding of a stream to the slot its begin created, the lifecycle, and
the bound on a commit's hold.
"""

from __future__ import annotations

import asyncio
import socket
import sys
import threading
import time
from typing import List

import pytest

from repro.cluster import (
    ClusterMap,
    ClusterNode,
    NodeInfo,
    NodeStore,
    local_cluster,
    wait_until,
)
from repro.cluster.shipper import StreamConnection
from repro.core.config import LSMConfig
from repro.server.client import BusyError, KVClient, ServerError
from repro.server.protocol import (
    FrameParser,
    encode_batch,
    encode_message,
    encode_messages,
)
from repro.shard import keys_for_shard

NUM_SHARDS = 4
#: No heartbeat round inside a test: nothing but the test's own frames
#: reaches the streams it opens.
QUIET = {"heartbeat_interval_s": 30.0}


def _standby_map(live: ClusterMap) -> ClusterMap:
    """``live`` one epoch on, with node b the replica of a's shard 0 and
    nothing else replicated: no shipper of either node interferes."""
    assert live.owner_id(0) == "a"
    return ClusterMap(
        live.assignments,
        list(live.nodes.values()),
        epoch=live.epoch + 1,
        replicas=["b"] + [None] * (live.num_shards - 1),
    )


class TestSupersededStreams:
    """A newer begin supersedes an older stream's slot, whatever the
    role: the older stream's late batch must be refused, not land in
    the newer slot (where it could overwrite a newer seed page)."""

    @pytest.mark.parametrize("role", ["REPL", "MIG"])
    def test_late_batch_of_a_superseded_stream_is_refused(
        self, tmp_path, role
    ):
        async def scenario():
            async with local_cluster(tmp_path, **QUIET) as (
                servers, stores, live
            ):
                if role == "REPL":
                    begin = ["REPL.SYNC", "0", _standby_map(live).to_json()]
                    apply = "REPL.SHIP"
                else:
                    begin = ["MIG.BEGIN", "0"]
                    apply = "MIG.APPLY"
                port = servers[1].port
                old = await KVClient.connect("127.0.0.1", port, retry_s=0.0)
                new = await KVClient.connect("127.0.0.1", port, retry_s=0.0)
                try:
                    await old.command(begin)
                    await new.command(begin)
                    with pytest.raises(ServerError, match="superseded") as refused:
                        await old.command([apply, "0", "PUT", "k", "stale"])
                    assert refused.value.code == "REFUSED"
                    assert await new.command(
                        [apply, "0", "PUT", "k", "fresh"]
                    ) == ["OK", "1"]
                finally:
                    await old.close()
                    await new.close()
                assert stores[1]._inbound[0].tree.get("k") == "fresh"

        asyncio.run(scenario())


class TestRefusals:
    def test_cluster_refusals_answer_refused_and_faults_internal(
        self, tmp_path
    ):
        """A refusal the cluster protocol makes by rule reaches the peer
        as ``ERR REFUSED``, so the peer can tell it from a fault, which
        still answers ``ERR INTERNAL``."""

        async def scenario():
            async with local_cluster(
                tmp_path, shape="replicated", **QUIET
            ) as (servers, stores, live):
                owner = live.owner_id(0)
                node = next(
                    server for server, store in zip(servers, stores)
                    if store.node_id == owner
                )
                other = next(n for n in live.nodes if n != owner)

                async def crash(shard, dest_id):
                    raise RuntimeError("planted")

                cases = [
                    (["MIGRATE", "0", owner], "REFUSED"),
                    (["REPL.SYNC", "0", live.to_json()], "REFUSED"),
                    (["MIGRATE", "0", other], "INTERNAL"),
                ]
                for request, code in cases:
                    if code == "INTERNAL":
                        node._migrate_shard = crash
                    async with await KVClient.connect(
                        "127.0.0.1", node.port, retry_s=0.0
                    ) as peer:
                        with pytest.raises(ServerError) as error:
                            await peer.command(request)
                    assert error.value.code == code, (request[0], error)

        asyncio.run(scenario())


class TestStreamBound:
    def test_streams_past_max_connections_are_closed_unanswered(
        self, tmp_path
    ):
        """An upgraded connection leaves the server's connection count;
        the node's stream threads are bounded by ``max_connections``
        in its place."""

        async def scenario():
            async with local_cluster(
                tmp_path, max_connections=2, **QUIET
            ) as (servers, stores, live):
                port = servers[1].port
                streams = [
                    await KVClient.connect("127.0.0.1", port, retry_s=0.0)
                    for _ in range(3)
                ]
                try:
                    for stream in streams[:2]:
                        reply = await stream.command(["MIG.BEGIN", "0"])
                        assert reply[:2] == ["OK", "b"]
                    assert len(servers[1]._workers) == 2
                    with pytest.raises((ConnectionError, OSError)):
                        await streams[2].command(["MIG.BEGIN", "0"])
                    assert len(servers[1]._workers) == 2
                finally:
                    for stream in streams:
                        await stream.close()

        asyncio.run(scenario())


class TestStreamThreads:
    def test_ships_run_on_committing_threads_and_applies_on_stream_threads(
        self, tmp_path, monkeypatch
    ):
        """During N replicated PUTs the event loop dispatches no
        ``REPL.SHIP``: each group is sent by the thread that committed
        it and applied on the standby's stream thread."""
        sent: List[tuple] = []
        real_call = StreamConnection.call

        def call(self, fields, deadline=None):
            if fields[0] == "REPL.SHIP" and len(fields) > 2:
                sent.append((threading.current_thread().name, fields[2:]))
            return real_call(self, fields, deadline)

        monkeypatch.setattr(StreamConnection, "call", call)

        async def scenario():
            async with local_cluster(
                tmp_path, shape="replicated", **QUIET
            ) as (servers, stores, live):
                loop_thread = threading.get_ident()
                dispatched: List[str] = []
                for server in servers:
                    real_dispatch = server.server._dispatch_read

                    async def on_loop(request, conn=None, settle=None,
                                      _real=real_dispatch):
                        dispatched.append(request[0])
                        return await _real(request, conn, settle)

                    server.server._dispatch_read = on_loop
                applied: List[tuple] = []
                real_apply = stores[1].replica_apply

                def replica_apply(shard, ops):
                    if ops:
                        applied.append(
                            (threading.get_ident(),
                             threading.current_thread().name)
                        )
                    return real_apply(shard, ops)

                stores[1].replica_apply = replica_apply
                keys = keys_for_shard(0, 20, NUM_SHARDS, "tp")
                client = await KVClient.connect("127.0.0.1", servers[0].port)
                try:
                    for key in keys:
                        await client.put(key, "v")
                finally:
                    await client.close()
                assert "REPL.SHIP" not in dispatched
                ships = [name for name, _fields in sent]
                assert len(ships) == len(keys)
                assert all(name.startswith("kv-engine") for name in ships)
                assert len(applied) == len(keys)
                assert all(
                    ident != loop_thread and name == "kv-stream"
                    for ident, name in applied
                )
                assert all(stores[1]._inbound[0].tree.get(k) == "v"
                           for k in keys)

        asyncio.run(scenario())

    def test_requests_pipelined_behind_the_opening_verb_are_served_in_order(
        self, tmp_path
    ):
        """``REPL.SYNC``, two ``REPL.SHIP``s (one larger than a server
        read, so part of it is still in the loop's reader buffer at the
        upgrade) and ``REPL.SEEDED`` in one send: the stream thread
        answers all four, in order."""
        big = [("put", f"big{i:05d}", "x" * 100) for i in range(1000)]
        small = [("put", "k", "v")]

        async def scenario():
            async with local_cluster(tmp_path, **QUIET) as (
                servers, stores, live
            ):
                names: List[str] = []
                real_apply = stores[1].replica_apply

                def replica_apply(shard, ops):
                    names.append(threading.current_thread().name)
                    return real_apply(shard, ops)

                stores[1].replica_apply = replica_apply
                frames = encode_messages([
                    ["REPL.SYNC", "0", _standby_map(live).to_json()],
                    ["REPL.SHIP", "0", *encode_batch(big)[1:]],
                    ["REPL.SHIP", "0", *encode_batch(small)[1:]],
                    ["REPL.SEEDED", "0"],
                ])
                assert len(frames) > 64 * 1024

                def exchange() -> List[List[str]]:
                    with socket.create_connection(
                        ("127.0.0.1", servers[1].port), timeout=10.0
                    ) as sock:
                        sock.sendall(frames)
                        parser, replies = FrameParser(), []
                        while len(replies) < 4:
                            data = sock.recv(65536)
                            assert data, "the stream closed early"
                            replies.extend(parser.feed(data))
                        return replies

                replies = await asyncio.get_running_loop().run_in_executor(
                    None, exchange
                )
                assert [reply[:2] for reply in replies] == [
                    ["OK", "b"], ["OK", str(len(big))], ["OK", "1"],
                    ["OK", "0"],
                ]
                assert names == ["kv-stream", "kv-stream"]
                slot = stores[1]._inbound[0]
                assert slot.seeded
                assert slot.tree.get("big00999") == "x" * 100
                assert slot.tree.get("k") == "v"

        asyncio.run(scenario())

    def test_concurrent_writers_leave_the_standby_equal_to_the_primary(
        self, tmp_path
    ):
        """Committing threads take turns on the shipper's one
        connection: with more writers than cores racing on few keys and
        a short switch interval, the standby must end equal to the
        primary (a group shipped out of commit order would leave an
        older value behind)."""
        keys = keys_for_shard(0, 5, NUM_SHARDS, "sk")

        async def scenario():
            async with local_cluster(
                tmp_path, shape="replicated", executor_threads=8, **QUIET
            ) as (servers, stores, live):
                clients = [
                    await KVClient.connect("127.0.0.1", servers[0].port)
                    for _ in range(8)
                ]

                async def writer(index: int, client: KVClient) -> None:
                    for round_no in range(25):
                        key = keys[(index + round_no) % len(keys)]
                        await client.put(key, f"{index}-{round_no}")

                try:
                    await asyncio.wait_for(
                        asyncio.gather(
                            *(writer(i, c) for i, c in enumerate(clients))
                        ),
                        60.0,
                    )
                finally:
                    for client in clients:
                        await client.close()
                standby = stores[1]._inbound[0].tree
                for key in keys:
                    assert standby.get(key) == stores[0].get(key) is not None
                shipper = servers[0]._shippers[0]
                assert shipper.streaming
                assert shipper.summary()["missed_records"] == 0

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            asyncio.run(scenario())
        finally:
            sys.setswitchinterval(switch)

    def test_stop_leaves_no_stream_or_session_thread(self, tmp_path):
        async def scenario():
            async with local_cluster(
                tmp_path, shape="replicated", **QUIET
            ) as (servers, stores, live):
                # four shards, each with a session thread on its
                # primary and a stream thread on its standby
                threads = [
                    worker._thread
                    for server in servers
                    for worker in server._workers
                ]
                assert sorted(thread.name for thread in threads) == sorted(
                    ["kv-stream"] * NUM_SHARDS
                    + [f"kv-ship-{shard}" for shard in range(NUM_SHARDS)]
                )
                for server in servers:
                    await asyncio.wait_for(server.stop(), 10.0)
                assert not any(thread.is_alive() for thread in threads)
                assert all(not server._workers for server in servers)

        asyncio.run(scenario())


class _MuteStandby:
    """A fake replica node b: answers its streams until :attr:`muted`,
    then reads ``REPL.SHIP`` frames and never answers them."""

    def __init__(self) -> None:
        self.muted = False
        self.map_json = ""
        self._server = None
        self.port = 0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve, "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        self._server.close()
        await self._server.wait_closed()

    async def _serve(self, reader, writer) -> None:
        parser = FrameParser()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                for request in parser.feed(data):
                    if request[0] == "REPL.SYNC":
                        reply = ["OK", "b", self.map_json]
                    elif request[0] == "REPL.SHIP" and self.muted:
                        continue
                    else:
                        reply = ["OK", request[1]]
                    writer.write(encode_message(reply))
        finally:
            writer.close()


class TestCommitHold:
    @pytest.mark.parametrize(
        "self_fence, repl_timeout_s, lease_timeout_s",
        [(False, 0.3, 30.0), (False, 30.0, 0.3), (True, 0.3, 30.0)],
    )
    def test_a_silent_standby_bounds_the_hold(
        self, tmp_path, self_fence, repl_timeout_s, lease_timeout_s
    ):
        """A standby that stops answering holds a commit for
        ``min(repl_timeout_s, lease_timeout_s)``; then the write acks
        unreplicated, or answers BUSY on an armed shard when
        ``self_fence`` is on, and the stream degrades to reseed."""
        hold = min(repl_timeout_s, lease_timeout_s)

        async def scenario():
            standby = _MuteStandby()
            await standby.start()
            cluster_map = ClusterMap(
                ["a"] * 2,
                [NodeInfo("a", "127.0.0.1", 0),
                 NodeInfo("b", "127.0.0.1", standby.port)],
                epoch=1,
                replicas=["b", "b"],
            )
            standby.map_json = cluster_map.to_json()
            store = NodeStore(
                "a", cluster_map, LSMConfig(), wal_dir=str(tmp_path / "a")
            )
            node = ClusterNode(
                store, host="127.0.0.1", port=0,
                heartbeat_interval_s=30.0,
                repl_timeout_s=repl_timeout_s,
                lease_timeout_s=lease_timeout_s,
                self_fence=self_fence,
            )
            await node.start()
            client = None
            try:
                await wait_until(
                    lambda: len(node._shippers) == 2
                    and all(s.streaming for s in node._shippers.values()),
                    "the shippers never reached the fake standby",
                )
                assert node._standby_armed == {0, 1}
                client = await KVClient.connect(
                    "127.0.0.1", node.port, retry_s=0.0
                )
                await client.put("before", "v")  # acked by the standby
                standby.muted = True
                started = time.monotonic()
                if self_fence:
                    with pytest.raises(BusyError):
                        await client.put("during", "v")
                else:
                    await client.put("during", "v")
                held = time.monotonic() - started
                assert hold * 0.9 <= held < hold + 1.0, held
                shipper = node._shippers[store.shard_index("during")]
                assert not shipper.streaming
                assert shipper.summary()["missed_records"] >= 1
                if not self_fence:
                    assert store.get("during") == "v"
            finally:
                if client is not None:
                    await client.close()
                threads = [worker._thread for worker in node._workers]
                await asyncio.wait_for(node.stop(), 10.0)
                await standby.stop()
                store.close()
            assert not any(thread.is_alive() for thread in threads)
            assert not node._workers

        asyncio.run(scenario())
