"""Tests for the serving layer: protocol, metrics, server, and client.

The asyncio pieces are exercised with ``asyncio.run`` inside synchronous
test functions (the suite has no asyncio plugin); every server test binds
to port 0 on localhost and tears the server down in a ``finally``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import List, Optional

import pytest

from repro.core.config import LSMConfig
from repro.core.tree import LSMTree
from repro.errors import ClosedError, ConfigError
from repro.faults import inject_worker_death
from repro.replication import ReplicatedStore
from repro.shard import ShardedStore
from repro.server import (
    BusyError,
    FrameParser,
    KVClient,
    KVServer,
    LatencyHistogram,
    ProtocolError,
    ServerError,
    ServerMetrics,
    UnavailableError,
    decode_batch,
    encode_batch,
    encode_message,
)

# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_roundtrip_single_message(self):
        parser = FrameParser()
        assert parser.feed(encode_message(["PING"])) == [["PING"]]

    def test_roundtrip_preserves_awkward_text(self):
        fields = ["PUT", "key,with\nnewline", "value with \x00 and ünïcode"]
        assert FrameParser().feed(encode_message(fields)) == [fields]

    def test_roundtrip_empty_field(self):
        fields = ["PUT", "k", ""]
        assert FrameParser().feed(encode_message(fields)) == [fields]

    def test_pipelined_frames_in_one_feed(self):
        data = encode_message(["GET", "a"]) + encode_message(["GET", "b"])
        assert FrameParser().feed(data) == [["GET", "a"], ["GET", "b"]]

    def test_byte_by_byte_incremental_parse(self):
        """A TCP stream may fragment frames arbitrarily, down to 1 byte."""
        data = encode_message(["PUT", "key", "value"]) + encode_message(
            ["SCAN", "a", "z"]
        )
        parser = FrameParser()
        messages: List[List[str]] = []
        for index in range(len(data)):
            messages.extend(parser.feed(data[index : index + 1]))
        assert messages == [["PUT", "key", "value"], ["SCAN", "a", "z"]]

    def test_partial_frame_is_buffered_not_lost(self):
        data = encode_message(["GET", "key"])
        parser = FrameParser()
        assert parser.feed(data[:5]) == []
        assert parser.feed(data[5:]) == [["GET", "key"]]

    def test_empty_message_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_message([])

    def test_oversized_frame_rejected_before_buffering(self):
        parser = FrameParser(max_frame_bytes=64)
        with pytest.raises(ProtocolError, match="exceeds"):
            parser.feed(encode_message(["PUT", "k", "x" * 1000]))

    def test_zero_field_count_rejected(self):
        import struct

        payload = struct.pack(">I", 0)
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="at least one field"):
            FrameParser().feed(frame)

    def test_truncated_field_body_rejected(self):
        import struct

        # One field claiming 10 bytes but carrying only 2.
        payload = struct.pack(">I", 1) + struct.pack(">I", 10) + b"ab"
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="truncated"):
            FrameParser().feed(frame)

    def test_trailing_bytes_rejected(self):
        import struct

        payload = struct.pack(">I", 1) + struct.pack(">I", 1) + b"a" + b"junk"
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="trailing"):
            FrameParser().feed(frame)

    def test_invalid_utf8_rejected(self):
        import struct

        payload = struct.pack(">I", 1) + struct.pack(">I", 2) + b"\xff\xfe"
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="UTF-8"):
            FrameParser().feed(frame)


class TestBatchCodec:
    def test_roundtrip(self):
        ops = [("put", "a", "1"), ("delete", "b", None), ("put", "c", "")]
        assert decode_batch(encode_batch(ops)) == ops

    def test_empty_batch(self):
        assert decode_batch(encode_batch([])) == []

    def test_unknown_op_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_batch([("merge", "k", "v")])

    def test_truncated_put_rejected_at_decode(self):
        with pytest.raises(ProtocolError):
            decode_batch(["BATCH", "PUT", "key-only"])

    def test_unknown_sub_op_rejected_at_decode(self):
        with pytest.raises(ProtocolError):
            decode_batch(["BATCH", "FROB", "k"])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestLatencyHistogram:
    def test_percentiles_bound_samples(self):
        histogram = LatencyHistogram()
        for micros in [10, 20, 30, 40, 1000]:
            histogram.record(micros)
        assert histogram.count == 5
        # Bucketed percentiles report an upper bound, never an underestimate.
        assert histogram.percentile_us(0.50) >= 20
        assert histogram.percentile_us(0.99) >= 1000
        assert histogram.mean_us == pytest.approx(220.0)

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.percentile_us(0.99) == 0.0
        assert histogram.mean_us == 0.0

    def test_to_dict_is_json_shaped(self):
        histogram = LatencyHistogram()
        histogram.record(123.4)
        snapshot = histogram.to_dict()
        assert snapshot["count"] == 1
        assert set(snapshot) >= {"count", "mean_us", "p50_us", "p99_us"}


class TestServerMetrics:
    def test_record_op_and_snapshot(self):
        metrics = ServerMetrics()
        metrics.record_op("PUT", 100.0)
        metrics.record_op("PUT", 300.0)
        metrics.record_op("GET", 50.0)
        metrics.group_commits = 2
        metrics.group_committed_ops = 10
        snapshot = metrics.to_dict()
        assert snapshot["requests_total"] == 3
        assert snapshot["ops_per_group_commit"] == pytest.approx(5.0)
        assert snapshot["latency_us"]["PUT"]["count"] == 2
        assert snapshot["latency_us"]["GET"]["count"] == 1

    def test_connection_gauges(self):
        metrics = ServerMetrics()
        metrics.connection_opened()
        metrics.connection_opened()
        metrics.connection_closed()
        assert metrics.connections_open == 1
        assert metrics.connections_peak == 2
        assert metrics.connections_total == 2


# ---------------------------------------------------------------------------
# Server + client, end to end
# ---------------------------------------------------------------------------


def bg_config(**overrides) -> LSMConfig:
    defaults = dict(
        background_mode=True,
        num_buffers=4,
        buffer_size_bytes=64 * 1024,
        flush_threads=1,
        compaction_threads=1,
    )
    defaults.update(overrides)
    return LSMConfig(**defaults)


@contextlib.asynccontextmanager
async def serving(tree: Optional[LSMTree] = None, **server_options):
    """A started server (owning its tree) that always gets stopped."""
    server = KVServer(
        tree if tree is not None else LSMTree(bg_config()),
        owns_tree=True,
        **server_options,
    )
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


async def raw_exchange(
    port: int, requests: List[List[str]], reply_count: int
) -> List[List[str]]:
    """Write all requests at once (pipelined), read replies in order."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for fields in requests:
            writer.write(encode_message(fields))
        await writer.drain()
        parser = FrameParser()
        replies: List[List[str]] = []
        while len(replies) < reply_count:
            data = await reader.read(64 * 1024)
            if not data:
                break
            replies.extend(parser.feed(data))
        return replies
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()


class TestServerRoundTrip:
    def test_crud_over_client(self):
        async def scenario():
            async with serving() as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    assert await kv.ping()
                    await kv.put("alpha", "1")
                    await kv.put("beta", "2")
                    assert await kv.get("alpha") == "1"
                    assert await kv.get("missing") is None
                    assert await kv.scan("a", "z") == [
                        ("alpha", "1"),
                        ("beta", "2"),
                    ]
                    await kv.delete("alpha")
                    assert await kv.get("alpha") is None
                    count = await kv.batch(
                        [("put", "gamma", "3"), ("delete", "beta", None)]
                    )
                    assert count == 2
                    assert await kv.scan("a", "z") == [("gamma", "3")]

        asyncio.run(scenario())

    def test_info_reports_all_sections(self):
        async def scenario():
            async with serving() as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    await kv.put("k", "v")
                    info = await kv.info()
                    assert info["server"]["group_commit"] is True
                    assert info["server"]["requests_total"] >= 1
                    assert info["backpressure"]["state"] == "ok"
                    assert info["engine"]["puts"] >= 1
                    assert isinstance(info["levels"], list)

        asyncio.run(scenario())

    def test_sync_mode_tree_also_servable(self, small_config):
        """The server works over a synchronous (non-background) engine."""

        async def scenario():
            async with serving(LSMTree(small_config)) as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    for index in range(50):
                        await kv.put(f"key{index:04d}", f"v{index}")
                    assert await kv.get("key0007") == "v7"

        asyncio.run(scenario())

    def test_stop_closes_owned_tree_and_connections(self):
        async def scenario():
            server = KVServer(LSMTree(bg_config()), owns_tree=True)
            await server.start()
            kv = await KVClient.connect("127.0.0.1", server.port)
            await kv.put("k", "v")
            await server.stop()
            assert server.store._closed
            with pytest.raises((ConnectionError, asyncio.TimeoutError)):
                await kv.put("k2", "v2")
            await kv.close()

        asyncio.run(scenario())


class TestPipelining:
    def test_mixed_pipeline_preserves_order(self):
        """GET/PUT/SCAN/BATCH written back-to-back answer strictly in order."""
        requests = [
            ["PUT", "a", "1"],
            ["GET", "a"],
            ["PUT", "b", "2"],
            ["SCAN", "a", "c"],
            ["BATCH", "PUT", "c", "3", "DELETE", "a"],
            ["GET", "a"],
            ["GET", "c"],
            ["PING"],
        ]
        expected = [
            ["OK"],
            ["VALUE", "1"],
            ["OK"],
            ["PAIRS", "a", "1", "b", "2"],
            ["OK", "2"],
            ["NONE"],
            ["VALUE", "3"],
            ["PONG"],
        ]

        async def scenario():
            async with serving() as server:
                replies = await raw_exchange(
                    server.port, requests, len(expected)
                )
                assert replies == expected

        asyncio.run(scenario())

    def test_concurrent_puts_coalesce_into_group_commits(self):
        async def scenario():
            async with serving() as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    await asyncio.gather(
                        *(kv.put(f"k{i:04d}", "v") for i in range(200))
                    )
                    assert await kv.get("k0199") == "v"
                assert server.metrics.group_committed_ops == 200
                # Coalescing means far fewer engine commits than requests.
                assert 1 <= server.metrics.group_commits < 200

        asyncio.run(scenario())

    def test_per_request_commit_mode(self):
        async def scenario():
            async with serving(group_commit=False) as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    await asyncio.gather(
                        *(kv.put(f"k{i}", "v") for i in range(20))
                    )
                    assert await kv.get("k7") == "v"
                assert server.metrics.group_commits == 0

        asyncio.run(scenario())

    def test_malformed_write_in_pipeline_fails_alone(self):
        """One bad request in a coalesced write run errors individually."""
        requests = [
            ["PUT", "good1", "v"],
            ["PUT", "only-a-key"],  # malformed: missing value
            ["PUT", "good2", "v"],
            ["GET", "good2"],
        ]

        async def scenario():
            async with serving() as server:
                replies = await raw_exchange(server.port, requests, 4)
                assert replies[0] == ["OK"]
                assert replies[1][:2] == ["ERR", "BADREQ"]
                assert replies[2] == ["OK"]
                assert replies[3] == ["VALUE", "v"]

        asyncio.run(scenario())


class TestAdmissionControl:
    @staticmethod
    def stub_backpressure(tree: LSMTree, states: List[str]):
        """Make ``tree.backpressure`` pop from ``states`` then report ok."""
        real = tree.backpressure

        def stubbed():
            snapshot = real()
            if states:
                snapshot["state"] = states.pop(0)
            return snapshot

        tree.backpressure = stubbed

    def test_busy_reply_is_retried_by_client(self):
        async def scenario():
            tree = LSMTree(bg_config())
            self.stub_backpressure(tree, ["stop", "stop", "stop"])
            async with serving(tree) as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    await kv.put("resilient", "yes")
                    assert kv.busy_retries >= 1
                    assert await kv.get("resilient") == "yes"
                assert server.metrics.busy_rejections >= 1

        asyncio.run(scenario())

    def test_busy_exhausts_into_busy_error(self):
        async def scenario():
            tree = LSMTree(bg_config())
            self.stub_backpressure(tree, ["stop"] * 100)
            async with serving(tree) as server:
                async with await KVClient.connect(
                    "127.0.0.1",
                    server.port,
                    retry_s=0.05,
                ) as kv:
                    with pytest.raises(BusyError) as excinfo:
                        await kv.put("k", "v")
                    assert excinfo.value.code == "BUSY"

        asyncio.run(scenario())

    def test_slowdown_state_delays_but_admits(self):
        async def scenario():
            tree = LSMTree(bg_config())
            # One snapshot per write run decides stop / slowdown / ok.
            self.stub_backpressure(tree, ["slowdown", "slowdown"])
            async with serving(tree) as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    await kv.put("k", "v")
                    assert await kv.get("k") == "v"
                assert server.metrics.slowdown_delays >= 1

        asyncio.run(scenario())

    def test_connection_limit_rejects_with_maxconn(self):
        async def scenario():
            async with serving(max_connections=1) as server:
                kv = await KVClient.connect("127.0.0.1", server.port)
                try:
                    await kv.ping()  # the one admitted connection
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    try:
                        data = await asyncio.wait_for(
                            reader.read(64 * 1024), timeout=5
                        )
                        (reply,) = FrameParser().feed(data)
                        assert reply[:2] == ["ERR", "MAXCONN"]
                        assert server.metrics.connections_rejected == 1
                    finally:
                        writer.close()
                        with contextlib.suppress(ConnectionError, OSError):
                            await writer.wait_closed()
                finally:
                    await kv.close()

        asyncio.run(scenario())

    def test_oversized_request_closes_connection(self, monkeypatch):
        monkeypatch.setattr("repro.server.server.MAX_FRAME_BYTES", 1024)

        async def scenario():
            async with serving() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    writer.write(encode_message(["PUT", "k", "x" * 4096]))
                    await writer.drain()
                    data = await asyncio.wait_for(
                        reader.read(64 * 1024), timeout=5
                    )
                    (reply,) = FrameParser().feed(data)
                    assert reply[:2] == ["ERR", "PROTOCOL"]
                    # Framing is unrecoverable: the server hangs up.
                    assert await reader.read(64 * 1024) == b""
                finally:
                    writer.close()
                    with contextlib.suppress(ConnectionError, OSError):
                        await writer.wait_closed()

        asyncio.run(scenario())

    def test_unknown_verb_keeps_connection_usable(self):
        async def scenario():
            async with serving() as server:
                replies = await raw_exchange(
                    server.port, [["FROBNICATE", "x"], ["PING"]], 2
                )
                assert replies[0][:2] == ["ERR", "BADREQ"]
                assert replies[1] == ["PONG"]

        asyncio.run(scenario())


class TestBackgroundErrorBoundary:
    def test_worker_failure_becomes_structured_reply(self):
        """A failed background worker reaches the client as ERR BACKGROUND
        — carrying the root cause — and the connection stays usable."""

        async def scenario():
            tree = LSMTree(bg_config())
            async with serving(tree) as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    await kv.put("before", "ok")
                    # Inject a worker failure the way a real flush crash
                    # would record it: into the pool's error slot.
                    tree._background.pool._error = RuntimeError(
                        "injected flush failure"
                    )
                    with pytest.raises(ServerError) as excinfo:
                        await kv.put("after", "nope")
                    assert excinfo.value.code == "BACKGROUND"
                    assert "injected flush failure" in excinfo.value.detail
                    assert server.metrics.background_errors >= 1
                    # The failure is data, not a dropped connection: reads
                    # and liveness checks still answer on the same socket.
                    assert await kv.ping()
                    assert await kv.get("before") == "ok"
                # Clear the injected error so the owned tree closes cleanly.
                tree._background.pool._error = None

        asyncio.run(scenario())

    def test_batch_write_also_surfaces_background_error(self):
        async def scenario():
            tree = LSMTree(bg_config())
            async with serving(tree) as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    tree._background.pool._error = RuntimeError(
                        "worker died"
                    )
                    with pytest.raises(ServerError) as excinfo:
                        await kv.batch([("put", "a", "1")])
                    assert excinfo.value.code == "BACKGROUND"
                tree._background.pool._error = None

        asyncio.run(scenario())


class TestShardedServing:
    """The server over a ShardedStore: per-shard committers in parallel."""

    def test_one_committer_per_shard(self):
        async def scenario():
            async with serving(ShardedStore(4, bg_config())) as server:
                assert len(server._committers) == 4
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    await asyncio.gather(
                        *(kv.put(f"k{i:04d}", "v") for i in range(200))
                    )
                    assert await kv.get("k0123") == "v"
                # Every op rode some shard's group commit.
                assert server.metrics.group_committed_ops == 200
                assert server.metrics.group_commits >= 1

        asyncio.run(scenario())

    def test_unsharded_store_gets_single_committer(self):
        async def scenario():
            async with serving(LSMTree(bg_config())) as server:
                assert len(server._committers) == 1

        asyncio.run(scenario())

    def test_multi_shard_batch_commits_every_sub_batch(self):
        async def scenario():
            store = ShardedStore(4, bg_config())
            async with serving(store) as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    ops = [("put", f"key{i:05d}", str(i)) for i in range(80)]
                    assert await kv.batch(ops) == 80
                    for _, key, value in ops[::13]:
                        assert await kv.get(key) == value

        asyncio.run(scenario())

    def test_info_reports_shard_breakdown(self):
        async def scenario():
            async with serving(ShardedStore(4, bg_config())) as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    await kv.put("k", "v")
                    info = await kv.info()
                    assert info["server"]["committers"] == 4
                    assert len(info["shards"]) == 4
                    assert len(info["backpressure"]["shards"]) == 4
                    assert "levels" not in info

        asyncio.run(scenario())


class TestScanLimitOverWire:
    def test_scan_with_limit_field(self):
        requests = [
            ["BATCH"]
            + [f for i in range(10) for f in ("PUT", f"k{i}", str(i))],
            ["SCAN", "k0", "k9", "3"],
            ["SCAN", "k0", "k9"],
            ["SCAN", "k0", "k9", "0"],
        ]

        async def scenario():
            async with serving() as server:
                replies = await raw_exchange(server.port, requests, 4)
                assert replies[0] == ["OK", "10"]
                assert replies[1] == ["PAIRS", "k0", "0", "k1", "1", "k2", "2"]
                assert len(replies[2]) == 1 + 2 * 9  # k0..k8 (hi exclusive)
                assert replies[3] == ["PAIRS"]

        asyncio.run(scenario())

    def test_bad_limit_is_badreq_not_disconnect(self):
        requests = [
            ["SCAN", "a", "z", "three"],
            ["SCAN", "a", "z", "-1"],
            ["SCAN", "a", "z", "1", "extra"],
            ["PING"],
        ]

        async def scenario():
            async with serving() as server:
                replies = await raw_exchange(server.port, requests, 4)
                assert replies[0][:2] == ["ERR", "BADREQ"]
                assert replies[1][:2] == ["ERR", "BADREQ"]
                assert replies[2][:2] == ["ERR", "BADREQ"]
                assert replies[3] == ["PONG"]

        asyncio.run(scenario())


class TestVerbTable:
    def test_a_registered_verb_answers_through_the_one_answer_path(self):
        """A verb added to a plain server's table is timed and counted
        like a base verb, and its exception maps through the one error
        map; a verb in no table is still a BADREQ."""

        async def echo(request, conn, settle):
            if request[1:] == ["refuse"]:
                raise ConfigError("echo refuses")
            return ["ECHO", *request[1:]]

        requests = [["ECHO", "x"], ["ECHO", "refuse"], ["NOPE"]]

        async def scenario():
            async with serving(verbs={"ECHO": echo}) as server:
                replies = await raw_exchange(server.port, requests, 3)
                metrics = server.metrics.to_dict()
            assert replies == [
                ["ECHO", "x"],
                ["ERR", "REFUSED", "echo refuses"],
                ["ERR", "BADREQ", "unknown command 'NOPE'"],
            ]
            assert metrics["latency_us"]["ECHO"]["count"] == 1
            assert metrics["requests_total"] == 1
            assert metrics["errors_total"] == 2

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Engine-side primitives the server builds on
# ---------------------------------------------------------------------------


class TestWriteBatch:
    def test_applies_all_ops_atomically(self, small_tree):
        before = small_tree.seqno
        small_tree.write_batch(
            [
                ("put", "a", "1"),
                ("put", "b", "2"),
                ("delete", "a", None),
                ("put", "c", "3"),
            ]
        )
        # Consecutive seqnos claimed under one mutex acquisition.
        assert small_tree.seqno == before + 4
        assert small_tree.get("a") is None
        assert small_tree.get("b") == "2"
        assert small_tree.get("c") == "3"

    def test_empty_batch_is_noop(self, small_tree):
        before = small_tree.seqno
        small_tree.write_batch([])
        assert small_tree.seqno == before

    def test_validates_before_applying(self, small_tree):
        with pytest.raises(ValueError):
            small_tree.write_batch(
                [("put", "good", "v"), ("merge?", "bad", "v")]
            )
        with pytest.raises(ValueError):
            small_tree.write_batch([("put", "k", None)])
        with pytest.raises(ValueError):
            small_tree.write_batch([("put", "", "v")])
        # Validation failed before any op was applied.
        assert small_tree.get("good") is None

    def test_background_mode_batch(self):
        tree = LSMTree(bg_config())
        try:
            tree.write_batch(
                [("put", f"k{i:04d}", f"v{i}") for i in range(300)]
            )
            for i in range(0, 300, 37):
                assert tree.get(f"k{i:04d}") == f"v{i}"
        finally:
            tree.close()

    def test_closed_tree_rejects_batch(self, small_tree):
        small_tree.close()
        with pytest.raises(ClosedError):
            small_tree.write_batch([("put", "k", "v")])


class TestBackpressureSnapshot:
    def test_sync_engine_is_always_ok(self, small_tree):
        for index in range(200):
            small_tree.put(f"key{index:05d}", "v")
        state = small_tree.backpressure()
        assert state["state"] == "ok"
        assert state["stop_trigger"] == 2 * state["slowdown_trigger"]

    def test_background_engine_reports_stop_when_queue_full(self):
        tree = LSMTree(bg_config(num_buffers=2))
        try:
            tree._background.pool.pause()
            assert tree.backpressure()["state"] == "ok"
            # Fill the immutable queue (flush workers are paused, so
            # nothing drains it behind the snapshot's back).
            while len(tree._immutable) < tree.config.num_buffers:
                tree.put("filler", "v" * 64)
                tree._background.rotate()
            state = tree.backpressure()
            assert state["state"] == "stop"
            assert state["immutable_buffers"] >= tree.config.num_buffers
        finally:
            tree._immutable.clear()
            tree._background.pool.resume()
            tree.close()


# ---------------------------------------------------------------------------
# Degraded-mode serving (fault isolation across shards)
# ---------------------------------------------------------------------------


def key_on_shard(store: ShardedStore, shard: int) -> str:
    for i in range(10_000):
        key = f"probe-{i}"
        if store.shard_index(key) == shard:
            return key
    raise AssertionError("no key found")  # pragma: no cover


class TestDegradedServing:
    """One dead shard: UNAVAILABLE for its keys, full service elsewhere."""

    def test_dead_shard_unavailable_rest_keep_serving(self):
        async def scenario():
            store = ShardedStore(3, bg_config())
            async with serving(store) as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    await asyncio.gather(
                        *(kv.put(f"k{i:04d}", "v") for i in range(60))
                    )
                    assert (await kv.health())["state"] == "healthy"

                    inject_worker_death(store.shards[1], "test: dead worker")
                    dead_key = key_on_shard(store, 1)
                    live_key = key_on_shard(store, 0)

                    with pytest.raises(UnavailableError) as excinfo:
                        await kv.put(dead_key, "x")
                    assert excinfo.value.shard == 1
                    assert excinfo.value.code == "UNAVAILABLE"
                    with pytest.raises(UnavailableError):
                        await kv.get(dead_key)

                    # The other two shards serve reads AND writes on the
                    # very same connection — the error was data, not a
                    # dropped socket.
                    await kv.put(live_key, "still-writable")
                    assert await kv.get(live_key) == "still-writable"
                    assert await kv.ping()

                    health = await kv.health()
                    assert health["state"] == "degraded"
                    assert health["quarantined"] == [1]
                    info = await kv.info()
                    assert info["server"]["unavailable_errors"] >= 2
                    assert info["health"]["state"] == "degraded"

        asyncio.run(scenario())

    def test_pipelined_writes_fail_per_request_not_per_pipeline(self):
        """A quarantined shard must not poison unrelated requests that
        happen to share its group-commit window."""

        async def scenario():
            store = ShardedStore(3, bg_config())
            async with serving(store) as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    inject_worker_death(store.shards[2], "test: dead worker")
                    keys = [f"mix-{i:03d}" for i in range(40)]
                    results = await asyncio.gather(
                        *(kv.put(key, "v") for key in keys),
                        return_exceptions=True,
                    )
                    by_shard = [store.shard_index(key) for key in keys]
                    assert any(shard == 2 for shard in by_shard)
                    for key_shard, result in zip(by_shard, results):
                        if key_shard == 2:
                            assert isinstance(result, UnavailableError)
                            assert result.shard == 2
                        else:
                            assert not isinstance(result, BaseException)

        asyncio.run(scenario())

    def test_health_wire_shape(self):
        requests = [["HEALTH"], ["HEALTH", "extra"]]

        async def scenario():
            async with serving() as server:
                replies = await raw_exchange(server.port, requests, 2)
                assert replies[0][0] == "HEALTH"
                payload = json.loads(replies[0][1])
                assert payload["state"] == "healthy"
                assert payload["num_shards"] == 1
                assert payload["quarantined"] == []
                assert replies[1][:2] == ["ERR", "BADREQ"]

        asyncio.run(scenario())

    def test_single_tree_health_reports_failed(self):
        async def scenario():
            # Not the serving() helper: a clean owned-tree close would
            # (correctly) re-raise the injected worker death at teardown.
            tree = LSMTree(bg_config())
            server = KVServer(tree, owns_tree=False)
            await server.start()
            try:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    assert (await kv.health())["state"] == "healthy"
                    inject_worker_death(tree, "test: dead worker")
                    health = await kv.health()
                    assert health["state"] == "failed"
                    assert "dead worker" in health["error"]
            finally:
                await server.stop()
                tree.kill()

        asyncio.run(scenario())


class TestReplicatedServing:
    """Replicated store behind the server: failover is invisible on the
    wire, and INFO/HEALTH expose the replication watermarks."""

    def test_failover_keeps_serving_and_shows_in_health(self, tmp_path):
        async def scenario():
            store = ReplicatedStore(
                3, bg_config(), mode="sync", wal_dir=str(tmp_path)
            )
            server = KVServer(store, owns_tree=False)
            await server.start()
            try:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    await asyncio.gather(
                        *(kv.put(f"k{i:04d}", "v") for i in range(60))
                    )
                    info = await kv.info()
                    repl = info["replication"]
                    assert repl["mode"] == "sync"
                    assert repl["promotions"] == 0
                    assert len(repl["shards"]) == 3
                    for row in repl["shards"]:
                        assert row["state"] == "sync"
                        assert row["lag_records"] == 0
                        assert row["acked_seqno"] == row["applied_seqno"]

                    inject_worker_death(store.shards[1], "test: dead worker")
                    dead_key = key_on_shard(store, 1)
                    # Unlike the unreplicated store, this put succeeds:
                    # the server-side retry lands on the promoted replica.
                    await kv.put(dead_key, "post-failover")
                    assert await kv.get(dead_key) == "post-failover"

                    health = await kv.health()
                    assert health["state"] == "healthy"
                    assert health["quarantined"] == []
                    assert health["replication"]["promotions"] == 1
                    assert (
                        health["replication"]["shards"][1]["state"]
                        == "promoted"
                    )
            finally:
                await server.stop()
                store.kill()

        asyncio.run(scenario())


class TestClientReconnect:
    """Bounded reconnect-with-jitter on connection loss mid-stream."""

    def test_put_survives_a_server_restart(self, monkeypatch):
        monkeypatch.setattr("repro.server.client.BACKOFF_BASE_S", 0.01)

        async def scenario():
            tree = LSMTree(bg_config())
            try:
                first = KVServer(tree, owns_tree=False)
                await first.start()
                port = first.port
                kv = await KVClient.connect(
                    "127.0.0.1",
                    port,
                    retry_s=2.0,
                )
                try:
                    await kv.put("before", "v")
                    await first.stop()
                    second = KVServer(tree, port=port, owns_tree=False)
                    await second.start()
                    try:
                        # The dead socket surfaces on this call; the client
                        # redials the recorded address and resends.
                        await kv.put("after", "v")
                        assert kv.reconnects >= 1
                        assert await kv.get("after") == "v"
                        assert await kv.ping()
                    finally:
                        await kv.close()
                        await second.stop()
                finally:
                    if not kv._closed:
                        await kv.close()
            finally:
                tree.close()

        asyncio.run(scenario())

    def test_reconnect_gives_up_when_nobody_listens(self, monkeypatch):
        monkeypatch.setattr("repro.server.client.BACKOFF_BASE_S", 0.01)

        async def scenario():
            tree = LSMTree(bg_config())
            try:
                server = KVServer(tree, owns_tree=False)
                await server.start()
                kv = await KVClient.connect(
                    "127.0.0.1",
                    server.port,
                    retry_s=0.1,
                )
                try:
                    await kv.put("k", "v")
                    await server.stop()
                    with pytest.raises((ConnectionError, OSError)):
                        await kv.put("k2", "v")
                finally:
                    await kv.close()
            finally:
                tree.close()

        asyncio.run(scenario())

    def test_survives_full_restart_with_listener_gap(self):
        """Unlike a bare connection reset, a full restart leaves a window
        with *nothing listening*: the first redials fail outright. Those
        failed dials must consume retry budget and keep retrying, so the
        client rides out the gap and succeeds once the listener is back."""

        async def scenario():
            tree = LSMTree(bg_config())
            try:
                first = KVServer(tree, owns_tree=False)
                await first.start()
                port = first.port
                kv = await KVClient.connect(
                    "127.0.0.1",
                    port,
                    retry_s=5.0,
                )
                restarted: List[KVServer] = []
                try:
                    await kv.put("before", "v")
                    await first.stop()

                    async def restart_later():
                        # Long enough that several redials fail first.
                        await asyncio.sleep(0.3)
                        second = KVServer(
                            tree, port=port, owns_tree=False
                        )
                        await second.start()
                        restarted.append(second)

                    restart_task = asyncio.create_task(restart_later())
                    loop = asyncio.get_running_loop()
                    started = loop.time()
                    await kv.put("after", "v")
                    # The write blocked across the listener gap rather
                    # than failing fast on the first refused dial.
                    assert loop.time() - started >= 0.25
                    assert kv.reconnects >= 1
                    assert await kv.get("after") == "v"
                    await restart_task
                finally:
                    await kv.close()
                    for server in restarted:
                        await server.stop()
            finally:
                tree.close()

        asyncio.run(scenario())

    def test_closed_client_does_not_reconnect(self):
        async def scenario():
            tree = LSMTree(bg_config())
            try:
                server = KVServer(tree, owns_tree=False)
                await server.start()
                kv = await KVClient.connect(
                    "127.0.0.1", server.port, retry_s=2.0
                )
                await kv.put("k", "v")
                await kv.close()
                await server.stop()
                with pytest.raises((ConnectionError, OSError)):
                    await kv.put("k2", "v")
                assert kv.reconnects == 0
            finally:
                tree.close()

        asyncio.run(scenario())


class TestWindowIssueAPIs:
    """request_many: the raw pipelined hot-path API."""

    def test_request_many_window_in_order(self):
        async def scenario():
            async with serving() as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    window = [["PUT", f"k{i}", str(i)] for i in range(16)]
                    window.append(["GET", "k3"])
                    window.append(["SCAN", "k0", "k1"])
                    replies = await kv.request_many(window)
                    assert replies[:16] == [["OK"]] * 16
                    assert replies[16] == ["VALUE", "3"]
                    assert replies[17] == ["PAIRS", "k0", "0"]

        asyncio.run(scenario())

    def test_request_many_empty_window(self):
        async def scenario():
            async with serving() as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    assert await kv.request_many([]) == []
                    # The empty window must not desync reply matching.
                    assert await kv.request_many([["PING"]]) == [["PONG"]]

        asyncio.run(scenario())

    def test_error_replies_are_returned_not_raised(self):
        async def scenario():
            async with serving() as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    replies = await kv.request_many(
                        [["PUT", "good", "1"], ["BOGUS"], ["GET", "good"]]
                    )
                    assert replies[0] == ["OK"]
                    assert replies[1][0] == "ERR"
                    assert replies[2] == ["VALUE", "1"]

        asyncio.run(scenario())

    def test_windows_interleave_with_coroutine_api(self):
        async def scenario():
            async with serving() as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    window = kv.request_many(
                        [["PUT", f"w{i}", "x"] for i in range(8)]
                    )
                    await kv.put("single", "y")  # rides the same pipeline
                    assert await window == [["OK"]] * 8
                    assert await kv.get("single") == "y"
                    assert await kv.get("w7") == "x"

        asyncio.run(scenario())

    def test_broken_connection_raises_immediately(self):
        async def scenario():
            async with serving() as server:
                kv = await KVClient.connect(
                    "127.0.0.1", server.port, retry_s=0.0
                )
                await kv.close()
                with pytest.raises(ConnectionError):
                    kv.request_many([["PING"]])

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Protocol v2: HELLO negotiation, snapshots, transactional MULTI
# ---------------------------------------------------------------------------


class TestProtocolV2:
    def test_hello_negotiation_and_gating(self):
        """v2 verbs are rejected until HELLO upgrades the connection."""
        requests = [
            ["SNAP"],                       # before HELLO: rejected
            ["MULTI", "PUT", "k", "v"],     # before HELLO: rejected
            ["GET", "k", "AT", "0:0"],      # before HELLO: rejected
            ["HELLO", "2"],
            ["HELLO", "99"],                # capped at the server's max
            ["HELLO", "zzz"],               # malformed
        ]

        async def scenario():
            async with serving() as server:
                replies = await raw_exchange(
                    server.port, requests, len(requests)
                )
                assert [r[:2] for r in replies[:3]] == [
                    ["ERR", "BADREQ"]
                ] * 3
                assert replies[3] == ["HELLO", "2"]
                assert replies[4] == ["HELLO", "2"]
                assert replies[5][:2] == ["ERR", "BADREQ"]

        asyncio.run(scenario())

    def test_v1_connection_sees_identical_protocol(self):
        """A client that never sends HELLO gets the v1 byte stream."""
        requests = [
            ["PING"],
            ["PUT", "a", "1"],
            ["GET", "a"],
            ["SCAN", "a", "z"],
            ["BATCH", "PUT", "b", "2", "DELETE", "a"],
            ["GET", "a"],
        ]

        async def scenario():
            async with serving() as server:
                replies = await raw_exchange(
                    server.port, requests, len(requests)
                )
                assert replies == [
                    ["PONG"],
                    ["OK"],
                    ["VALUE", "1"],
                    ["PAIRS", "a", "1"],
                    ["OK", "2"],
                    ["NONE"],
                ]

        asyncio.run(scenario())

    def test_snapshot_isolation_and_multi_over_sharded(self):
        """SNAP pins a store-wide view; MULTI commits across shards."""

        async def scenario():
            store = ShardedStore(4, bg_config())
            async with serving(store) as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port, protocol_version=2
                ) as kv:
                    assert kv.protocol_version == 2
                    keys = [f"key{i:04d}" for i in range(32)]
                    assert await kv.multi(
                        [("put", key, "v1") for key in keys]
                    ) == 32
                    token = await kv.snapshot()
                    assert await kv.multi(
                        [("put", key, "v2") for key in keys]
                    ) == 32
                    assert await kv.get(keys[5]) == "v2"
                    assert await kv.get(keys[5], at=token) == "v1"
                    at_pairs = await kv.scan("key", "kez", at=token)
                    assert [v for _k, v in at_pairs] == ["v1"] * 32
                    now_pairs = await kv.scan("key", "kez")
                    assert all(v == "v2" for _k, v in now_pairs)
                    await kv.end_snapshot(token)
                    await kv.end_snapshot(token)  # idempotent

        asyncio.run(scenario())

    def test_malformed_at_token_is_badreq(self):
        async def scenario():
            async with serving() as server:
                replies = await raw_exchange(
                    server.port,
                    [["HELLO", "2"], ["GET", "k", "AT", "garbage"]],
                    2,
                )
                assert replies[1][:2] == ["ERR", "BADREQ"]

        asyncio.run(scenario())

    def test_v1_client_method_guard(self):
        """The client refuses v2 calls it never negotiated for."""

        async def scenario():
            async with serving() as server:
                async with await KVClient.connect(
                    "127.0.0.1", server.port
                ) as kv:
                    with pytest.raises(ProtocolError):
                        await kv.snapshot()
                    with pytest.raises(ProtocolError):
                        await kv.multi([("put", "k", "v")])
                    with pytest.raises(ProtocolError):
                        await kv.get("k", at="0:0")

        asyncio.run(scenario())

    def test_per_connection_snapshot_cap(self):
        async def scenario():
            async with serving() as server:
                # A PUT between SNAPs advances the sequence point, so
                # every SNAP registers a distinct token; the 65th must
                # trip the per-connection cap.
                requests: List[List[str]] = [["HELLO", "2"]]
                for index in range(65):
                    requests.append(["PUT", "k", str(index)])
                    requests.append(["SNAP"])
                replies = await raw_exchange(
                    server.port, requests, len(requests)
                )
                snaps = [r for r in replies[1:] if r[0] == "SNAP"]
                errors = [r for r in replies[1:] if r[0] == "ERR"]
                assert len(snaps) == 64
                assert len(errors) == 1
                assert errors[0][1] == "BADREQ"

        asyncio.run(scenario())

    def test_repeated_snap_at_same_seqno_reuses_token(self):
        """Identical sequence points dedupe instead of leaking pins."""

        async def scenario():
            tree = LSMTree(bg_config())
            async with serving(tree) as server:
                requests = [["HELLO", "2"], ["PUT", "k", "v"]] + [
                    ["SNAP"]
                ] * 5 + [["INFO"]]
                replies = await raw_exchange(
                    server.port, requests, len(requests)
                )
                tokens = {r[1] for r in replies if r[0] == "SNAP"}
                assert len(tokens) == 1
                # One registered snapshot -> exactly one engine pin.
                assert len(tree._snapshots) == 1

        asyncio.run(scenario())

    def test_disconnect_releases_snapshot_pins(self):
        async def scenario():
            tree = LSMTree(bg_config())
            async with serving(tree) as server:
                kv = await KVClient.connect(
                    "127.0.0.1", server.port, protocol_version=2
                )
                await kv.put("k", "v")
                await kv.snapshot()
                assert tree._snapshots
                await kv.close()
                for _ in range(100):
                    if not tree._snapshots:
                        break
                    await asyncio.sleep(0.01)
                assert not tree._snapshots

        asyncio.run(scenario())
