"""Golden-count tests of window-at-a-time serving.

Each test writes one fixed window of raw frames and asserts the exact
replies *and* the exact engine calls the window cost: how many
``write_batch`` calls the server made, with which ops, in which order
relative to the reads, and on which thread each read ran (plain ``GET``
and ``SCAN`` with a limit run on the event-loop thread — ``asyncio.run``
puts the loop on the main thread here — everything that can wait runs on
a ``kv-engine`` executor thread).
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from typing import List, Tuple

from repro.core.tree import LSMTree
from repro.server import FrameParser, encode_message
from repro.server import server as server_module
from repro.shard import ShardedStore

from .test_server import bg_config, raw_exchange, serving

LOOP = "MainThread"


class Recorder:
    """Records, in order, every engine call the server makes on ``store``:
    ``("write_batch", ops)`` and ``("get" | "scan", first_arg, thread)``."""

    def __init__(self, store) -> None:
        self.events: List[Tuple] = []
        for name in ("get", "scan"):
            setattr(store, name, self._read(name, getattr(store, name)))
        real_write = store.write_batch

        def write_batch(ops):
            self.events.append(("write_batch", list(ops)))
            return real_write(ops)

        store.write_batch = write_batch

    def _read(self, name: str, real):
        def recorded(*args, **kwargs):
            thread = threading.current_thread().name
            self.events.append(
                (name, args[0], LOOP if thread == LOOP else "executor")
            )
            return real(*args, **kwargs)

        return recorded

    @property
    def batches(self) -> List[List[Tuple]]:
        return [event[1] for event in self.events if event[0] == "write_batch"]


def put(key: str, value: str) -> Tuple:
    return ("put", key, value)


def run_window(requests, *, store=None, preload=(), **server_options):
    """Serve ``requests`` as one pipelined window on a fresh connection;
    returns ``(replies, recorder, server metrics)``."""

    async def scenario():
        tree = store if store is not None else LSMTree(bg_config())
        for key, value in preload:
            tree.put(key, value)
        recorder = Recorder(tree)
        async with serving(tree, **server_options) as server:
            replies = await raw_exchange(server.port, requests, len(requests))
            return replies, recorder, server.metrics

    return asyncio.run(scenario())


class TestWindowGoldenCounts:
    def test_mixed_window_is_one_commit_and_loop_reads(self):
        replies, recorder, metrics = run_window(
            [
                ["GET", "a"],
                ["PUT", "b", "1"],
                ["GET", "c"],
                ["PUT", "d", "2"],
                ["PUT", "e", "3"],
                ["GET", "f"],
            ],
            preload=[("a", "A"), ("f", "F")],
        )
        assert replies == [
            ["VALUE", "A"], ["OK"], ["NONE"], ["OK"], ["OK"], ["VALUE", "F"],
        ]
        # Non-conflicting reads answer before the window's one commit.
        assert recorder.events == [
            ("get", "a", LOOP),
            ("get", "c", LOOP),
            ("get", "f", LOOP),
            ("write_batch", [put("b", "1"), put("d", "2"), put("e", "3")]),
        ]
        assert metrics.group_commits == 1
        assert metrics.group_committed_ops == 3

    def test_read_of_a_pipelined_put_commits_first(self):
        replies, recorder, _ = run_window(
            [["PUT", "k", "new"], ["GET", "k"]], preload=[("k", "old")]
        )
        assert replies == [["OK"], ["VALUE", "new"]]
        assert recorder.events == [
            ("write_batch", [put("k", "new")]),
            ("get", "k", LOOP),
        ]

    def test_read_of_a_pipelined_delete_commits_first(self):
        replies, recorder, _ = run_window(
            [["DELETE", "k"], ["GET", "k"]], preload=[("k", "old")]
        )
        assert replies == [["OK"], ["NONE"]]
        assert recorder.events == [
            ("write_batch", [("delete", "k", None)]),
            ("get", "k", LOOP),
        ]

    def test_read_of_a_key_inside_a_pipelined_batch_commits_first(self):
        replies, recorder, _ = run_window(
            [
                ["PUT", "j", "1"],
                ["BATCH", "PUT", "x", "2", "PUT", "k", "new"],
                ["GET", "other"],
                ["GET", "k"],
                ["PUT", "z", "3"],
            ],
            preload=[("k", "old")],
        )
        assert replies == [
            ["OK"], ["OK", "2"], ["NONE"], ["VALUE", "new"], ["OK"],
        ]
        assert recorder.events == [
            ("get", "other", LOOP),
            ("write_batch", [put("j", "1"), put("x", "2"), put("k", "new")]),
            ("get", "k", LOOP),
            ("write_batch", [put("z", "3")]),
        ]

    def test_scan_is_a_barrier(self):
        replies, recorder, _ = run_window(
            [["PUT", "a", "1"], ["SCAN", "a", "z"], ["PUT", "b", "2"]]
        )
        assert replies == [["OK"], ["PAIRS", "a", "1"], ["OK"]]
        assert recorder.events == [
            ("write_batch", [put("a", "1")]),
            ("scan", "a", "executor"),
            ("write_batch", [put("b", "2")]),
        ]

    def test_limited_scan_runs_on_the_loop_inside_one_commit(self):
        replies, recorder, metrics = run_window(
            [["PUT", "a", "1"], ["SCAN", "m", "z", "2"], ["PUT", "b", "2"]],
            preload=[("n", "N"), ("p", "P"), ("q", "Q")],
        )
        assert replies == [["OK"], ["PAIRS", "n", "N", "p", "P"], ["OK"]]
        assert recorder.events == [
            ("scan", "m", LOOP),
            ("write_batch", [put("a", "1"), put("b", "2")]),
        ]
        assert metrics.group_commits == 1
        assert metrics.op_latencies["SCAN"].count == 1

    def test_scan_of_a_pipelined_put_commits_and_reads_again(self):
        replies, recorder, metrics = run_window(
            [["PUT", "c", "C"], ["SCAN", "a", "z", "5"]],
            preload=[("a", "A"), ("b", "B"), ("d", "D")],
        )
        assert replies == [
            ["OK"], ["PAIRS", "a", "A", "b", "B", "c", "C", "d", "D"],
        ]
        assert recorder.events == [
            ("scan", "a", LOOP),
            ("write_batch", [put("c", "C")]),
            ("scan", "a", LOOP),
        ]
        # One request, one latency sample, though it read twice.
        assert metrics.op_latencies["SCAN"].count == 1

    def test_pipelined_delete_inside_a_scan_hides_the_key(self):
        replies, recorder, _ = run_window(
            [["DELETE", "b"], ["SCAN", "a", "z", "2"]],
            preload=[("a", "A"), ("b", "B"), ("c", "C")],
        )
        assert replies == [["OK"], ["PAIRS", "a", "A", "c", "C"]]
        assert recorder.events == [
            ("scan", "a", LOOP),
            ("write_batch", [("delete", "b", None)]),
            ("scan", "a", LOOP),
        ]

    def test_write_past_a_full_scans_last_key_does_not_split_the_run(self):
        replies, recorder, _ = run_window(
            [["PUT", "x", "1"], ["SCAN", "a", "z", "2"], ["PUT", "y", "2"]],
            preload=[("a", "A"), ("b", "B"), ("c", "C")],
        )
        assert replies == [["OK"], ["PAIRS", "a", "A", "b", "B"], ["OK"]]
        assert recorder.events == [
            ("scan", "a", LOOP),
            ("write_batch", [put("x", "1"), put("y", "2")]),
        ]

    def test_write_below_hi_splits_the_run_of_a_short_scan(self):
        replies, recorder, _ = run_window(
            [["PUT", "x", "1"], ["SCAN", "a", "z", "5"], ["PUT", "y", "2"]],
            preload=[("a", "A"), ("b", "B")],
        )
        assert replies == [
            ["OK"], ["PAIRS", "a", "A", "b", "B", "x", "1"], ["OK"],
        ]
        assert recorder.events == [
            ("scan", "a", LOOP),
            ("write_batch", [put("x", "1")]),
            ("scan", "a", LOOP),
            ("write_batch", [put("y", "2")]),
        ]

    def test_bad_scan_limit_fails_alone(self):
        replies, recorder, metrics = run_window(
            [
                ["PUT", "a", "1"],
                ["SCAN", "a", "z", "many"],
                ["SCAN", "a", "z", "-1"],
                ["PUT", "b", "2"],
            ]
        )
        assert replies[0] == replies[3] == ["OK"]
        assert replies[1][:2] == replies[2][:2] == ["ERR", "BADREQ"]
        assert recorder.events == [
            ("write_batch", [put("a", "1"), put("b", "2")]),
        ]
        assert metrics.errors_total == 2

    def test_snapshot_read_is_a_barrier_on_the_executor(self):
        tree = LSMTree(bg_config())
        tree.put("a", "old")
        with tree.snapshot() as snapshot:
            token = snapshot.token
        replies, recorder, _ = run_window(
            [
                ["HELLO", "2"],
                ["SNAP"],
                ["PUT", "a", "new"],
                ["GET", "a", "AT", token],
                ["GET", "a"],
            ],
            store=tree,
        )
        assert replies == [
            ["HELLO", "2"],
            ["SNAP", token],
            ["OK"],
            ["VALUE", "old"],
            ["VALUE", "new"],
        ]
        assert recorder.events == [
            ("write_batch", [put("a", "new")]),
            ("get", "a", "executor"),
            ("get", "a", LOOP),
        ]

    def test_multi_rides_the_run_on_a_single_tree(self):
        replies, recorder, metrics = run_window(
            [
                ["HELLO", "2"],
                ["PUT", "a", "1"],
                ["MULTI", "PUT", "b", "2", "DELETE", "c"],
                ["GET", "x"],
                ["PUT", "d", "4"],
            ]
        )
        assert replies == [
            ["HELLO", "2"], ["OK"], ["OK", "2"], ["NONE"], ["OK"],
        ]
        assert recorder.batches == [
            [put("a", "1"), put("b", "2"), ("delete", "c", None), put("d", "4")]
        ]
        assert metrics.group_commits == 1
        assert metrics.op_latencies["MULTI"].count == 1

    def test_multi_is_its_own_batch_on_a_sharded_store(self):
        multi_ops = [put("b", "2"), put("c", "3"), put("e", "5")]
        replies, recorder, _ = run_window(
            [
                ["HELLO", "2"],
                ["PUT", "a", "1"],
                ["MULTI", "PUT", "b", "2", "PUT", "c", "3", "PUT", "e", "5"],
                ["PUT", "d", "4"],
            ],
            store=ShardedStore(4, bg_config()),
        )
        assert replies == [["HELLO", "2"], ["OK"], ["OK", "3"], ["OK"]]
        # Arrival order across the barrier: a, then the MULTI whole and
        # alone (one store-wide atomic call), then d.
        assert recorder.batches == [[put("a", "1")], multi_ops, [put("d", "4")]]

    def test_multi_on_v1_is_rejected_without_poisoning_the_run(self):
        replies, recorder, _ = run_window(
            [
                ["PUT", "a", "1"],
                ["MULTI", "PUT", "b", "2"],
                ["PUT", "c", "3"],
                ["GET", "b"],
            ]
        )
        assert replies[0] == ["OK"]
        assert replies[1][:2] == ["ERR", "BADREQ"]
        assert "protocol version 2" in replies[1][2]
        assert replies[2:] == [["OK"], ["NONE"]]
        assert recorder.batches == [[put("a", "1"), put("c", "3")]]

    def test_malformed_write_mid_window_fails_alone(self):
        replies, recorder, metrics = run_window(
            [
                ["PUT", "a", "1"],
                ["PUT", "only-a-key"],
                ["GET", "q"],
                ["BATCH", "FROB", "x"],
                ["PUT", "c", "3"],
            ]
        )
        assert replies[0] == ["OK"]
        assert replies[1][:2] == ["ERR", "BADREQ"]
        assert replies[2] == ["NONE"]
        assert replies[3][:2] == ["ERR", "BADREQ"]
        assert replies[4] == ["OK"]
        assert recorder.batches == [[put("a", "1"), put("c", "3")]]
        assert metrics.errors_total == 2

    def test_write_stopped_engine_sheds_writes_but_serves_reads(self):
        tree = LSMTree(bg_config())
        real = tree.backpressure

        def stopped():
            return dict(real(), state="stop")

        tree.backpressure = stopped
        replies, recorder, metrics = run_window(
            [
                ["PUT", "a", "1"],
                ["GET", "pre"],
                ["PUT", "b", "2"],
                ["GET", "a"],
                ["DELETE", "pre"],
            ],
            store=tree,
            preload=[("pre", "P")],
        )
        assert [reply[0] for reply in replies] == [
            "BUSY", "VALUE", "BUSY", "NONE", "BUSY",
        ]
        assert replies[1] == ["VALUE", "P"]
        assert recorder.batches == []
        assert metrics.busy_rejections == 3

    def test_per_request_commit_mode_is_one_engine_call_per_write(self):
        replies, recorder, metrics = run_window(
            [
                ["PUT", "a", "1"],
                ["GET", "x"],
                ["BATCH", "PUT", "b", "2", "PUT", "c", "3"],
                ["DELETE", "a"],
            ],
            group_commit=False,
        )
        assert replies == [["OK"], ["NONE"], ["OK", "2"], ["OK"]]
        assert recorder.batches == [
            [put("a", "1")],
            [put("b", "2"), put("c", "3")],
            [("delete", "a", None)],
        ]
        assert metrics.group_commits == 0


@contextlib.asynccontextmanager
async def raw_connection(port: int):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        yield reader, writer
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()


async def read_replies(reader, count: int) -> List[List[str]]:
    parser = FrameParser()
    replies: List[List[str]] = []
    while len(replies) < count:
        data = await reader.read(256 * 1024)
        assert data, "server hung up"
        replies.extend(parser.feed(data))
    return replies


class TestLoopFairness:
    def test_long_get_pipeline_does_not_starve_other_connections(self):
        """Ordering, not time: B's PONG arrives before A's last reply."""
        gets = 5_000
        assert gets > 4 * server_module._LOOP_HOLD_REQUESTS
        order: List[str] = []

        async def finish(name: str, reader, count: int):
            replies = await read_replies(reader, count)
            order.append(name)
            return replies

        async def scenario():
            tree = LSMTree(bg_config())
            tree.put("k", "v")
            async with serving(tree) as server:
                async with raw_connection(server.port) as (a_reader, a_writer):
                    async with raw_connection(server.port) as (
                        b_reader, b_writer,
                    ):
                        a_writer.write(encode_message(["GET", "k"]) * gets)
                        await a_writer.drain()
                        b_writer.write(encode_message(["PING"]))
                        a_replies, b_replies = await asyncio.wait_for(
                            asyncio.gather(
                                finish("A", a_reader, gets),
                                finish("B", b_reader, 1),
                            ),
                            timeout=60,
                        )
            assert b_replies == [["PONG"]]
            assert a_replies == [["VALUE", "v"]] * gets
            assert order == ["B", "A"]

        asyncio.run(scenario())


class TestLoopNeverWaitsOnACommit:
    def test_get_answers_while_a_put_is_parked_behind_the_write_mutex(self):
        async def scenario():
            tree = LSMTree(bg_config())
            tree.put("k", "v")
            held, release = threading.Event(), threading.Event()

            def hold_mutex():
                # Stands in for an fdatasync in flight on another thread.
                with tree._write_mutex:
                    held.set()
                    release.wait(60)

            holder = threading.Thread(target=hold_mutex)
            holder.start()
            assert held.wait(10)
            async with serving(tree) as server:
                try:
                    async with raw_connection(server.port) as (
                        put_reader, put_writer,
                    ):
                        async with raw_connection(server.port) as (
                            get_reader, get_writer,
                        ):
                            put_writer.write(encode_message(["PUT", "p", "1"]))
                            await put_writer.drain()
                            get_writer.write(
                                encode_message(["GET", "k"])
                                + encode_message(["GET", "p"])
                            )
                            replies = await asyncio.wait_for(
                                read_replies(get_reader, 2), timeout=30
                            )
                            assert replies == [["VALUE", "v"], ["NONE"]]
                            release.set()
                            assert await asyncio.wait_for(
                                read_replies(put_reader, 1), timeout=30
                            ) == [["OK"]]
                finally:
                    # Before the server closes the tree it owns.
                    release.set()
                    holder.join(10)
            assert not holder.is_alive()

        asyncio.run(scenario())
