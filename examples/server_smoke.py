"""End-to-end smoke test of the serving layer (run by CI).

Two phases:

1. **Real process boundary** — spawn ``python -m repro.cli serve`` as a
   subprocess, wait for its listening banner, run a pipelined client
   session (PUT/GET/SCAN/BATCH/DELETE/INFO) against it, then one raw
   mixed window (PUT/GET x4 in one segment) that must cost one commit
   group per shard it touches, then an idle drill — ``INFO`` twice
   across a one-second pause: the background workers of an idle store
   may only have run their backstop poll — then SIGINT it and assert a
   clean, orderly shutdown (exit code 0).
2. **BUSY retry path** — an in-process server whose tree is forced to
   report the write-stop backpressure state for the first few admission
   checks; the client's exponential-backoff retry must absorb the BUSY
   replies and land the write.

Exits non-zero on any failure, so it doubles as a CI job.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro import LSMConfig, LSMTree  # noqa: E402
from repro.server import (  # noqa: E402
    FrameParser,
    KVClient,
    KVServer,
    encode_messages,
)


async def pipelined_session(port: int, shards: int) -> None:
    """The round-trip CI asserts: pipelined mixed ops over one connection."""
    async with await KVClient.connect("127.0.0.1", port) as kv:
        assert await kv.ping()
        # 40 pipelined puts + interleaved reads over one connection.
        await asyncio.gather(
            *(kv.put(f"user{i:04d}", f"profile-{i}") for i in range(40))
        )
        values = await asyncio.gather(
            *(kv.get(f"user{i:04d}") for i in range(40))
        )
        assert values == [f"profile-{i}" for i in range(40)]
        assert await kv.batch(
            [("put", "batch-a", "1"), ("delete", "user0000", None)]
        ) == 2
        pairs = await kv.scan("user0000", "user0005")
        assert pairs == [(f"user{i:04d}", f"profile-{i}") for i in (1, 2, 3, 4)]
        limited = await kv.scan("user0000", "user0099", 2)
        assert limited == pairs[:2]
        await kv.delete("user0001")
        assert await kv.get("user0001") is None
        info = await kv.info()
        assert info["server"]["requests_total"] > 80
        assert info["backpressure"]["state"] in ("ok", "slowdown", "stop")
        assert info["server"]["committers"] == shards
        if shards > 1:
            assert len(info["shards"]) == shards
            # Hash routing spread the 40 keys over several shards.
            assert sum(1 for row in info["shards"] if row["puts"]) > 1
    print(f"pipelined round-trip ({shards} shard(s)): ok")


async def mixed_window(port: int) -> None:
    """One pipelined window of alternating PUT/GET on a fresh connection:
    replies in arrival order, and the four writes share their commits —
    one group on a single tree, at most one per shard touched."""

    async def commit_counts(kv: KVClient):
        info = await kv.info()
        puts = [row["puts"] for row in info.get("shards", [])]
        return info["server"]["group_commits"], puts or [info["engine"]["puts"]]

    requests, expected = [], []
    for i in range(4):
        requests += [["PUT", f"window{i}", f"w{i}"], ["GET", f"user{i + 2:04d}"]]
        expected += [["OK"], ["VALUE", f"profile-{i + 2}"]]
    async with await KVClient.connect("127.0.0.1", port) as kv:
        commits_before, puts_before = await commit_counts(kv)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(encode_messages(requests))
            parser, replies = FrameParser(), []
            while len(replies) < len(requests):
                data = await asyncio.wait_for(reader.read(64 * 1024), 15)
                assert data, "server closed the connection mid-window"
                replies.extend(parser.feed(data))
        finally:
            writer.close()
            await writer.wait_closed()
        assert replies == expected, replies
        commits_after, puts_after = await commit_counts(kv)
    touched = sum(
        1 for before, after in zip(puts_before, puts_after) if after > before
    )
    commits = commits_after - commits_before
    assert 1 <= commits <= touched, (commits, touched)
    print(f"mixed window: 4 PUTs + 4 GETs in {commits} commit group(s): ok")


async def idle_drill(port: int, shards: int) -> None:
    """An idle server's background workers sleep until kicked: over a
    one-second pause they (``serve`` defaults to two flush and two
    compaction workers per shard tree) run no empty step unless work
    left over from the drills above kicks them — allowed 150 each, far
    below a wake storm."""
    pause_s, per_worker = 1.0, 150
    async with await KVClient.connect("127.0.0.1", port) as kv:
        before = (await kv.info())["engine"]["background_idle_steps"]
        await asyncio.sleep(pause_s)
        after = (await kv.info())["engine"]["background_idle_steps"]
    grew, workers = after - before, 4 * shards
    assert grew <= per_worker * workers, (
        f"{grew} empty worker steps in {pause_s:.0f}s idle "
        f"({workers} workers): the workers are waking each other"
    )
    print(f"idle drill: {grew} empty steps in 1s over {workers} workers: ok")


def subprocess_server_phase(shards: int) -> None:
    """Start the CLI server, drive it, SIGINT it, assert clean shutdown."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--background", "--shards", str(shards)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    try:
        banner = process.stdout.readline()
        assert "listening on" in banner, f"unexpected banner: {banner!r}"
        port = int(banner.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
        asyncio.run(pipelined_session(port, shards))
        asyncio.run(mixed_window(port))
        asyncio.run(idle_drill(port, shards))
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            raise AssertionError("server did not shut down on SIGINT")
    output = process.stdout.read()
    assert process.returncode == 0, (
        f"server exited {process.returncode}; output: {output}"
    )
    assert "shutting down" in output
    print("subprocess serve + SIGINT shutdown: ok")


async def busy_retry_phase() -> None:
    """Force the write-stop state; the client must retry through BUSY."""
    tree = LSMTree(LSMConfig(background_mode=True, num_buffers=4))
    server = KVServer(tree, owns_tree=True)

    real_backpressure = tree.backpressure
    stops_remaining = 3

    def stubbed_backpressure():
        nonlocal stops_remaining
        if stops_remaining > 0:
            stops_remaining -= 1
            state = real_backpressure()
            state["state"] = "stop"
            return state
        return real_backpressure()

    tree.backpressure = stubbed_backpressure
    await server.start()
    try:
        async with await KVClient.connect("127.0.0.1", server.port) as kv:
            await kv.put("resilient", "yes")  # absorbs 3 BUSY replies
            assert kv.busy_retries >= 1
            assert await kv.get("resilient") == "yes"
        assert server.metrics.busy_rejections >= 1
    finally:
        await server.stop()
    print("BUSY retry path: ok")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shards", type=int, default=1,
        help="shard count passed to `serve` (default: 1, the plain tree)",
    )
    args = parser.parse_args()
    started = time.perf_counter()
    subprocess_server_phase(args.shards)
    asyncio.run(busy_retry_phase())
    print(f"server smoke passed in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
