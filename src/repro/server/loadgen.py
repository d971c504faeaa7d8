"""Closed-loop load generation against a live KV server.

Shared by the ``bench-serve`` CLI subcommand and experiment E22
(``benchmarks/bench_e22_server.py``): start a server over a fresh tree,
drive it with N concurrent client connections each keeping a fixed
pipeline depth outstanding, and report wall-clock throughput plus
client-observed latency percentiles.

The loop is *closed*: every client issues ``pipeline_depth`` requests,
awaits all their replies, then issues the next window — so throughput
reflects the full request/commit/reply cycle, and the group-commit
contrast isolates the serving layer (same engine, same protocol, only
the commit coalescing differs).
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional

from ..api import KVStore
from ..core.config import LSMConfig
from ..core.stats import percentile
from ..core.tree import LSMTree
from ..shard import ShardedStore
from .client import KVClient
from .server import KVServer


async def _client_worker(
    host: str,
    port: int,
    client_id: int,
    ops: int,
    pipeline_depth: int,
    value: str,
    get_every: int,
    latencies_us: List[float],
) -> None:
    """One closed-loop client: windows of ``pipeline_depth`` requests.

    Each window is issued through :meth:`KVClient.request_many` — one
    synchronous call, one reply future, and one transport write for the
    whole window instead of a task (or even a future) per request. BUSY
    and error replies fall back to the retrying coroutine API
    (:meth:`~KVClient.put` / :meth:`~KVClient.get`), so backpressure
    semantics match the per-request path.
    """
    perf_counter = time.perf_counter
    client = await KVClient.connect(host, port)
    try:
        issued = 0
        while issued < ops:
            window = min(pipeline_depth, ops - issued)
            requests: List[List[str]] = []
            for offset in range(window):
                sequence = issued + offset
                key = f"c{client_id:03d}-{sequence:09d}"
                if get_every and sequence % get_every == get_every - 1:
                    requests.append(["GET", key])
                else:
                    requests.append(["PUT", key, value])
            started = perf_counter()
            replies = await client.request_many(requests)
            window_us = (perf_counter() - started) * 1e6
            retries = []
            for fields, reply in zip(requests, replies):
                if reply[0] in ("BUSY", "ERR"):
                    retries.append(fields)
                else:
                    latencies_us.append(window_us)
            for fields in retries:  # rare: ride the retrying slow path
                started = perf_counter()
                if fields[0] == "GET":
                    await client.get(fields[1])
                else:
                    await client.put(fields[1], fields[2])
                latencies_us.append((perf_counter() - started) * 1e6)
            issued += window
    finally:
        await client.close()


async def run_closed_loop(
    host: str,
    port: int,
    *,
    clients: int,
    pipeline_depth: int,
    ops_per_client: int,
    value_bytes: int = 64,
    get_every: int = 0,
) -> Dict[str, float]:
    """Drive a running server; return throughput + latency percentiles.

    ``get_every`` > 0 turns every Nth request into a GET of an
    already-written key, mixing reads into the closed loop.
    """
    value = "v" * value_bytes
    latencies_us: List[float] = []
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _client_worker(
                host,
                port,
                client_id,
                ops_per_client,
                pipeline_depth,
                value,
                get_every,
                latencies_us,
            )
            for client_id in range(clients)
        )
    )
    wall_s = time.perf_counter() - started
    total_ops = clients * ops_per_client
    return {
        "clients": clients,
        "pipeline_depth": pipeline_depth,
        "ops": total_ops,
        "wall_s": wall_s,
        "throughput_ops_s": total_ops / wall_s if wall_s > 0 else 0.0,
        "p50_us": percentile(latencies_us, 0.50),
        "p99_us": percentile(latencies_us, 0.99),
        "max_us": max(latencies_us) if latencies_us else 0.0,
    }


def measure_server(
    *,
    clients: int,
    pipeline_depth: int,
    ops_per_client: int,
    group_commit: bool,
    config: Optional[LSMConfig] = None,
    wal_dir: Optional[str] = None,
    value_bytes: int = 64,
    get_every: int = 0,
    executor_threads: Optional[int] = None,
    shards: int = 1,
) -> Dict[str, float]:
    """Start a fresh server+store, run one closed-loop measurement, stop.

    A synchronous convenience wrapper: everything (server and clients)
    runs on one fresh event loop, so callers — benchmarks, the CLI —
    need no asyncio plumbing of their own. ``shards`` > 1 backs the
    server with a hash-routed :class:`~repro.shard.ShardedStore` whose
    per-shard group committers run in parallel.
    """

    async def measurement() -> Dict[str, float]:
        engine_config = config or LSMConfig(
            background_mode=True,
            num_buffers=4,
            flush_threads=2,
            compaction_threads=2,
            # Durable commits: the cost group commit amortizes. Only
            # takes effect when the caller provides a wal_dir.
            wal_fsync=True,
        )
        store: KVStore
        if shards > 1:
            store = ShardedStore(
                shards, engine_config, wal_dir=wal_dir
            )
        else:
            store = LSMTree(engine_config, wal_dir=wal_dir)
        server = KVServer(
            store,
            group_commit=group_commit,
            executor_threads=executor_threads,
            owns_tree=True,
        )
        await server.start()
        try:
            row = await run_closed_loop(
                server.host,
                server.port,
                clients=clients,
                pipeline_depth=pipeline_depth,
                ops_per_client=ops_per_client,
                value_bytes=value_bytes,
                get_every=get_every,
            )
            row["group_commit"] = group_commit
            row["shards"] = shards
            row["group_commits"] = server.metrics.group_commits
            row["ops_per_commit"] = (
                server.metrics.group_committed_ops
                / server.metrics.group_commits
                if server.metrics.group_commits
                else 0.0
            )
            row["busy_rejections"] = server.metrics.busy_rejections
        finally:
            # Stopping the server closes the store (``owns_tree``), which
            # drains every rotated buffer and pending compaction. Timing
            # it separately exposes the background debt the serving
            # window deferred: ``sustained_ops_s`` charges ingestion for
            # *all* the work it caused, not just the part that fit
            # inside the measurement window.
            drain_started = time.perf_counter()
            await server.stop()
            drain_s = time.perf_counter() - drain_started
        row["drain_s"] = drain_s
        row["sustained_ops_s"] = row["ops"] / (row["wall_s"] + drain_s)
        return row

    return asyncio.run(measurement())
