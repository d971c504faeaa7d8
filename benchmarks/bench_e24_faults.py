"""E24 — Degraded-mode serving: one dead shard vs. a bricked store.

Claim under reproduction: fault isolation is an architectural property of
sharding (§2.2.2), not just a throughput one. When a background
flush/compaction worker dies, a single-tree server loses *all* write
availability — every write surfaces the background failure — while a
sharded server quarantines only the failed shard and keeps serving the
other N-1 shards' key space at full fidelity, answering affected keys
with the retryable ``ERR UNAVAILABLE`` instead of hanging or dying.

Setup: the asyncio TCP server over (a) one background-mode tree and (b) a
4-shard background-mode ``ShardedStore``, same engine config per tree.
Pipelined clients warm the store, then a fault-injection hook kills the
flush/compaction workers of exactly one engine (the only engine, or shard
0) mid-run — the process-internal analogue of a disk failing under one
shard. The clients keep writing uniformly-hashed keys.

Metrics: post-kill write availability (successful writes / attempted),
detection time (kill → first structured error reply), and resume time
(kill → first *successful* write after an error was seen — the degraded
steady state). The whole-store case never resumes; that asymmetry is the
result.

Expected shape: sharded availability ≈ (N-1)/N (≥ 0.5 asserted), single
tree ≈ 0 (< 0.1 asserted); detection and resume both well under a
second, with HEALTH reporting the quarantined shard.
"""

from __future__ import annotations

import asyncio
import tempfile
import time

from repro.core.config import LSMConfig
from repro.core.tree import LSMTree
from repro.faults import inject_worker_death
from repro.server import KVClient, KVServer, ServerError, UnavailableError
from repro.shard import ShardedStore

from common import QUICK, save_and_print
from repro.bench.report import format_table

NUM_SHARDS = 4
WARM_OPS = 40 if QUICK else 160
POST_KILL_OPS = 80 if QUICK else 400
VALUE = "v" * 64


def _engine_config() -> LSMConfig:
    return LSMConfig(
        background_mode=True,
        buffer_size_bytes=16 * 1024,
        num_buffers=4,
        flush_threads=1,
        compaction_threads=1,
    )


async def _serve_and_kill(shards: int) -> dict:
    """One serving run: warm, kill one engine's workers, keep writing."""
    with tempfile.TemporaryDirectory(prefix="repro-e24-") as wal_dir:
        if shards == 1:
            store = LSMTree(_engine_config(), wal_dir=wal_dir)
            victim = store
        else:
            store = ShardedStore(shards, _engine_config(), wal_dir=wal_dir)
            victim = store.shards[0]
        server = KVServer(store, owns_tree=False)
        await server.start()
        client = await KVClient.connect(
            "127.0.0.1",
            server.port,
            timeout_s=5.0,
            retry_s=0.05,
        )
        try:
            for start in range(0, WARM_OPS, 32):
                await asyncio.gather(
                    *(
                        client.put(f"key-{i:05d}", VALUE)
                        for i in range(start, min(start + 32, WARM_OPS))
                    )
                )

            inject_worker_death(victim, "bench: simulated worker death")
            killed_at = time.perf_counter()

            ok = 0
            failed = 0
            detect_s = None
            resume_s = None
            for i in range(POST_KILL_OPS):
                try:
                    await client.put(f"key-{WARM_OPS + i:05d}", VALUE)
                except (UnavailableError, ServerError, ConnectionError):
                    failed += 1
                    if detect_s is None:
                        detect_s = time.perf_counter() - killed_at
                else:
                    ok += 1
                    if detect_s is not None and resume_s is None:
                        resume_s = time.perf_counter() - killed_at

            health = await client.health()
        finally:
            await client.close()
            await server.stop()
            store.kill()  # workers already dead; skip the clean close
        return {
            "shards": shards,
            "post_kill_ops": POST_KILL_OPS,
            "write_availability": ok / POST_KILL_OPS,
            "failed_writes": failed,
            "detect_s": detect_s,
            "resume_s": resume_s,
            "health_state": health.get("state"),
            "quarantined": health.get("quarantined", []),
        }


def _fmt_s(value) -> str:
    return f"{value * 1e3:.1f}ms" if value is not None else "never"


def test_e24_degraded_serving(benchmark):
    def experiment():
        return [
            asyncio.run(_serve_and_kill(1)),
            asyncio.run(_serve_and_kill(NUM_SHARDS)),
        ]

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)

    table = format_table(
        ["shards", "avail (frac)", "detect", "resume", "health",
         "quarantined"],
        [
            (
                row["shards"],
                round(row["write_availability"], 3),
                _fmt_s(row["detect_s"]),
                _fmt_s(row["resume_s"]),
                row["health_state"],
                ",".join(map(str, row["quarantined"])) or "-",
            )
            for row in rows
        ],
        title=(
            "E24: write availability after one engine's background "
            "workers die mid-run. A single tree bricks for writes; a "
            f"{NUM_SHARDS}-shard store quarantines the dead shard and "
            "keeps serving the rest (ERR UNAVAILABLE on affected keys)"
        ),
    )
    save_and_print("E24", table)

    single, sharded = rows
    save_and_print(
        "E24-factor",
        "post-kill write availability: "
        f"{sharded['write_availability']:.2f} with {NUM_SHARDS} shards "
        f"(detect {_fmt_s(sharded['detect_s'])}, resume "
        f"{_fmt_s(sharded['resume_s'])}) vs "
        f"{single['write_availability']:.2f} single-tree "
        "(whole store bricked)",
    )

    # The degraded server must still know it is degraded.
    assert sharded["health_state"] == "degraded"
    assert sharded["quarantined"] == [0]
    assert single["health_state"] == "failed"

    # Acceptance claim: the sharded store keeps the majority of the key
    # space writable; the single tree loses effectively all writes.
    assert sharded["write_availability"] > 0.5, (
        f"sharded availability {sharded['write_availability']:.2f} "
        "should clear 0.5 with one of "
        f"{NUM_SHARDS} shards dead"
    )
    assert single["write_availability"] < 0.1, (
        f"single-tree availability {single['write_availability']:.2f} "
        "should collapse once its only engine's workers are dead"
    )
