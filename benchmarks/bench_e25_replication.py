"""E25 — Replication closes the availability gap degraded mode leaves.

Claim under reproduction: quarantine alone (E24) caps post-kill write
availability at (N-1)/N — the dead shard's keys stay dark until an
operator intervenes. Log-shipping replicas with automatic failover
(``repro.replication``: two in-process cluster nodes, one the standby
of every shard) recover the missing 1/N: when shard 0's workers die,
the store promotes its warm standby through the cluster's failover map
and the very request that observed the failure is retried against the
promoted replica, so clients see ~full availability with at most a
promote-latency blip.

Setup: the E24 kill scenario verbatim — asyncio TCP server, pipelined
client, 4 background-mode shards, one shard's flush/compaction workers
killed mid-run — repeated over three stores: the unreplicated
``ShardedStore`` baseline and ``ReplicatedStore`` in sync and async
modes. The warm phase doubles as the replication-cost measurement: sync
mode pays a replica-WAL ack on every commit group, async mode only
queues.

Metrics: post-kill write availability (headline: ~0.75 baseline vs
≥ 0.99 replicated), failover detect/promote latency (kill → promotion
complete, sampled from the store), warm-phase throughput per mode (the
sync-vs-async cost), and the post-kill HEALTH payload (the promoted
store must report *healthy* again, with the promotion counted).
"""

from __future__ import annotations

import asyncio
import tempfile
import time

from repro.core.config import LSMConfig
from repro.faults import inject_worker_death
from repro.replication import ReplicatedStore
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


async def _serve_and_kill(replication: str) -> dict:
    """One serving run: warm, kill shard 0's workers, keep writing.

    ``replication`` is ``"off"`` (ShardedStore baseline), ``"sync"``, or
    ``"async"``.
    """
    with tempfile.TemporaryDirectory(prefix="repro-e25-") as wal_dir:
        if replication == "off":
            store = ShardedStore(
                NUM_SHARDS, _engine_config(), wal_dir=wal_dir
            )
        else:
            store = ReplicatedStore(
                NUM_SHARDS,
                _engine_config(),
                mode=replication,
                wal_dir=wal_dir,
            )
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
            warm_started = time.perf_counter()
            for start in range(0, WARM_OPS, 32):
                await asyncio.gather(
                    *(
                        client.put(f"key-{i:05d}", VALUE)
                        for i in range(start, min(start + 32, WARM_OPS))
                    )
                )
            warm_s = time.perf_counter() - warm_started

            inject_worker_death(victim, "bench: simulated worker death")
            killed_at = time.perf_counter()

            ok = 0
            failed = 0
            detect_s = None
            promote_s = None
            for i in range(POST_KILL_OPS):
                try:
                    await client.put(f"key-{WARM_OPS + i:05d}", VALUE)
                except (UnavailableError, ServerError, ConnectionError):
                    failed += 1
                    if detect_s is None:
                        detect_s = time.perf_counter() - killed_at
                else:
                    ok += 1
                if (
                    promote_s is None
                    and getattr(store, "promotions", 0) > 0
                ):
                    promote_s = time.perf_counter() - killed_at

            health = await client.health()
        finally:
            await client.close()
            await server.stop()
            store.kill()  # workers already dead; skip the clean close
        replication_health = health.get("replication", {})
        return {
            "replication": replication,
            "post_kill_ops": POST_KILL_OPS,
            "write_availability": ok / POST_KILL_OPS,
            "failed_writes": failed,
            "warm_throughput_ops_s": WARM_OPS / warm_s if warm_s else 0.0,
            "detect_s": detect_s,
            "promote_s": promote_s,
            "health_state": health.get("state"),
            "quarantined": health.get("quarantined", []),
            "promotions": replication_health.get("promotions", 0),
        }


def _fmt_s(value) -> str:
    return f"{value * 1e3:.1f}ms" if value is not None else "never"


def test_e25_replicated_failover(benchmark):
    def experiment():
        return [
            asyncio.run(_serve_and_kill("off")),
            asyncio.run(_serve_and_kill("sync")),
            asyncio.run(_serve_and_kill("async")),
        ]

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)

    table = format_table(
        ["replication", "avail (frac)", "detect", "promote", "health",
         "warm ops/s"],
        [
            (
                row["replication"],
                round(row["write_availability"], 3),
                _fmt_s(row["detect_s"]),
                _fmt_s(row["promote_s"]),
                row["health_state"],
                round(row["warm_throughput_ops_s"], 0),
            )
            for row in rows
        ],
        title=(
            "E25: write availability after shard 0's background workers "
            f"die mid-run ({NUM_SHARDS} shards). Without replicas the "
            "dead shard's keys stay dark (~0.75); with WAL-shipping "
            "replicas the standby node is promoted and availability "
            "returns to ~1.0"
        ),
    )
    save_and_print("E25", table)

    baseline, sync_row, async_row = rows
    save_and_print(
        "E25-factor",
        "post-kill write availability: "
        f"{sync_row['write_availability']:.3f} sync / "
        f"{async_row['write_availability']:.3f} async with replicas "
        f"(promote {_fmt_s(sync_row['promote_s'])} / "
        f"{_fmt_s(async_row['promote_s'])}) vs "
        f"{baseline['write_availability']:.2f} unreplicated; warm-phase "
        f"cost of sync replication: "
        f"{baseline['warm_throughput_ops_s'] / sync_row['warm_throughput_ops_s']:.2f}x "
        "slower than unreplicated",
    )

    # Baseline reproduces E24: one dead shard of four stays dark.
    assert baseline["health_state"] == "degraded"
    assert baseline["quarantined"] == [0]
    assert 0.5 < baseline["write_availability"] < 0.9, (
        f"unreplicated availability {baseline['write_availability']:.2f} "
        f"should sit near {(NUM_SHARDS - 1) / NUM_SHARDS:.2f}"
    )

    # Replicated stores fail over and keep (almost) every write.
    for row in (sync_row, async_row):
        assert row["write_availability"] >= 0.99, (
            f"{row['replication']} availability "
            f"{row['write_availability']:.3f} should be >= 0.99 with a "
            "promoted replica"
        )
        assert row["promotions"] == 1, row
        assert row["promote_s"] is not None, (
            "promotion latency must be observed"
        )
        # After failover the store is fully serving again — not degraded.
        assert row["health_state"] == "healthy", row
