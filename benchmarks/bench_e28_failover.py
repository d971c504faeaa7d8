"""E28 — Node failover: write availability across a primary's death.

Claim under reproduction: with every shard's WAL shipped synchronously
to a warm replica on another node, a primary's crash costs a bounded
write stall — lease expiry plus one promotion — and **zero** acked
writes: the replica's copy is complete at the instant it takes over, and
the epoch'd map fence guarantees exactly one writable owner throughout.

The experiment runs a 2-node in-process cluster with a replicated map,
writes through a ``ClusterClient`` continuously, kills node ``a``
mid-stream (server stopped, store killed — no goodbye), and reconstructs
the ack timeline. Headline metrics:

* **write availability** — failed client writes must be zero (1.0): the
  client rides owner-connection failures to the promoted replica behind
  its failover grace window;
* **detection-to-promotion latency** — from the kill to the survivor
  serving the dead node's shards, bounded by 2 lease intervals;
* **acked-write loss** — every write acked before, during, and after
  the failover must read back (0 lost, the sync-replication guarantee).
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from typing import List

from repro.cluster import ClusterClient, local_cluster
from repro.core.config import LSMConfig

from common import QUICK, save_and_print
from repro.bench.report import format_table

NUM_SHARDS = 4
HEARTBEAT_S = 0.25
LEASE_S = 1.0
WRITES_BEFORE = 30 if QUICK else 120
WRITES_AFTER = 60 if QUICK else 240
VALUE = "v" * 64


async def _failover_timeline(tmp_dir: str) -> dict:
    async with local_cluster(
        tmp_dir,
        shape="replicated",
        config=LSMConfig(buffer_size_bytes=64 * 1024),
        heartbeat_interval_s=HEARTBEAT_S,
        lease_timeout_s=LEASE_S,
    ) as (servers, stores, live):
        # bootstrap from the *survivor* so the seed connection outlives
        # the kill; the dead node's shards still route via the map
        client = await ClusterClient.connect(
            "127.0.0.1",
            servers[1].port,
            retry_s=4.0 * LEASE_S,
        )
        async with client:
            acks: List[float] = []
            acked_keys: List[str] = []
            failures: List[str] = []
            stop = asyncio.Event()

            async def writer() -> None:
                index = 0
                while not stop.is_set():
                    key = f"fo{index:05d}"
                    try:
                        await client.put(key, VALUE)
                    except Exception as exc:  # any app-visible error
                        failures.append(f"{key}: {exc!r}")
                    else:
                        acks.append(time.perf_counter())
                        acked_keys.append(key)
                    index += 1
                    await asyncio.sleep(0)

            task = asyncio.create_task(writer())
            while len(acks) < WRITES_BEFORE:
                await asyncio.sleep(0.005)
            # node a dies without ceremony
            await servers[0].stop()
            stores[0].kill()
            killed = time.perf_counter()
            while stores[1].map.epoch <= live.epoch:
                await asyncio.sleep(0.005)
            promote_s = time.perf_counter() - killed
            while len(acks) < WRITES_BEFORE + WRITES_AFTER:
                if task.done():
                    task.result()  # surface a crashed writer
                await asyncio.sleep(0.005)
            stop.set()
            await task

            gaps = [
                (later - earlier) * 1000.0
                for earlier, later in zip(acks, acks[1:])
            ]
            lost = [
                key
                for key in acked_keys
                if await client.get(key) != VALUE
            ]
            promotion = servers[1].promotions[0]
            return {
                "acked_writes": len(acked_keys),
                "failed_writes": len(failures),
                "failures": failures[:5],
                "lost_writes": len(lost),
                "availability": (
                    len(acked_keys) / (len(acked_keys) + len(failures))
                    if acked_keys or failures
                    else 0.0
                ),
                "promote_s": promote_s,
                "silence_s": promotion["silence_s"],
                "promoted_shards": promotion["shards"],
                "max_gap_ms": max(gaps),
                "failover_retries": client.failover_retries,
                "epoch": stores[1].map.epoch,
                "owned_after": sorted(stores[1].owned_shards()),
            }


def test_e28_failover(benchmark):
    def experiment():
        with tempfile.TemporaryDirectory(prefix="repro-e28-") as tmp:
            return asyncio.run(_failover_timeline(tmp))

    timeline = benchmark.pedantic(experiment, rounds=1, iterations=1)

    table = format_table(
        ["metric", "value"],
        [
            ("acked writes during run", timeline["acked_writes"]),
            ("failed writes", timeline["failed_writes"]),
            ("write availability", round(timeline["availability"], 4)),
            ("acked writes lost", timeline["lost_writes"]),
            ("kill -> promotion (s)", round(timeline["promote_s"], 3)),
            ("silence at promotion (s)", timeline["silence_s"]),
            ("promoted shards", timeline["promoted_shards"]),
            ("max ack gap (ms)", round(timeline["max_gap_ms"], 1)),
            ("client failover retries", timeline["failover_retries"]),
            ("map epoch after failover", timeline["epoch"]),
        ],
        title=(
            "E28: primary killed under continuous writes (2-node "
            f"replicated cluster, heartbeat {HEARTBEAT_S}s, lease "
            f"{LEASE_S}s; sync WAL shipping)"
        ),
    )
    save_and_print("E28", table)
    save_and_print(
        "E28-factor",
        f"post-kill write availability "
        f"{timeline['availability']:.4f} ({timeline['failed_writes']} "
        f"failed of {timeline['acked_writes'] + timeline['failed_writes']}"
        " attempts); detection-to-promotion "
        f"{timeline['promote_s']:.3f}s of the {2 * LEASE_S:.1f}s "
        "(2 lease intervals) bound; "
        f"{timeline['lost_writes']} acked writes lost",
    )

    # Acceptance: full availability, zero loss, bounded takeover.
    assert timeline["failed_writes"] == 0, timeline["failures"]
    assert timeline["availability"] == 1.0
    assert timeline["lost_writes"] == 0
    assert timeline["promote_s"] <= 2.0 * LEASE_S, timeline
    assert timeline["epoch"] == 2  # exactly one fenced epoch bump
    assert timeline["owned_after"] == [0, 1, 2, 3]
