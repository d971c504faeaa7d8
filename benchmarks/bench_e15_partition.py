"""E15 — Key-space partitioning: PebblesDB / Nova-LSM (§2.2.2).

Claim under reproduction: "Another way to reduce data movement is by
partitioning the key space and storing the partitions in separate trees"
— a fragmented/sharded LSM "improves the ingestion throughput by reducing
the overall data movement during compactions". Each shard's tree is
shallower, so write amplification and compaction bytes drop as shards are
added; the price is multiplied memory (buffers/filters per shard).
"""

from __future__ import annotations

from repro.bench.report import format_table
from repro.shard import ShardedStore, range_boundaries
from repro.storage.disk import SimulatedDisk
from repro.workload.distributions import format_key

from common import bench_config, save_and_print, scaled

NUM_KEYS = scaled(15_000)
SHARD_COUNTS = [1, 4, 16]
LOOKUPS = scaled(300)


def _run(num_shards: int):
    import random

    # One shared device: aggregate amplification and simulated time are
    # read off a single set of counters, however many trees write to it.
    store = ShardedStore(
        boundaries=range_boundaries(NUM_KEYS, num_shards),
        config=bench_config(),
        disk=SimulatedDisk(),
    )
    keys = [format_key(index) for index in range(NUM_KEYS)]
    random.Random(3).shuffle(keys)
    for key in keys:
        store.put(key, "v" * 24)

    ingest_us = store.disk.now_us
    before = store.disk.counters.snapshot()
    for index in range(LOOKUPS):
        store.get(keys[(index * 41) % NUM_KEYS])
    lookup_pages = store.disk.counters.delta(before).pages_read / LOOKUPS

    return {
        "shards": num_shards,
        "wa": store.write_amplification(),
        "compaction_mb": store.stats.compaction_bytes_written / (1 << 20),
        "max_depth": store.max_depth(),
        "ingest_s": ingest_us / 1e6,
        "lookup_pages": lookup_pages,
        "memory_kb": store.memory_footprint_bits() / 8192.0,
    }


def test_e15_partitioning(benchmark):
    results = benchmark.pedantic(
        lambda: [_run(count) for count in SHARD_COUNTS],
        rounds=1,
        iterations=1,
    )

    table = format_table(
        ["shards", "write amp", "compaction MiB", "max tree depth",
         "ingest (sim s)", "pages/lookup", "memory (KiB)"],
        [
            (row["shards"], row["wa"], row["compaction_mb"],
             row["max_depth"], row["ingest_s"], row["lookup_pages"],
             row["memory_kb"])
            for row in results
        ],
        title=(
            "E15: key-space partitioning — expected: more shards => "
            "shallower trees, less compaction data movement, lower WA and "
            "faster ingestion; memory footprint grows with shards"
        ),
    )
    save_and_print("E15", table)

    by_shards = {row["shards"]: row for row in results}
    single, most = by_shards[1], by_shards[SHARD_COUNTS[-1]]
    # The headline: partitioning reduces data movement and WA.
    assert most["compaction_mb"] < single["compaction_mb"]
    assert most["wa"] < single["wa"]
    assert most["ingest_s"] < single["ingest_s"]
    assert most["max_depth"] <= single["max_depth"]
    # Monotone across the sweep.
    was = [by_shards[count]["wa"] for count in SHARD_COUNTS]
    assert was == sorted(was, reverse=True)
    # The price: memory multiplies with shard count.
    assert most["memory_kb"] > single["memory_kb"]
