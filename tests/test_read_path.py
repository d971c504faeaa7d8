"""Golden-count equivalence test for the read path (§2.1.2–2.1.3).

A fixed-seed synchronous tree is driven through a fixed stream of point
and range reads. Every reply is checked against a dict model, and the
simulated work the reads did — the seven ``TreeStats`` read counters and
the device's page counts — must equal constants recorded at commit
``f6cc271``, before the read path was rewritten. The simulated I/O is the
contract: a read path that gets faster by skipping a filter probe, a fence
check or a block charge changes these numbers.
"""

import random

import pytest

from repro.core.config import rocksdb_like
from repro.core.merge_operator import StringAppendOperator
from repro.core.tree import LSMTree

MERGE_KEY = "k000101m"
READ_COUNTERS = (
    "gets",
    "gets_found",
    "scans",
    "runs_probed",
    "filter_probes",
    "filter_negatives",
    "filter_false_positives",
    "fence_misses",
    "blocks_from_cache",
    "blocks_from_disk",
)

#: Recorded at f6cc271 by running this file with the constants blank.
#: Counts every variant shares (the same ops reach the same runs).
_SHARED = {
    "gets": 690,
    "gets_found": 414,
    "scans": 220,
    "runs_probed": 2480,
    "filter_probes": 2307,
    "read_latency_samples": 910,
}
GOLDEN = {
    "default": {
        **_SHARED,
        "filter_negatives": 1796,
        "filter_false_positives": 25,
        "fence_misses": 0,
        "blocks_from_cache": 337,
        "blocks_from_disk": 1507,
        "pages_read": 1507,
        "read_requests": 1507,
        "reads_by_cause.get": 439,
        "reads_by_cause.scan": 1068,
        "cache_hits": 337,
        "cache_misses": 1507,
        "cache_insertions": 1507,
        "cache_evictions": 1489,
    },
    "no_fence": {
        **_SHARED,
        "filter_negatives": 1796,
        "filter_false_positives": 25,
        "fence_misses": 0,
        "blocks_from_cache": 366,
        "blocks_from_disk": 1735,
        "pages_read": 1735,
        "read_requests": 1735,
        "reads_by_cause.get": 661,
        "reads_by_cause.scan": 1074,
        "cache_hits": 366,
        "cache_misses": 1735,
        "cache_insertions": 1735,
        "cache_evictions": 1717,
    },
    "weak_filter_prefetch": {
        **_SHARED,
        "filter_negatives": 1101,
        "filter_false_positives": 720,
        "fence_misses": 62,
        "blocks_from_cache": 665,
        "blocks_from_disk": 1812,
        "pages_read": 1812,
        "read_requests": 1812,
        "reads_by_cause.get": 785,
        "reads_by_cause.scan": 1027,
        "cache_hits": 665,
        "cache_misses": 1812,
        "cache_insertions": 1812,
        "cache_evictions": 1794,
    },
}
VARIANTS = {
    "default": {},
    "no_fence": {"fence_pointers": False},  # the sequential block walk (E4)
    # heat.record_access on each block; a 2-bit filter lets fence misses
    # and false positives happen often enough to be counted.
    "weak_filter_prefetch": {"cache_prefetch": True, "filter_bits_per_key": 2.0},
}


def present(index):
    return f"k{2 * index:06d}"


def absent(index):
    return f"k{2 * index + 1:06d}"


def delete_range(tree, model, lo, hi):
    tree.delete_range(lo, hi)
    for key in [key for key in model if lo <= key < hi]:
        del model[key]


def build(overrides):
    """A ≥3-level tree holding overwrites, deletes, single-deletes, range
    tombstones on disk and in the buffer, merge operands and pinned
    versions; returns ``(tree, live model, snapshot, snapshot model)``."""
    rng = random.Random(20220612)
    operator = StringAppendOperator(",")
    config = rocksdb_like().with_overrides(
        buffer_size_bytes=1024,
        target_file_bytes=512,
        block_bytes=256,
        block_cache_bytes=4096,
        **overrides,
    )
    tree = LSMTree(config, merge_operator=operator)
    model = {}

    def merge(operand):
        tree.merge(MERGE_KEY, operand)
        model[MERGE_KEY] = operator.full_merge(
            MERGE_KEY, model.get(MERGE_KEY), [operand]
        )

    keys = [present(index) for index in range(1200)]
    order = list(keys)
    rng.shuffle(order)
    for start in range(0, len(order), 8):
        batch = order[start : start + 8]
        tree.write_batch([("put", key, f"v0-{key}") for key in batch])
        model.update((key, f"v0-{key}") for key in batch)
    tree.put(MERGE_KEY, "base")
    model[MERGE_KEY] = "base"
    overwritten = rng.sample(keys, 300)
    for key in overwritten:
        tree.put(key, f"v1-{key}")
        model[key] = f"v1-{key}"
    merge("a")
    for key in rng.sample(keys, 120):
        tree.delete(key)
        model.pop(key, None)
    once = [key for key in keys if key in model and key not in overwritten]
    for key in rng.sample(once, 40):
        tree.single_delete(key)
        del model[key]
    merge("b")
    delete_range(tree, model, present(400), present(460))
    for key in rng.sample(keys, 200):
        tree.put(key, f"v2-{key}")
        model[key] = f"v2-{key}"
    tree.flush()
    assert sum(1 for level in tree.levels if level.run_count) >= 3

    # Buffered state the snapshot sees ...
    pinned = [present(10), present(410), present(900)]
    for key in pinned:
        tree.put(key, f"v3-{key}")
        model[key] = f"v3-{key}"
    merge("c")
    snapshot = tree.snapshot()
    at_model = dict(model)
    # ... and writes after it that the snapshot must not see.
    for key in pinned[:2]:
        tree.put(key, f"v4-{key}")
        model[key] = f"v4-{key}"
    tree.delete(pinned[2])
    del model[pinned[2]]
    tree.put(absent(700), "late")
    model[absent(700)] = "late"
    delete_range(tree, model, present(800), present(815))
    return tree, model, snapshot, at_model


def expected_scan(model, lo, hi, limit):
    pairs = sorted(item for item in model.items() if lo <= item[0] < hi)
    return pairs if limit is None else pairs[:limit]


def drive(tree, model, snapshot, at_model):
    """The fixed read stream; asserts every reply against the models."""
    rng = random.Random(15)
    special = [MERGE_KEY, present(10), present(410), present(900), absent(700)]
    for key in special:
        assert tree.get(key) == model.get(key)
        assert tree.get(key, at=snapshot) == at_model.get(key)
    for _ in range(900):
        roll = rng.random()
        index = rng.randrange(1200)
        lo, hi = present(index), present(index + rng.randrange(1, 60))
        limit = rng.randrange(0, 25)
        if roll < 0.40:
            key = present(index)
            assert tree.get(key) == model.get(key)
        elif roll < 0.65:
            assert tree.get(absent(index)) is None or index == 700
        elif roll < 0.75:
            assert tree.scan(lo, hi) == expected_scan(model, lo, hi, None)
        elif roll < 0.85:
            assert tree.scan(lo, hi, limit) == expected_scan(
                model, lo, hi, limit
            )
        elif roll < 0.93:
            key = present(index)
            assert tree.get(key, at=snapshot) == at_model.get(key)
        elif roll < 0.97:
            assert tree.scan(lo, hi, at=snapshot) == expected_scan(
                at_model, lo, hi, None
            )
        else:
            result = tree.scan(
                lo, hi, limit, at=snapshot.token, allow_partial=True
            )
            assert result == expected_scan(at_model, lo, hi, limit)
            assert not result.partial


def observed(tree):
    counts = {name: getattr(tree.stats, name) for name in READ_COUNTERS}
    counts["pages_read"] = tree.disk.counters.pages_read
    counts["read_requests"] = tree.disk.counters.read_requests
    for cause in ("get", "scan"):
        counts[f"reads_by_cause.{cause}"] = (
            tree.disk.counters.reads_by_cause.get(cause, 0)
        )
    counts["read_latency_samples"] = len(tree.stats.read_latencies_us)
    counts["cache_hits"] = tree.cache.stats.hits
    counts["cache_misses"] = tree.cache.stats.misses
    counts["cache_insertions"] = tree.cache.stats.insertions
    counts["cache_evictions"] = tree.cache.stats.evictions_capacity
    return counts


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_replies_match_model_and_simulated_work_is_unchanged(variant):
    tree, model, snapshot, at_model = build(VARIANTS[variant])
    before = observed(tree)
    compaction_reads = tree.disk.counters.reads_by_cause.get("compaction", 0)
    drive(tree, model, snapshot, at_model)
    after = observed(tree)
    moved = {name: after[name] - before[name] for name in after}
    assert moved == GOLDEN[variant]
    # Reads charge only the get/scan causes.
    assert (
        tree.disk.counters.reads_by_cause.get("compaction", 0)
        == compaction_reads
    )
    snapshot.close()
    tree.close()
