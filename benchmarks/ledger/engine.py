"""The embedded workloads: ``engine_write`` and ``engine_read``.

One thread drives an ``LSMTree`` directly, synchronous mode, so flushes
and compactions are charged to the write that triggers them and every
simulated-device count repeats exactly from run to run.

Correctness: every GET and SCAN reply of the timed stream is compared
with the generator's model. After the stream every key the run wrote is
read back twice — from the live tree, then after ``checkpoint`` + a short
unflushed tail of writes + ``kill()`` + ``recover_full`` (checkpoint
restore plus WAL replay of the tail). Replaying the whole preserved WAL
instead would take as long as the stream did; the checkpoint keeps the
run inside its time budget while the tail keeps WAL replay in the check.
``kill()`` leaves the OS page cache intact; discarding bytes that were
written but not synced is the fault sweep's job, not this check's.
"""

from __future__ import annotations

import shutil
import time
from typing import Dict, List, Optional, Tuple

import spec
import stores
import streams
import timing
import tracing
from repro import LSMTree
from repro.storage.persistence import checkpoint, recover_full

#: Batches written after the checkpoint and left unflushed for WAL replay.
TAIL_BATCHES = 100
TAIL_VERSION = 99_999_999


def _setup(plan: streams.EnginePlan, work: stores.WorkDir) -> Tuple[
    LSMTree, str, float
]:
    wal_dir = work.fresh("engine")
    started = time.perf_counter()
    tree = LSMTree(stores.engine_config(False), wal_dir=wal_dir)
    for batch in plan.preload:
        tree.write_batch(batch)
    tree.flush()
    return tree, wal_dir, time.perf_counter() - started


def _drive(tree: LSMTree, plan: streams.EnginePlan, calls: List[tuple],
           tracer) -> Tuple[List[timing.Sample], int, float]:
    """Run ``calls``, checking each reply; returns one sample per call,
    the failed ops and the start time."""
    perf = time.perf_counter
    write_batch, get, scan = tree.write_batch, tree.get, tree.scan
    pairs = plan.pairs
    per_block = max(1, len(calls) // spec.BLOCKS)
    samples: List[timing.Sample] = []
    append = samples.append
    failed = 0
    done = 0
    started = perf()
    for call in calls:
        kind = call[0]
        if kind == "g":
            begin = perf()
            got = get(call[1])
            end = perf()
            ops = 1 if got == call[2] else 0
        elif kind == "w":
            begin = perf()
            write_batch(call[1])
            end = perf()
            ops = len(call[1])
        else:
            low = call[1]
            begin = perf()
            got = scan(pairs[low][0], pairs[low + streams.SCAN_KEYS][0])
            end = perf()
            ops = 1 if got == pairs[low:low + streams.SCAN_KEYS] else 0
        failed += not ops
        append((end, ops, (end - begin) * 1e6))
        done += 1
        if tracer is not None and done % per_block == 0:
            tracer.on = timing.traced_block(done // per_block)
    if tracer is not None:
        tracer.on = False
    return samples, failed, started


def run(
    plan: streams.EnginePlan,
    work: stores.WorkDir,
    tracer=None,
    setups: int = 3,
) -> Dict[str, object]:
    setup_times = []
    for attempt in range(setups):
        tree, wal_dir, elapsed = _setup(plan, work)
        setup_times.append(elapsed)
        if attempt < setups - 1:
            tree.kill()
            shutil.rmtree(wal_dir)
    _, failed, _ = _drive(tree, plan, plan.calls[:plan.warm], None)
    loaded = stores.snapshot([tree])

    timed = plan.calls[plan.warm:]
    samples, failures, started = _drive(tree, plan, timed, tracer)
    failed += failures
    stream_spans = tracer.take() if tracer is not None else []
    tree.flush()
    lifetime = stores.snapshot([tree])
    moved = stores.delta(lifetime, loaded)
    blocks = timing.block_stats(samples, started, spec.EMBEDDED_TAIL)
    space = stores.space_amp([tree])

    before_read_back = stores.snapshot([tree])
    failed += stores.read_back(tree.get, plan.expected)
    read_back = stores.delta(stores.snapshot([tree]), before_read_back)

    # Durability: checkpoint, an unflushed tail, kill, full recovery.
    expected = dict(plan.expected)
    checkpoint_dir = work.fresh("checkpoint")
    checkpoint(tree, checkpoint_dir)
    keys = [key for key, _ in plan.pairs]
    step = max(1, len(keys) // (TAIL_BATCHES * streams.BATCH_OPS))
    tail_keys = keys[::step][:TAIL_BATCHES * streams.BATCH_OPS]
    for batch in streams.preload_batches(tail_keys, streams.BATCH_OPS):
        tree.write_batch(
            [(op, key, streams.value(key, TAIL_VERSION))
             for op, key, _ in batch]
        )
    for key in tail_keys:
        expected[key] = streams.value(key, TAIL_VERSION)
    tree.kill()
    replay_rate = (
        stores.replay_rate([wal_dir]) if tracer is not None else None
    )
    recovered = recover_full(
        stores.recovery_config(), wal_dir, checkpoint_dir
    )
    failed += stores.read_back(recovered.get, expected)
    recovered.close()

    total_ops = sum(len(call[1]) if call[0] == "w" else 1 for call in timed)
    end_to_end = timing.wall_clock_metrics(blocks, setup_times)
    end_to_end["write_amp"] = stores.write_amp(lifetime)
    end_to_end["read_amp"] = stores.read_amp(moved)
    if end_to_end["read_amp"] is None:
        # engine_write's stream reads nothing: its figure is the read-back's.
        end_to_end["read_amp"] = stores.read_amp(read_back)
    end_to_end["space_amp"] = space
    layers = stores.counter_layers(moved, total_ops, [tree])
    layers["wal.replay_entries_per_s"] = replay_rate
    layers.update(timing.run_layers(blocks, tracer is not None))
    if tracer is not None:
        per_block = blocks["calls_per_block"]
        traced = [
            call for index, call in enumerate(timed)
            if timing.traced_block(index // per_block)
        ]
        write_ops = sum(len(c[1]) for c in traced if c[0] == "w")
        reads = sum(1 for c in traced if c[0] != "w")
        layers.update(tracing.stream_layers(
            stream_spans, ops=reads + write_ops, write_ops=write_ops,
            multis=0,
        ))
    return {
        "attempted": total_ops + 2 * len(expected),
        "failed": failed,
        "end_to_end": end_to_end,
        "layers": layers,
        "blocks": blocks,
        "spans": stream_spans,
    }
