"""Micro-probes on fixed inputs (source ``P``) and the run's context block.

Each probe calls one layer's public functions on inputs that do not
depend on ``--seed``, three times, and reports the median, so a probe's
value differs between two runs only by the box's noise. The two context
probes run before and after every workload (both modes) and let a reader
discount a run that was made on a slow minute.
"""

from __future__ import annotations

import os
import platform
import random
import time
from typing import Callable, Dict, List

import stores
import streams
import timing
from repro import ClusterMap, NodeInfo, ReplicatedStore, ShardedStore
from repro.core.entry import Entry, EntryKind, pack_entries, unpack_entries
from repro.core.memtable import make_memtable
from repro.core.sstable import SSTable
from repro.core.wal import WriteAheadLog
from repro.filters.bloom import BloomFilter
from repro.server import FrameParser, encode_messages
from repro.shard import hash_shard_index
from repro.storage.disk import SimulatedDisk

ENTRIES = 6_000
REPEATS = 3


def _timed(work: Callable[[], object]) -> float:
    started = time.perf_counter()
    work()
    return time.perf_counter() - started


def _median_s(work: Callable[[], object]) -> float:
    return timing.median([_timed(work) for _ in range(REPEATS)])


# -- context --------------------------------------------------------------------


def fdatasync_probe_us(directory: str) -> float:
    """Median of 20 append-one-page-then-``fdatasync`` calls, in us."""
    path = os.path.join(directory, "fdatasync.probe")
    page = b"x" * 4096
    with open(path, "wb", buffering=0) as handle:
        costs = []
        for _ in range(20):
            handle.write(page)
            costs.append(_timed(lambda: os.fdatasync(handle.fileno())))
    os.remove(path)
    return 1e6 * timing.median(costs)


def cpu_calib_ops_per_s() -> float:
    """A fixed pure-Python kernel (dict updates and string formatting)."""
    def kernel() -> None:
        table: Dict[str, int] = {}
        for index in range(40_000):
            table[f"k{index % 4096:012d}"] = index
    return 40_000 / _median_s(kernel)


def _git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without spawning git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:]),
                  encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def context(directory: str, root: str, seed: int, scale: float,
            seconds: float) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "wal_fs": stores.fs_type(directory),
        "git_commit": _git_commit(root),
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "fdatasync_probe_us": [fdatasync_probe_us(directory)],
        "cpu_calib_ops_per_s": [cpu_calib_ops_per_s()],
    }


def context_after(block: Dict[str, object], directory: str) -> None:
    block["fdatasync_probe_us"].append(fdatasync_probe_us(directory))
    block["cpu_calib_ops_per_s"].append(cpu_calib_ops_per_s())


# -- layer probes ---------------------------------------------------------------


def _entries() -> List[Entry]:
    return [
        Entry(key, streams.value(key, 0), index, EntryKind.PUT, 1.0)
        for index, key in enumerate(
            streams.present_key(i) for i in range(ENTRIES)
        )
    ]


def _codec(entries: List[Entry]) -> Dict[str, float]:
    blob = pack_entries(entries)
    return {
        "entry.pack_entries_per_s":
            ENTRIES / _median_s(lambda: pack_entries(entries)),
        "entry.unpack_entries_per_s":
            ENTRIES / _median_s(lambda: unpack_entries(blob, ENTRIES)),
    }


def _memtable(entries: List[Entry]) -> Dict[str, float]:
    shuffled = list(entries)
    random.Random(0).shuffle(shuffled)

    def fill() -> None:
        table = make_memtable("skiplist", 7)
        for entry in shuffled:
            table.insert(entry)

    return {"memtable.insert_us_per_entry": 1e6 * _median_s(fill) / ENTRIES}


def _bloom(entries: List[Entry]) -> Dict[str, float]:
    keys = [entry.key for entry in entries]
    bloom = BloomFilter.for_keys(keys, 10.0)
    probes = keys[::2] + [streams.absent_key(i) for i in range(ENTRIES // 2)]

    def probe() -> None:
        for key in probes:
            bloom.may_contain(key)

    return {"bloom.probe_us": 1e6 * _median_s(probe) / len(probes)}


def _sstable(entries: List[Entry]) -> Dict[str, float]:
    disk = SimulatedDisk()
    per_table = 140  # about one 16 KiB target file

    def build() -> None:
        for start in range(0, ENTRIES, per_table):
            SSTable.build(entries[start:start + per_table], disk)

    return {"sstable.build_entries_per_s": ENTRIES / _median_s(build)}


def _wal_encode(entries: List[Entry], directory: str) -> Dict[str, float]:
    path = os.path.join(directory, "encode.probe")
    groups = [entries[i:i + streams.BATCH_OPS]
              for i in range(0, ENTRIES, streams.BATCH_OPS)]

    def append() -> None:
        wal = WriteAheadLog(SimulatedDisk(), path, fsync=False)
        for group in groups:
            wal.append_batch(group)
        wal.close()
        os.remove(path)

    return {"wal.encode_us_per_entry": 1e6 * _median_s(append) / ENTRIES}


def _protocol() -> Dict[str, float]:
    """Parse and encode cost over a recorded ``serve_mixed`` exchange,
    and the load generator's own share (request encode + reply parse)."""
    plan = streams.serve_mixed_plan(0, 2_000, 7)
    requests = [r.fields for window in plan.drivers[0] for r in window]
    replies = []
    for window in plan.drivers[0]:
        for request in window:
            if request.kind == "get":
                replies.append(["VALUE", streams.value(request.key, 0)])
            elif request.kind == "miss":
                replies.append(["NONE"])
            elif request.kind == "scan":
                reply = ["PAIRS"]
                for key in plan.keys[:streams.SERVED_SCAN_LIMIT]:
                    reply += [key, streams.value(key, 0)]
                replies.append(reply)
            else:
                replies.append(["OK"])
    request_bytes = encode_messages(requests)
    reply_bytes = encode_messages(replies)
    messages = len(requests)
    ops = sum(r.ops for window in plan.drivers[0] for r in window)
    parse_requests = _median_s(lambda: FrameParser().feed(request_bytes))
    parse_replies = _median_s(lambda: FrameParser().feed(reply_bytes))
    encode_requests = _median_s(lambda: encode_messages(requests))
    encode_replies = _median_s(lambda: encode_messages(replies))
    return {
        "protocol.parse_us_per_msg":
            1e6 * (parse_requests + parse_replies) / (2 * messages),
        "protocol.encode_us_per_msg":
            1e6 * (encode_requests + encode_replies) / (2 * messages),
        "client.self_us_per_op":
            1e6 * (encode_requests + parse_replies) / ops,
    }


def _route() -> Dict[str, float]:
    cluster_map = ClusterMap.even(
        4, [NodeInfo(n, "127.0.0.1", 1) for n in "ab"], replicated=True
    )
    keys = [streams.present_key(i) for i in range(ENTRIES)]

    def route() -> None:
        for key in keys:
            cluster_map.owner(cluster_map.shard_index(key))

    return {"cluster.route_us_per_op": 1e6 * _median_s(route) / ENTRIES}


def _sharded(directory: str) -> Dict[str, float]:
    """The e26 micros: single-shard batches ride the fast path, batches
    spanning all four shards pay two-phase commit; and the in-process
    sync-replication tax on the same single-shard batches."""
    config = stores.engine_config(True)
    shards = 4
    per_shard: List[List[str]] = [[] for _ in range(shards)]
    for index in range(1_600):
        key = streams.present_key(index)
        per_shard[hash_shard_index(key, shards)].append(key)
    single = [
        [("put", key, streams.value(key, 0)) for key in keys[i:i + 48]]
        for keys in per_shard for i in range(0, len(keys), 48)
    ]
    cross = [
        [("put", streams.absent_key(i + j), streams.value("x" * 16, 0))
         for j in range(48)]
        for i in range(0, 480, 48)
    ]
    count = [0]

    def drive(make_store, batches) -> float:
        count[0] += 1
        store = make_store(os.path.join(directory, f"sharded-{count[0]}"))
        try:
            return _timed(lambda: [store.write_batch(b) for b in batches])
        finally:
            store.close()

    def plain(path):
        return ShardedStore(shards, config, wal_dir=path)

    def replicated(path):
        return ReplicatedStore(shards, config, mode="sync", wal_dir=path)

    single_s = timing.median([drive(plain, single) for _ in range(REPEATS)])
    cross_s = timing.median([drive(plain, cross) for _ in range(REPEATS)])
    sync_s = timing.median(
        [drive(replicated, single) for _ in range(REPEATS)]
    )
    return {
        "shard.single_shard_batch_ops_per_s":
            sum(len(b) for b in single) / single_s,
        "shard.cross_shard_2pc_ops_per_s":
            sum(len(b) for b in cross) / cross_s,
        "replication.sync_overhead_ratio": sync_s / single_s,
    }


def layer_probes(directory: str) -> Dict[str, float]:
    entries = _entries()
    result: Dict[str, float] = {}
    for part in (
        _codec(entries), _memtable(entries), _bloom(entries),
        _sstable(entries), _wal_encode(entries, directory), _protocol(),
        _route(), _sharded(directory),
    ):
        result.update(part)
    return result
