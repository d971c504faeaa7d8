"""Durability across restarts: what a store acked, it still has.

Two properties, each checked end to end through the public recovery
entry points:

* **Acked writes survive a restart.** Every durable store kind, closed
  cleanly or killed, in synchronous and background mode, with buffers
  small enough that every shard flushes and compacts: after ``recover``
  every acked value reads back and no deleted key comes back.
* **A write committed while a checkpoint runs survives it.** The
  checkpoint's covered seqno and the WAL segments it prunes must
  describe the same instant as the tables it writes.

Last, the one durable file replace syncs the file, renames it and syncs
the directory, in that order. No power-loss model checks what the syncs
buy yet: every crash the sweep injects keeps unsynced bytes.
"""

from __future__ import annotations

import os
import stat
import sys
import threading

import pytest

from repro import (
    ClusterMap,
    LSMConfig,
    LSMTree,
    NodeInfo,
    NodeStore,
    ReplicatedStore,
    ShardedStore,
    range_boundaries,
)
from repro.faults.registry import FaultPlan, fault_plan
from repro.storage import persistence
from repro.storage.files import replace_durably
from repro.workload.distributions import format_key

KEY_COUNT = 2_000
STORE_KINDS = ("tree", "sharded", "sharded-range", "replicated", "node")


def _config(background: bool) -> LSMConfig:
    return LSMConfig(
        buffer_size_bytes=4096,
        level0_run_limit=2,
        target_file_bytes=2048,
        block_bytes=512,
        background_mode=background,
    )


def _open(kind: str, config: LSMConfig, root: str):
    if kind == "tree":
        return LSMTree(config, wal_dir=root)
    if kind == "sharded":
        return ShardedStore(4, config, wal_dir=root)
    if kind == "sharded-range":
        return ShardedStore(
            boundaries=range_boundaries(KEY_COUNT, 4),
            config=config,
            wal_dir=root,
        )
    if kind == "replicated":
        return ReplicatedStore(2, config, mode="sync", wal_dir=root)
    node = NodeInfo("solo", "127.0.0.1", 0)
    return NodeStore("solo", ClusterMap.even(4, [node]), config, wal_dir=root)


def _recover(kind: str, config: LSMConfig, root: str):
    if kind == "tree":
        return LSMTree.recover(config, root)
    if kind.startswith("sharded"):
        return ShardedStore.recover(config, root)
    if kind == "replicated":
        return ReplicatedStore.recover(config, root, mode="sync")
    return NodeStore.recover("solo", config, root)


def _trees(store) -> list:
    if isinstance(store, LSMTree):
        return [store]
    if isinstance(store, NodeStore):
        return list(store.trees.values())
    return list(store.shards.values())


def _acked_workload(store) -> dict:
    """≥ 2,000 acked puts, then overwrites and deletes; the model of
    what the store acknowledged (``None`` = deleted)."""
    acked: dict = {}
    for index in range(KEY_COUNT):
        key = format_key(index)
        value = f"v1-{index}-" + "x" * 48
        store.put(key, value)
        acked[key] = value
    for index in range(0, KEY_COUNT, 5):
        key = format_key(index)
        value = f"v2-{index}-" + "y" * 32
        store.put(key, value)
        acked[key] = value
    for index in range(3, KEY_COUNT, 7):
        key = format_key(index)
        store.delete(key)
        acked[key] = None
    return acked


@pytest.mark.parametrize("background", [False, True], ids=["sync", "background"])
@pytest.mark.parametrize("stop", ["close", "kill"])
@pytest.mark.parametrize("kind", STORE_KINDS)
def test_acked_writes_survive_restart(kind, stop, background, tmp_path):
    config = _config(background)
    root = str(tmp_path)
    store = _open(kind, config, root)
    try:
        acked = _acked_workload(store)
        trees = _trees(store)
        assert all(tree.stats.flushes > 0 for tree in trees)
        if not background:
            assert all(tree.stats.compactions > 0 for tree in trees)
    finally:
        getattr(store, stop)()
    recovered = _recover(kind, config, root)
    try:
        lost = {
            key: value
            for key, value in acked.items()
            if recovered.get(key) != value
        }
        assert not lost, (
            f"{len(lost)} of {len(acked)} acked keys lost or resurrected, "
            f"e.g. {sorted(lost)[:3]}"
        )
    finally:
        recovered.close()


# ---------------------------------------------------------------------------
# writes committed during a checkpoint
# ---------------------------------------------------------------------------


class _OnFirstCrossing(FaultPlan):
    """A recording plan that runs ``action`` once, right after the first
    crossing of failpoint ``name``."""

    def __init__(self, name: str, action) -> None:
        super().__init__()
        self._name = name
        self._action = action

    def hit(self, name, path, scope, tail_bytes, handle) -> None:
        super().hit(name, path, scope, tail_bytes, handle)
        if name == self._name and self._action is not None:
            action, self._action = self._action, None
            action()


def _checkpoint_with_writes(tmp_path, during) -> tuple:
    """Checkpoint a flushed tree while ``during(tree)`` writes into it at
    the first table rename; kill, recover, and return what was acked
    during the checkpoint plus the recovered tree."""
    config = LSMConfig(
        buffer_size_bytes=2048, target_file_bytes=1024, block_bytes=256
    )
    wal_dir = str(tmp_path / "wal")
    ckpt_dir = str(tmp_path / "ckpt")
    os.makedirs(wal_dir)
    tree = LSMTree(config, wal_dir=wal_dir)
    for index in range(200):
        tree.put(f"base{index:04d}", "b" * 40)
    acked: dict = {}
    with fault_plan(
        _OnFirstCrossing("ckpt.table.done", lambda: acked.update(during(tree)))
    ):
        persistence.checkpoint(tree, ckpt_dir)
    assert acked, "the checkpoint never renamed a table"
    tree.kill()
    return acked, persistence.recover_full(config, wal_dir, ckpt_dir)


def _put_one(tree: LSMTree) -> dict:
    tree.put("during-ckpt", "buffered")
    return {"during-ckpt": "buffered"}


def _put_rotating(tree: LSMTree) -> dict:
    """Enough bytes to rotate and (sync mode) flush a buffer, so the
    write's segment is flushed before the checkpoint finishes."""
    written = {}
    for index in range(60):
        key = f"during{index:03d}"
        tree.put(key, "r" * 60)
        written[key] = "r" * 60
    return written


@pytest.mark.parametrize(
    "during", [_put_one, _put_rotating], ids=["memtable", "rotated"]
)
def test_write_committed_during_checkpoint_survives(tmp_path, during):
    acked, recovered = _checkpoint_with_writes(tmp_path, during)
    try:
        lost = [key for key, value in acked.items() if recovered.get(key) != value]
        assert not lost, f"{len(lost)} of {len(acked)} keys lost: {lost[:3]}"
        assert recovered.get("base0000") == "b" * 40
    finally:
        recovered.close()


def test_writers_racing_checkpoints_in_background_lose_nothing(tmp_path):
    """More writer threads than cores commit while a background tree
    checkpoints three times; every acked key survives kill + recover."""
    config = LSMConfig(buffer_size_bytes=4096, background_mode=True)
    wal_dir, ckpt_dir = str(tmp_path / "wal"), str(tmp_path / "ckpt")
    os.makedirs(wal_dir)
    tree = LSMTree(config, wal_dir=wal_dir)
    for index in range(1_000):
        tree.put(f"pre{index:05d}", "p" * 40)
    stop = threading.Event()
    acked = [dict() for _ in range(3)]

    def writer(number: int) -> None:
        index = 0
        while not stop.is_set():
            key = f"w{number}-{index:06d}"
            tree.put(key, "w" * 40)
            acked[number][key] = "w" * 40
            index += 1

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=writer, args=(n,)) for n in range(3)]
    try:
        for thread in threads:
            thread.start()
        for _ in range(3):
            persistence.checkpoint(tree, ckpt_dir)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    tree.kill()
    recovered = persistence.recover_full(config, wal_dir, ckpt_dir)
    try:
        written = {key: value for mine in acked for key, value in mine.items()}
        assert written
        lost = [key for key, value in written.items() if recovered.get(key) != value]
        assert not lost, f"{len(lost)} of {len(written)} acked keys lost"
    finally:
        recovered.close()


# ---------------------------------------------------------------------------
# the one durable file replace
# ---------------------------------------------------------------------------


def test_replace_durably_syncs_file_then_renames_then_syncs_directory(
    tmp_path, monkeypatch
):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        events.append("fsync dir" if is_dir else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        events.append(f"rename {os.path.basename(src)}")
        real_replace(src, dst)

    class Recording(FaultPlan):
        def hit(self, name, path, scope, tail_bytes, handle) -> None:
            events.append(f"cross {name} {os.path.basename(path)} {tail_bytes}")

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    target = tmp_path / "MANIFEST.json"
    target.write_bytes(b"old")
    with fault_plan(Recording()):
        replace_durably(str(target), b"new!", "ckpt.manifest")
    assert events == [
        "cross ckpt.manifest.tmp MANIFEST.json.tmp 4",
        "fsync file",
        "rename MANIFEST.json.tmp",
        "fsync dir",
        "cross ckpt.manifest.done MANIFEST.json 0",
    ]
    assert target.read_bytes() == b"new!"
    assert sorted(os.listdir(tmp_path)) == ["MANIFEST.json"]
