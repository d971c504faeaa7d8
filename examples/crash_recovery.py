#!/usr/bin/env python
"""Durability drill: write-ahead logging, checkpoints, and crash recovery.

Run with::

    python examples/crash_recovery.py

Batched ingestion (§2.1.1-A) keeps recent writes in memory, so a real
engine pairs the buffer with a write-ahead log and periodically checkpoints
its immutable files. A WAL segment stays on disk until a checkpoint covers
it. This example kills a store mid-flight and brings it back with the one
recovery loop: the checkpoint plus every WAL segment it does not cover.
"""

import os
import shutil
import tempfile

from repro.core.config import LSMConfig
from repro.core.tree import LSMTree
from repro.storage.persistence import checkpoint


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-recovery-")
    wal_dir = os.path.join(workdir, "wal")
    checkpoint_dir = os.path.join(workdir, "checkpoint")
    os.makedirs(wal_dir)
    os.makedirs(checkpoint_dir)

    config = LSMConfig(buffer_size_bytes=2 * 1024, block_bytes=512)

    try:
        # --- phase 1: normal operation, then a checkpoint ------------------
        store = LSMTree(config, wal_dir=wal_dir)
        for index in range(2_000):
            store.put(f"account{index:06d}", f"balance={index * 10}")
        store.delete("account000500")
        summary = checkpoint(store, checkpoint_dir)
        print(f"checkpoint written: {summary['tables']} tables, "
              f"{summary['bytes'] / 1024:.0f} KiB")

        # --- phase 2: more writes that never reach a checkpoint ------------
        store.put("account000001", "balance=UPDATED-AFTER-CHECKPOINT")
        store.put("brand-new-account", "balance=42")
        store.delete("account000002")
        live_wal_records = sum(
            1 for name in os.listdir(wal_dir) if name.startswith("wal.")
        )
        print(f"{live_wal_records} WAL segment(s) hold the unflushed tail")

        # --- the crash -------------------------------------------------------
        print("\n*** simulated power loss (no close, no flush) ***\n")
        store.kill()

        # --- recovery: checkpoint restore + WAL replay -----------------------
        recovered = LSMTree.recover(
            config, wal_dir, checkpoint_dir=checkpoint_dir
        )
        print(f"restored {recovered.total_disk_bytes() / 1024:.0f} KiB "
              "from the checkpoint and replayed the WAL tail")

        checks = [
            ("account000000", "balance=0"),
            ("account000001", "balance=UPDATED-AFTER-CHECKPOINT"),
            ("account000002", None),
            ("account000500", None),
            ("brand-new-account", "balance=42"),
        ]
        print("post-recovery audit:")
        for key, expected in checks:
            actual = recovered.get(key)
            status = "ok" if actual == expected else "MISMATCH"
            print(f"   {key:24s} -> {actual!r:40s} [{status}]")
            assert actual == expected
        recovered.verify_invariants()
        print("\nall state recovered: checkpoint + WAL replay is complete.")
        recovered.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
