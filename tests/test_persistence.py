"""Tests for checkpoint/restore of the tree's on-disk state."""

import json
import os
import random

import pytest

from repro.core.config import LSMConfig
from repro.core.tree import LSMTree
from repro.errors import CorruptionError
from repro.storage.persistence import checkpoint, restore


def make_tree(layout="leveling"):
    config = LSMConfig(
        buffer_size_bytes=1024,
        target_file_bytes=512,
        block_bytes=256,
        layout=layout,
        granularity="level" if layout != "leveling" else "file",
    )
    tree = LSMTree(config)
    keys = [f"key{i:07d}" for i in range(500)]
    random.Random(3).shuffle(keys)
    for key in keys:
        tree.put(key, f"value-{key}")
    for key in keys[::10]:
        tree.delete(key)
    return tree, keys


class TestRoundtrip:
    @pytest.mark.parametrize("layout", ["leveling", "tiering", "lazy_leveling"])
    def test_checkpoint_restore_preserves_data(self, tmp_path, layout):
        tree, keys = make_tree(layout)
        summary = checkpoint(tree, str(tmp_path))
        assert summary["tables"] > 0

        restored = restore(str(tmp_path))
        deleted = set(keys[::10])
        for key in keys[::7]:
            expected = None if key in deleted else f"value-{key}"
            assert restored.get(key) == expected
        restored.verify_invariants()

    def test_restore_preserves_structure(self, tmp_path):
        tree, _keys = make_tree()
        checkpoint(tree, str(tmp_path))
        restored = restore(str(tmp_path))
        original = [
            (row["level"], row["runs"], row["files"], row["bytes"])
            for row in tree.level_summary()
        ]
        rebuilt = [
            (row["level"], row["runs"], row["files"], row["bytes"])
            for row in restored.level_summary()
        ]
        assert rebuilt == original

    def test_restore_preserves_seqno_watermark(self, tmp_path):
        tree, _keys = make_tree()
        checkpoint(tree, str(tmp_path))
        restored = restore(str(tmp_path))
        assert restored.seqno == tree.seqno
        restored.put("brand-new", "v")
        assert restored.get("brand-new") == "v"

    def test_restore_charges_no_write_io(self, tmp_path):
        tree, _keys = make_tree()
        checkpoint(tree, str(tmp_path))
        restored = restore(str(tmp_path))
        assert restored.disk.counters.bytes_written == 0

    def test_checkpoint_includes_buffered_entries(self, tmp_path):
        tree = LSMTree(LSMConfig(buffer_size_bytes=1 << 20))
        tree.put("only-buffered", "v")
        checkpoint(tree, str(tmp_path))
        restored = restore(str(tmp_path))
        assert restored.get("only-buffered") == "v"

    def test_tombstones_survive_roundtrip(self, tmp_path):
        tree = LSMTree(LSMConfig(buffer_size_bytes=512, block_bytes=256))
        tree.put("a", "1")
        tree.delete("a")
        checkpoint(tree, str(tmp_path))
        restored = restore(str(tmp_path))
        assert restored.get("a") is None

    def test_repeated_checkpoints_leave_only_live_tables(self, tmp_path):
        # Compaction between rounds retires tables; a table file the
        # committed manifest does not name is garbage and must go.
        tree = LSMTree(
            LSMConfig(
                buffer_size_bytes=8192, target_file_bytes=4096, block_bytes=1024
            )
        )
        keys = [f"key{i:05d}" for i in range(2000)]
        for round_no in range(5):
            for key in keys:
                tree.put(key, f"v{round_no}-{key}")
            checkpoint(tree, str(tmp_path))
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        named = {
            name
            for level in manifest["levels"]
            for run in level
            for name in run
        }
        on_disk = {
            name
            for name in os.listdir(tmp_path / "tables")
            if name.endswith(".sst")
        }
        assert on_disk == named
        restored = restore(str(tmp_path))
        assert all(restored.get(key) == f"v4-{key}" for key in keys)


class TestCorruption:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorruptionError):
            restore(str(tmp_path))

    def test_bad_manifest_json(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text("{nope")
        with pytest.raises(CorruptionError):
            restore(str(tmp_path))

    def test_bad_manifest_version(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text(json.dumps({"version": 99}))
        with pytest.raises(CorruptionError):
            restore(str(tmp_path))

    def test_corrupted_table_file(self, tmp_path):
        tree, _keys = make_tree()
        checkpoint(tree, str(tmp_path))
        tables = os.listdir(tmp_path / "tables")
        victim = tmp_path / "tables" / tables[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            restore(str(tmp_path))

    def test_missing_table_file(self, tmp_path):
        tree, _keys = make_tree()
        checkpoint(tree, str(tmp_path))
        tables = os.listdir(tmp_path / "tables")
        os.remove(tmp_path / "tables" / tables[0])
        with pytest.raises(CorruptionError):
            restore(str(tmp_path))
