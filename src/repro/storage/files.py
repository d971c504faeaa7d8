"""Durable whole-file replace: how every manifest and table file commits."""

from __future__ import annotations

import os

from ..faults.registry import fault_point


def replace_durably(path: str, data: bytes, failpoint: str) -> None:
    """Make ``path`` hold ``data``: the old file or the new one, never torn.

    Writes ``path + ".tmp"``, crosses ``<failpoint>.tmp``, fsyncs the
    file, renames it over ``path``, fsyncs the directory so the rename
    is durable, and crosses ``<failpoint>.done``. A ``.tmp`` leftover is
    uncommitted by construction. No power-loss model tests the syncs
    yet: a crash the sweep injects keeps every byte, synced or not.
    """
    temporary = path + ".tmp"
    with open(temporary, "wb") as handle:
        handle.write(data)
        handle.flush()
        fault_point(f"{failpoint}.tmp", path=temporary, tail_bytes=len(data))
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    fault_point(f"{failpoint}.done", path=path)
