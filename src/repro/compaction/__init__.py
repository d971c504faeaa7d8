"""Compaction machinery: the four primitives and their realizations (§2.2)."""

from .dictionary import DICTIONARY, DictionaryEntry, entries_for_system, lookup
from .executor import CompactionExecutor, merge_order, reconcile
from .layouts import (
    BushLayout,
    HybridLayout,
    LayoutPolicy,
    LazyLevelingLayout,
    LevelingLayout,
    TieringLayout,
    make_layout,
)
from .picker import (
    ColdestPicker,
    FilePicker,
    LeastOverlapPicker,
    MostTombstonesPicker,
    OldestPicker,
    RoundRobinPicker,
    make_picker,
)
from .planner import CompactionPlanner, PlanResult, last_data_level
from .primitives import (
    CompactionJob,
    CompactionSpec,
    Granularity,
    Trigger,
    enumerate_design_space,
)

__all__ = [
    "DICTIONARY",
    "DictionaryEntry",
    "lookup",
    "entries_for_system",
    "CompactionExecutor",
    "merge_order",
    "reconcile",
    "LayoutPolicy",
    "LevelingLayout",
    "TieringLayout",
    "LazyLevelingLayout",
    "HybridLayout",
    "BushLayout",
    "make_layout",
    "FilePicker",
    "RoundRobinPicker",
    "LeastOverlapPicker",
    "MostTombstonesPicker",
    "ColdestPicker",
    "OldestPicker",
    "make_picker",
    "CompactionPlanner",
    "PlanResult",
    "last_data_level",
    "CompactionJob",
    "CompactionSpec",
    "Granularity",
    "Trigger",
    "enumerate_design_space",
]
