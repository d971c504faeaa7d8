"""Sanity checks on the public API surface: exports resolve, docs exist."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.core.memtable",
    "repro.storage",
    "repro.filters",
    "repro.compaction",
    "repro.kvsep",
    "repro.faster",
    "repro.secondary",
    "repro.cost",
    "repro.workload",
    "repro.bench",
    "repro.server",
    "repro.shard",
    "repro.replication",
    "repro.cluster",
    "repro.faults",
    "repro.concurrency",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists {symbol}"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        target = getattr(module, symbol)
        if inspect.isclass(target) or inspect.isfunction(target):
            assert target.__doc__, f"{name}.{symbol} lacks a docstring"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_quickstart_from_readme_docstring():
    """The module docstring's quickstart must actually work."""
    from repro import LSMConfig, LSMTree

    tree = LSMTree(LSMConfig(layout="leveling", size_ratio=4))
    tree.put("user1", "alice")
    assert tree.get("user1") == "alice"
    assert tree.scan("user0", "user9") == [("user1", "alice")]
    tree.delete("user1")
    assert tree.get("user1") is None
    assert tree.write_amplification() >= 0.0


def test_import_repro_loads_neither_numpy_nor_scipy():
    """Only the robust tuner needs scipy (which brings numpy), and it
    imports it when called: a process that just serves or embeds the
    engine must not pay ~0.5 s and ~57 MB for them at import."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    probe = (
        "import sys; import repro, repro.cli, repro.server, repro.cluster; "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + inherited if inherited else ""),
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_cli_module_importable():
    module = importlib.import_module("repro.cli")
    assert callable(module.main)


def test_errors_hierarchy():
    from repro import errors

    for name in [
        "ClosedError",
        "CorruptionError",
        "CompactionError",
        "ConfigError",
        "FilterError",
    ]:
        assert issubclass(getattr(errors, name), errors.ReproError)
