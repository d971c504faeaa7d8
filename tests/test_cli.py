"""Tests for the command-line interface."""

import asyncio
import re

import pytest

from repro.cli import build_parser, main
from repro.cluster import local_cluster


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_workload_defaults(self):
        args = build_parser().parse_args(["workload"])
        assert args.preset == "a"
        assert args.layout == "leveling"

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "--preset", "zz"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7379
        assert args.num_buffers == 4
        assert args.no_group_commit is False
        assert args.shards == 1
        assert args.executor_threads is None

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--background", "--wal-fsync",
             "--no-group-commit", "--max-connections", "7",
             "--shards", "4"]
        )
        assert args.port == 0
        assert args.background is True
        assert args.wal_fsync is True
        assert args.no_group_commit is True
        assert args.max_connections == 7
        assert args.shards == 4

    def test_bench_serve_defaults(self):
        args = build_parser().parse_args(["bench-serve"])
        assert args.clients == 8
        assert args.pipeline == 8
        assert args.shards == 1

    def test_cluster_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster"])

    def test_cluster_init_collects_nodes(self):
        args = build_parser().parse_args(
            ["cluster", "init", "--data-dir", "/tmp/x", "--shards", "6",
             "--node", "a=127.0.0.1:7401", "--node", "b=127.0.0.1:7402"]
        )
        assert args.shards == 6
        assert args.node == ["a=127.0.0.1:7401", "b=127.0.0.1:7402"]

    def test_cluster_serve_flags(self):
        args = build_parser().parse_args(
            ["cluster", "serve", "--data-dir", "/tmp/x",
             "--node-id", "a", "--port", "0",
             "--join", "127.0.0.1:7401", "--background"]
        )
        assert args.node_id == "a"
        assert args.port == 0
        assert args.host is None  # defaults to the map's address
        assert args.join == "127.0.0.1:7401"
        assert args.background is True

    def test_cluster_serve_requires_identity(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "serve", "--data-dir", "/tmp/x"]
            )

    def test_cluster_migrate_flags(self):
        args = build_parser().parse_args(
            ["cluster", "migrate", "--port", "7401",
             "--shard", "3", "--to", "b"]
        )
        assert args.shard == 3
        assert args.to == "b"

    def test_cluster_rebalance_defaults(self):
        args = build_parser().parse_args(["cluster", "rebalance"])
        assert args.port == 7401
        assert args.node == []
        assert args.dry_run is False


class TestCommands:
    def test_workload_runs(self, capsys):
        code = main(
            ["workload", "--preset", "a", "--ops", "300", "--keys", "200",
             "--buffer-bytes", "2048"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "write amplification" in output
        assert "throughput" in output

    def test_workload_tiering(self, capsys):
        code = main(
            ["workload", "--preset", "write_only", "--ops", "300",
             "--keys", "200", "--layout", "tiering",
             "--buffer-bytes", "2048"]
        )
        assert code == 0
        assert "tiering" in capsys.readouterr().out

    def test_tune_prints_recommendation(self, capsys):
        code = main(
            ["tune", "--reads", "0.05", "--empty-reads", "0.0",
             "--scans", "0.0", "--writes", "0.95"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "layout" in output
        assert "size ratio" in output

    def test_robust_prints_comparison(self, capsys):
        code = main(
            ["robust", "--reads", "0.05", "--empty-reads", "0.0",
             "--scans", "0.0", "--writes", "0.95", "--eta", "1.0"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "worst-case" in output
        assert "protection" in output

    def test_layouts_compares_all(self, capsys):
        code = main(["layouts", "--keys", "1200"])
        assert code == 0
        output = capsys.readouterr().out
        for layout in ["leveling", "tiering", "lazy_leveling", "hybrid", "bush"]:
            assert layout in output

    def test_bench_serve_runs(self, capsys):
        code = main(
            ["bench-serve", "--clients", "2", "--pipeline", "2",
             "--ops", "20", "--value-bytes", "16"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "per-request" in output
        assert "group" in output
        assert "ops/commit" in output
        # Drain-inclusive ingest metric (see benchmarks/bench_e23_sharding).
        assert "sustained" in output

    def test_bench_serve_sharded_runs(self, capsys):
        code = main(
            ["bench-serve", "--clients", "2", "--pipeline", "2",
             "--ops", "20", "--value-bytes", "16", "--shards", "2"]
        )
        assert code == 0
        assert "2 shard(s)" in capsys.readouterr().out

    def test_serve_rejects_zero_shards(self):
        with pytest.raises(SystemExit):
            main(["serve", "--shards", "0"])

    def test_serve_replication_requires_wal_dir(self):
        with pytest.raises(SystemExit):
            main(["serve", "--replication", "sync"])

    def test_fault_sweep_list_prints_catalog_without_running(
        self, capsys
    ):
        code = main(["fault-sweep", "--list"])
        assert code == 0
        output = capsys.readouterr().out
        # Catalog columns, one row per failpoint, no sweep executed.
        assert "failpoint" in output
        assert "site" in output
        assert "kinds" in output
        for name in [
            "wal.sync",
            "flush.install",
            "compact.install",
            "shard.commit",
            "repl.node.ship",
            "repl.node.promote.done",
        ]:
            assert name in output
        assert "crash" in output
        assert "torn" in output
        assert "fsync-fail" in output
        # A listing, not a sweep: no run/violation reporting.
        assert "violations" not in output
        assert "crossings" not in output

    def test_cluster_init_writes_a_map_per_node(self, capsys, tmp_path):
        code = main(
            ["cluster", "init", "--data-dir", str(tmp_path),
             "--shards", "4",
             "--node", "a=127.0.0.1:7401", "--node", "b=127.0.0.1:7402"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "epoch 0" in output
        from repro.cluster import ClusterMap

        for node_id, shards in (("a", [0, 2]), ("b", [1, 3])):
            loaded = ClusterMap.load(str(tmp_path / node_id))
            assert loaded.shards_of(node_id) == shards

    def test_cluster_init_rejects_bad_node_spec(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["cluster", "init", "--data-dir", str(tmp_path),
                 "--node", "a@nowhere"]
            )
        with pytest.raises(SystemExit):
            main(["cluster", "init", "--data-dir", str(tmp_path)])

    def test_bad_mix_fails_cleanly(self, capsys):
        code = main(
            ["tune", "--reads", "0.9", "--empty-reads", "0.9",
             "--scans", "0.0", "--writes", "0.9"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: ")
        assert "Traceback" not in captured.err and not captured.out


def _tables(output: str):
    """``(title, headers)`` of every table in ``output`` — a table is
    the two lines above a dashes row."""
    lines = output.splitlines()
    return [
        (lines[index - 2], re.split(r"\s{2,}", lines[index - 1].strip()))
        for index, line in enumerate(lines)
        if index >= 2 and line.strip() and set(line.strip()) <= {"-", " "}
    ]


class TestClusterAdminTables:
    """Titles and column headers of ``cluster status`` / ``cluster
    rebalance``, pinned before their handlers moved out of ``cli.py``
    (``main`` runs on a thread: it owns an event loop of its own)."""

    def test_status_and_rebalance_tables_are_unchanged(self, capsys, tmp_path):
        async def scenario():
            async with local_cluster(
                tmp_path,
                shape="replicated",
                heartbeat_interval_s=0.1,
                lease_timeout_s=0.6,
            ) as (servers, stores, live):
                port = str(servers[0].port)
                members = [
                    f"--node={node.node_id}={node.address}"
                    for node in live.nodes.values()
                ]

                async def run(*argv):
                    capsys.readouterr()
                    code = await asyncio.to_thread(main, ["cluster", *argv])
                    assert code == 0
                    return capsys.readouterr().out

                out = await run("status", "--port", port)
                assert _tables(out) == [
                    (
                        f"cluster status via 127.0.0.1:{port} (epoch 1, "
                        "4 shards, hash routing)",
                        ["node", "address", "shards", "replica-of", "health",
                         "epoch", "heartbeat"],
                    ),
                    (
                        "replication (as reported by each primary)",
                        ["shard", "primary", "replica", "state",
                         "lag-records", "lag-bytes", "missed"],
                    ),
                ]
                out = await run("rebalance", "--port", port)
                assert out == "cluster already balanced; nothing to move\n"
                out = await run(
                    "rebalance", "--port", port, "--dry-run", *members,
                    "--node=c=127.0.0.1:7613",
                )
                assert _tables(out) == [
                    ("rebalance plan (1 moves, dry run)", ["shard", "from", "to"])
                ]
                assert stores[0].map.epoch == 1  # a dry run publishes nothing
                out = await run("rebalance", "--port", port, members[0])
                assert _tables(out) == [
                    (
                        "rebalanced 2 shards (map now epoch 3)",
                        ["shard", "from", "to", "snapshot pairs", "tail ops",
                         "fence (ms)"],
                    )
                ]
                assert stores[0].owned_shards() == [0, 1, 2, 3]

        asyncio.run(scenario())


def _surface(parser) -> str:
    """Everything ``--help`` is rendered from, one line per argument
    (the rendering itself differs between Python versions)."""
    import argparse

    lines = [f"{parser.prog}: {parser.description}"]
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            choices = [
                (sub.dest, sub.help) for sub in action._choices_actions
            ]
        lines.append(
            repr(
                (
                    action.option_strings,
                    action.dest,
                    action.nargs,
                    action.const,
                    action.default,
                    getattr(action.type, "__name__", action.type),
                    choices,
                    action.required,
                    action.help,
                    action.metavar,
                )
            )
        )
    return "\n".join(lines)


def _subparsers(parser):
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield name, sub
                for child_name, child in _subparsers(sub):
                    yield f"{name} {child_name}", child


class TestHelpSurface:
    """``--help`` of every subcommand except the three serving ones is
    pinned: digests of the argument surface taken before ``serve`` and
    ``cluster serve`` started sharing their engine flags."""

    GOLDEN = {
        "": "0a19b9a1d8b4b7a2",
        "workload": "3b41eeddb5736e21",
        "tune": "a77eddf9c338b08e",
        "robust": "0210e45a0d645ee8",
        "layouts": "c09d0c826af13ef4",
        "txn-demo": "4b0ce2c47b36fff3",
        "fault-sweep": "13c01fa16bef8785",
        "cluster": "73df9b4ad3673c2a",
        "cluster init": "53be662443a6a77d",
        "cluster status": "c819ffd6b155bceb",
        "cluster migrate": "7a6b942254635dc2",
        "cluster rebalance": "67724772dc17b5a2",
    }

    def test_help_of_non_serving_subcommands_is_unchanged(self):
        import hashlib

        parser = build_parser()
        surfaces = {"": _surface(parser)}
        surfaces.update(
            (name, _surface(sub)) for name, sub in _subparsers(parser)
        )
        for skipped in ("serve", "bench-serve", "cluster serve"):
            del surfaces[skipped]
        digests = {
            name: hashlib.sha256(text.encode()).hexdigest()[:16]
            for name, text in surfaces.items()
        }
        for name, text in surfaces.items():
            assert digests[name] == self.GOLDEN.get(name), (name, text)
        assert sorted(digests) == sorted(self.GOLDEN)
