"""Command-line interface: drive workloads and tuning from a shell.

Usage::

    python -m repro.cli workload --preset a --ops 20000 --layout leveling
    python -m repro.cli tune --reads 0.5 --empty-reads 0.2 --scans 0.1 \
        --writes 0.2
    python -m repro.cli robust --writes 0.9 --reads 0.05 --empty-reads 0.05 \
        --eta 1.0
    python -m repro.cli layouts --ops 20000
    python -m repro.cli serve --port 7379 --background --shards 4
    python -m repro.cli bench-serve --clients 8 --pipeline 8
    python -m repro.cli fault-sweep --quick --seed 7
    python -m repro.cli cluster init --data-dir /tmp/c --shards 8 \
        --node a=127.0.0.1:7401 --node b=127.0.0.1:7402
    python -m repro.cli cluster serve --data-dir /tmp/c --node-id a
    python -m repro.cli cluster migrate --port 7401 --shard 3 --to b
    python -m repro.cli cluster status --port 7401

Every subcommand prints the same ASCII tables the benchmark suite uses, so
shell exploration and the archived experiment results read identically.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
import sys
from typing import List, Optional, Union

from .api import KVStore
from .bench.harness import Harness
from .bench.report import format_table
from .cluster import (
    ClusterClient,
    ClusterMap,
    ClusterNode,
    NodeInfo,
    NodeStore,
    admin,
)
from .core.config import LAYOUT_KINDS, PICKER_KINDS, LSMConfig
from .core.tree import LSMTree
from .cost.model import SystemEnv, WorkloadMix
from .cost.navigator import Navigator
from .cost.robust import RobustTuner
from .errors import ConfigError
from .faults.registry import FAILPOINTS, failpoint_kinds
from .replication import ReplicatedStore
from .server import KVServer
from .server.client import KVClient
from .shard import ShardedStore, hash_shard_index
from .workload.generator import PRESETS


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--layout", choices=LAYOUT_KINDS, default="leveling")
    parser.add_argument("--size-ratio", type=int, default=4)
    parser.add_argument("--buffer-bytes", type=int, default=64 * 1024)
    parser.add_argument("--bits-per-key", type=float, default=10.0)
    parser.add_argument(
        "--allocation", choices=("none", "uniform", "monkey"), default="uniform"
    )
    parser.add_argument("--picker", choices=PICKER_KINDS, default="least_overlap")
    parser.add_argument("--cache-bytes", type=int, default=0)


def _config_from(args: argparse.Namespace) -> LSMConfig:
    return LSMConfig(
        layout=args.layout,
        size_ratio=args.size_ratio,
        buffer_size_bytes=args.buffer_bytes,
        filter_bits_per_key=args.bits_per_key,
        filter_allocation=(
            args.allocation if args.allocation != "none" else "uniform"
        ),
        picker=args.picker,
        block_cache_bytes=args.cache_bytes,
        granularity="file" if args.layout in ("leveling", "hybrid") else "level",
    )


def _mix_from(args: argparse.Namespace) -> WorkloadMix:
    return WorkloadMix(
        empty_lookups=args.empty_reads,
        lookups=args.reads,
        short_scans=args.scans,
        writes=args.writes,
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine flags ``serve`` and ``cluster serve`` share."""
    parser.add_argument(
        "--background",
        action="store_true",
        help="run flush/compaction on worker threads (recommended)",
    )
    parser.add_argument("--num-buffers", type=int, default=4)
    parser.add_argument("--buffer-bytes", type=int, default=64 * 1024)
    parser.add_argument("--flush-threads", type=int, default=2)
    parser.add_argument("--compaction-threads", type=int, default=2)
    parser.add_argument(
        "--wal-fsync",
        action="store_true",
        help="fsync the WAL on every commit (serve: needs --wal-dir)",
    )


def _engine_config(args: argparse.Namespace) -> LSMConfig:
    return LSMConfig(
        background_mode=args.background,
        num_buffers=args.num_buffers,
        buffer_size_bytes=args.buffer_bytes,
        flush_threads=args.flush_threads,
        compaction_threads=args.compaction_threads,
        wal_fsync=args.wal_fsync,
    )


def _serve_until_signal(
    server: Union[KVServer, ClusterNode], who: str, details: str
) -> None:
    """Start ``server``, announce where it listens (port 0 resolves
    only then), serve until SIGINT/SIGTERM, stop it cleanly."""

    async def run() -> None:
        await server.start()
        print(
            f"{who} listening on {server.host}:{server.port} ({details})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, stop.set)
        try:
            await stop.wait()
        finally:
            print(f"{who} shutting down", flush=True)
            await server.stop()

    asyncio.run(run())


def command_workload(args: argparse.Namespace) -> int:
    """Replay a YCSB-style preset and print the measured metric set."""
    factory = PRESETS[args.preset]
    spec = factory(num_ops=args.ops, key_count=args.keys)
    tree = LSMTree(_config_from(args))
    metrics = Harness(tree).run_spec(spec)
    engine_snapshot = tree.stats.to_dict()
    print(
        format_table(
            ["metric", "value"],
            [
                ("operations", metrics.operations),
                ("simulated time (ms)", metrics.simulated_us / 1000.0),
                ("throughput (kops/sim-s)", metrics.throughput_kops),
                ("write amplification", metrics.write_amplification),
                ("space amplification", tree.space_amplification()),
                ("pages read/op", metrics.pages_read_per_op()),
                ("write p99 (us)", metrics.write_latencies_us.get("p99", 0.0)),
                ("read p99 (us)", metrics.read_latencies_us.get("p99", 0.0)),
                ("compactions", engine_snapshot["compactions"]),
                ("stall events", engine_snapshot["stall_events"]),
            ],
            title=f"workload '{args.preset}' on {args.layout}/T={args.size_ratio}",
        )
    )
    return 0


def command_tune(args: argparse.Namespace) -> int:
    """Recommend a tuning for a workload mix via the cost model."""
    env = SystemEnv(
        total_entries=args.entries,
        entry_size_bytes=args.entry_bytes,
        memory_budget_bytes=args.memory_bytes,
    )
    result = Navigator(env).tune(_mix_from(args))
    tuning = result.tuning
    print(
        format_table(
            ["knob", "recommendation"],
            [
                ("layout", tuning.layout),
                ("size ratio T", tuning.size_ratio),
                ("buffer share of memory", f"{tuning.buffer_fraction:.0%}"),
                ("filter allocation", "monkey" if tuning.monkey else "uniform"),
                ("predicted I/O per op", f"{result.cost:.4f}"),
                (
                    "margin over next layout",
                    f"{result.margin:.0%}" if result.runner_up else "n/a",
                ),
            ],
            title="recommended tuning",
        )
    )
    return 0


def command_robust(args: argparse.Namespace) -> int:
    """Min-max tuning under workload uncertainty (Endure-style)."""
    env = SystemEnv(
        total_entries=args.entries,
        entry_size_bytes=args.entry_bytes,
        memory_budget_bytes=args.memory_bytes,
    )
    result = RobustTuner(env).tune(_mix_from(args), args.eta)
    print(
        format_table(
            ["quantity", "nominal-optimal", "robust"],
            [
                (
                    "tuning",
                    f"{result.nominal_tuning.layout}"
                    f"/T={result.nominal_tuning.size_ratio}",
                    f"{result.robust_tuning.layout}"
                    f"/T={result.robust_tuning.size_ratio}",
                ),
                (
                    "cost at expected workload",
                    f"{result.nominal_nominal_cost:.4f}",
                    f"{result.robust_nominal_cost:.4f}",
                ),
                (
                    "worst-case cost in eta-ball",
                    f"{result.nominal_worst_cost:.4f}",
                    f"{result.robust_worst_cost:.4f}",
                ),
                ("protection", "-", f"{result.protection:.0%}"),
                ("nominal premium", "-", f"{result.premium:.0%}"),
            ],
            title=f"robust tuning, eta={args.eta}",
        )
    )
    return 0


def command_layouts(args: argparse.Namespace) -> int:
    """Quick layout comparison on a mixed workload (a mini experiment E2)."""
    import random

    rows = []
    keys = [f"key{i:08d}" for i in range(args.keys)]
    random.Random(1).shuffle(keys)
    for layout in LAYOUT_KINDS:
        config = LSMConfig(
            layout=layout,
            buffer_size_bytes=4096,
            target_file_bytes=4096,
            block_bytes=1024,
            granularity="file" if layout in ("leveling", "hybrid") else "level",
        )
        tree = LSMTree(config)
        for key in keys[: args.keys]:
            tree.put(key, "v" * 24)
        rows.append(
            (
                layout,
                tree.write_amplification(),
                tree.space_amplification(),
                tree.total_run_count(),
                tree.stats.to_dict()["compactions"],
            )
        )
    print(
        format_table(
            ["layout", "write amp", "space amp", "runs", "compactions"],
            rows,
            title=f"layout comparison, {args.keys} random inserts",
        )
    )
    return 0


def command_serve(args: argparse.Namespace) -> int:
    """Run the asyncio KV server until SIGINT/SIGTERM (clean shutdown)."""
    if args.shards < 1:
        raise SystemExit("--shards must be at least 1")
    config = _engine_config(args)
    store: KVStore
    if args.replication != "off":
        if args.wal_dir is None:
            raise SystemExit("--replication needs --wal-dir")
        store = ReplicatedStore(
            args.shards,
            config,
            mode=args.replication,
            wal_dir=args.wal_dir,
        )
    elif args.shards > 1:
        store = ShardedStore(args.shards, config, wal_dir=args.wal_dir)
    else:
        store = LSMTree(config, wal_dir=args.wal_dir)
    server = KVServer(
        store,
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        executor_threads=args.executor_threads,
        group_commit=not args.no_group_commit,
        owns_tree=True,
    )
    _serve_until_signal(
        server,
        "repro-server",
        f"group_commit={server.group_commit}, "
        f"shards={args.shards}, background={args.background}, "
        f"replication={args.replication}",
    )
    return 0


def command_bench_serve(args: argparse.Namespace) -> int:
    """Closed-loop server benchmark: group commit on vs. off."""
    import tempfile

    from .server.loadgen import measure_server

    rows = []
    for group_commit in (False, True):
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as wal_dir:
            rows.append(
                measure_server(
                    clients=args.clients,
                    pipeline_depth=args.pipeline,
                    ops_per_client=args.ops,
                    group_commit=group_commit,
                    wal_dir=wal_dir,
                    value_bytes=args.value_bytes,
                    shards=args.shards,
                )
            )
    print(
        format_table(
            ["commit mode", "throughput (ops/s)", "drain (s)",
             "sustained (ops/s)", "p50 (us)", "p99 (us)", "ops/commit"],
            [
                (
                    "group" if row["group_commit"] else "per-request",
                    row["throughput_ops_s"],
                    row["drain_s"],
                    row["sustained_ops_s"],
                    row["p50_us"],
                    row["p99_us"],
                    row["ops_per_commit"],
                )
                for row in rows
            ],
            title=(
                f"bench-serve: {args.clients} clients x pipeline "
                f"{args.pipeline}, {args.ops} writes each "
                f"({args.shards} shard(s), durable WAL)"
            ),
        )
    )
    return 0


def command_txn_demo(args: argparse.Namespace) -> int:
    """Protocol-v2 walkthrough: HELLO, snapshot reads, atomic MULTI.

    Boots a sharded store behind a real server, negotiates protocol v2,
    takes a snapshot, overwrites every key with one cross-shard MULTI
    (two-phase commit under the hood), and shows the same keys read at
    the snapshot versus at latest.
    """
    import tempfile

    async def demo() -> None:
        with tempfile.TemporaryDirectory(prefix="repro-txn-") as wal_dir:
            store = ShardedStore(args.shards, wal_dir=wal_dir)
            server = KVServer(store, host="127.0.0.1", port=0)
            await server.start()
            try:
                client = await KVClient.connect(
                    server.host, server.port, protocol_version=2
                )
                print(
                    f"HELLO 2 -> negotiated protocol "
                    f"v{client.protocol_version}"
                )
                keys = [f"account:{i:02d}" for i in range(args.keys)]
                await client.multi([("put", key, "100") for key in keys])
                token = await client.snapshot()
                print(f"SNAP -> {token}")
                count = await client.multi(
                    [("put", key, "250") for key in keys]
                )
                shards = sorted(
                    {hash_shard_index(key, args.shards) for key in keys}
                )
                print(
                    f"MULTI applied {count} ops atomically across "
                    f"shards {shards}"
                )
                rows = []
                for key in keys:
                    rows.append(
                        (
                            key,
                            await client.get(key, at=token),
                            await client.get(key),
                        )
                    )
                print(
                    format_table(
                        ["key", "AT snapshot", "latest"],
                        rows,
                        title="snapshot isolation: reads at the token "
                        "never see the later MULTI",
                    )
                )
                await client.end_snapshot(token)
                await client.close()
            finally:
                await server.stop()
                store.close()

    asyncio.run(demo())
    return 0


def command_fault_sweep(args: argparse.Namespace) -> int:
    """Run the crash-consistency sweep; non-zero exit on any violation."""
    from .faults.sweep import run_sweep

    if args.list:
        print(
            format_table(
                ["failpoint", "site", "kinds", "description"],
                [
                    (
                        fp.name,
                        fp.site,
                        ",".join(failpoint_kinds(fp.name)),
                        fp.description,
                    )
                    for fp in sorted(
                        FAILPOINTS.values(), key=lambda fp: fp.name
                    )
                ],
                title=f"failpoint catalog ({len(FAILPOINTS)} sites)",
            )
        )
        return 0
    quick = args.quick or os.environ.get("REPRO_SWEEP_QUICK", "") not in (
        "",
        "0",
    )
    report = run_sweep(quick=quick, seed=args.seed)
    mode = "quick" if quick else "full"
    print(f"fault sweep ({mode}, seed={args.seed})")
    print(report.summary())
    return 1 if report.violations else 0


def _parse_node_specs(specs: List[str]):
    """``ID=HOST:PORT`` specs → NodeInfo list (SystemExit on bad input)."""
    nodes = []
    for spec in specs:
        try:
            node_id, _, address = spec.partition("=")
            host, _, port_text = address.rpartition(":")
            if not (node_id and host and port_text):
                raise ValueError(spec)
            nodes.append(NodeInfo(node_id, host, int(port_text)))
        except ValueError:
            raise SystemExit(
                f"--node wants ID=HOST:PORT, got {spec!r}"
            ) from None
    return nodes


def command_cluster_init(args: argparse.Namespace) -> int:
    """Lay out a fresh cluster: one directory + map copy per node."""
    nodes = _parse_node_specs(args.node)
    if not nodes:
        raise SystemExit("cluster init needs at least one --node ID=HOST:PORT")
    if args.replicas and len(nodes) < 2:
        raise SystemExit("--replicas needs at least two nodes")
    cluster_map = ClusterMap.even(args.shards, nodes, replicated=args.replicas)
    for node in nodes:
        node_dir = os.path.join(args.data_dir, node.node_id)
        os.makedirs(node_dir, exist_ok=True)
        cluster_map.save(node_dir)
    print(
        format_table(
            ["node", "address", "shards", "replica-of"],
            [
                (
                    node.node_id,
                    node.address,
                    ",".join(map(str, cluster_map.shards_of(node.node_id))),
                    ",".join(
                        map(str, cluster_map.replicas_of(node.node_id))
                    )
                    or "-",
                )
                for node in nodes
            ],
            title=(
                f"cluster initialised under {args.data_dir} "
                f"({args.shards} shards, epoch {cluster_map.epoch}"
                f"{', replicated' if args.replicas else ''})"
            ),
        )
    )
    return 0


def _cluster_admin(host: str, port: int, call, **client_options):
    """Run ``call(client)`` — a :mod:`repro.cluster.admin` coroutine —
    on a :class:`ClusterClient` bootstrapped from ``host:port`` (closed
    afterwards); returns its result."""

    async def run():
        async with await ClusterClient.connect(
            host, port, **client_options
        ) as client:
            return await call(client)

    return asyncio.run(run())


def command_cluster_serve(args: argparse.Namespace) -> int:
    """Run one cluster node until SIGINT/SIGTERM (clean shutdown)."""
    node_dir = os.path.join(args.data_dir, args.node_id)
    if args.join:
        # Bootstrap by joining via an existing member: the map it hands
        # back (published to every member first when this node is new)
        # is saved locally so the ordinary recovery path takes over.
        join_host, _, join_port = args.join.rpartition(":")
        if not (join_host and join_port):
            raise SystemExit(f"--join wants HOST:PORT, got {args.join!r}")
        joined = _cluster_admin(
            join_host,
            int(join_port),
            lambda client: admin.join(
                client, args.node_id, args.host, args.port
            ),
        )
        os.makedirs(node_dir, exist_ok=True)
        joined.save(node_dir)
    store = NodeStore.recover(args.node_id, _engine_config(args), node_dir)
    options = {
        "max_connections": args.max_connections,
        "executor_threads": args.executor_threads,
        "group_commit": not args.no_group_commit,
        "owns_tree": True,
        "heartbeat_interval_s": args.heartbeat_interval,
        "lease_timeout_s": args.lease_timeout,
        "repl_timeout_s": args.repl_timeout,
        "self_fence": args.self_fence,
    }
    if args.peer_proxy:
        options["dial_overrides"] = {
            node.node_id: (node.host, node.port)
            for node in _parse_node_specs(args.peer_proxy)
        }
    if args.host is not None:
        options["host"] = args.host
    if args.port is not None:
        options["port"] = args.port
    server = ClusterNode(store, **options)
    _serve_until_signal(
        server,
        f"repro-cluster node {store.node_id}",
        f"epoch {store.map.epoch}, shards {store.owned_shards()}",
    )
    return 0


def command_cluster_status(args: argparse.Namespace) -> int:
    """Print the map one node serves under and every member's HEALTH:
    per-node liveness and, with replication in the map, a per-shard
    table with each primary's replication lag. Every wire interaction
    is bounded by ``--timeout`` (:func:`repro.cluster.admin.status`)."""
    # Connects share the client's pool one at a time, so they get half
    # the budget: one blackholed member cannot use up the others' share.
    cluster_map, node_rows, shard_rows = _cluster_admin(
        args.host,
        args.port,
        lambda client: admin.status(client, args.timeout),
        timeout_s=args.timeout,
        connect_timeout_s=args.timeout / 2.0,
    )
    print(
        format_table(
            ["node", "address", "shards", "replica-of", "health",
             "epoch", "heartbeat"],
            node_rows,
            title=(
                f"cluster status via {args.host}:{args.port} "
                f"(epoch {cluster_map.epoch}, "
                f"{cluster_map.num_shards} shards, "
                f"{cluster_map.routing} routing)"
            ),
        )
    )
    if shard_rows:
        print()
        print(
            format_table(
                ["shard", "primary", "replica", "state", "lag-records",
                 "lag-bytes", "missed"],
                shard_rows,
                title="replication (as reported by each primary)",
            )
        )
    return 0


def command_cluster_migrate(args: argparse.Namespace) -> int:
    """Ask the shard's owner to live-migrate it to another node."""
    stats = _cluster_admin(
        args.host,
        args.port,
        lambda client: admin.migrate(client, args.shard, args.to),
    )
    print(
        format_table(
            ["stat", "value"],
            sorted(stats.items()),
            title=f"migrated shard {args.shard} -> {args.to}",
        )
    )
    return 0


def command_cluster_rebalance(args: argparse.Namespace) -> int:
    """Plan (and unless --dry-run, execute) moves onto a target membership."""

    plan, stats = _cluster_admin(
        args.host,
        args.port,
        lambda client: admin.rebalance(
            client, _parse_node_specs(args.node), dry_run=args.dry_run
        ),
    )
    if not plan:
        print("cluster already balanced; nothing to move")
    elif args.dry_run:
        print(
            format_table(
                ["shard", "from", "to"],
                plan,
                title=f"rebalance plan ({len(plan)} moves, dry run)",
            )
        )
    else:
        print(
            format_table(
                ["shard", "from", "to", "snapshot pairs", "tail ops",
                 "fence (ms)"],
                [
                    (move["shard"], move["from"], move["to"],
                     move["snapshot_pairs"], move["tail_ops"],
                     f"{move['fence_ms']:.1f}")
                    for move in stats
                ],
                title=(
                    f"rebalanced {len(plan)} shards "
                    f"(map now epoch {stats[-1]['epoch']})"
                ),
            )
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LSM design-space explorer (SIGMOD 2022 tutorial repro)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    workload = subparsers.add_parser(
        "workload", help="replay a YCSB-style preset against one tuning"
    )
    workload.add_argument(
        "--preset", choices=sorted(PRESETS), default="a"
    )
    workload.add_argument("--ops", type=int, default=10_000)
    workload.add_argument("--keys", type=int, default=5_000)
    _add_config_arguments(workload)
    workload.set_defaults(func=command_workload)

    for name, func, needs_eta in [
        ("tune", command_tune, False),
        ("robust", command_robust, True),
    ]:
        sub = subparsers.add_parser(
            name, help=f"{name} a configuration from a workload mix"
        )
        sub.add_argument("--reads", type=float, default=0.25)
        sub.add_argument("--empty-reads", type=float, default=0.25)
        sub.add_argument("--scans", type=float, default=0.25)
        sub.add_argument("--writes", type=float, default=0.25)
        sub.add_argument("--entries", type=int, default=10_000_000)
        sub.add_argument("--entry-bytes", type=int, default=128)
        sub.add_argument(
            "--memory-bytes", type=int, default=16 * 1024 * 1024
        )
        if needs_eta:
            sub.add_argument("--eta", type=float, default=0.5)
        sub.set_defaults(func=func)

    layouts = subparsers.add_parser(
        "layouts", help="compare the five data layouts on random inserts"
    )
    layouts.add_argument("--keys", type=int, default=8_000)
    layouts.set_defaults(func=command_layouts)

    serve = subparsers.add_parser(
        "serve", help="run the asyncio KV server over one LSM tree"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7379)
    _add_engine_arguments(serve)
    serve.add_argument(
        "--wal-dir", default=None, help="directory for durable WAL segments"
    )
    serve.add_argument("--max-connections", type=int, default=128)
    serve.add_argument(
        "--executor-threads",
        type=int,
        default=None,
        help="engine thread pool size (default: max(4, shard count))",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="hash-shard the engine into N independent trees, each with "
        "its own WAL and group committer",
    )
    serve.add_argument(
        "--replication",
        choices=("off", "sync", "async"),
        default="off",
        help="give every shard a WAL-shipping replica with automatic "
        "failover (needs --wal-dir; sync acks after replica durability)",
    )
    serve.add_argument(
        "--no-group-commit",
        action="store_true",
        help="commit every request separately (benchmark baseline)",
    )
    serve.set_defaults(func=command_serve)

    bench_serve = subparsers.add_parser(
        "bench-serve",
        help="closed-loop server benchmark: group commit on vs. off",
    )
    bench_serve.add_argument("--clients", type=int, default=8)
    bench_serve.add_argument("--pipeline", type=int, default=8)
    bench_serve.add_argument(
        "--ops", type=int, default=300, help="writes per client"
    )
    bench_serve.add_argument("--value-bytes", type=int, default=64)
    bench_serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="back the server with N hash-routed shards",
    )
    bench_serve.set_defaults(func=command_bench_serve)

    txn_demo = subparsers.add_parser(
        "txn-demo",
        help="protocol-v2 walkthrough: HELLO handshake, snapshot "
        "reads, cross-shard atomic MULTI",
    )
    txn_demo.add_argument("--shards", type=int, default=4)
    txn_demo.add_argument("--keys", type=int, default=8)
    txn_demo.set_defaults(func=command_txn_demo)

    fault_sweep = subparsers.add_parser(
        "fault-sweep",
        help="crash at every failpoint crossing and verify recovery",
    )
    fault_sweep.add_argument(
        "--quick",
        action="store_true",
        help="sample the crossing set (also via REPRO_SWEEP_QUICK=1)",
    )
    fault_sweep.add_argument(
        "--list",
        action="store_true",
        help="print the failpoint catalog (name, site, supported fault "
        "kinds) and exit without running the sweep",
    )
    fault_sweep.add_argument("--seed", type=int, default=7)
    fault_sweep.set_defaults(func=command_fault_sweep)

    cluster = subparsers.add_parser(
        "cluster",
        help="multi-node serving: init, serve, status, migrate, rebalance",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    cluster_init = cluster_sub.add_parser(
        "init", help="write an even cluster map into every node directory"
    )
    cluster_init.add_argument("--data-dir", required=True)
    cluster_init.add_argument("--shards", type=int, default=8)
    cluster_init.add_argument(
        "--node",
        action="append",
        default=[],
        metavar="ID=HOST:PORT",
        help="cluster member (repeat once per node)",
    )
    cluster_init.add_argument(
        "--replicas",
        action="store_true",
        help="place a warm replica of every shard on the next node "
        "(enables heartbeat failover)",
    )
    cluster_init.set_defaults(func=command_cluster_init)

    cluster_serve = cluster_sub.add_parser(
        "serve", help="run one cluster node from its data directory"
    )
    cluster_serve.add_argument("--data-dir", required=True)
    cluster_serve.add_argument("--node-id", required=True)
    cluster_serve.add_argument(
        "--host", default=None, help="bind address override (default: map)"
    )
    cluster_serve.add_argument(
        "--port", type=int, default=None,
        help="bind port override (default: map)",
    )
    cluster_serve.add_argument(
        "--join", default=None, metavar="HOST:PORT",
        help="bootstrap by joining via an existing member (a new node "
        "also needs --host/--port; give it shards with rebalance)",
    )
    _add_engine_arguments(cluster_serve)
    cluster_serve.add_argument("--max-connections", type=int, default=128)
    cluster_serve.add_argument(
        "--executor-threads", type=int, default=None
    )
    cluster_serve.add_argument("--no-group-commit", action="store_true")
    cluster_serve.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="SECONDS",
        help="peer heartbeat cadence (jittered; default 1.0)",
    )
    cluster_serve.add_argument(
        "--lease-timeout", type=float, default=None, metavar="SECONDS",
        help="silence before a replica declares a primary dead and "
        "promotes (default: 4x heartbeat interval)",
    )
    cluster_serve.add_argument(
        "--repl-timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-request bound on replication wire calls (default 5.0)",
    )
    cluster_serve.add_argument(
        "--self-fence", action="store_true",
        help="stop acking replicated writes (retryable BUSY) when the "
        "standby has been silent past the fence window (lease timeout "
        "minus two heartbeat intervals) — closes "
        "the split-brain window under partitions at the cost of write "
        "availability while fenced",
    )
    cluster_serve.add_argument(
        "--peer-proxy", action="append", default=[],
        metavar="NODE_ID=HOST:PORT",
        help="dial this peer via HOST:PORT instead of its map address "
        "(repeat per peer; routes node-to-node traffic through a relay "
        "such as the repro.faults.net proxy for partition drills)",
    )
    cluster_serve.set_defaults(func=command_cluster_serve)

    cluster_status = cluster_sub.add_parser(
        "status", help="print the map and every member's health"
    )
    cluster_status.add_argument("--host", default="127.0.0.1")
    cluster_status.add_argument("--port", type=int, default=7401)
    cluster_status.add_argument(
        "--timeout", type=float, default=5.0, metavar="SECONDS",
        help="bound on every map/health fetch (default 5.0)",
    )
    cluster_status.set_defaults(func=command_cluster_status)

    cluster_migrate = cluster_sub.add_parser(
        "migrate", help="live-migrate one shard to another node"
    )
    cluster_migrate.add_argument("--host", default="127.0.0.1")
    cluster_migrate.add_argument(
        "--port", type=int, default=7401,
        help="address of the shard's current owner",
    )
    cluster_migrate.add_argument("--shard", type=int, required=True)
    cluster_migrate.add_argument(
        "--to", required=True, metavar="NODE_ID"
    )
    cluster_migrate.set_defaults(func=command_cluster_migrate)

    cluster_rebalance = cluster_sub.add_parser(
        "rebalance",
        help="migrate shards until the membership is evenly loaded",
    )
    cluster_rebalance.add_argument("--host", default="127.0.0.1")
    cluster_rebalance.add_argument("--port", type=int, default=7401)
    cluster_rebalance.add_argument(
        "--node",
        action="append",
        default=[],
        metavar="ID=HOST:PORT",
        help="desired membership after the rebalance (repeat; default: "
        "current members)",
    )
    cluster_rebalance.add_argument(
        "--dry-run", action="store_true", help="print the plan, move nothing"
    )
    cluster_rebalance.set_defaults(func=command_cluster_rebalance)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
