"""The ledger's single table of names.

Every workload, end-to-end metric and per-layer metric the ledger reports
is declared here once, with its unit, direction, regression bound (end to
end) or source and the end-to-end figure it should move (per layer). The
root ``BENCHMARK.json`` and the tables in ``README.md`` are printed from
this module; ``python3 benchmarks/ledger/spec.py --check`` fails when the
committed ``BENCHMARK.json`` or the README's tables differ from it.

Sources of a per-layer metric: ``C`` is a counter delta read from public
stats over the timed stream, ``T`` is taken from spans the traced blocks
record around calls into the layer, ``P`` is a micro-probe on fixed
inputs. The "moves" column was written before anything was measured.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, NamedTuple

#: Seconds one run's timed stream is sized for on the reference box; the
#: ``--seconds`` flag scales the stream's op count by ``seconds / RUN_SECONDS``
#: in whole blocks and never cuts it by the clock.
RUN_SECONDS = 15

#: Equal-count blocks the timed stream is cut into.
BLOCKS = 20

#: Percentile reported as ``tail_us``. Served blocks hold 128-260 calls, so
#: p90 is the highest percentile with ten samples beyond it. Embedded
#: blocks hold 500 and 12,000 calls, and their p90 would be the slow end of
#: ``fdatasync`` (engine_write: the virtual disk's tail, 20-30 % apart from
#: run to run); p99 is a call that flushed a buffer (engine_write) or a
#: slow scan (engine_read), which is work the engine does.
SERVED_TAIL = 0.90
EMBEDDED_TAIL = 0.99

COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    source: str
    moves: str


WORKLOADS: List[Workload] = [
    Workload(
        "engine_write",
        "embedded tree, batched durable writes: WAL encode and fdatasync, "
        "memtable, flush, table build and compaction do the work; filters, "
        "cache and server none",
    ),
    Workload(
        "engine_read",
        "embedded tree, GET hit/miss and short SCAN over data 9x the block "
        "cache: filters, fences, cache and the scan merge do the work; WAL "
        "and compaction none",
    ),
    Workload(
        "serve_mixed",
        "KVServer and 2 pipelined clients on one loop, zipfian reads beside "
        "durable writes: framing, dispatch, executor hop and group commit "
        "dominate, the engine little",
    ),
    Workload(
        "cluster_repl",
        "two ClusterNodes with sync replication and 8 callers: routing, "
        "REPL.SHIP round trip, standby apply and per-node 2PC run in no "
        "other workload",
    ),
]

END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "store/server start + preload + quiesce + connect, median of the "
        "run's three set-ups; the growing-store ingest number",
    ),
    EndToEnd(
        "ops_per_s", "1/s", "higher", 0.25,
        "upper quartile of the 20 block rates; user ops with a correct "
        "reply (each op of a batch, MULTI or window counts; a SCAN is 1)",
    ),
    EndToEnd(
        "p50_us", "us", "lower", 0.25,
        "lower quartile of the block medians of timed-call latency (a call "
        "is one get/scan/write_batch; served: one window or request, send "
        "to last reply, retries included)",
    ),
    EndToEnd(
        "tail_us", "us", "lower", 0.25,
        "lower quartile of the block tails: p99 of the calls on the "
        "embedded workloads, p90 on the served ones",
    ),
    EndToEnd(
        "write_amp", "ratio", "lower", 0.03,
        "simulated-device bytes written (wal + flush + compaction) per user "
        "byte since the store was created (preload, warm-up and stream), "
        "after drain and flush",
    ),
    EndToEnd(
        "read_amp", "pages/read", "lower", 0.20,
        "simulated-device pages read with cause get or scan per GET or "
        "SCAN of the timed stream; on engine_write, whose stream reads "
        "nothing, over the read-back of its keys before the kill",
    ),
    EndToEnd(
        "space_amp", "ratio", "lower", 0.05,
        "on-disk bytes per live byte after the timed stream, drain and "
        "flush",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.05,
        "ru_maxrss of the workload's process at exit",
    ),
]

PER_LAYER: List[Layer] = [
    Layer("protocol.parse_us_per_msg", "us", "lower", "P",
          "ops_per_s, p50_us on serve_mixed, cluster_repl"),
    Layer("protocol.encode_us_per_msg", "us", "lower", "P",
          "ops_per_s, p50_us on serve_mixed, cluster_repl"),
    Layer("protocol.wire_bytes_per_op", "bytes", "lower", "T",
          "ops_per_s on serve_mixed"),
    Layer("server.ping_rtt_us", "us", "lower", "T",
          "floor of p50_us on serve_mixed"),
    Layer("server.get_overhead_us", "us", "lower", "T",
          "p50_us, ops_per_s on serve_mixed; nothing on engine_*"),
    Layer("server.write_overhead_us", "us", "lower", "T",
          "p50_us, ops_per_s on serve_mixed; nothing on engine_*"),
    Layer("server.ops_per_group_commit", "count", "higher", "C",
          "ops_per_s on serve_mixed"),
    Layer("server.busy_rejections", "count", "lower", "C",
          "tail_us and failures on serve_mixed"),
    Layer("server.slowdown_delays", "count", "lower", "C",
          "tail_us on serve_mixed"),
    Layer("client.get_p50_us", "us", "lower", "T",
          "p50_us on serve_mixed (served GET hit, serial)"),
    Layer("client.get_miss_p50_us", "us", "lower", "T",
          "p50_us on serve_mixed (served GET of an absent key)"),
    Layer("client.put_p50_us", "us", "lower", "T",
          "p50_us on serve_mixed (served durable PUT)"),
    Layer("client.scan_p50_us", "us", "lower", "T",
          "tail_us on serve_mixed (served SCAN limit 20)"),
    Layer("client.multi_p50_us", "us", "lower", "T",
          "tail_us on serve_mixed (served MULTI of 4)"),
    Layer("client.self_us_per_op", "us", "lower", "P",
          "guard: the generator's own share of p50_us on serve_mixed"),
    Layer("wal.append_batch_us_per_group", "us", "lower", "T",
          "ops_per_s, p50_us on engine_write; p50_us on serve_mixed"),
    Layer("wal.fdatasync_us_per_call", "us", "lower", "T",
          "ops_per_s, p50_us on engine_write; p50_us on serve_mixed"),
    Layer("wal.fdatasyncs_per_op", "count", "lower", "T",
          "ops_per_s on serve_mixed (exactly 1/12 on engine_write)"),
    Layer("wal.encode_us_per_entry", "us", "lower", "P",
          "ops_per_s on engine_write (ROADMAP 3 codec target)"),
    Layer("wal.bytes_per_user_byte", "ratio", "lower", "C",
          "write_amp on the three writing workloads"),
    Layer("wal.replay_entries_per_s", "1/s", "higher", "T",
          "no end-to-end metric today; restart time (ROADMAP 3)"),
    Layer("tree.write_batch_us_per_call", "us", "lower", "T",
          "p50_us on engine_write"),
    Layer("tree.get_us_per_call", "us", "lower", "T",
          "p50_us, ops_per_s on engine_read; small on serve_mixed"),
    Layer("tree.get_miss_us_per_call", "us", "lower", "T",
          "p50_us, ops_per_s on engine_read"),
    Layer("tree.scan_us_per_entry", "us", "lower", "T",
          "tail_us on engine_read (scans are its slowest tenth)"),
    Layer("tree.runs_probed_per_get", "count", "lower", "C",
          "read_amp, p50_us on engine_read"),
    Layer("sstable.fence_misses_per_get", "count", "lower", "C",
          "read_amp, p50_us on engine_read"),
    Layer("tree.stall_us_per_op", "us", "lower", "C",
          "ops_per_s on engine_write; tail_us on serve_mixed"),
    Layer("tree.flushes_per_kop", "count", "lower", "C",
          "ops_per_s on engine_write"),
    Layer("tree.depth", "count", "lower", "C",
          "read_amp on engine_read; write_amp on engine_write"),
    Layer("memtable.insert_us_per_entry", "us", "lower", "P",
          "ops_per_s on engine_write"),
    Layer("bloom.probe_us", "us", "lower", "P",
          "p50_us on engine_read"),
    Layer("bloom.false_positive_rate", "frac", "lower", "C",
          "read_amp on engine_read"),
    Layer("bloom.skip_rate", "frac", "higher", "C",
          "read_amp on engine_read"),
    Layer("sstable.build_entries_per_s", "1/s", "higher", "P",
          "ops_per_s on engine_write"),
    Layer("entry.pack_entries_per_s", "1/s", "higher", "P",
          "ops_per_s on engine_write (checkpoint, table persistence)"),
    Layer("entry.unpack_entries_per_s", "1/s", "higher", "P",
          "restart time; wal.replay_entries_per_s once the codecs merge"),
    Layer("cache.hit_rate", "frac", "higher", "C",
          "read_amp, p50_us: low on engine_read, high on serve_mixed"),
    Layer("cache.blocks_from_disk_per_get", "count", "lower", "C",
          "read_amp on engine_read"),
    Layer("disk.flush_bytes_per_user_byte", "ratio", "lower", "C",
          "write_amp"),
    Layer("disk.compaction_bytes_per_user_byte", "ratio", "lower", "C",
          "write_amp"),
    Layer("compaction.count_per_kop", "count", "lower", "C",
          "write_amp, space_amp"),
    Layer("compaction.entries_gc_per_kop", "count", "higher", "C",
          "space_amp"),
    Layer("compaction.busy_us_per_op", "us", "lower", "T",
          "ops_per_s on engine_write; tail_us on serve_mixed (one GIL)"),
    Layer("compaction.pick_us_per_compaction", "us", "lower", "T",
          "ops_per_s on engine_write; nothing on engine_read"),
    Layer("concurrency.drain_s", "s", "lower", "C",
          "background debt serve_mixed left behind at close"),
    Layer("shard.twopc_us_per_multi", "us", "lower", "T",
          "p50_us, tail_us on cluster_repl"),
    Layer("shard.txn_decisions_per_multi", "count", "lower", "T",
          "tail_us on cluster_repl"),
    Layer("shard.single_shard_batch_ops_per_s", "1/s", "higher", "P",
          "the fast path; ops_per_s on cluster_repl"),
    Layer("shard.cross_shard_2pc_ops_per_s", "1/s", "higher", "P",
          "the 2PC tax; ops_per_s on cluster_repl"),
    Layer("replication.sync_overhead_ratio", "ratio", "lower", "P",
          "tracked tax (e25's 1.8x); no workload runs this stack"),
    Layer("cluster.ship_rtt_us", "us", "lower", "T",
          "p50_us, ops_per_s on cluster_repl"),
    Layer("cluster.standby_apply_us_per_group", "us", "lower", "T",
          "p50_us, ops_per_s on cluster_repl"),
    Layer("cluster.ops_per_shipped_group", "count", "higher", "C",
          "ops_per_s on cluster_repl"),
    Layer("cluster.route_us_per_op", "us", "lower", "P",
          "ops_per_s on cluster_repl"),
    Layer("cluster.moved_redirects", "count", "lower", "C",
          "failures, tail_us on cluster_repl (0 expected)"),
    Layer("cluster.put_p50_us", "us", "lower", "T",
          "p50_us on cluster_repl (routed, sync-replicated PUT, serial)"),
    Layer("cluster.get_p50_us", "us", "lower", "T",
          "p50_us on cluster_repl (routed GET, serial)"),
    Layer("cluster.multi_p50_us", "us", "lower", "T",
          "tail_us on cluster_repl (MULTI of 4 over both nodes, serial)"),
    Layer("cluster.replication_tax", "ratio", "lower", "T",
          "cluster.put_p50_us / client.put_p50_us as one tracked ratio"),
    Layer("run.total_ops_per_s", "1/s", "higher", "C",
          "whole-stream rate, printed beside the quiet-quartile figure"),
    Layer("run.disturbed_frac", "frac", "lower", "C",
          "share of blocks slower than 0.9x ops_per_s"),
    Layer("trace.overhead_frac", "frac", "lower", "T",
          "1 - traced/untraced block rate within one stream"),
    Layer("trace.unattributed_frac", "frac", "lower", "T",
          "largest share of a serial probe's p50 no span explains"),
    Layer("context.fdatasync_probe_us", "us", "lower", "P",
          "lets a reader discount a run made on a slow minute"),
    Layer("context.cpu_calib_ops_per_s", "1/s", "higher", "P",
          "lets a reader discount a run made on a slow minute"),
]

END_TO_END_NAMES = [metric.name for metric in END_TO_END]
PER_LAYER_NAMES = [layer.name for layer in PER_LAYER]
WORKLOAD_NAMES = [workload.name for workload in WORKLOADS]
UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END}
UNITS.update({layer.name: layer.unit for layer in PER_LAYER})


def benchmark_json() -> dict:
    """The contract file, exactly as the driver reads it."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": layer.name, "unit": layer.unit, "better": layer.better}
            for layer in PER_LAYER
        ],
    }


def benchmark_json_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def readme_tables() -> str:
    """The metric tables of README.md, as markdown."""
    lines = ["| name | unit | better | bound | definition |",
             "|---|---|---|---|---|"]
    for m in END_TO_END:
        lines.append(
            f"| `{m.name}` | {m.unit} | {m.better} | {m.bound:.2f} | "
            f"{m.definition} |"
        )
    lines += ["", "| name | unit | better | src | should move |",
              "|---|---|---|---|---|"]
    for layer in PER_LAYER:
        lines.append(
            f"| `{layer.name}` | {layer.unit} | {layer.better} | "
            f"{layer.source} | {layer.moves} |"
        )
    return "\n".join(lines) + "\n"


def repo_root() -> str:
    """The checkout this file sits in (``benchmarks/ledger`` is two deep)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(here))


def main(argv: List[str]) -> int:
    path = os.path.join(repo_root(), "BENCHMARK.json")
    if argv == ["--write"]:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(benchmark_json_text())
        return 0
    if argv == ["--tables"]:
        sys.stdout.write(readme_tables())
        return 0
    if argv == ["--check"]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                committed = handle.read()
        except OSError as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 1
        if committed != benchmark_json_text():
            print(
                "BENCHMARK.json differs from benchmarks/ledger/spec.py; "
                "run spec.py --write",
                file=sys.stderr,
            )
            return 1
        readme = os.path.join(os.path.dirname(__file__), "README.md")
        with open(readme, "r", encoding="utf-8") as handle:
            if readme_tables() not in handle.read():
                print("README.md's metric tables differ from spec.py; "
                      "paste spec.py --tables", file=sys.stderr)
                return 1
        return 0
    print("usage: spec.py --check | --write | --tables", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
