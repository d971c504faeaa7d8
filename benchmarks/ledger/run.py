"""The ledger's one command.

    python3 benchmarks/ledger/run.py --workload NAME --seed N \
        --seconds S --trace 0|1 [--scale F]

runs one workload in this one process and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` every end-to-end metric, with ``--trace 1`` every per-layer
metric. The full result (context block, block series, where each
per-layer value came from) is written under ``benchmarks/ledger/_out/``,
and with ``--trace 1`` the recorded spans beside it. The exit code is
non-zero when any reply or read-back was wrong.

A traced run measures the named workload at full size with the wrappers
on for half of its blocks, then makes one small traced run of each other
workload: a layer the named workload never calls (the WAL on
``engine_read``, the cluster on ``engine_write``) is reported from those,
so every per-layer name is a measurement in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from typing import Dict, Optional

import spec

ROOT = spec.repo_root()

#: Preload keys and calls per block per driver of the small fill runs:
#: big enough that each workload's own layers all do work (engine_write's
#: level 1 overflows, so the picker runs).
FILL_SIZES = {
    "engine_write": (10_000, 25),
    "engine_read": (4_000, 260),
    "serve_mixed": (2_000, 4),
    "cluster_repl": (800, 1),
}


def _run_workload(name: str, seed: int, preload: int, per_block: int, work,
                  tracer, setups: int) -> Dict[str, object]:
    # Imported here, not at the top: these import repro, which must not
    # load before a traced run has installed its wrappers.
    import engine
    import served
    import streams

    if name == "engine_write":
        plan = streams.engine_write_plan(seed, preload, per_block)
        return engine.run(plan, work, tracer, setups)
    if name == "engine_read":
        plan = streams.engine_read_plan(seed, preload, per_block)
        return engine.run(plan, work, tracer, setups)
    if name == "serve_mixed":
        plan = streams.serve_mixed_plan(seed, preload, per_block)
        return served.run_server(plan, work, tracer, setups)
    plan = streams.cluster_repl_plan(seed, preload, per_block)
    return served.run_cluster(plan, work, tracer, setups)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every op count (smoke runs)")
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no program to measure: {source}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, source)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()  # before anything imports repro

    import probes
    import stores
    import streams

    preload, per_block = streams.sized(args.workload, args.scale,
                                       args.seconds)
    with stores.WorkDir() as work:
        context = probes.context(work.path, ROOT, args.seed, args.scale,
                                 args.seconds)
        outcome = _run_workload(
            args.workload, args.seed, preload, per_block, work, tracer,
            setups=1 if tracer else 3,
        )
        spans = outcome.pop("spans")
        failed = outcome["failed"]
        attempted = outcome["attempted"]
        if tracer is None:
            values = dict(outcome["end_to_end"])
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            names = spec.END_TO_END_NAMES
        else:
            import served

            values = dict(probes.layer_probes(work.path))
            values.update(served.serial_probes(work, tracer))
            sources = dict.fromkeys(values, "probe")
            layers = [(args.workload, outcome["layers"])]
            for other in spec.WORKLOAD_NAMES:
                if other != args.workload:
                    fill = _run_workload(
                        other, args.seed, *FILL_SIZES[other], work, tracer,
                        setups=1,
                    )
                    failed += fill["failed"]
                    attempted += fill["attempted"]
                    layers.append((other, fill["layers"]))
            for origin, found in layers:
                for name, value in found.items():
                    if value is not None and name not in values:
                        values[name] = value
                        sources[name] = origin
            outcome["sources"] = sources
            names = spec.PER_LAYER_NAMES
        probes.context_after(context, work.path)
    if tracer is not None:
        import timing

        values["context.fdatasync_probe_us"] = timing.median(
            context["fdatasync_probe_us"]
        )
        values["context.cpu_calib_ops_per_s"] = timing.median(
            context["cpu_calib_ops_per_s"]
        )
        tracer.uninstall()

    # A layer no traced run exercised reads 0 (only at smoke scales).
    metrics = {
        name: {"value": float(values.get(name) or 0.0),
               "unit": spec.UNITS[name]}
        for name in names
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(stores.OUT_DIR, exist_ok=True)
    stem = os.path.join(stores.OUT_DIR, f"{args.workload}.trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({**result, "context": context, **outcome}, handle,
                  indent=1)
    if tracer is not None:
        tracing.write_spans(stem + ".spans.tsv", spans)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
