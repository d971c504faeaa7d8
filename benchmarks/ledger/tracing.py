"""Spans around each layer's entry points, recorded from outside ``src/``.

A traced run (``--trace 1``) replaces a fixed list of methods with
wrappers that, while :attr:`Tracer.on` is set, record a span — id, name,
start, end, parent span, root span (the request the work belonged to) and
one payload number — into an in-memory list. Nothing under ``src/`` is
edited: the wrappers are installed on the classes at start-up and the
end-to-end metrics come from ``--trace 0`` runs, which never install
them. Within one traced stream the wrappers are switched on for half of
the blocks (``timing.traced_block``), so the other half measure the same
store untraced and ``trace.overhead_frac`` compares like with like.

A layer's self time is its span minus the spans whose parent it is.
Engine calls made on the server's executor threads have no parent link to
the request that caused them; the serial probes (one request in flight)
attribute by time instead, which is what ``unattributed_frac`` reports.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from timing import median


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int  # -1 at the top of its thread's stack
    root: int  # outermost span of the same call chain
    amount: int  # payload: entries, ops or bytes, per the wrapper


#: How a wrapper names and sizes its span: (args, result) -> (suffix, amount).
Annotate = Callable[[tuple, object], Tuple[str, int]]


def _plain(_args: tuple, _result: object) -> Tuple[str, int]:
    return "", 0


def _get(_args: tuple, result: object) -> Tuple[str, int]:
    return (".miss" if result is None else ".hit"), 1


def _result_len(_args: tuple, result: object) -> Tuple[str, int]:
    # ``result`` is None when the wrapped call raised.
    return "", 0 if result is None else len(result)  # type: ignore[arg-type]


def _first_arg_len(args: tuple, _result: object) -> Tuple[str, int]:
    return "", len(args[1])


class Tracer:
    """Installs the wrappers and holds the spans they record."""

    def __init__(self) -> None:
        self.on = False
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[Tuple[int, int]]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, original, name: str, annotate: Annotate):
        perf = time.perf_counter
        spans = self.spans

        def traced(*args, **kwargs):
            if not self.on:
                return original(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent, root = stack[-1] if stack else (-1, sid)
            stack.append((sid, root))
            result = None
            start = perf()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                suffix, amount = annotate(args, result)
                spans.append(
                    Span(sid, name + suffix, start, end, parent, root, amount)
                )

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    def _wrap_async(self, original, name: str):
        perf = time.perf_counter
        spans = self.spans

        async def traced(*args, **kwargs):
            if not self.on:
                return await original(*args, **kwargs)
            sid = next(self._ids)
            start = perf()
            try:
                return await original(*args, **kwargs)
            finally:
                spans.append(Span(sid, name, start, perf(), -1, sid, 0))

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch(self, owner, attr: str, name: str,
              annotate: Annotate = _plain) -> None:
        self._patch(owner, attr,
                    self._wrap(getattr(owner, attr), name, annotate))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point. Must run before ``repro`` is
        imported: the WAL binds ``os.fdatasync`` when it is first loaded."""
        if "repro.core.wal" in sys.modules:
            raise RuntimeError("install the tracer before importing repro")
        self.patch(os, "fdatasync", "wal.fdatasync")

        from repro.cluster import ClusterNode, NodeStore
        from repro.compaction.executor import CompactionExecutor
        from repro.compaction.picker import LeastOverlapPicker
        from repro.core.tree import LSMTree
        from repro.core.wal import TxnDecisionLog, WriteAheadLog
        from repro.server import FrameParser, KVServer

        self.patch(LSMTree, "get", "tree.get", _get)
        self.patch(LSMTree, "scan", "tree.scan", _result_len)
        self.patch(LSMTree, "write_batch", "tree.write_batch",
                   _first_arg_len)
        self.patch(LSMTree, "apply_replicated", "tree.apply_replicated")
        self.patch(WriteAheadLog, "append_batch", "wal.append_batch")
        self.patch(TxnDecisionLog, "append", "txn.decide")
        # execute() is the synchronous engine's entry; background workers
        # call the three halves directly.
        for method in ("execute", "merge_job", "install_job",
                       "trivial_move"):
            self.patch(CompactionExecutor, method, f"compaction.{method}")
        self.patch(LeastOverlapPicker, "pick", "compaction.pick")
        self.patch(NodeStore, "write_batch", "node.write_batch",
                   _first_arg_len)
        self.patch(NodeStore, "get", "node.get")
        self.patch(NodeStore, "replica_apply", "cluster.standby_apply")
        self.patch(FrameParser, "feed", "protocol.parse", _first_arg_len)

        attach = NodeStore.attach_replication
        tracer = self

        def attach_traced(store, shard, ship):
            # The ship hook runs on the committing thread and, under sync
            # replication, returns when the standby acknowledged the
            # group: its duration is the ship round trip.
            return attach(store, shard,
                          tracer._wrap(ship, "cluster.ship", _plain))

        self._patch(NodeStore, "attach_replication", attach_traced)
        for owner, method in (
            (KVServer, "_dispatch_read"),
            (KVServer, "_dispatch_writes"),
            (KVServer, "_dispatch_multi"),
            (ClusterNode, "_dispatch_read"),
        ):
            self._patch(
                owner, method,
                self._wrap_async(getattr(owner, method), "server.dispatch"),
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> List[Span]:
        """Hand over the spans recorded so far and start a fresh list
        (in place: the wrappers hold a reference to it)."""
        taken = list(self.spans)
        del self.spans[:]
        return taken


# -- analysis -----------------------------------------------------------------

_COMPACTION = ("compaction.execute", "compaction.merge_job",
               "compaction.install_job", "compaction.trivial_move")


def _mean_us(spans: List[Span]) -> Optional[float]:
    if not spans:
        return None
    return 1e6 * sum(s.end - s.start for s in spans) / len(spans)


def _per(total: float, count: float) -> Optional[float]:
    return total / count if count else None


def stream_layers(
    spans: List[Span], ops: int, write_ops: int, multis: int
) -> Dict[str, Optional[float]]:
    """Span-sourced (``T``) per-layer metrics of one traced stream.

    ``ops``/``write_ops``/``multis`` count what the stream issued while
    the wrappers were on. A metric whose layer recorded nothing is
    ``None`` (another workload's traced run supplies it).
    """
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    names = {span.sid: span.name for span in spans}

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    def seconds(items: List[Span]) -> float:
        return sum(s.end - s.start for s in items)

    syncs = named("wal.fdatasync")
    scans = named("tree.scan")
    scanned = sum(s.amount for s in scans)
    # Compaction work, counted once: execute() contains its halves.
    compactions = [
        s for name in _COMPACTION for s in named(name)
        if names.get(s.parent) not in _COMPACTION
    ]
    # A batch went through two-phase commit if a coordinator decision was
    # written under it.
    decided = {s.parent for s in named("txn.decide")}
    twopc = [s for s in named("node.write_batch") if s.sid in decided]
    parse = named("protocol.parse")
    picks = named("compaction.pick")
    return {
        "wal.append_batch_us_per_group": _mean_us(named("wal.append_batch")),
        "wal.fdatasync_us_per_call": _mean_us(syncs),
        "wal.fdatasyncs_per_op": _per(len(syncs), write_ops),
        "tree.write_batch_us_per_call": _mean_us(named("tree.write_batch")),
        "tree.get_us_per_call": _mean_us(named("tree.get.hit")),
        "tree.get_miss_us_per_call": _mean_us(named("tree.get.miss")),
        "tree.scan_us_per_entry": _per(1e6 * seconds(scans), scanned),
        "compaction.busy_us_per_op": _per(
            1e6 * seconds(compactions), write_ops
        ),
        "compaction.pick_us_per_compaction": _per(
            1e6 * seconds(picks), len(compactions) if picks else 0
        ),
        "shard.twopc_us_per_multi": _mean_us(twopc),
        "shard.txn_decisions_per_multi": _per(
            len(decided), multis if decided else 0
        ),
        "cluster.ship_rtt_us": _mean_us(named("cluster.ship")),
        "cluster.standby_apply_us_per_group": _mean_us(
            named("cluster.standby_apply")
        ),
        "protocol.wire_bytes_per_op": _per(
            sum(s.amount for s in parse), ops if parse else 0
        ),
    }


class Probe(NamedTuple):
    """One serial (depth-1) request of the probe segment."""

    kind: str
    start: float
    end: float


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def probe_layers(
    probes: List[Probe], spans: List[Span], engine: Tuple[str, ...]
) -> Dict[str, float]:
    """Per request kind: the p50 latency, the p50 of the part spent
    outside the engine (``engine`` names the store's entry spans), and
    the share of the latency no span of any layer covers."""
    ordered = sorted(spans, key=lambda s: s.start)
    result: Dict[str, float] = {}
    kinds = sorted({p.kind for p in probes})
    for kind in kinds:
        latencies, overheads, gaps = [], [], []
        for probe in probes:
            if probe.kind != kind:
                continue
            inside = [
                (max(s.start, probe.start), min(s.end, probe.end))
                for s in ordered
                if s.end > probe.start and s.start < probe.end
            ]
            in_engine = [
                (max(s.start, probe.start), min(s.end, probe.end))
                for s in ordered
                if s.name.startswith(engine) and s.parent == -1
                and s.end > probe.start and s.start < probe.end
            ]
            latency = probe.end - probe.start
            latencies.append(latency)
            overheads.append(latency - _covered(in_engine))
            gaps.append(1.0 - _covered(inside) / latency)
        result[f"{kind}.p50_us"] = 1e6 * median(latencies)
        result[f"{kind}.overhead_us"] = 1e6 * median(overheads)
        result[f"{kind}.unattributed"] = median(gaps)
    return result


def write_spans(path: str, spans: List[Span]) -> None:
    """One line per span: ``sid name start_us end_us parent root amount``
    (times relative to the first span)."""
    origin = min((s.start for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("sid\tname\tstart_us\tend_us\tparent\troot\tamount\n")
        handle.writelines(
            f"{s.sid}\t{s.name}\t{1e6 * (s.start - origin):.1f}\t"
            f"{1e6 * (s.end - origin):.1f}\t{s.parent}\t{s.root}\t"
            f"{s.amount}\n"
            for s in spans
        )
