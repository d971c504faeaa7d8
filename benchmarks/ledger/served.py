"""The served workloads: ``serve_mixed`` and ``cluster_repl``.

Server (or both cluster nodes) and the load generator share one asyncio
loop in one process — and therefore one GIL, with the engine's executor,
flush and compaction threads: what is measured is the single-core stack,
and the generator's own cost is reported (``client.self_us_per_op``) so
it can be subtracted. Multi-process scaling is a later ledger line.

Every key has exactly one writer (a connection or caller writes only its
own residue class of keys), so versions are known when the stream is
generated and a read can be checked against the model while writes are
in flight: the value must name the key asked for, with a version no
older than the last one acknowledged before the read was sent and no
newer than the last one issued. After the stream the stores are closed
(which drains background work), recovered from their preserved WALs, and
every key is read back at its final version.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import time
from typing import Callable, Dict, List, Optional, Tuple

import spec
import stores
import streams
import timing
import tracing
from repro import ClusterClient, ClusterMap, ClusterNode, LSMTree, NodeInfo
from repro import NodeStore
from repro.errors import ReproError
from repro.server import KVClient, KVServer

PROBES_PER_KIND = 30
PROBE_KEYS = 2_000

#: Reply timeout of every client, far above any real latency: the sandbox
#: can pause the whole process for tens of seconds, and a pause must cost
#: one slow block, not a spurious timeout (or, between cluster nodes, a
#: lease expiry and a failover nobody asked for).
PATIENCE_S = 150.0

Reply = List[str]


class Model:
    """What the stream has issued and had acknowledged, per key."""

    def __init__(self, plan: streams.ServedPlan) -> None:
        self.keys = plan.keys
        self.issued: Dict[str, int] = {}
        self.acked: Dict[str, int] = {}
        self.uncertain: set = set()  # keys of writes whose reply was lost
        self.failed = 0

    def floor(self, request: streams.Request) -> int:
        """Call when the request is sent."""
        for key, version in request.writes:
            self.issued[key] = version
        return self.acked.get(request.key, 0)

    def _names(self, key: str, text: str, floor: int) -> bool:
        try:
            named, version = streams.parse_value(text)
        except ValueError:
            return False
        return named == key and floor <= version <= self.issued.get(key, 0)

    def check(self, request: streams.Request, reply: Reply,
              floor: int) -> int:
        """Ops of ``request`` answered correctly (0 counts a failure)."""
        kind = request.kind
        if kind == "get":
            good = (len(reply) == 2 and reply[0] == "VALUE"
                    and self._names(request.key, reply[1], floor))
        elif kind == "miss":
            good = reply == ["NONE"]
        elif kind == "scan":
            first = int(request.key[1:]) // 2
            want = self.keys[first:first + streams.SERVED_SCAN_LIMIT]
            good = (
                reply[0] == "PAIRS" and reply[1::2] == want
                and all(self._names(key, text, 0)
                        for key, text in zip(want, reply[2::2]))
            )
        else:
            good = reply[0] == "OK"
            if good:
                self.acked.update(request.writes)
            else:
                self.uncertain.update(key for key, _ in request.writes)
        if not good:
            self.failed += request.ops
            return 0
        return request.ops

    def expected(self) -> Dict[str, str]:
        """Final value of every key whose history is certain."""
        return {
            key: streams.value(key, self.issued.get(key, 0))
            for key in self.keys if key not in self.uncertain
        }


async def _drive(
    calls: List[List[streams.Request]],
    send: Callable[[List[streams.Request]], "asyncio.Future"],
    model: Model,
    samples: List[timing.Sample],
    per_block: int,
    tracer,
) -> None:
    """One closed-loop driver: send a call, await and check its replies."""
    perf = time.perf_counter
    for call in calls:
        floors = [model.floor(request) for request in call]
        begin = perf()
        replies = await send(call)
        end = perf()
        ops = sum(
            model.check(request, reply, floor)
            for request, reply, floor in zip(call, replies, floors)
        )
        samples.append((end, ops, (end - begin) * 1e6))
        if tracer is not None and len(samples) % per_block == 0:
            tracer.on = timing.traced_block(len(samples) // per_block)


async def _stream(
    plan: streams.ServedPlan,
    senders: List[Callable[[List[streams.Request]], "asyncio.Future"]],
    model: Model,
    warm: bool,
    tracer,
) -> Tuple[List[timing.Sample], float]:
    """Run every driver's warm-up calls (``warm``) or timed calls, one
    closed loop per driver; returns the samples and the start time."""
    parts = [
        calls[:plan.warm] if warm else calls[plan.warm:]
        for calls in plan.drivers
    ]
    samples: List[timing.Sample] = []
    per_block = max(1, sum(len(p) for p in parts) // spec.BLOCKS)
    started = time.perf_counter()
    await asyncio.gather(*(
        _drive(calls, send, model, samples, per_block, tracer)
        for calls, send in zip(parts, senders)
    ))
    if tracer is not None:
        tracer.on = False
    return samples, started


async def _probe_segment(
    kinds: Dict[str, Callable[[int], "asyncio.Future"]], tracer
) -> List[tracing.Probe]:
    """Serial depth-1 requests, the kinds interleaved so they share the
    box's noise; the wrappers are on throughout."""
    perf = time.perf_counter
    probes = []
    tracer.on = True
    for index in range(PROBES_PER_KIND):
        for kind, issue in kinds.items():
            begin = perf()
            await issue(index)
            probes.append(tracing.Probe(kind, begin, perf()))
    tracer.on = False
    return probes


def _timed_requests(plan: streams.ServedPlan) -> List[streams.Request]:
    return [r for driver in plan.drivers for call in driver[plan.warm:]
            for r in call]


def _traced_counts(plan: streams.ServedPlan, per_block: int,
                   samples: List[timing.Sample]) -> Tuple[int, int, int]:
    """(ops, write ops, MULTIs) issued in the traced blocks. Blocks
    are cut by completion order, so the split is by sample, and a block's
    mix is the stream's mix: counts are scaled from the whole stream."""
    requests = _timed_requests(plan)
    share = sum(
        s[1] for index, s in enumerate(sorted(samples))
        if timing.traced_block(index // per_block)
    ) / max(1, sum(s[1] for s in samples))
    ops = sum(r.ops for r in requests)
    writes = sum(r.ops for r in requests if r.writes)
    multis = sum(1 for r in requests if r.kind == "multi")
    return (round(ops * share), round(writes * share),
            round(multis * share))


def _outcome(
    plan: streams.ServedPlan,
    model: Model,
    samples: List[timing.Sample],
    started: float,
    setup_times: List[float],
    lifetime: Dict[str, float],
    moved: Dict[str, float],
    trees: List[LSMTree],
    read_back_failed: int,
    layers: Dict[str, Optional[float]],
    stream_spans: List[tracing.Span],
    tracer,
) -> Dict[str, object]:
    blocks = timing.block_stats(samples, started, spec.SERVED_TAIL)
    total_ops = sum(r.ops for r in _timed_requests(plan))
    layers.update(stores.counter_layers(moved, total_ops, trees))
    layers.update(timing.run_layers(blocks, tracer is not None))
    if tracer is not None:
        ops, writes, multis = _traced_counts(
            plan, blocks["calls_per_block"], samples
        )
        layers.update(tracing.stream_layers(
            stream_spans, ops=ops, write_ops=writes, multis=multis
        ))
    end_to_end = timing.wall_clock_metrics(blocks, setup_times)
    end_to_end["write_amp"] = stores.write_amp(lifetime)
    end_to_end["read_amp"] = stores.read_amp(moved)
    end_to_end["space_amp"] = stores.space_amp(trees)
    return {
        "attempted": total_ops + len(plan.keys),
        "failed": model.failed + read_back_failed
        + len(model.uncertain),
        "end_to_end": end_to_end,
        "layers": layers,
        "blocks": blocks,
        "spans": stream_spans,
    }


# -- serve_mixed ----------------------------------------------------------------


class _Served:
    """One KVServer over a background-mode tree, two v2 connections."""

    async def start(self, plan: streams.ServedPlan, wal_dir: str) -> None:
        self.wal_dir = wal_dir
        self.tree = LSMTree(stores.engine_config(True), wal_dir=wal_dir)
        self.server = KVServer(self.tree, group_commit=True)
        await self.server.start()
        self.clients = [
            await KVClient.connect(self.server.host, self.server.port,
                                   protocol_version=2,
                                   timeout_s=PATIENCE_S)
            for _ in range(streams.CONNECTIONS)
        ]

        async def load(client: KVClient, batches) -> None:
            requests = [
                ["BATCH"] + [field for _, key, text in batch
                             for field in ("PUT", key, text)]
                for batch in batches
            ]
            for start in range(0, len(requests), streams.WINDOW):
                for reply in await client.request_many(
                    requests[start:start + streams.WINDOW]
                ):
                    if reply[0] != "OK":
                        raise RuntimeError(f"preload refused: {reply}")

        await asyncio.gather(*(
            load(client, plan.preload[index::streams.CONNECTIONS])
            for index, client in enumerate(self.clients)
        ))
        self.tree.flush()

    async def send(self, client: KVClient,
                   window: List[streams.Request]) -> List[Reply]:
        """One pipelined window; a BUSY or ERR reply is retried through
        the client's retrying path, inside the window's latency."""
        replies = await client.request_many([r.fields for r in window])
        for index, reply in enumerate(replies):
            if reply[0] in ("BUSY", "ERR"):
                try:
                    replies[index] = await client.command(
                        window[index].fields
                    )
                except ReproError as exc:
                    replies[index] = ["ERR", str(exc)]
        return replies

    async def stop(self) -> None:
        for client in self.clients:
            await client.close()
        await self.server.stop()


async def _serve_mixed(plan: streams.ServedPlan, work: stores.WorkDir,
                       tracer, setups: int) -> Dict[str, object]:
    setup_times = []
    for attempt in range(setups):
        stack = _Served()
        started = time.perf_counter()
        await stack.start(plan, work.fresh("served"))
        setup_times.append(time.perf_counter() - started)
        if attempt < setups - 1:
            await stack.stop()
            stack.tree.kill()
            shutil.rmtree(stack.wal_dir)
    tree, metrics = stack.tree, stack.server.metrics
    model = Model(plan)
    senders = [
        lambda window, c=client: stack.send(c, window)
        for client in stack.clients
    ]
    await _stream(plan, senders, model, warm=True, tracer=None)
    loaded = stores.snapshot([tree])
    commits = (metrics.group_commits, metrics.group_committed_ops,
               metrics.busy_rejections, metrics.slowdown_delays)
    samples, started = await _stream(plan, senders, model, warm=False,
                                     tracer=tracer)
    layers: Dict[str, Optional[float]] = {
        "server.ops_per_group_commit": stores.ratio(
            metrics.group_committed_ops - commits[1],
            metrics.group_commits - commits[0],
        ),
        "server.busy_rejections": float(metrics.busy_rejections - commits[2]),
        "server.slowdown_delays": float(metrics.slowdown_delays - commits[3]),
    }
    stream_spans = tracer.take() if tracer is not None else []
    await stack.stop()
    drain_started = time.perf_counter()
    tree.flush()
    tree.close()
    layers["concurrency.drain_s"] = time.perf_counter() - drain_started
    lifetime = stores.snapshot([tree])
    moved = stores.delta(lifetime, loaded)
    if tracer is not None:
        layers["wal.replay_entries_per_s"] = stores.replay_rate(
            [stack.wal_dir]
        )
    recovered = LSMTree.recover(stores.recovery_config(), stack.wal_dir)
    lost = stores.read_back(recovered.get, model.expected())
    recovered.close()
    return _outcome(plan, model, samples, started, setup_times, lifetime,
                    moved, [tree], lost, layers, stream_spans, tracer)


async def _served_probes(client: KVClient, keys: List[str],
                         tracer) -> Dict[str, float]:
    """Serial probes of each request type on a quiet server."""

    def put_fields(index: int, count: int) -> List[str]:
        fields: List[str] = []
        for offset in range(count):
            key = keys[(13 * (index * count + offset)) % len(keys)]
            fields += ["PUT", key, streams.value(key, index + 1)]
        return fields

    kinds = {
        "ping": lambda i: client.command(["PING"]),
        "get": lambda i: client.command(["GET", keys[(7 * i) % len(keys)]]),
        "get_miss": lambda i: client.command(
            ["GET", streams.absent_key(7 * i % len(keys))]
        ),
        "put": lambda i: client.command(put_fields(i, 1)),
        "scan": lambda i: client.command(
            ["SCAN", keys[(11 * i) % (len(keys) // 2)], streams.KEY_CEILING,
             str(streams.SERVED_SCAN_LIMIT)]
        ),
        "multi": lambda i: client.command(
            ["MULTI"] + put_fields(i + PROBES_PER_KIND, streams.MULTI_OPS)
        ),
    }
    probes = await _probe_segment(kinds, tracer)
    found = tracing.probe_layers(probes, tracer.take(), ("tree.",))
    return {
        "server.ping_rtt_us": found["ping.p50_us"],
        "server.get_overhead_us": found["get.overhead_us"],
        "server.write_overhead_us": found["put.overhead_us"],
        "client.get_p50_us": found["get.p50_us"],
        "client.get_miss_p50_us": found["get_miss.p50_us"],
        "client.put_p50_us": found["put.p50_us"],
        "client.scan_p50_us": found["scan.p50_us"],
        "client.multi_p50_us": found["multi.p50_us"],
        # PING does no work a span could explain; it is the floor.
        "trace.unattributed_frac": max(
            found[f"{kind}.unattributed"] for kind in kinds
            if kind != "ping"
        ),
    }


async def _probe_stacks(work: stores.WorkDir, tracer) -> Dict[str, float]:
    served_plan = streams.serve_mixed_plan(0, PROBE_KEYS, 1)
    served = _Served()
    await served.start(served_plan, work.fresh("probe-served"))
    found = await _served_probes(served.clients[0], served_plan.keys, tracer)
    await served.stop()
    served.tree.kill()
    cluster_plan = streams.cluster_repl_plan(0, PROBE_KEYS, 1)
    cluster = _Cluster()
    await cluster.start(cluster_plan, work.fresh("probe-cluster"))
    routed = await _cluster_probes(cluster.client, cluster_plan.keys, tracer)
    await cluster.stop()
    cluster.discard()
    found["trace.unattributed_frac"] = max(
        found["trace.unattributed_frac"],
        routed.pop("trace.unattributed_frac"),
    )
    found.update(routed)
    found["cluster.replication_tax"] = (
        found["cluster.put_p50_us"] / found["client.put_p50_us"]
    )
    return found


def serial_probes(work: stores.WorkDir, tracer) -> Dict[str, float]:
    """The per-request-type figures: serial (one request in flight)
    probes of a quiet KVServer and a quiet two-node cluster, each over a
    fixed store of ``PROBE_KEYS`` keys, with the wrappers on."""
    return asyncio.run(_probe_stacks(work, tracer))


def run_server(plan: streams.ServedPlan, work: stores.WorkDir, tracer,
               setups: int) -> Dict[str, object]:
    return asyncio.run(_serve_mixed(plan, work, tracer, setups))


# -- cluster_repl ---------------------------------------------------------------

NODES = ("a", "b")
SHARDS = 4


class _Cluster:
    """Two ClusterNodes, four shards, each shard's standby on the other
    node, synchronous replication, heartbeats at their default interval
    (leases lengthened, see ``PATIENCE_S``)."""

    async def start(self, plan: streams.ServedPlan, directory: str) -> None:
        self.directory = directory
        config = stores.engine_config(True)
        boot = ClusterMap.even(
            SHARDS, [NodeInfo(node, "127.0.0.1", 0) for node in NODES]
        )
        self.stores = [
            NodeStore(node, boot, config,
                      wal_dir=os.path.join(directory, node))
            for node in NODES
        ]
        self.nodes = [
            ClusterNode(store, host="127.0.0.1", port=0,
                        lease_timeout_s=4 * PATIENCE_S,
                        repl_timeout_s=PATIENCE_S)
            for store in self.stores
        ]
        for node in self.nodes:
            await node.start()
        self.map = ClusterMap.even(
            SHARDS,
            [NodeInfo(name, "127.0.0.1", node.port)
             for name, node in zip(NODES, self.nodes)],
            epoch=1, replicated=True,
        )
        # Push the live map (real ports, replica placement) over the wire:
        # each node adopts it and starts shipping to its standbys.
        for node in self.nodes:
            async with await KVClient.connect("127.0.0.1", node.port) as c:
                await c.command(["CLUSTER", self.map.to_json()])
        deadline = time.monotonic() + PATIENCE_S
        while any(
            store.promotable_shards() != self.map.replicas_of(store.node_id)
            for store in self.stores
        ):
            if time.monotonic() > deadline:
                raise TimeoutError("standbys never finished seeding")
            await asyncio.sleep(0.005)
        self.client = await ClusterClient.connect(
            "127.0.0.1", self.nodes[0].port, protocol_version=2,
            timeout_s=PATIENCE_S,
        )

        async def load(batches) -> None:
            for batch in batches:
                await self.client.batch(batch)

        await asyncio.gather(*(
            load(plan.preload[caller::streams.CALLERS])
            for caller in range(streams.CALLERS)
        ))
        for store in self.stores:
            store.flush()

    @property
    def trees(self) -> List[LSMTree]:
        """The serving (primary) trees of both nodes."""
        return [tree for store in self.stores
                for tree in store.trees.values()]

    def shipped(self) -> Tuple[int, int]:
        groups = ops = 0
        for node in self.nodes:
            for summary in node.health()["replication"].values():
                groups += summary["shipped_groups"]
                ops += summary["shipped_ops"]
        return groups, ops

    async def send(self, call: List[streams.Request]) -> List[Reply]:
        """One request through the routing client's typed, retrying API,
        its outcome put in wire-reply form for the shared checker."""
        (request,) = call
        try:
            if request.kind == "get":
                text = await self.client.get(request.key)
                return [["NONE"] if text is None else ["VALUE", text]]
            ops = [("put", key, streams.value(key, version))
                   for key, version in request.writes]
            if request.kind == "put":
                await self.client.put(ops[0][1], ops[0][2])
            else:
                await self.client.multi(ops)
            return [["OK"]]
        except (ReproError, ConnectionError, asyncio.TimeoutError) as exc:
            return [["ERR", str(exc)]]

    async def stop(self) -> None:
        await self.client.close()
        for node in self.nodes:
            await node.stop()

    def discard(self) -> None:
        for store in self.stores:
            store.kill()
        shutil.rmtree(self.directory)


async def _cluster_repl(plan: streams.ServedPlan, work: stores.WorkDir,
                        tracer, setups: int) -> Dict[str, object]:
    setup_times = []
    for attempt in range(setups):
        stack = _Cluster()
        started = time.perf_counter()
        await stack.start(plan, work.fresh("cluster"))
        setup_times.append(time.perf_counter() - started)
        if attempt < setups - 1:
            await stack.stop()
            stack.discard()
    trees = stack.trees
    model = Model(plan)
    senders = [stack.send] * len(plan.drivers)
    await _stream(plan, senders, model, warm=True, tracer=None)
    loaded = stores.snapshot(trees)
    shipped = stack.shipped()
    samples, started = await _stream(plan, senders, model, warm=False,
                                     tracer=tracer)
    groups, ops = stack.shipped()
    layers: Dict[str, Optional[float]] = {
        "cluster.ops_per_shipped_group": stores.ratio(
            ops - shipped[1], groups - shipped[0]
        ),
        "cluster.moved_redirects": float(stack.client.moved_redirects),
    }
    stream_spans = tracer.take() if tracer is not None else []
    await stack.stop()
    for store in stack.stores:
        store.flush()
        store.close()
    lifetime = stores.snapshot(trees)
    moved = stores.delta(lifetime, loaded)

    # Recover everything from node a's directory alone: its own shards
    # through NodeStore.recover (which reads the 2PC decision log), the
    # standby copies it holds of b's shards straight from their WALs.
    home = os.path.join(stack.directory, NODES[0])
    config = stores.recovery_config()
    primary = NodeStore.recover(NODES[0], config, home)
    standbys = {
        shard: LSMTree.recover(
            config, os.path.join(home, f"shard-{shard:02d}")
        )
        for shard in stack.map.replicas_of(NODES[0])
    }

    def get(key: str) -> Optional[str]:
        shard = stack.map.shard_index(key)
        if shard in standbys:
            return standbys[shard].get(key)
        return primary.get(key)

    lost = stores.read_back(get, model.expected())
    primary.close()
    for tree in standbys.values():
        tree.close()
    return _outcome(plan, model, samples, started, setup_times, lifetime,
                    moved, trees, lost, layers, stream_spans, tracer)


async def _cluster_probes(client: ClusterClient, keys: List[str],
                          tracer) -> Dict[str, float]:

    def puts(index: int, count: int) -> List[streams.BatchOp]:
        return [
            ("put", key, streams.value(key, index + 1))
            for key in (
                keys[(13 * (index * count + offset)) % len(keys)]
                for offset in range(count)
            )
        ]

    kinds = {
        "put": lambda i: client.put(*puts(i, 1)[0][1:]),
        "get": lambda i: client.get(keys[(7 * i) % len(keys)]),
        "multi": lambda i: client.multi(
            puts(i + PROBES_PER_KIND, streams.MULTI_OPS)
        ),
    }
    probes = await _probe_segment(kinds, tracer)
    found = tracing.probe_layers(probes, tracer.take(), ("node.",))
    return {
        "cluster.put_p50_us": found["put.p50_us"],
        "cluster.get_p50_us": found["get.p50_us"],
        "cluster.multi_p50_us": found["multi.p50_us"],
        "trace.unattributed_frac": max(
            found[f"{kind}.unattributed"] for kind in kinds
        ),
    }


def run_cluster(plan: streams.ServedPlan, work: stores.WorkDir, tracer,
                setups: int) -> Dict[str, object]:
    return asyncio.run(_cluster_repl(plan, work, tracer, setups))
