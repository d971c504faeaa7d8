"""Cluster smoke test: 3 nodes, live migration under load, node loss.

Run with::

    python examples/cluster_smoke.py

The distributed-serving drill CI runs end to end, against real
``python -m repro.cli cluster serve`` subprocesses (one per node):

1. ``cluster init`` a 6-shard map over three nodes a/b/c, start all
   three servers, and bootstrap a :class:`ClusterClient` over the wire
   from one node's ``CLUSTER`` reply.
2. Write across the whole key space through the client and read it all
   back — every key lands on its owner without a single redirect.
3. Migrate shard 0 from a to b *while a writer keeps acking puts*;
   assert zero acked-write loss, a bumped map epoch, and that the
   client chased the ``MOVED`` redirect to the new owner.
4. Kill node c outright; assert every shard owned by a/b keeps serving
   reads and writes while c's shards fail with a connection error —
   loud and retryable, never silently wrong.
5. Failover drill on a fresh 2-node *replicated* cluster
   (``cluster init --replicas``, short heartbeat/lease): SIGKILL the
   primary while a writer keeps acking puts, and assert the killed
   node's shards stay writable end to end — the survivor detects the
   silence, promotes its warm standbys behind an epoch bump, and the
   client rides the failover with zero failed writes and zero acked
   writes lost.
6. Migration onto the replica node: on another fresh replicated pair,
   preload one shard until ``cluster migrate`` outlasts several of its
   shipper's retries, then migrate it onto the node that holds its
   standby while a writer keeps acking puts. Zero acked writes lost, a
   bumped epoch, and the new owner's ``HEALTH`` lists the shard as
   owned and as neither replica nor receiving — one open tree per shard
   directory (the standby's slot is superseded by the migration, and
   the shipper opens no session under it).
7. Partition drill: a fresh primary/standby pair started with
   ``--self-fence``, every node-to-node link routed through an
   in-process :class:`repro.faults.net.NetProxy` via ``--peer-proxy``.
   Cut both node links under client load and assert the partitioned
   primary answers BUSY (no dual acks — it self-fenced) while the
   promoted standby keeps the writer acking; heal and assert both maps
   converge, the old primary demotes, and zero acked writes were lost.

Exits non-zero on any failure, so it doubles as a CI job.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cluster import ClusterClient, ClusterMap, NodeInfo  # noqa: E402
from repro.faults import NetFaultPlan, NetProxy  # noqa: E402
from repro.server import KVClient  # noqa: E402
from repro.server.client import BusyError  # noqa: E402

NUM_SHARDS = 6
NODE_IDS = ("a", "b", "c")
MOVING_SHARD = 0  # owned by a under the even 6-shard map


def _free_ports(count: int) -> list:
    sockets, ports = [], []
    for _ in range(count):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    return env


def _run_cli(args: list) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=_cli_env(),
        cwd=REPO_ROOT,
        check=True,
    )


def _spawn_node(
    data_dir: str, node_id: str, *extra: str
) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "cluster", "serve",
         "--data-dir", data_dir, "--node-id", node_id, "--background",
         *extra],
        env=_cli_env(),
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_listening(port: int, deadline_s: float = 20.0) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.5):
                return
        except OSError:
            time.sleep(0.05)
    raise AssertionError(f"no listener on port {port} after {deadline_s}s")


async def write_and_read_back(client: ClusterClient) -> None:
    keys = [f"user-{i:04d}" for i in range(120)]
    for start in range(0, len(keys), 24):
        window = keys[start:start + 24]
        await asyncio.gather(
            *(client.put(key, f"value-{key}") for key in window)
        )
    values = await asyncio.gather(*(client.get(key) for key in keys))
    assert values == [f"value-{key}" for key in keys]
    assert client.moved_redirects == 0, "fresh map should route first try"
    shards_touched = {client.map.shard_index(key) for key in keys}
    assert shards_touched == set(range(NUM_SHARDS))
    print(f"phase 1 ok: {len(keys)} keys across all {NUM_SHARDS} shards")


async def _start_writer(client: ClusterClient, prefix: str, value: str):
    """Keep acking windows of 8 puts across every shard; returns the
    acked-key list, the stop event and the task once demonstrably in
    flight."""
    acked: list = []
    stop = asyncio.Event()

    async def writer() -> None:
        index = 0
        while not stop.is_set():
            window = [f"{prefix}-{index + j:05d}" for j in range(8)]
            await asyncio.gather(*(client.put(key, value) for key in window))
            acked.extend(window)
            index += 8

    task = asyncio.create_task(writer())
    while len(acked) < 24:
        if task.done():
            task.result()
        await asyncio.sleep(0.01)
    return acked, stop, task


async def migrate_under_load(client: ClusterClient, admin_port: int) -> None:
    acked, stop, task = await _start_writer(client, "mig", "during-migration")
    admin = await KVClient.connect("127.0.0.1", admin_port)
    try:
        reply = await admin.command(["MIGRATE", str(MOVING_SHARD), "b"])
    finally:
        await admin.close()
    assert reply[0] == "OK", reply
    stats = json.loads(reply[1])

    stop.set()
    await task
    values = await asyncio.gather(*(client.get(key) for key in acked))
    lost = [k for k, v in zip(acked, values) if v != "during-migration"]
    assert not lost, f"{len(lost)} acked writes lost across migration"

    await client.refresh()
    assert client.map.epoch >= 1, client.map.epoch
    assert client.map.owner_id(MOVING_SHARD) == "b"
    # The writer spans every shard, so some put hit the moved shard and
    # was bounced to its new owner via MOVED.
    assert client.moved_redirects >= 1
    print(
        f"phase 2 ok: shard {MOVING_SHARD} a->b with {len(acked)} acked "
        f"writes, 0 lost; {stats['snapshot_pairs']} snapshot pairs, "
        f"{stats['tail_ops']} tail ops, fence {stats['fence_ms']:.2f}ms, "
        f"epoch {client.map.epoch}"
    )


async def survive_node_loss(
    client: ClusterClient, victim: subprocess.Popen
) -> None:
    victim.kill()
    victim.wait(timeout=10)

    dead_shards = set(client.map.shards_of("c"))
    assert dead_shards, "c must still own shards for the drill to bite"
    live, dead = [], []
    for i in range(400):
        key = f"post-loss-{i:04d}"
        (dead if client.map.shard_index(key) in dead_shards else live).append(
            key
        )
        if len(live) >= 40 and len(dead) >= 2:
            break
    assert len(live) >= 40 and len(dead) >= 2

    # Every shard on the surviving nodes keeps serving writes and reads.
    await asyncio.gather(*(client.put(key, "survivor") for key in live))
    values = await asyncio.gather(*(client.get(key) for key in live))
    assert all(value == "survivor" for value in values)

    # The dead node's shards fail loudly with a connection error.
    failures = 0
    for key in dead[:2]:
        try:
            await client.put(key, "lost-node")
        except (ConnectionError, OSError):
            failures += 1
    assert failures == 2, f"only {failures}/2 dead-shard writes errored"
    print(
        f"phase 3 ok: node c killed; {len(live)} keys on surviving "
        f"shards kept serving, {len(dead_shards)} dead shards error "
        "loudly"
    )


async def drive(ports: list, processes: dict) -> None:
    async with await ClusterClient.connect("127.0.0.1", ports[0]) as client:
        await write_and_read_back(client)
        await migrate_under_load(client, ports[0])
        await survive_node_loss(client, processes["c"])


async def _wait_streaming(port: int, deadline_s: float = 20.0) -> None:
    """Poll HEALTH until every shipper on the node reports streaming."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        node = await KVClient.connect("127.0.0.1", port)
        try:
            health = json.loads((await node.command(["HEALTH"]))[1])
        finally:
            await node.close()
        shippers = health.get("replication", {})
        if shippers and all(
            summary["state"] == "streaming" for summary in shippers.values()
        ):
            return
        await asyncio.sleep(0.1)
    raise AssertionError(f"node on port {port} never finished seeding")


async def failover_drive(ports: list, processes: dict) -> None:
    # bootstrap from the survivor-to-be so the seed connection outlives
    # the kill; a's shards still route to a via the map
    async with await ClusterClient.connect(
        "127.0.0.1", ports[1], retry_s=8.0
    ) as client:
        for port in ports:
            await _wait_streaming(port)
        dead_shards = set(client.map.shards_of("a"))
        assert dead_shards, "a must own shards for the drill to bite"
        acked: list = []
        failures: list = []
        stop = asyncio.Event()

        async def writer() -> None:
            index = 0
            while not stop.is_set():
                key = f"fo-{index:05d}"
                try:
                    await client.put(key, "failover")
                except Exception as exc:  # any app-visible error
                    failures.append(f"{key}: {exc!r}")
                else:
                    acked.append(key)
                index += 1
                await asyncio.sleep(0)

        task = asyncio.create_task(writer())
        while len(acked) < 40:  # writer is demonstrably in flight
            if task.done():
                task.result()
            await asyncio.sleep(0.01)

        processes["a"].kill()  # no goodbye: crash-stop
        processes["a"].wait(timeout=10)
        killed = time.monotonic()
        target = len(acked) + 120
        while len(acked) < target:
            if task.done():
                task.result()
            assert time.monotonic() - killed < 30.0, (
                f"writer stalled after the kill: {len(acked)}/{target} "
                f"acks, failures={failures[:3]}"
            )
            await asyncio.sleep(0.01)
        stop.set()
        await task

        assert not failures, (
            f"{len(failures)} writes failed across the failover: "
            f"{failures[:3]}"
        )
        values = await asyncio.gather(*(client.get(key) for key in acked))
        lost = [k for k, v in zip(acked, values) if v != "failover"]
        assert not lost, f"{len(lost)} acked writes lost across failover"
        await client.refresh()
        assert client.map.epoch >= 1, client.map.epoch
        for shard in dead_shards:
            assert client.map.owner_id(shard) == "b", (
                shard, client.map.owner_id(shard)
            )
        touched = {client.map.shard_index(key) for key in acked}
        assert touched & dead_shards, "no write exercised a dead shard"
        print(
            f"phase 4 ok: node a SIGKILL'd under load; {len(acked)} acked "
            f"writes, 0 failed, 0 lost; shards {sorted(dead_shards)} "
            f"stayed writable via b's promoted standbys (epoch "
            f"{client.map.epoch})"
        )


async def migrate_onto_replica_drive(ports: list, processes: dict) -> None:
    shard = 0  # a owns it, b holds its standby
    async with await ClusterClient.connect("127.0.0.1", ports[0]) as client:
        for port in ports:
            await _wait_streaming(port)
        assert client.map.owner_id(shard) == "a"
        assert client.map.replica_id(shard) == "b"
        epoch_before = client.map.epoch
        # Enough keys that the migration outlasts several retries of the
        # shard's shipper (first one 0.13–0.25 s after its stream dies).
        preload = []
        index = 0
        while len(preload) < 12000:
            key = f"big-{index:06d}"
            if client.map.shard_index(key) == shard:
                preload.append(key)
            index += 1
        owner = await KVClient.connect("127.0.0.1", ports[0])
        try:
            for start in range(0, len(preload), 400):
                await owner.batch(
                    [("put", key, "x" * 64)
                     for key in preload[start:start + 400]]
                )
        finally:
            await owner.close()

        acked, stop, task = await _start_writer(client, "rmig", "during")
        started = time.perf_counter()
        await asyncio.to_thread(
            _run_cli,
            ["cluster", "migrate", "--port", str(ports[0]),
             "--shard", str(shard), "--to", "b"],
        )
        migrate_s = time.perf_counter() - started
        stop.set()
        await task

        values = await asyncio.gather(*(client.get(key) for key in acked))
        lost = [k for k, v in zip(acked, values) if v != "during"]
        assert not lost, f"{len(lost)} acked writes lost across migration"
        for start in range(0, len(preload), 400):
            window = preload[start:start + 400]
            values = await asyncio.gather(*(client.get(k) for k in window))
            assert all(v == "x" * 64 for v in values), "preloaded key lost"
        await client.refresh()
        assert client.map.epoch > epoch_before, client.map.epoch
        assert client.map.owner_id(shard) == "b"
        new_owner = await KVClient.connect("127.0.0.1", ports[1])
        try:
            health = await new_owner.health()
        finally:
            await new_owner.close()
        assert shard in health["owned_shards"], health["owned_shards"]
        assert shard not in health["replica_shards"], (
            f"shard {shard} is owned *and* a standby on b: two trees on "
            "one directory"
        )
        assert shard not in health["receiving_shards"]
        print(
            f"phase 5 ok: shard {shard} ({len(preload)} keys) migrated "
            f"onto its replica node in {migrate_s:.2f}s under load; "
            f"{len(acked)} acked writes, 0 lost; b owns it and holds no "
            f"second tree for it (epoch {client.map.epoch})"
        )


def _replicated_pair_main(prefix: str, drive, clean_exits: tuple) -> None:
    """A fresh 2-node cluster (replicated map, fast lease) for ``drive``;
    the nodes in ``clean_exits`` must shut down in good order."""
    ports = _free_ports(2)
    with tempfile.TemporaryDirectory(prefix=prefix) as data_dir:
        _run_cli(
            ["cluster", "init", "--data-dir", data_dir, "--shards", "4",
             "--node", f"a=127.0.0.1:{ports[0]}",
             "--node", f"b=127.0.0.1:{ports[1]}",
             "--replicas"]
        )
        processes = {
            node_id: _spawn_node(
                data_dir, node_id,
                "--heartbeat-interval", "0.25", "--lease-timeout", "1.0",
            )
            for node_id in ("a", "b")
        }
        try:
            for port in ports:
                _wait_listening(port)
            asyncio.run(drive(ports, processes))
        finally:
            for process in processes.values():
                if process.poll() is None:
                    process.send_signal(signal.SIGINT)
            for node_id, process in processes.items():
                try:
                    process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    process.kill()
                    raise AssertionError(f"node {node_id} hung on SIGINT")
        for node_id in clean_exits:
            code = processes[node_id].returncode
            assert code == 0, f"node {node_id} exited {code}"


async def partition_drive(
    ports: list, proxy_ports: list, plan: NetFaultPlan
) -> None:
    proxies = [
        await NetProxy(
            "127.0.0.1", ports[1], src="a", dst="b",
            plan=plan, port=proxy_ports[0],
        ).start(),
        await NetProxy(
            "127.0.0.1", ports[0], src="b", dst="a",
            plan=plan, port=proxy_ports[1],
        ).start(),
    ]
    try:
        await _wait_streaming(ports[0])
        # bootstrap from the standby so the seed connection survives the
        # cut; writes still route to a (it owns every shard)
        async with await ClusterClient.connect(
            "127.0.0.1", ports[1], retry_s=10.0
        ) as client:
            assert set(client.map.shards_of("a")) == set(range(4)), (
                "partition drill expects the designated topology"
            )
            acked: list = []
            failures: list = []
            stop = asyncio.Event()

            async def writer() -> None:
                index = 0
                while not stop.is_set():
                    key = f"pt-{index:05d}"
                    try:
                        await client.put(key, "partition")
                    except Exception as exc:  # any app-visible error
                        failures.append(f"{key}: {exc!r}")
                    else:
                        acked.append(key)
                    index += 1
                    await asyncio.sleep(0)

            task = asyncio.create_task(writer())
            while len(acked) < 40:  # writer is demonstrably in flight
                if task.done():
                    task.result()
                await asyncio.sleep(0.01)

            plan.partition(["a"], ["b"])  # full cut, both directions
            cut = time.monotonic()
            # The writer must ride the partition: a self-fences its
            # now-unreplicatable shards, b's lease on a expires and it
            # promotes its warm standbys, and the client chases the
            # BUSY replies to b's bumped-epoch map.
            target = len(acked) + 120
            while len(acked) < target:
                if task.done():
                    task.result()
                assert time.monotonic() - cut < 30.0, (
                    f"writer stalled across the partition: "
                    f"{len(acked)}/{target} acks, failures={failures[:3]}"
                )
                await asyncio.sleep(0.01)

            # No dual acks: the cut-off primary must refuse direct
            # writes with BUSY while the standby's promotion is live.
            probe_deadline = time.monotonic() + 10.0
            while True:
                probe = await KVClient.connect(
                    "127.0.0.1", ports[0], timeout_s=2.0,
                    retry_s=0.0,
                )
                try:
                    await probe.put("pt-fence-probe", "must-not-ack")
                except BusyError:
                    break  # fenced: exactly the refusal we want
                except (ConnectionError, OSError):
                    pass  # transient; a is mid-fence or busy — retry
                else:
                    raise AssertionError(
                        "partitioned primary acked a write after losing "
                        "its standby: dual-ack window"
                    )
                finally:
                    await probe.close()
                assert time.monotonic() < probe_deadline, (
                    "cut-off primary never started refusing writes"
                )
                await asyncio.sleep(0.1)

            plan.clear()  # heal
            # Convergence: a hears b's bumped epoch over the healed
            # link, demotes, and both maps agree that b owns everything.
            heal_deadline = time.monotonic() + 20.0
            while True:
                maps = {}
                for node_id, port in zip(("a", "b"), ports):
                    node = await KVClient.connect("127.0.0.1", port)
                    try:
                        reply = await node.command(["CLUSTER"])
                    finally:
                        await node.close()
                    maps[node_id] = ClusterMap.from_json(reply[1])
                converged = (
                    maps["a"].epoch == maps["b"].epoch
                    and maps["a"].epoch >= 1
                    and not maps["a"].shards_of("a")
                    and set(maps["b"].shards_of("b")) == set(range(4))
                )
                if converged:
                    break
                assert time.monotonic() < heal_deadline, (
                    f"maps never converged after heal: "
                    f"a=epoch {maps['a'].epoch} owns "
                    f"{maps['a'].shards_of('a')}, "
                    f"b=epoch {maps['b'].epoch}"
                )
                await asyncio.sleep(0.2)

            stop.set()
            await task
            assert not failures, (
                f"{len(failures)} writes failed across the partition: "
                f"{failures[:3]}"
            )
            values = await asyncio.gather(
                *(client.get(key) for key in acked)
            )
            lost = [k for k, v in zip(acked, values) if v != "partition"]
            assert not lost, (
                f"{len(lost)} acked writes lost across the partition"
            )
            await client.refresh()
            print(
                f"phase 6 ok: a↔b partitioned under load; a "
                f"self-fenced (BUSY probe), b promoted, {len(acked)} "
                f"acked writes, 0 failed, 0 lost; maps converged at "
                f"epoch {client.map.epoch} after heal"
            )
    finally:
        for proxy in proxies:
            await proxy.stop()


def partition_main() -> None:
    """Phase 6's own cluster: designated primary/standby pair whose
    node links run through in-process fault proxies."""
    ports = _free_ports(4)  # 2 node binds + 2 proxy binds
    node_ports, proxy_ports = ports[:2], ports[2:]
    nodes = [
        NodeInfo("a", "127.0.0.1", node_ports[0]),
        NodeInfo("b", "127.0.0.1", node_ports[1]),
    ]
    # Designated topology — a owns every shard, b is a pure standby —
    # so a symmetric cut has exactly one legal outcome (b promotes, a
    # fences) instead of two nodes promoting each other's shards.
    cluster_map = ClusterMap(
        ["a"] * 4, nodes, epoch=0, replicas=["b"] * 4
    )
    plan = NetFaultPlan(seed=29)
    with tempfile.TemporaryDirectory(prefix="partition-smoke-") as data_dir:
        for node in nodes:
            node_dir = os.path.join(data_dir, node.node_id)
            os.makedirs(node_dir, exist_ok=True)
            cluster_map.save(node_dir)
        processes = {
            node_id: _spawn_node(
                data_dir, node_id,
                "--heartbeat-interval", "0.25", "--lease-timeout", "1.0",
                "--repl-timeout", "0.5", "--self-fence",
                "--peer-proxy", f"{other}=127.0.0.1:{proxy_port}",
            )
            for node_id, other, proxy_port in (
                ("a", "b", proxy_ports[0]),
                ("b", "a", proxy_ports[1]),
            )
        }
        try:
            for port in node_ports:
                _wait_listening(port)
            asyncio.run(partition_drive(node_ports, proxy_ports, plan))
        finally:
            for process in processes.values():
                if process.poll() is None:
                    process.send_signal(signal.SIGINT)
            for node_id, process in processes.items():
                try:
                    process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    process.kill()
                    raise AssertionError(f"node {node_id} hung on SIGINT")
        # Both nodes survived the drill and must shut down in good order.
        for node_id, process in processes.items():
            code = process.returncode
            assert code == 0, f"node {node_id} exited {code}"


def main() -> int:
    started = time.perf_counter()
    ports = _free_ports(len(NODE_IDS))
    with tempfile.TemporaryDirectory(prefix="cluster-smoke-") as data_dir:
        _run_cli(
            ["cluster", "init", "--data-dir", data_dir,
             "--shards", str(NUM_SHARDS)]
            + [
                arg
                for node_id, port in zip(NODE_IDS, ports)
                for arg in ("--node", f"{node_id}=127.0.0.1:{port}")
            ]
        )
        processes = {
            node_id: _spawn_node(data_dir, node_id) for node_id in NODE_IDS
        }
        try:
            for port in ports:
                _wait_listening(port)
            asyncio.run(drive(ports, processes))
        finally:
            for node_id, process in processes.items():
                if process.poll() is None:
                    process.send_signal(signal.SIGINT)
            for node_id, process in processes.items():
                try:
                    process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    process.kill()
                    raise AssertionError(f"node {node_id} hung on SIGINT")
        # a and b were SIGINT'd and must have shut down in good order;
        # c was killed mid-run, so any exit status goes.
        for node_id in ("a", "b"):
            code = processes[node_id].returncode
            assert code == 0, f"node {node_id} exited {code}"
    # b was SIGINT'd and must shut down in good order; a was killed.
    _replicated_pair_main("failover-smoke-", failover_drive, ("b",))
    _replicated_pair_main(
        "replica-migrate-smoke-", migrate_onto_replica_drive, ("a", "b")
    )
    partition_main()
    print(f"cluster smoke passed in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
