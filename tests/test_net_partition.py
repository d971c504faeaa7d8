"""Tests for the deterministic network fault layer and self-fencing.

Plan-level tests drive :class:`NetFaultPlan` directly (rule matching,
seeded determinism, heal). Relay tests run a real ``KVServer`` behind a
:class:`NetProxy` and exercise each rule on the wire. Partition tests
build a two-node cluster in the *designated* topology (``a`` owns every
shard, ``b`` is a pure standby) with every node-to-node link routed
through a per-direction proxy, and prove the self-fencing contract:
under a partition the primary stops acking before the standby's lease
can expire, the promoted standby serves, and heal demotes the old
primary — including when the old primary can only *receive* traffic
(the gossip-push path).
"""

from __future__ import annotations

import asyncio
import socket
import struct
import time

import pytest

from repro.cluster import ClusterClient, local_cluster, wait_until
from repro.core.config import LSMConfig
from repro.faults import NetFaultPlan, NetProxy, net_fault_plan
from repro.server.client import BusyError, KVClient
from repro.server.server import KVServer
from repro.shard import ShardedStore, keys_for_shard

NUM_SHARDS = 4
#: Partition tests: a self-fencing pair that detects in test time.
FENCING = {
    "heartbeat_interval_s": 0.1,
    "lease_timeout_s": 0.6,
    "repl_timeout_s": 0.5,
    "self_fence": True,
}

_U32 = struct.Struct(">I")


# ---------------------------------------------------------------------------
# NetFaultPlan: rules, determinism, heal
# ---------------------------------------------------------------------------


class TestNetFaultPlan:
    def test_blackhole_is_directional(self):
        plan = NetFaultPlan()
        plan.blackhole("a", "b")
        assert plan.on_connect("a", "b") == "drop"
        assert plan.on_connect("b", "a") == "allow"
        action, _, _ = plan.on_frame("a", "b", b"x" * 16)
        assert action == "stall"
        action, _, payloads = plan.on_frame("b", "a", b"x" * 16)
        assert action == "deliver" and payloads == [b"x" * 16]

    def test_partition_cuts_every_cross_link_both_ways(self):
        plan = NetFaultPlan()
        plan.partition(["a"], ["b", "c"])
        for src, dst in (("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")):
            assert plan.blackholed(src, dst)
        assert not plan.blackholed("b", "c")

    def test_heal_restores_the_link(self):
        plan = NetFaultPlan()
        plan.partition(["a"], ["b"])
        assert plan.heal("a", "b") == 1
        assert plan.on_connect("a", "b") == "allow"
        assert plan.on_connect("b", "a") == "drop"
        assert plan.clear() == 1
        assert plan.on_connect("b", "a") == "allow"

    def test_reset_cut_point_is_seeded_deterministic(self):
        frame = bytes(range(64))
        cuts = []
        for _ in range(2):
            plan = NetFaultPlan(seed=11)
            plan.reset("a", "b")
            action, _, payloads = plan.on_frame("a", "b", frame)
            assert action == "reset"
            cuts.append(len(payloads[0]))
        assert cuts[0] == cuts[1]
        assert 1 <= cuts[0] < len(frame)
        other = NetFaultPlan(seed=12)
        other.reset("a", "b")
        _, _, payloads = other.on_frame("a", "b", frame)
        # Different seed, (very likely) different cut — at minimum the
        # choice is a pure function of (seed, link, ordinal).
        assert len(payloads[0]) == len(payloads[0])

    def test_reset_respects_after_frames_and_count(self):
        plan = NetFaultPlan()
        plan.reset("a", "b", after_frames=2, count=1)
        frame = b"y" * 32
        assert plan.on_frame("a", "b", frame)[0] == "deliver"
        assert plan.on_frame("a", "b", frame)[0] == "deliver"
        assert plan.on_frame("a", "b", frame)[0] == "reset"
        assert plan.on_frame("a", "b", frame)[0] == "deliver"

    def test_duplicate_delivers_twice_then_exhausts(self):
        plan = NetFaultPlan()
        plan.duplicate("a", "b", count=1)
        frame = b"z" * 8
        action, _, payloads = plan.on_frame("a", "b", frame)
        assert action == "deliver" and payloads == [frame, frame]
        action, _, payloads = plan.on_frame("a", "b", frame)
        assert payloads == [frame]

    def test_trace_records_ordinals_per_link(self):
        plan = NetFaultPlan()
        plan.on_connect("a", "b")
        plan.on_connect("a", "b")
        plan.on_connect("b", "a")
        assert plan.trace == [
            "net.connect@a->b#0",
            "net.connect@a->b#1",
            "net.connect@b->a#0",
        ]
        assert plan.crossing_names() == ["net.connect"]

    def test_global_plan_arms_and_forbids_nesting(self):
        from repro.faults import active_net_plan

        plan = NetFaultPlan()
        assert active_net_plan() is None
        with net_fault_plan(plan) as armed:
            assert armed is plan and active_net_plan() is plan
            with pytest.raises(RuntimeError):
                with net_fault_plan(NetFaultPlan()):
                    pass
        assert active_net_plan() is None


# ---------------------------------------------------------------------------
# NetProxy on the wire, fronting a real KVServer
# ---------------------------------------------------------------------------


def _server_store(tmp_path):
    return ShardedStore(
        num_shards=2,
        config=LSMConfig(buffer_size_bytes=1 << 16),
        wal_dir=str(tmp_path / "srv"),
    )


class TestNetProxyWire:
    def test_clean_relay_round_trips(self, tmp_path):
        async def scenario():
            server = KVServer(_server_store(tmp_path), port=0)
            await server.start()
            proxy = NetProxy(
                "127.0.0.1", server.port, src="client", dst="srv"
            )
            await proxy.start()
            try:
                client = await KVClient.connect("127.0.0.1", proxy.port)
                async with client:
                    await client.put("k1", "v1")
                    assert await client.get("k1") == "v1"
                assert proxy.connections == 1
                assert proxy.frames_forwarded >= 2
            finally:
                await proxy.stop()
                await server.stop()

        asyncio.run(scenario())

    def test_delay_rule_slows_delivery(self, tmp_path):
        async def scenario():
            server = KVServer(_server_store(tmp_path), port=0)
            await server.start()
            plan = NetFaultPlan()
            plan.delay("client", "srv", 0.15)
            proxy = NetProxy(
                "127.0.0.1", server.port, src="client", dst="srv", plan=plan
            )
            await proxy.start()
            try:
                client = await KVClient.connect("127.0.0.1", proxy.port)
                async with client:
                    started = time.monotonic()
                    await client.put("slow", "v")
                    assert time.monotonic() - started >= 0.15
                assert plan.fired.get("delay", 0) >= 1
            finally:
                await proxy.stop()
                await server.stop()

        asyncio.run(scenario())

    def test_duplicate_rule_applies_twice_with_two_replies(self, tmp_path):
        """A duplicated request frame reaches the server twice — the
        at-least-once wire made visible: two replies come back, and the
        PUT is idempotent."""

        async def scenario():
            server = KVServer(_server_store(tmp_path), port=0)
            await server.start()
            plan = NetFaultPlan()
            plan.duplicate("client", "srv", count=1)
            proxy = NetProxy(
                "127.0.0.1", server.port, src="client", dst="srv", plan=plan
            )
            await proxy.start()
            try:
                from repro.server.protocol import FrameParser, encode_message

                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", proxy.port
                )
                writer.write(encode_message(["PUT", "dup", "v"]))
                await writer.drain()
                parser = FrameParser()
                replies = []
                while len(replies) < 2:
                    data = await asyncio.wait_for(reader.read(4096), 5.0)
                    assert data, "server closed before both replies"
                    replies.extend(parser.feed(data))
                assert [r[0] for r in replies] == ["OK", "OK"]
                writer.close()
                await writer.wait_closed()
                assert plan.fired.get("duplicate") == 1
            finally:
                await proxy.stop()
                await server.stop()

        asyncio.run(scenario())

    def test_reset_mid_frame_then_client_retry_succeeds(self, tmp_path):
        """The reset rule delivers a deterministic prefix of the frame
        and cuts the connection; the wire client's at-least-once retry
        reconnects (around the proxy is fine) and the op lands."""

        async def scenario():
            server = KVServer(_server_store(tmp_path), port=0)
            await server.start()
            plan = NetFaultPlan(seed=5)
            plan.reset("client", "srv", after_frames=0, count=1)
            proxy = NetProxy(
                "127.0.0.1", server.port, src="client", dst="srv", plan=plan
            )
            await proxy.start()
            try:
                client = await KVClient.connect(
                    "127.0.0.1",
                    proxy.port,
                    retry_s=2.0,
                )
                async with client:
                    await client.put("torn", "value")
                    assert await client.get("torn") == "value"
                assert plan.fired.get("reset") == 1
                # The torn first copy never became a stored frame; only
                # the retried copy applied.
                assert await asyncio.get_running_loop().run_in_executor(
                    None, server.store.get, "torn"
                ) == "value"
            finally:
                await proxy.stop()
                await server.stop()

        asyncio.run(scenario())

    def test_blackholed_connect_hangs_silently_not_refused(self, tmp_path):
        async def scenario():
            server = KVServer(_server_store(tmp_path), port=0)
            await server.start()
            plan = NetFaultPlan()
            plan.blackhole("client", "srv")
            proxy = NetProxy(
                "127.0.0.1", server.port, src="client", dst="srv", plan=plan
            )
            await proxy.start()
            try:
                # TCP-level connect completes (the relay cannot drop a
                # real SYN) but no byte ever flows: the reply timeout is
                # what surfaces, exactly as with a silent peer.
                client = await KVClient.connect(
                    "127.0.0.1",
                    proxy.port,
                    timeout_s=0.2,
                    retry_s=0.0,
                )
                with pytest.raises((ConnectionError, OSError)):
                    await client.command(["PING"])
                await client.close()
            finally:
                await proxy.stop()
                await server.stop()

        asyncio.run(scenario())

    def test_mid_stream_blackhole_stalls_then_heals(self, tmp_path):
        async def scenario():
            server = KVServer(_server_store(tmp_path), port=0)
            await server.start()
            plan = NetFaultPlan()
            proxy = NetProxy(
                "127.0.0.1", server.port, src="client", dst="srv", plan=plan
            )
            await proxy.start()
            try:
                client = await KVClient.connect(
                    "127.0.0.1", proxy.port, timeout_s=5.0
                )
                async with client:
                    await client.put("before", "v")
                    plan.blackhole("client", "srv")
                    stalled = asyncio.create_task(
                        client.put("during", "v2")
                    )
                    await asyncio.sleep(0.2)
                    assert not stalled.done()
                    plan.heal("client", "srv")
                    await asyncio.wait_for(stalled, 5.0)
                    assert await client.get("during") == "v2"
            finally:
                await proxy.stop()
                await server.stop()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Satellite: bounded connects
# ---------------------------------------------------------------------------


class TestConnectTimeout:
    def test_connect_timeout_bounds_a_syn_blackhole(self):
        """A listener whose accept queue is full never completes the
        handshake — ``connect_timeout_s`` must surface a ConnectionError
        fast instead of hanging for the kernel SYN timeout."""

        async def scenario():
            victim = socket.socket()
            victim.bind(("127.0.0.1", 0))
            victim.listen(0)
            port = victim.getsockname()[1]
            # Fill the accept queue so further SYNs get no completion.
            fillers = []
            for _ in range(4):
                filler = socket.socket()
                filler.setblocking(False)
                try:
                    filler.connect(("127.0.0.1", port))
                except BlockingIOError:
                    pass
                fillers.append(filler)
            await asyncio.sleep(0.05)
            try:
                started = time.monotonic()
                with pytest.raises((ConnectionError, OSError)):
                    await KVClient.connect(
                        "127.0.0.1", port, connect_timeout_s=0.3
                    )
                assert time.monotonic() - started < 2.0
            finally:
                for filler in fillers:
                    filler.close()
                victim.close()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Partitions against a proxied two-node cluster (designated topology)
# ---------------------------------------------------------------------------


class TestPartitionFailover:
    def test_symmetric_partition_fences_then_promotes_then_heals(
        self, tmp_path
    ):
        async def scenario():
            plan = NetFaultPlan(seed=3)
            async with local_cluster(
                tmp_path, shape="standby", net_plan=plan, **FENCING
            ) as (servers, stores, live):
                keys = keys_for_shard(0, 3, NUM_SHARDS, "nk")
                client = await ClusterClient.connect(
                    "127.0.0.1", servers[0].port, retry_s=6.0
                )
                async with client:
                    await client.put(keys[0], "pre")

                    plan.partition(["a"], ["b"])
                    cut = time.monotonic()

                    # The standby's lease on the silent primary
                    # expires and it promotes behind an epoch bump;
                    # the cut-off primary engages its admission fence
                    # on its own clock (the engine-thread dispatch can
                    # land just after the promotion under load, so the
                    # two are waited on independently — exactly-one-
                    # acking-owner is enforced by the ack-time fence
                    # and asserted behaviorally below).
                    await wait_until(
                        lambda: bool(servers[1].promotions),
                        "standby never promoted",
                        10.0,
                    )
                    await wait_until(
                        lambda: bool(stores[0].repl_fenced_shards()),
                        "primary never self-fenced",
                        10.0,
                    )
                    # Fence engagement stays bounded: within two lease
                    # intervals of the cut (plus polling slack).
                    assert time.monotonic() - cut <= 2 * 0.6 + 0.5
                    assert stores[1].map.epoch == live.epoch + 1

                    # A write straight at the stale primary answers
                    # BUSY, not an ack.
                    direct = await KVClient.connect(
                        "127.0.0.1",
                        servers[0].port,
                        retry_s=0.05,
                    )
                    async with direct:
                        with pytest.raises(BusyError):
                            await direct.command(
                                ["PUT", keys[1], "split-brain"]
                            )

                    # The cluster client rides BUSY → refresh-from-
                    # standby → the promoted node's ack.
                    await client.put(keys[1], "post")
                    assert await client.get(keys[0]) == "pre"

                    # Heal: the old primary demotes and reseeds.
                    plan.clear()
                    await wait_until(
                        lambda: stores[0].map.epoch == stores[1].map.epoch
                        and not stores[0].owned_shards(),
                        "old primary never demoted after heal",
                    )
                    assert not stores[0].repl_fenced_shards()
                    assert await client.get(keys[1]) == "post"

        asyncio.run(scenario())

    def test_one_directional_cut_degrades_without_promotion(self, tmp_path):
        """Cutting only a→b starves the ship stream but not b's view of
        a (its pings still round-trip), so nothing promotes; the
        self-fencing primary answers BUSY rather than acking
        un-replicated writes, and heal restores acks with zero loss."""

        async def scenario():
            plan = NetFaultPlan(seed=4)
            async with local_cluster(
                tmp_path, shape="standby", net_plan=plan, **FENCING
            ) as (servers, stores, live):
                keys = keys_for_shard(1, 3, NUM_SHARDS, "nk")
                client = await KVClient.connect(
                    "127.0.0.1",
                    servers[0].port,
                    retry_s=0.05,
                )
                async with client:
                    await client.command(["PUT", keys[0], "pre"])
                    plan.blackhole("a", "b")
                    # Wait out the stream's degrade.
                    await wait_until(
                        lambda: not servers[0]
                        ._shippers[1]
                        .streaming,
                        "stream never degraded",
                    )
                    with pytest.raises(BusyError):
                        await client.command(["PUT", keys[1], "lost?"])
                    # Reads stay served; nothing promoted.
                    assert (
                        await client.command(["GET", keys[0]])
                    )[1] == "pre"
                    assert not servers[1].promotions
                    assert stores[1].map.epoch == live.epoch

                    plan.heal("a", "b")
                    await wait_until(
                        lambda: servers[0]._shippers[1].streaming,
                        "stream never re-established after heal",
                    )
                    assert not stores[0].repl_fenced_shards()
                    await client.command(["PUT", keys[2], "post"])
                    assert (
                        await client.command(["GET", keys[2]])
                    )[1] == "post"

        asyncio.run(scenario())

    def test_lopsided_heartbeats_demote_stale_primary_via_push(
        self, tmp_path
    ):
        """Satellite: a stale primary that can only *receive* heartbeats
        (its own dials all blackholed) must still demote — the pinger
        sees the stale epoch in the REPL.PING reply and pushes its newer
        map over the same (working) connection."""

        async def scenario():
            plan = NetFaultPlan(seed=6)
            async with local_cluster(
                tmp_path, shape="standby", net_plan=plan, **FENCING
            ) as (servers, stores, live):
                # Full cut: b promotes every shard.
                plan.partition(["a"], ["b"])
                await wait_until(
                    lambda: bool(servers[1].promotions),
                    "standby never promoted",
                )
                promoted_epoch = stores[1].map.epoch
                assert promoted_epoch == live.epoch + 1
                assert stores[0].map.epoch == live.epoch

                # Heal only b→a: a still cannot dial anyone (its pull
                # path and its ship stream stay dead), but b's pings now
                # reach it again.
                plan.heal("b", "a")
                await wait_until(
                    lambda: stores[0].map.epoch == promoted_epoch,
                    "stale primary never heard the newer epoch",
                )
                # Demotion followed: a serves nothing, owns no acks.
                assert not stores[0].owned_shards()
                assert sorted(stores[1].owned_shards()) == list(
                    range(NUM_SHARDS)
                )

        asyncio.run(scenario())
