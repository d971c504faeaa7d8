"""E29 — Network partition: self-fencing primary, availability recovery.

Claim under reproduction: a partitioned primary *fences itself* — it
stops acking sync-replicated writes the moment it can no longer reach
its standby, answering ``BUSY`` instead — so the "exactly one node acks
writes per shard at every instant" invariant survives partitions, and
once the standby's lease expires and it promotes, client availability
returns to 1.0 with no operator in the loop.

The experiment runs a 2-node in-process cluster in the designated
topology (node ``a`` owns every shard, ``b`` is a pure warm standby),
with each node-to-node link routed through a
:class:`repro.faults.net.NetProxy` driven by a seeded
:class:`NetFaultPlan`. Two acts:

1. **Asymmetric cut** (``a -> b`` blackholed, ``b -> a`` intact): ``b``
   still sees ``a`` alive — heartbeats flow over the intact direction —
   so nobody promotes; ``a``'s shipping is dead, so its self-fence must
   start refusing writes. This is fencing *without* failover: safety
   alone, measured as cut-to-first-BUSY latency.
2. **Escalation to a full partition**: ``b``'s lease on ``a`` expires,
   it promotes behind an epoch bump, and the ``ClusterClient`` writer —
   which rode the fence window on BUSY retries and replica refreshes —
   resumes acking against ``b``. After the heal, ``a`` hears the bumped
   epoch and demotes.

Headline metrics:

* **cut-to-fence latency** — first BUSY from the partitioned primary,
  bounded by 2 lease intervals;
* **escalation-to-promotion latency** — bounded by 2 lease intervals;
* **write availability** — the cluster-client writer must see zero
  failed writes (1.0 end to end, no manual intervention);
* **acked-write loss** — every write acked by either node reads back
  after the failover (0 lost);
* **dual acks** — the primary's last ack must precede the promotion.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from typing import List

from repro.cluster import ClusterClient, local_cluster, wait_until
from repro.core.config import LSMConfig
from repro.faults import NetFaultPlan
from repro.server import KVClient
from repro.server.client import BusyError, ServerError

from common import QUICK, save_and_print
from repro.bench.report import format_table

NUM_SHARDS = 4
HEARTBEAT_S = 0.25
LEASE_S = 1.0
WRITES_BEFORE = 30 if QUICK else 120
WRITES_AFTER = 60 if QUICK else 240
VALUE = "v" * 64


async def _partition_timeline(tmp_dir: str) -> dict:
    plan = NetFaultPlan(seed=29)
    async with local_cluster(
        tmp_dir,
        shape="standby",
        config=LSMConfig(buffer_size_bytes=64 * 1024),
        net_plan=plan,
        heartbeat_interval_s=HEARTBEAT_S,
        lease_timeout_s=LEASE_S,
        repl_timeout_s=0.5,
        self_fence=True,
    ) as (servers, stores, live):
        # bootstrap from the standby so the seed connection outlives the
        # owner flip; writes still route to a via the map
        client = await ClusterClient.connect(
            "127.0.0.1",
            servers[1].port,
            retry_s=8.0 * LEASE_S,
        )
        async with client:
            acks: List[float] = []
            acked_keys: List[str] = []
            failures: List[str] = []
            a_acks: List[float] = []
            a_acked_keys: List[str] = []
            a_refusals = [0]
            first_busy = [0.0]
            stop = asyncio.Event()

            async def cluster_writer() -> None:
                index = 0
                while not stop.is_set():
                    key = f"pt{index:05d}"
                    try:
                        await client.put(key, VALUE)
                    except Exception as exc:  # any app-visible error
                        failures.append(f"{key}: {exc!r}")
                    else:
                        acks.append(time.perf_counter())
                        acked_keys.append(key)
                    index += 1
                    await asyncio.sleep(0)

            async def pinned_writer() -> None:
                # Talks straight to a's socket with no retry budget:
                # each ack timestamps a as a (still-)acking owner, each
                # BUSY is the self-fence refusing to dual-ack.
                pinned = await KVClient.connect(
                    "127.0.0.1",
                    servers[0].port,
                    timeout_s=4.0,
                    retry_s=0.0,
                )
                index = 0
                try:
                    while not stop.is_set():
                        key = f"pa{index:05d}"
                        try:
                            await pinned.put(key, VALUE)
                        except BusyError:
                            if a_refusals[0] == 0:
                                first_busy[0] = time.perf_counter()
                            a_refusals[0] += 1
                            await asyncio.sleep(0.02)
                        except (ServerError, ConnectionError, OSError):
                            await asyncio.sleep(0.02)  # e.g. MOVED
                        else:
                            a_acks.append(time.perf_counter())
                            a_acked_keys.append(key)
                        index += 1
                        await asyncio.sleep(0.005)
                finally:
                    await pinned.close()

            tasks = [
                asyncio.create_task(cluster_writer()),
                asyncio.create_task(pinned_writer()),
            ]
            while len(acks) < WRITES_BEFORE or len(a_acks) < 10:
                await asyncio.sleep(0.005)

            # Act 1 — asymmetric cut: a loses its standby, b still
            # sees a alive. Nobody may promote; a must stop acking.
            plan.blackhole("a", "b")
            cut = time.perf_counter()
            await wait_until(
                lambda: a_refusals[0] > 0,
                "partitioned primary never answered BUSY",
                deadline_s=4.0 * LEASE_S,
            )
            fence_s = first_busy[0] - cut
            assert not servers[1].promotions, (
                "standby promoted under a one-way cut while the primary "
                "was still reachable"
            )

            # Act 2 — escalate to a full partition: b's lease on a
            # expires and it promotes its warm standbys.
            plan.partition(["a"], ["b"])
            escalated = time.perf_counter()
            while stores[1].map.epoch <= live.epoch:
                await asyncio.sleep(0.005)
            promoted = time.perf_counter()
            promote_s = promoted - escalated
            while len(acks) < WRITES_BEFORE + WRITES_AFTER:
                for task in tasks:
                    if task.done():
                        task.result()  # surface a crashed writer
                await asyncio.sleep(0.005)

            # Heal: a hears the bumped epoch and demotes, unprompted.
            plan.clear()
            await wait_until(
                lambda: stores[0].map.epoch >= stores[1].map.epoch,
                "healed primary never adopted the promoted epoch",
                deadline_s=15.0,
            )
            healed_demote_s = time.perf_counter() - promoted
            stop.set()
            for task in tasks:
                await task

            post_cut = [t for t in a_acks if t > cut]
            lost = [
                key
                for key in acked_keys + a_acked_keys
                if await client.get(key) != VALUE
            ]
            promotion = servers[1].promotions[0]
            return {
                "acked_writes": len(acked_keys),
                "failed_writes": len(failures),
                "failures": failures[:5],
                "lost_writes": len(lost),
                "availability": (
                    len(acked_keys) / (len(acked_keys) + len(failures))
                    if acked_keys or failures
                    else 0.0
                ),
                "fence_s": fence_s,
                "promote_s": promote_s,
                "healed_demote_s": healed_demote_s,
                "a_acked": len(a_acked_keys),
                "a_refusals": a_refusals[0],
                "last_a_ack_vs_promotion_s": (
                    max(post_cut) - promoted if post_cut else None
                ),
                "silence_s": promotion["silence_s"],
                "epoch": stores[1].map.epoch,
                "a_epoch": stores[0].map.epoch,
                "owned_after_a": sorted(stores[0].owned_shards()),
                "owned_after_b": sorted(stores[1].owned_shards()),
            }


def test_e29_partition(benchmark):
    def experiment():
        with tempfile.TemporaryDirectory(prefix="repro-e29-") as tmp:
            return asyncio.run(_partition_timeline(tmp))

    timeline = benchmark.pedantic(experiment, rounds=1, iterations=1)

    last_vs_promo = timeline["last_a_ack_vs_promotion_s"]
    table = format_table(
        ["metric", "value"],
        [
            ("acked writes (cluster client)", timeline["acked_writes"]),
            ("failed writes (cluster client)", timeline["failed_writes"]),
            ("write availability", round(timeline["availability"], 4)),
            ("acked writes lost", timeline["lost_writes"]),
            ("asym cut -> first BUSY (s)", round(timeline["fence_s"], 3)),
            ("full cut -> promotion (s)", round(timeline["promote_s"], 3)),
            ("heal -> primary demoted (s)",
             round(timeline["healed_demote_s"], 3)),
            ("primary acks (pinned writer)", timeline["a_acked"]),
            ("primary BUSY refusals", timeline["a_refusals"]),
            (
                "last primary ack vs promotion (s)",
                "none post-cut"
                if last_vs_promo is None
                else round(last_vs_promo, 3),
            ),
            ("silence at promotion (s)", timeline["silence_s"]),
            ("map epoch after failover", timeline["epoch"]),
        ],
        title=(
            "E29: asymmetric partition, then full partition, under "
            f"continuous writes (2-node replicated cluster, heartbeat "
            f"{HEARTBEAT_S}s, lease {LEASE_S}s; self-fencing on)"
        ),
    )
    save_and_print("E29", table)
    save_and_print(
        "E29-factor",
        f"asymmetrically partitioned primary self-fenced "
        f"{timeline['fence_s']:.3f}s after the cut (bound "
        f"{2 * LEASE_S:.1f}s = 2 lease intervals) with "
        f"{timeline['a_refusals']} BUSY refusals and no promotion; "
        f"after escalation the standby promoted in "
        f"{timeline['promote_s']:.3f}s and client availability held at "
        f"{timeline['availability']:.4f} with {timeline['lost_writes']} "
        "acked writes lost and no manual intervention",
    )

    # Acceptance: bounded fence + takeover, full availability, zero
    # loss, no ack from the primary once the standby owns the shards.
    assert timeline["failed_writes"] == 0, timeline["failures"]
    assert timeline["availability"] == 1.0
    assert timeline["lost_writes"] == 0
    assert timeline["fence_s"] <= 2.0 * LEASE_S, timeline
    assert timeline["promote_s"] <= 2.0 * LEASE_S, timeline
    assert last_vs_promo is None or last_vs_promo < 0.0, timeline
    assert timeline["epoch"] == 2  # exactly one fenced epoch bump
    assert timeline["a_epoch"] == 2  # primary adopted it unprompted
    assert timeline["owned_after_a"] == []
    assert timeline["owned_after_b"] == list(range(NUM_SHARDS))
