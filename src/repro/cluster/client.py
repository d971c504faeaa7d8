"""Cluster-aware client: map-driven routing, MOVED redirects, pooling.

:class:`ClusterClient` is to a cluster what
:class:`~repro.server.KVClient` is to one server. It bootstraps its
:class:`~repro.cluster.ClusterMap` from any seed node's ``CLUSTER``
reply, routes each key to its owning node (identical shard placement to
the servers), and keeps **one pooled, pipelined KVClient per node** — so
per-node pipelining, BUSY absorption, and bounded reconnect all come for
free from the underlying clients.

Staleness is handled Redis-Cluster-style: a request landing on the wrong
node answers ``ERR MOVED <shard> <host>:<port> <epoch>``, the client
refreshes its map from the redirect target (which, being the node the
*newer* map names, always has a map at least that new) and retries —
bounded by :data:`MAX_REDIRECTS` hops. A live migration is therefore
invisible end-to-end: writes during the fence answer BUSY (absorbed by
the per-node client), the first post-flip request answers MOVED, the map
refreshes once, and traffic continues on the new owner.

Scans fan out to every node in parallel — each node answers for exactly
the shards it owns — and the fragments are merged by key. A node
answers a scan for its owned shards only (there is no MOVED for a
range), so a stale map would silently miss any node that joined since
the map was fetched; to close that hole every per-node scan rides with
a pipelined ``CLUSTER`` epoch probe, and if any node reports a newer
map the client installs it and retries the whole fan-out. During the
seal-to-release instant of a migration both ends may answer reads for
the moving shard; the merge deduplicates by key, and zero-loss shipping
makes both answers equal, so the race is harmless.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Awaitable, Callable, Dict, List, Optional, Tuple, TypeVar

from ..api import PartialScanResult, Snapshot
from ..errors import ConfigError, ReproError
from ..server.client import (
    BusyError,
    KVClient,
    MovedError,
    UnavailableError,
)
from ..server.protocol import BatchOp
from .map import ClusterMap, NodeInfo

T = TypeVar("T")

#: MOVED hops absorbed per operation (and map changes per scan /
#: snapshot fan-out) before :class:`ClusterError` — more than one or two
#: means the map is churning faster than the client can chase it.
MAX_REDIRECTS = 5

#: Bound on one ``CLUSTER`` map fetch (connect included): a hung node
#: must delay a map refresh by at most this, not the full TCP timeout.
MAP_TIMEOUT_S = 5.0

#: Per-node circuit breaker window. After a failed connect the node's
#: circuit opens (further attempts fail instantly) for a jittered,
#: exponentially growing interval between these two, so an unreachable
#: node costs a scan fan-out or MOVED chase microseconds, not a connect
#: timeout per call.
BREAKER_BACKOFF_S = 0.2
BREAKER_MAX_BACKOFF_S = 5.0


async def fetch_map(conn: KVClient) -> ClusterMap:
    """The map ``conn``'s node serves under — the one ``CLUSTER`` fetch."""
    reply = await conn.command(["CLUSTER"])
    if reply[0] != "CLUSTER" or len(reply) < 2:
        raise ConfigError(
            f"not a cluster node (CLUSTER answered {reply[0]!r})"
        )
    return ClusterMap.from_json(reply[1])


async def push_map(conn: KVClient, cluster_map: ClusterMap) -> bool:
    """Offer ``cluster_map`` to ``conn``'s node — the one ``CLUSTER
    <map>`` push; returns whether the node installed it (``False``: it
    already holds that epoch or a newer one). A map that would grant the
    node shards is refused with a :class:`~repro.server.client.ServerError`."""
    reply = await conn.command(["CLUSTER", cluster_map.to_json()])
    return reply[1:2] == ["installed"]


class ClusterError(ReproError):
    """A cluster operation failed beyond per-node retry (e.g. the
    redirect budget was exhausted while the map kept changing)."""


class ClusterSnapshot:
    """A cluster-wide snapshot: one engine snapshot per node, merged.

    ``token`` is the union of every node's snapshot token — shard
    indices are globally unique, so the merged token is itself a valid
    snapshot token covering the whole keyspace, and any node can serve
    ``AT`` reads from it for the shards it owns. ``per_node`` keeps each
    node's *own* token (the string that node registered), which is what
    :meth:`ClusterClient.end_snapshot` must hand back to release the
    server-side pins.

    Consistency contract: each node's shards are captured at one
    consistent sequence point (a node-local 2PC MULTI is either fully
    inside or fully outside the snapshot), but the per-node captures are
    taken concurrently, not at one global instant — there is no
    cross-node transaction to order against, since cluster MULTI is
    atomic per node.
    """

    __slots__ = ("token", "per_node")

    def __init__(
        self, token: str, per_node: Dict[Tuple[str, int], str]
    ) -> None:
        self.token = token
        self.per_node = dict(per_node)


class ClusterClient:
    """Routes KV operations across a cluster by its epoch'd map.

    Args:
        cluster_map: The routing map to start from (normally fetched by
            :meth:`connect`).
        failover_grace_s: On a connect failure to a shard's owner,
            *when the map assigns that shard a replica*, keep retrying —
            refreshing the map from surviving nodes — for up to this
            long before surfacing the error; long enough to cover lease
            expiry plus promotion, so an automatic failover is invisible
            beyond latency. Shards without a replica fail immediately,
            as before.
        client_options: Forwarded to every pooled
            :class:`~repro.server.KVClient` (timeouts, retry budgets).
    """

    def __init__(
        self,
        cluster_map: ClusterMap,
        *,
        failover_grace_s: float = 10.0,
        **client_options: object,
    ) -> None:
        self.map = cluster_map
        self.failover_grace_s = failover_grace_s
        self._client_options = client_options
        self._pool: Dict[Tuple[str, int], KVClient] = {}
        self._pool_lock = asyncio.Lock()
        self._closed = False
        #: Per-address breaker: (consecutive failures, open-until
        #: monotonic instant). Present only while tripped.
        self._breaker: Dict[Tuple[str, int], Tuple[int, float]] = {}
        #: MOVED redirects followed (observability).
        self.moved_redirects = 0
        #: Map refreshes performed (observability).
        self.map_refreshes = 0
        #: Connect attempts rejected by an open circuit (observability).
        self.breaker_rejections = 0
        #: Ops that rode out an owner failure to a promoted replica.
        self.failover_retries = 0

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        failover_grace_s: float = 10.0,
        **client_options: object,
    ) -> "ClusterClient":
        """Bootstrap from any one cluster node's ``CLUSTER`` reply."""
        seed = await asyncio.wait_for(
            KVClient.connect(host, port, **client_options), MAP_TIMEOUT_S
        )
        try:
            cluster_map = await asyncio.wait_for(fetch_map(seed), MAP_TIMEOUT_S)
        except BaseException:
            await seed.close()
            raise
        client = cls(
            cluster_map, failover_grace_s=failover_grace_s, **client_options
        )
        client._pool[(host, port)] = seed
        return client

    async def close(self) -> None:
        """Close every pooled connection.

        Drains the pool under its lock: a concurrent :meth:`_client_for`
        that already passed the fast-path ``_closed`` check is either
        ahead of us (its client lands in the snapshot and is closed
        here) or behind us (it re-checks ``_closed`` under the lock and
        raises) — never a leaked connection.
        """
        async with self._pool_lock:
            self._closed = True
            clients = list(self._pool.values())
            self._pool.clear()
        for client in clients:
            await client.close()

    async def __aenter__(self) -> "ClusterClient":
        return self

    async def __aexit__(self, *_exc_info: object) -> None:
        await self.close()

    # -- operations -----------------------------------------------------------

    async def get(
        self, key: str, at: Optional[object] = None
    ) -> Optional[str]:
        """Point lookup on the key's owning node.

        ``at=`` (a :class:`ClusterSnapshot`, an engine snapshot handle,
        or a raw token string) reads as of that snapshot. Requires the
        pool to speak protocol v2 (``protocol_version=2`` in the client
        options).
        """
        shard = self.map.shard_index(key)
        if at is None:
            return await self._on_owner(shard, lambda c: c.get(key))
        token = KVClient.at_token(at)
        return await self._on_owner(shard, lambda c: c.get(key, at=token))

    async def put(self, key: str, value: str) -> None:
        """Write-through to the key's owning node."""
        await self._on_owner(
            self.map.shard_index(key), lambda c: c.put(key, value)
        )

    async def delete(self, key: str) -> None:
        """Delete on the key's owning node."""
        await self._on_owner(
            self.map.shard_index(key), lambda c: c.delete(key)
        )

    async def batch(self, ops: List[BatchOp]) -> int:
        """Apply a batch, split by owning node; returns the op count.

        Atomicity is per shard (the plain ``BATCH`` contract) — a
        multi-node batch is N independent per-node batches issued
        concurrently. For per-*node* atomicity use :meth:`multi`.
        """
        by_shard: Dict[int, List[BatchOp]] = {}
        for op in ops:
            by_shard.setdefault(self.map.shard_index(op[1]), []).append(op)
        counts = await asyncio.gather(
            *(
                self._on_owner(
                    shard,
                    lambda c, sub_ops=sub_ops: c.batch(sub_ops),
                )
                for shard, sub_ops in by_shard.items()
            )
        )
        return sum(counts)

    async def multi(self, ops: List[BatchOp]) -> int:
        """Apply a batch atomically *per node*; returns the op count.

        Ops are grouped by owning node and each group rides one ``MULTI``
        — all-or-nothing on that node even when it spans several of the
        node's shards (the node runs its own two-phase commit). There is
        no cross-*node* transaction: groups commit independently, so a
        failure can leave some nodes applied and others not — but never
        a torn group, because a node rejects a MULTI touching a moved or
        fenced shard before applying anything, which is also what makes
        MOVED-chasing retries safe here.
        """
        remaining = list(ops)
        applied = 0
        for _ in range(MAX_REDIRECTS + 1):
            groups: Dict[Tuple[str, int], List[BatchOp]] = {}
            for op in remaining:
                owner = self.map.owner(self.map.shard_index(op[1]))
                groups.setdefault((owner.host, owner.port), []).append(op)

            async def run_group(
                addr: Tuple[str, int], sub_ops: List[BatchOp]
            ) -> Tuple[Optional[int], Optional[MovedError]]:
                client = await self._client_for(*addr)
                try:
                    return await client.multi(sub_ops), None
                except MovedError as moved:
                    return None, moved

            outcomes = await asyncio.gather(
                *(
                    run_group(addr, sub_ops)
                    for addr, sub_ops in groups.items()
                )
            )
            retry: List[BatchOp] = []
            last_moved: Optional[MovedError] = None
            for (addr, sub_ops), (count, moved) in zip(
                groups.items(), outcomes
            ):
                if moved is None:
                    applied += count or 0
                else:
                    last_moved = moved
                    retry.extend(sub_ops)
            if not retry:
                return applied
            self.moved_redirects += 1
            assert last_moved is not None
            await self.refresh(last_moved.host, last_moved.port)
            if self.map.epoch < last_moved.epoch:
                self.map = self.map.with_assignment(
                    last_moved.shard,
                    f"{last_moved.host}:{last_moved.port}",
                    host=last_moved.host,
                    port=last_moved.port,
                )
            remaining = retry
        raise ClusterError(
            f"{len(remaining)} ops still MOVED after "
            f"{MAX_REDIRECTS} redirects"
        )

    async def snapshot(self) -> ClusterSnapshot:
        """Open a snapshot on every node; returns the composite handle.

        Like :meth:`scan`, each per-node ``SNAP`` rides with a pipelined
        ``CLUSTER`` epoch probe: if any node reports a newer map, this
        client may have missed a member entirely (its shards would be
        silently absent from the snapshot), so the just-taken tokens are
        released and the fan-out retried on the newer map — bounded by
        :data:`MAX_REDIRECTS` map changes. Release with :meth:`end_snapshot`;
        the servers also release a connection's snapshots when it
        closes.
        """
        for _ in range(MAX_REDIRECTS + 1):
            nodes = list(self.map.nodes.values())
            results = await asyncio.gather(
                *(self._snap_node(node) for node in nodes)
            )
            newest = max(
                (node_map for node_map, _, _ in results),
                key=lambda node_map: node_map.epoch,
            )
            per_node = {addr: token for _, addr, token in results}
            if newest.epoch > self.map.epoch:
                await self._release_tokens(per_node)
                self.map = newest
                self.map_refreshes += 1
                continue
            seqnos: Dict[int, int] = {}
            for _, addr, token in results:
                # First owner wins on a duplicate shard: during the
                # seal-to-release instant of a migration both ends may
                # pin the moving shard, and zero-loss shipping makes
                # either pin a consistent capture.
                for unit, seq in Snapshot.from_token(token).seqnos.items():
                    seqnos.setdefault(unit, seq)
            return ClusterSnapshot(Snapshot(seqnos).token, per_node)
        raise ClusterError(
            f"cluster map changed {MAX_REDIRECTS + 1} times while "
            "taking a snapshot; giving up"
        )

    async def _snap_node(
        self, node: NodeInfo
    ) -> Tuple[ClusterMap, Tuple[str, int], str]:
        """One node's snapshot token plus its current map (pipelined)."""
        client = await self._client_for(node.host, node.port)
        node_map, token = await asyncio.gather(
            fetch_map(client), client.snapshot()
        )
        return node_map, (node.host, node.port), token

    async def end_snapshot(self, snapshot: ClusterSnapshot) -> None:
        """Release every node's share of a :meth:`snapshot` (idempotent)."""
        await self._release_tokens(snapshot.per_node)

    async def _release_tokens(
        self, per_node: Dict[Tuple[str, int], str]
    ) -> None:
        async def release(addr: Tuple[str, int], token: str) -> None:
            try:
                client = await self._client_for(*addr)
                await client.end_snapshot(token)
            except (ReproError, ConnectionError, OSError):
                pass  # best effort: the server releases on disconnect

        await asyncio.gather(
            *(release(addr, token) for addr, token in per_node.items())
        )

    async def scan(
        self,
        lo: str,
        hi: str,
        limit: Optional[int] = None,
        at: Optional[object] = None,
        allow_partial: bool = False,
    ) -> List[Tuple[str, str]]:
        """Cluster-wide range lookup: fan out, merge by key, cap.

        Each node answers for its owned shards only and never answers
        MOVED for a range, so the fan-out is only complete if the map
        it used is current. Every per-node scan therefore carries a
        pipelined ``CLUSTER`` epoch probe (same connection, same
        round-trip); a node reporting a newer map means this client's
        fan-out may have missed a member entirely, so the newer map is
        installed and the whole scan retried — bounded, like MOVED
        chasing, by :data:`MAX_REDIRECTS` map changes per call.

        ``at=`` scans as of a snapshot (see :meth:`snapshot`).
        ``allow_partial=True`` turns a node that cannot answer — its
        scan fails with a quarantined-shard error, or the node is
        unreachable — into a gap instead of an error: the result is a
        :class:`~repro.api.PartialScanResult` whose ``skipped_shards``
        lists every shard that node owns (the whole node's fragment is
        lost, not just the failing shard).
        """
        token = None if at is None else KVClient.at_token(at)
        for _ in range(MAX_REDIRECTS + 1):
            nodes = list(self.map.nodes.values())
            results = await asyncio.gather(
                *(
                    self._scan_node(node, lo, hi, limit, token, allow_partial)
                    for node in nodes
                )
            )
            maps = [node_map for node_map, _, _ in results if node_map]
            newest = max(maps, key=lambda m: m.epoch) if maps else self.map
            if newest.epoch > self.map.epoch:
                self.map = newest
                self.map_refreshes += 1
                continue  # the fan-out may have missed a node; redo
            merged: Dict[str, str] = {}
            skipped: List[int] = []
            for _, fragment, failed_node in results:
                if failed_node is not None:
                    skipped.extend(self.map.shards_of(failed_node.node_id))
                merged.update(fragment)
            pairs = sorted(merged.items())
            if limit is not None:
                pairs = pairs[:limit]
            if allow_partial:
                return PartialScanResult(pairs, sorted(set(skipped)))
            return pairs
        raise ClusterError(
            f"cluster map changed {MAX_REDIRECTS + 1} times during "
            "one scan; giving up"
        )

    async def _scan_node(
        self,
        node: NodeInfo,
        lo: str,
        hi: str,
        limit: Optional[int],
        at: Optional[str],
        allow_partial: bool,
    ) -> Tuple[
        Optional[ClusterMap], List[Tuple[str, str]], Optional[NodeInfo]
    ]:
        """One node's scan fragment plus its current map (pipelined).

        With ``allow_partial`` a failure to answer — unreachable node or
        unavailable shard — returns ``(map_or_None, [], node)`` so the
        caller records the gap; otherwise the error propagates.
        """
        try:
            client = await self._client_for(node.host, node.port)
        except (ConnectionError, OSError):
            if allow_partial:
                return None, [], node
            raise
        try:
            node_map, fragment = await asyncio.gather(
                fetch_map(client), client.scan(lo, hi, limit, at=at)
            )
        except (UnavailableError, ConnectionError, OSError):
            if not allow_partial:
                raise
            try:
                return await fetch_map(client), [], node
            except (ReproError, ConnectionError, OSError):
                return None, [], node
        return node_map, fragment, None

    async def refresh(
        self, host: Optional[str] = None, port: Optional[int] = None
    ) -> ClusterMap:
        """Re-fetch the map — from ``host:port`` when given (a redirect
        target), else from the first reachable known node — and install
        it if newer. Returns the map now in effect."""
        candidates: List[Tuple[str, int]]
        if host is not None and port is not None:
            candidates = [(host, port)]
        else:
            candidates = [
                (node.host, node.port)
                for _, node in sorted(self.map.nodes.items())
            ]
        last_error: Optional[Exception] = None
        for candidate_host, candidate_port in candidates:
            try:
                client = await asyncio.wait_for(
                    self._client_for(candidate_host, candidate_port),
                    MAP_TIMEOUT_S,
                )
                fetched = await asyncio.wait_for(
                    fetch_map(client), MAP_TIMEOUT_S
                )
            except (
                asyncio.TimeoutError,
                ConnectionError,
                OSError,
                ReproError,
            ) as exc:
                last_error = exc
                continue
            self.map_refreshes += 1
            if fetched.epoch > self.map.epoch:
                self.map = fetched
            return self.map
        raise ClusterError(
            f"no cluster node reachable for a map refresh: {last_error}"
        )

    async def node(self, node_id: str) -> KVClient:
        """The pooled connection to member ``node_id``: where the verbs
        that are not routed by key go (``MIGRATE``, ``HEALTH``, a map
        push) — see :mod:`repro.cluster.admin`."""
        info = self.map.nodes.get(node_id)
        if info is None:
            raise ConfigError(
                f"node {node_id!r} is not in the cluster map "
                f"({sorted(self.map.nodes)})"
            )
        return await self._client_for(info.host, info.port)

    # -- plumbing -------------------------------------------------------------

    async def _on_owner(
        self,
        shard: int,
        op: Callable[[KVClient], Awaitable[T]],
    ) -> T:
        """Run ``op`` against the shard's owner, chasing MOVED redirects.

        When the owner is unreachable *and the map gives the shard a
        replica*, the failure is treated as a failover in progress: the
        pooled connection is discarded, the map re-fetched from the
        surviving nodes, and the op retried (jittered) until
        ``failover_grace_s`` runs out — the promoted replica's
        bumped-epoch map re-routes the shard within a lease timeout, so
        the caller sees latency, not an error. A shard without a
        replica keeps the old contract: the connection error surfaces
        at once. A persistent ``BUSY`` (a fence held past the wire
        client's own retry budget — a self-fenced partitioned primary)
        gets the same grace treatment, with the map re-fetched from the
        shard's standby.
        """
        last_moved: Optional[MovedError] = None
        failover_deadline: Optional[float] = None
        redirects = 0
        while True:
            owner = self.map.owner(shard)
            try:
                client = await self._client_for(owner.host, owner.port)
                return await op(client)
            except MovedError as moved:
                self.moved_redirects += 1
                last_moved = moved
                redirects += 1
                if redirects > MAX_REDIRECTS:
                    raise ClusterError(
                        f"shard {shard} still MOVED after "
                        f"{MAX_REDIRECTS} redirects: {last_moved}"
                    )
                # The redirect target is (as of the replying node's map)
                # the owner — its own map is at least that new, so
                # refreshing from it both fixes this shard's route and
                # picks up whatever else changed.
                await self.refresh(moved.host, moved.port)
                if self.map.epoch < moved.epoch:
                    # Refresh could not reach a map as new as the
                    # redirect claims; fall back to following it blindly
                    # next loop by patching the route we were given.
                    self.map = self.map.with_assignment(
                        shard,
                        f"{moved.host}:{moved.port}",
                        host=moved.host,
                        port=moved.port,
                    )
            except (ConnectionError, OSError):
                if self._closed or self.map.replica_id(shard) is None:
                    raise
                now = time.monotonic()
                if failover_deadline is None:
                    failover_deadline = now + self.failover_grace_s
                elif now >= failover_deadline:
                    raise
                self.failover_retries += 1
                await self._discard_client(owner.host, owner.port)
                try:
                    await self.refresh()
                except ClusterError:
                    pass  # nobody reachable yet; back off and re-try
                await asyncio.sleep(0.04 + random.random() * 0.04)
            except BusyError:
                # BUSY past the wire client's own retry budget on a
                # replicated shard: a *fence* is holding — either a
                # migration handoff or a self-fenced primary that lost
                # its standby. Same failover-grace loop as a dead
                # owner, but over the map: once the standby promotes,
                # the refreshed (or gossiped) bumped-epoch map re-routes
                # the shard and the op lands on the new primary. The
                # connection itself is healthy — no discard.
                replica_id = self.map.replica_id(shard)
                if self._closed or replica_id is None:
                    raise
                now = time.monotonic()
                if failover_deadline is None:
                    failover_deadline = now + self.failover_grace_s
                elif now >= failover_deadline:
                    raise
                self.failover_retries += 1
                # Ask the *standby* for its map, not whoever answers
                # first: under a symmetric partition the fenced owner
                # still answers CLUSTER with its stale map, and only
                # the (about-to-be-)promoted replica holds the bumped
                # epoch that re-routes this shard.
                replica = self.map.nodes[replica_id]
                try:
                    await self.refresh(replica.host, replica.port)
                except ClusterError:
                    pass
                await asyncio.sleep(0.04 + random.random() * 0.04)

    async def _discard_client(self, host: str, port: int) -> None:
        """Drop a (presumed broken) pooled connection so the next use
        goes through a fresh connect — and thus the circuit breaker."""
        async with self._pool_lock:
            client = self._pool.pop((host, port), None)
        if client is not None:
            await client.close()

    async def _client_for(self, host: str, port: int) -> KVClient:
        if self._closed:
            raise ConnectionError("cluster client closed")
        key = (host, port)
        client = self._pool.get(key)
        if client is not None:
            return client
        tripped = self._breaker.get(key)
        if tripped is not None and time.monotonic() < tripped[1]:
            self.breaker_rejections += 1
            raise ConnectionError(
                f"circuit open to {host}:{port} (connect failed "
                f"{tripped[0]}x; retrying after backoff)"
            )
        async with self._pool_lock:
            if self._closed:
                # close() won the lock between our fast-path check and
                # here; inserting now would leak a connection forever.
                raise ConnectionError("cluster client closed")
            client = self._pool.get(key)
            if client is None:
                try:
                    client = await KVClient.connect(
                        host, port, **self._client_options
                    )
                except (ConnectionError, OSError):
                    failures = (
                        self._breaker.get(key, (0, 0.0))[0] + 1
                    )
                    backoff = min(
                        BREAKER_BACKOFF_S * (2 ** (failures - 1)),
                        BREAKER_MAX_BACKOFF_S,
                    ) * (0.5 + random.random() * 0.5)
                    self._breaker[key] = (
                        failures,
                        time.monotonic() + backoff,
                    )
                    raise
                self._breaker.pop(key, None)
                self._pool[key] = client
            return client
