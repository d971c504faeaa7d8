"""Cluster-aware client: map-driven routing, MOVED redirects, pooling.

:class:`ClusterClient` is to a cluster what
:class:`~repro.server.KVClient` is to one server. It bootstraps its
:class:`~repro.cluster.ClusterMap` from any seed node's ``CLUSTER``
reply, routes each key to its owning node (identical shard placement to
the servers), and keeps **one pooled, pipelined KVClient per node**. The
pooled clients make one attempt per call (``retry_s=0``): every retry of
this stack happens in :meth:`ClusterClient._retrying`, under one
deadline per call and one backoff schedule.

Staleness is handled Redis-Cluster-style: a request landing on the wrong
node answers ``ERR MOVED <shard> <host>:<port> <epoch>``, the client
refreshes its map from the redirect target (which, being the node the
*newer* map names, always has a map at least that new) and retries. A
live migration is therefore invisible end-to-end: writes during the
fence answer BUSY (backed off and retried), the first post-flip request
answers MOVED, the map refreshes once, and traffic continues on the new
owner.

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
from typing import Awaitable, Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from ..api import PartialScanResult, Snapshot
from ..errors import ConfigError, ReproError
from ..server.client import FATAL, MOVED, TIMEOUT, TRANSPORT, KVClient, MovedError
from ..server.client import UnavailableError, backoff_delays, classify
from ..server.protocol import BatchOp
from .map import ClusterMap, NodeInfo

T = TypeVar("T")
X = TypeVar("X")

#: Bound on one ``CLUSTER`` map fetch (connect included): a hung node
#: must delay a map refresh by at most this, not the full TCP timeout.
MAP_TIMEOUT_S = 5.0


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
    """A cluster operation failed beyond retry (e.g. MOVED redirects or
    map changes kept coming until the call's deadline)."""


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
        retry_s: Each call's deadline, counted from its start: MOVED
            chasing, BUSY / fence backoff and — on a shard the map gives
            a replica — riding out an unreachable or silent owner all
            retry until it passes (see :meth:`_retrying`). The default
            covers lease expiry plus promotion, so an automatic failover
            is invisible beyond latency.
        client_options: Forwarded to every pooled
            :class:`~repro.server.KVClient` (timeouts, protocol
            version); the pool is always built with ``retry_s=0``.
    """

    def __init__(
        self,
        cluster_map: ClusterMap,
        *,
        retry_s: float = 10.0,
        **client_options: object,
    ) -> None:
        self.map = cluster_map
        self.retry_s = retry_s
        self._client_options = {**client_options, "retry_s": 0.0}
        self._pool: Dict[Tuple[str, int], KVClient] = {}
        self._pool_lock = asyncio.Lock()
        #: The one dial in flight per address, shared by its callers.
        self._dials: Dict[Tuple[str, int], "asyncio.Future[KVClient]"] = {}
        self._closed = False
        #: Per-address breaker: (consecutive failures, open-until loop
        #: instant, the address's backoff schedule). Present only while
        #: tripped.
        self._breaker: Dict[
            Tuple[str, int], Tuple[int, float, Iterator[float]]
        ] = {}
        #: MOVED redirects followed (observability).
        self.moved_redirects = 0
        #: Map refreshes performed (observability).
        self.map_refreshes = 0
        #: Connect attempts rejected by an open circuit (observability).
        self.breaker_rejections = 0
        #: Retries after a BUSY, an unreachable or a silent owner.
        self.failover_retries = 0

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        retry_s: float = 10.0,
        **client_options: object,
    ) -> "ClusterClient":
        """Bootstrap from any one cluster node's ``CLUSTER`` reply."""
        seed = await asyncio.wait_for(
            KVClient.connect(host, port, **{**client_options, "retry_s": 0.0}),
            MAP_TIMEOUT_S,
        )
        try:
            cluster_map = await asyncio.wait_for(fetch_map(seed), MAP_TIMEOUT_S)
        except BaseException:
            await seed.close()
            raise
        client = cls(cluster_map, retry_s=retry_s, **client_options)
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
        MOVED and BUSY retries safe here. A retry resends only unapplied
        groups, regrouped by the refreshed map; one lost to a transport
        failure or timeout is resent (at-least-once).
        """
        pending = list(ops)
        applied = 0

        async def send(addr: Tuple[str, int], sub_ops: List[BatchOp]) -> int:
            return await (await self._client_for(*addr)).multi(sub_ops)

        async def attempt() -> int:
            nonlocal pending, applied
            groups: Dict[Tuple[str, int], List[BatchOp]] = {}
            for op in pending:
                owner = self.map.owner(self.map.shard_index(op[1]))
                groups.setdefault((owner.host, owner.port), []).append(op)
            outcomes = await asyncio.gather(
                *(send(addr, sub_ops) for addr, sub_ops in groups.items()),
                return_exceptions=True,
            )
            pending = []
            errors: List[BaseException] = []
            for sub_ops, outcome in zip(groups.values(), outcomes):
                if isinstance(outcome, BaseException):
                    errors.append(outcome)
                    pending.extend(sub_ops)
                else:
                    applied += outcome
            if errors:
                raise next(
                    (exc for exc in errors if classify(exc) == FATAL),
                    errors[0],
                )
            return applied

        return await self._retrying(
            attempt, lambda: self.map.shard_index(pending[0][1])
        )

    async def snapshot(self) -> ClusterSnapshot:
        """Open a snapshot on every node; returns the composite handle.

        Like :meth:`scan`, each per-node ``SNAP`` rides with a pipelined
        ``CLUSTER`` epoch probe (see :meth:`_fan_out`): on a map change
        the just-taken tokens are released and the fan-out retried on
        the newer map. Release with :meth:`end_snapshot`; the servers
        also release a connection's snapshots when it closes.
        """
        results = await self._fan_out(
            self._snap_node,
            lambda taken: self._release_tokens(dict(taken)),
        )
        seqnos: Dict[int, int] = {}
        for _, token in results:
            # First owner wins on a duplicate shard: during the
            # seal-to-release instant of a migration both ends may pin
            # the moving shard, and zero-loss shipping makes either pin
            # a consistent capture.
            for unit, seq in Snapshot.from_token(token).seqnos.items():
                seqnos.setdefault(unit, seq)
        return ClusterSnapshot(Snapshot(seqnos).token, dict(results))

    async def _snap_node(
        self, node: NodeInfo
    ) -> Tuple[ClusterMap, Tuple[Tuple[str, int], str]]:
        """One node's snapshot token plus its current map (pipelined)."""
        client = await self._client_for(node.host, node.port)
        node_map, token = await asyncio.gather(
            fetch_map(client), client.snapshot()
        )
        return node_map, ((node.host, node.port), token)

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
        installed and the whole scan retried, until the call's deadline
        (see :meth:`_fan_out`).

        ``at=`` scans as of a snapshot (see :meth:`snapshot`).
        ``allow_partial=True`` turns a node that cannot answer — its
        scan fails with a quarantined-shard error, or the node is
        unreachable — into a gap instead of an error: the result is a
        :class:`~repro.api.PartialScanResult` whose ``skipped_shards``
        lists every shard that node owns (the whole node's fragment is
        lost, not just the failing shard).
        """
        token = None if at is None else KVClient.at_token(at)
        results = await self._fan_out(
            lambda node: self._scan_node(
                node, lo, hi, limit, token, allow_partial
            )
        )
        merged: Dict[str, str] = {}
        skipped: List[int] = []
        for fragment, failed_node in results:
            if failed_node is not None:
                skipped.extend(self.map.shards_of(failed_node.node_id))
            merged.update(fragment)
        pairs = sorted(merged.items())
        if limit is not None:
            pairs = pairs[:limit]
        if allow_partial:
            return PartialScanResult(pairs, sorted(set(skipped)))
        return pairs

    async def _scan_node(
        self,
        node: NodeInfo,
        lo: str,
        hi: str,
        limit: Optional[int],
        at: Optional[str],
        allow_partial: bool,
    ) -> Tuple[
        Optional[ClusterMap],
        Tuple[List[Tuple[str, str]], Optional[NodeInfo]],
    ]:
        """One node's scan fragment plus its current map (pipelined).

        With ``allow_partial`` a failure to answer — unreachable node or
        unavailable shard — returns ``(map_or_None, ([], node))`` so the
        caller records the gap; otherwise the error propagates.
        """
        try:
            client = await self._client_for(node.host, node.port)
        except (ConnectionError, OSError):
            if allow_partial:
                return None, ([], node)
            raise
        try:
            node_map, fragment = await asyncio.gather(
                fetch_map(client), client.scan(lo, hi, limit, at=at)
            )
        except (UnavailableError, ConnectionError, OSError):
            if not allow_partial:
                raise
            try:
                return await fetch_map(client), ([], node)
            except (ReproError, ConnectionError, OSError):
                return None, ([], node)
        return node_map, (fragment, None)

    async def _fan_out(
        self,
        per_node: Callable[
            [NodeInfo], Awaitable[Tuple[Optional[ClusterMap], X]]
        ],
        discard: Optional[Callable[[List[X]], Awaitable[None]]] = None,
    ) -> List[X]:
        """``per_node`` on every member at once; their answers.

        Each answer rides with the member's map (``None``: unknown). A
        newer map means the fan-out may have missed a member, so the
        answers go to ``discard``, the map is installed, and the change
        is raised as a MOVED for :meth:`_retrying` to retry.
        """

        async def attempt() -> List[X]:
            nodes = list(self.map.nodes.values())
            results = await asyncio.gather(*(per_node(n) for n in nodes))
            answers = [answer for _, answer in results]
            newest, source = max(
                zip((node_map for node_map, _ in results), nodes),
                key=lambda pair: -1 if pair[0] is None else pair[0].epoch,
            )
            if newest is None or newest.epoch <= self.map.epoch:
                return answers
            if discard is not None:
                await discard(answers)
            self.map = newest
            raise MovedError(
                -1, source.host, source.port, newest.epoch,
                "the cluster map changed during a fan-out",
            )

        return await self._retrying(attempt, lambda: None)

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
        """Run ``op`` against the shard's owner under :meth:`_retrying`."""

        async def attempt() -> T:
            owner = self.map.owner(shard)
            return await op(await self._client_for(owner.host, owner.port))

        return await self._retrying(attempt, lambda: shard)

    async def _retrying(
        self,
        attempt: Callable[[], Awaitable[T]],
        shard_of: Callable[[], Optional[int]],
    ) -> T:
        """The one retry loop of this client stack.

        ``attempt`` routes by the current map and tries once;
        ``shard_of`` names the shard its failure concerns (``None`` for
        a fan-out). MOVED and BUSY (a fence or admission) retry on any
        shard. A transport failure or reply timeout retries only when
        the map gives the shard a replica — a failover may be in
        progress — and otherwise surfaces at once; a retried timeout
        resends a request whose reply was lost (at-least-once). A retry
        refreshes the map from the redirect target, or from the shard's
        replica when it has one (under a symmetric partition only the
        promoted replica holds the map that re-routes the shard), then
        backs off. The deadline is ``retry_s`` from the
        call's start; a MOVED that outlives it becomes
        :class:`ClusterError`, any other failure re-raises.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.retry_s
        delays: Optional[Iterator[float]] = None
        while True:
            try:
                return await attempt()
            except Exception as exc:
                kind = classify(exc)
                shard = shard_of()
                replica = None if shard is None else self.map.replica(shard)
                if (
                    self._closed
                    or kind == FATAL
                    or (kind in (TRANSPORT, TIMEOUT) and replica is None)
                ):
                    raise
                now = loop.time()
                if now >= deadline:
                    if kind == MOVED:
                        raise ClusterError(
                            f"still redirected after {self.retry_s}s: {exc}"
                        ) from exc
                    raise
                if isinstance(exc, MovedError):
                    self.moved_redirects += 1
                    source = (exc.host, exc.port)
                else:
                    self.failover_retries += 1
                    source = (replica.host, replica.port) if replica else None
                if source is not None:
                    try:
                        await asyncio.wait_for(
                            self.refresh(*source), deadline - now
                        )
                    except (ClusterError, asyncio.TimeoutError):
                        pass  # nobody reachable yet: back off and retry
                if delays is None:
                    delays = backoff_delays()
                await asyncio.sleep(
                    max(0.0, min(next(delays), deadline - loop.time()))
                )

    async def _client_for(self, host: str, port: int) -> KVClient:
        """The pooled connection to ``host:port``, dialled on first use.

        A pooled connection already known broken (reset, EOF, poisoned
        by a timeout) is never handed out: it is redialled through the
        per-address circuit breaker, so the pool rides out a member's
        restart. Each address has at most one dial in flight, shared by
        all its callers: a hung connect stalls only that member's
        callers, never another member's.
        """
        if self._closed:
            raise ConnectionError("cluster client closed")
        key = (host, port)
        client = self._pool.get(key)
        if client is not None and client._broken is None:
            return client
        dial = self._dials.get(key)
        if dial is None:
            tripped = self._breaker.get(key)
            if (
                tripped is not None
                and asyncio.get_running_loop().time() < tripped[1]
            ):
                self.breaker_rejections += 1
                raise ConnectionError(
                    f"circuit open to {host}:{port} (connect failed "
                    f"{tripped[0]}x; retrying after backoff)"
                )
            dial = self._dials[key] = asyncio.ensure_future(self._dial(key))
            dial.add_done_callback(lambda _: self._dials.pop(key, None))
        return await asyncio.shield(dial)

    async def _dial(self, key: Tuple[str, int]) -> KVClient:
        """Connect to ``key`` and pool the connection; a failed connect
        opens the address's circuit for its next backoff delay."""
        try:
            client = await KVClient.connect(*key, **self._client_options)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            failures, _, delays = self._breaker.get(
                key, (0, 0.0, backoff_delays())
            )
            self._breaker[key] = (
                failures + 1,
                asyncio.get_running_loop().time() + next(delays),
                delays,
            )
            raise
        self._breaker.pop(key, None)
        async with self._pool_lock:
            # close() may have drained the pool while we dialled;
            # inserting now would leak a connection forever.
            stale = self._pool.pop(key, None)
            if not self._closed:
                self._pool[key] = client
        if stale is not None:
            await stale.close()
        if self._closed:
            await client.close()
            raise ConnectionError("cluster client closed")
        return client
