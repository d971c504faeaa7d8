"""Epoch-versioned cluster map: which node owns which shard.

The cluster map is the distributed extension of the sharded store's
``shards.json``: the same routing facts (shard count, hash/range routing,
range boundaries) plus an **epoch**, a **node directory** (node id →
host:port), and a per-shard **assignment** of shards to nodes. It is the
single source of truth every cluster participant routes by:

* a :class:`~repro.cluster.NodeStore` opens exactly the shards its
  assignment row names and answers everything else with
  :class:`~repro.errors.ShardMovedError`;
* a :class:`~repro.cluster.ClusterClient` routes each key to its owning
  node and refreshes the map when a ``MOVED`` reply carries a newer
  epoch;
* a live migration publishes its atomic ownership flip as a *new map
  with the epoch bumped by one* — first persisted by the destination,
  then by the source — so after any crash the freshest epoch names
  exactly one owner per shard;
* cross-node replication records, per shard, an optional **replica**
  node that keeps a warm copy of the shard on a *different* server; a
  failover promotes that replica by publishing a bumped-epoch map in
  which the old primary and replica have swapped roles
  (:meth:`ClusterMap.with_failover`).

Epochs are totally ordered and only ever grow. Two maps with the same
epoch are required to be identical (a map is immutable once published);
a node or client holding epoch *e* discards anything older and installs
anything newer wholesale. The map is small (it scales with shard count,
not key count), so "ship the whole map" beats any delta scheme at this
size.

Persistence: ``cluster.json`` in each node's WAL directory, written with
the same tmp-file + atomic-rename discipline as every other manifest in
the engine (failpoints ``cluster.map.tmp`` / ``cluster.map.done``), so a
crash never leaves a torn map — only the old one or the new one.
"""

from __future__ import annotations

import bisect
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError, CorruptionError
from ..shard.store import hash_shard_index
from ..storage.files import replace_durably

#: File name of the persisted map inside a cluster node's WAL directory.
CLUSTER_MANIFEST = "cluster.json"

_ROUTINGS = ("hash", "range")


@dataclass(frozen=True)
class NodeInfo:
    """One cluster member: a stable identity plus its serving address."""

    node_id: str
    host: str
    port: int

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


class ClusterMap:
    """An immutable epoch-versioned shard → node assignment.

    Args:
        assignments: ``node_id`` owning each shard, indexed by shard
            (``len(assignments)`` is the shard count).
        nodes: The node directory; every assigned node id must appear.
        epoch: Version counter; derived maps bump it by one.
        routing: ``"hash"`` (default) or ``"range"``.
        boundaries: Sorted split keys for range routing
            (``len(assignments) - 1`` of them).
        replicas: Optional per-shard replica node id (``None`` entries
            mean "no replica"); a replica must be a known node and must
            differ from the shard's primary.
    """

    def __init__(
        self,
        assignments: Sequence[str],
        nodes: Sequence[NodeInfo],
        *,
        epoch: int = 0,
        routing: str = "hash",
        boundaries: Optional[Sequence[str]] = None,
        replicas: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        if not assignments:
            raise ConfigError("a cluster map needs at least one shard")
        if routing not in _ROUTINGS:
            raise ConfigError(f"routing must be one of {_ROUTINGS}")
        if epoch < 0:
            raise ConfigError("epoch must be non-negative")
        self.epoch = int(epoch)
        self.routing = routing
        self.assignments: Tuple[str, ...] = tuple(assignments)
        self.nodes: Dict[str, NodeInfo] = {
            node.node_id: node for node in nodes
        }
        if len(self.nodes) != len(nodes):
            raise ConfigError("node ids must be distinct")
        missing = sorted(set(self.assignments) - set(self.nodes))
        if missing:
            raise ConfigError(
                f"assignments name unknown nodes: {missing}"
            )
        if replicas is None:
            self.replicas: Tuple[Optional[str], ...] = (None,) * len(
                self.assignments
            )
        else:
            if len(replicas) != len(self.assignments):
                raise ConfigError(
                    f"{len(replicas)} replica entries contradict "
                    f"{len(self.assignments)} shards"
                )
            for shard, replica in enumerate(replicas):
                if replica is None:
                    continue
                if replica not in self.nodes:
                    raise ConfigError(
                        f"shard {shard} replica names unknown node "
                        f"{replica!r}"
                    )
                if replica == self.assignments[shard]:
                    raise ConfigError(
                        f"shard {shard} replica must differ from its "
                        f"primary {replica!r}"
                    )
            self.replicas = tuple(replicas)
        if boundaries is not None:
            ordered = list(boundaries)
            if ordered != sorted(ordered) or len(set(ordered)) != len(
                ordered
            ):
                raise ConfigError("boundaries must be sorted and distinct")
            if len(ordered) != len(self.assignments) - 1:
                raise ConfigError(
                    f"{len(ordered)} boundaries contradict "
                    f"{len(self.assignments)} shards"
                )
            self.routing = "range"
            self.boundaries: List[str] = ordered
        elif routing == "range":
            raise ConfigError("range routing needs explicit boundaries")
        else:
            self.boundaries = []

    # -- construction helpers -------------------------------------------------

    @classmethod
    def even(
        cls,
        num_shards: int,
        nodes: Sequence[NodeInfo],
        *,
        epoch: int = 0,
        routing: str = "hash",
        boundaries: Optional[Sequence[str]] = None,
        replicated: bool = False,
    ) -> "ClusterMap":
        """Round-robin ``num_shards`` shards over ``nodes`` (shard *i* →
        node *i mod N*), the canonical bootstrap assignment.

        ``replicated=True`` additionally places each shard's replica on
        the *next* node round-robin (shard *i* → node *(i+1) mod N*), so
        every replica lives on a different server; needs >= 2 nodes.
        """
        if num_shards < 1:
            raise ConfigError("num_shards must be at least 1")
        if not nodes:
            raise ConfigError("a cluster needs at least one node")
        assignments = [
            nodes[index % len(nodes)].node_id for index in range(num_shards)
        ]
        replicas: Optional[List[Optional[str]]] = None
        if replicated:
            if len(nodes) < 2:
                raise ConfigError(
                    "replicated placement needs at least 2 nodes"
                )
            replicas = [
                nodes[(index + 1) % len(nodes)].node_id
                for index in range(num_shards)
            ]
        return cls(
            assignments,
            nodes,
            epoch=epoch,
            routing=routing,
            boundaries=boundaries,
            replicas=replicas,
        )

    # -- routing --------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.assignments)

    def shard_index(self, key: str) -> int:
        """Shard owning ``key`` — identical placement to ShardedStore."""
        if self.routing == "hash":
            return hash_shard_index(key, len(self.assignments))
        return bisect.bisect_right(self.boundaries, key)

    def owner_id(self, shard: int) -> str:
        """Node id assigned to ``shard``."""
        return self.assignments[shard]

    def owner(self, shard: int) -> NodeInfo:
        """Full node record assigned to ``shard``."""
        return self.nodes[self.assignments[shard]]

    def shards_of(self, node_id: str) -> List[int]:
        """Shards assigned to ``node_id`` (possibly empty), ascending."""
        return [
            shard
            for shard, owner in enumerate(self.assignments)
            if owner == node_id
        ]

    def replica_id(self, shard: int) -> Optional[str]:
        """Node id replicating ``shard``, or ``None`` (no replica)."""
        return self.replicas[shard]

    def replica(self, shard: int) -> Optional[NodeInfo]:
        """Full node record replicating ``shard``, or ``None``."""
        replica = self.replicas[shard]
        return None if replica is None else self.nodes[replica]

    def replicas_of(self, node_id: str) -> List[int]:
        """Shards whose replica lives on ``node_id``, ascending."""
        return [
            shard
            for shard, replica in enumerate(self.replicas)
            if replica == node_id
        ]

    # -- derivation -----------------------------------------------------------

    def _successor(
        self,
        *,
        assignments: Optional[Sequence[str]] = None,
        nodes: Optional[Sequence[NodeInfo]] = None,
        replicas: Optional[Sequence[Optional[str]]] = None,
    ) -> "ClusterMap":
        """The next epoch's map: whatever a derivation does not name is
        carried — which is what keeps a membership change from dropping
        replica placement, or a move from dropping the boundaries."""
        return ClusterMap(
            self.assignments if assignments is None else assignments,
            list(self.nodes.values()) if nodes is None else nodes,
            epoch=self.epoch + 1,
            routing=self.routing,
            boundaries=self.boundaries or None,
            replicas=self.replicas if replicas is None else replicas,
        )

    def with_assignment(
        self,
        shard: int,
        node_id: str,
        *,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ) -> "ClusterMap":
        """A new map (epoch + 1) with ``shard`` reassigned to ``node_id``.

        A previously unknown node id joins the directory when ``host`` /
        ``port`` are given — this is how a joining node receives its
        first shard.
        """
        if not 0 <= shard < len(self.assignments):
            raise ValueError(f"shard {shard} out of range")
        nodes = dict(self.nodes)
        if node_id not in nodes:
            if host is None or port is None:
                raise ConfigError(
                    f"unknown node {node_id!r}; give host/port to add it"
                )
            nodes[node_id] = NodeInfo(node_id, host, int(port))
        assignments = list(self.assignments)
        assignments[shard] = node_id
        replicas = list(self.replicas)
        if replicas[shard] == node_id:
            # The shard migrated onto its own replica; a self-replica is
            # meaningless, so the slot clears (re-placed by the operator).
            replicas[shard] = None
        return self._successor(
            assignments=assignments,
            nodes=list(nodes.values()),
            replicas=replicas,
        )

    def with_members(self, nodes: Sequence[NodeInfo]) -> "ClusterMap":
        """A new map (epoch + 1) whose node directory is ``nodes`` — the
        only membership successor: assignments, replicas, routing and
        boundaries are carried, so a join (or a member's new address)
        changes who is reachable and nothing about who holds what. A
        node that still owns or replicates a shard cannot be left out
        (:class:`~repro.errors.ConfigError`): its shards move first."""
        return self._successor(nodes=nodes)

    def with_failover(
        self, shards: Sequence[int], new_primary: str
    ) -> "ClusterMap":
        """A new map (epoch + 1) promoting ``new_primary`` for ``shards``.

        For each shard the current replica (``new_primary``) becomes the
        primary and the old primary is demoted to replica — the roles
        swap, so when the dead node rejoins it re-syncs as the warm
        standby of its former shards. One epoch bump covers the whole
        promotion, so a failover is a single map publish.
        """
        if not shards:
            raise ConfigError("a failover needs at least one shard")
        assignments = list(self.assignments)
        replicas = list(self.replicas)
        for shard in shards:
            if not 0 <= shard < len(assignments):
                raise ValueError(f"shard {shard} out of range")
            if replicas[shard] != new_primary:
                raise ConfigError(
                    f"shard {shard} is replicated by "
                    f"{replicas[shard]!r}, not {new_primary!r}; refusing "
                    "to promote a node that holds no replica"
                )
            assignments[shard], replicas[shard] = (
                new_primary,
                assignments[shard],
            )
        return self._successor(assignments=assignments, replicas=replicas)

    def plan_moves(
        self, nodes: Sequence[NodeInfo]
    ) -> List[Tuple[int, str]]:
        """Minimal-ish move list rebalancing shards onto ``nodes``.

        ``nodes`` is the *desired* membership after a join/leave. Every
        shard on a departing node must move; beyond that, shards move
        greedily from the most- to the least-loaded member until loads
        differ by at most one. Returns ``[(shard, dest_node_id), ...]``
        in execution order — each move is one live migration, and
        applying them via :meth:`with_assignment` yields the final map.
        """
        if not nodes:
            raise ConfigError("a cluster needs at least one node")
        member_ids = [node.node_id for node in nodes]
        load: Dict[str, List[int]] = {node_id: [] for node_id in member_ids}
        homeless: List[int] = []
        for shard, owner in enumerate(self.assignments):
            if owner in load:
                load[owner].append(shard)
            else:
                homeless.append(shard)  # owner is leaving
        moves: List[Tuple[int, str]] = []
        for shard in homeless:
            dest = min(member_ids, key=lambda n: len(load[n]))
            load[dest].append(shard)
            moves.append((shard, dest))
        while True:
            busiest = max(member_ids, key=lambda n: len(load[n]))
            idlest = min(member_ids, key=lambda n: len(load[n]))
            if len(load[busiest]) - len(load[idlest]) <= 1:
                return moves
            shard = load[busiest].pop()
            load[idlest].append(shard)
            moves.append((shard, idlest))

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "num_shards": len(self.assignments),
            "routing": self.routing,
            "boundaries": self.boundaries,
            "nodes": {
                node_id: {"host": node.host, "port": node.port}
                for node_id, node in sorted(self.nodes.items())
            },
            "assignments": list(self.assignments),
            "replicas": list(self.replicas),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "ClusterMap":
        try:
            nodes = [
                NodeInfo(node_id, entry["host"], int(entry["port"]))
                for node_id, entry in doc["nodes"].items()  # type: ignore
            ]
            assignments = list(doc["assignments"])  # type: ignore[arg-type]
            boundaries = list(doc.get("boundaries") or []) or None
            raw_replicas = doc.get("replicas")  # absent in pre-PR9 maps
            replicas = (
                None if raw_replicas is None else list(raw_replicas)
            )
            cluster_map = cls(
                assignments,
                nodes,
                epoch=int(doc["epoch"]),  # type: ignore[arg-type]
                routing=str(doc.get("routing", "hash")),
                boundaries=boundaries,
                replicas=replicas,  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"malformed cluster map: {exc!r}") from exc
        declared = int(doc.get("num_shards", cluster_map.num_shards))
        if declared != cluster_map.num_shards:
            raise ConfigError(
                f"cluster map declares {declared} shards but assigns "
                f"{cluster_map.num_shards}"
            )
        return cluster_map

    @classmethod
    def from_json(cls, text: str) -> "ClusterMap":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"cluster map is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(doc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterMap):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterMap(epoch={self.epoch}, shards={self.num_shards}, "
            f"nodes={sorted(self.nodes)})"
        )

    # -- persistence ----------------------------------------------------------

    def save(self, directory: str) -> None:
        """Persist as ``cluster.json`` via :func:`replace_durably`.

        Refuses to go backwards: overwriting a map with a *higher* epoch
        (or a different same-epoch map) raises
        :class:`~repro.errors.ConfigError` — published maps are immutable
        and epochs only grow. Writing the identical map again is a no-op,
        so recovery re-saves cost nothing and cross no failpoints.
        """
        path = os.path.join(directory, CLUSTER_MANIFEST)
        if os.path.exists(path):
            existing = ClusterMap.load(directory)
            if existing.epoch > self.epoch:
                raise ConfigError(
                    f"{path} holds epoch {existing.epoch}; refusing to "
                    f"regress to epoch {self.epoch}"
                )
            if existing.epoch == self.epoch:
                if existing != self:
                    raise ConfigError(
                        f"{path} holds a different map at the same epoch "
                        f"{self.epoch}; published maps are immutable"
                    )
                return
        replace_durably(path, self.to_json().encode("utf-8"), "cluster.map")

    @classmethod
    def load(cls, directory: str) -> "ClusterMap":
        """Read the persisted map back; :class:`~repro.errors.ConfigError`
        when the directory holds none."""
        path = os.path.join(directory, CLUSTER_MANIFEST)
        if not os.path.exists(path):
            raise ConfigError(
                f"no {CLUSTER_MANIFEST} in {directory}; not a cluster "
                "node directory"
            )
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            return cls.from_json(text)
        except ConfigError as exc:
            raise CorruptionError(
                f"cluster map failed validation: {exc}", path=path
            ) from exc
