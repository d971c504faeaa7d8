"""Wire protocol for the KV server: length-prefixed string frames.

The protocol is RESP-like in spirit — every message is a flat array of
UTF-8 strings whose first element is the verb (requests) or status
(replies) — but framed with explicit binary lengths instead of sentinel
characters, so keys and values may contain *any* text, including newlines
and commas, without escaping.

Frame layout (all integers big-endian)::

    u32  payload length (bytes that follow; bounded by max_frame_bytes)
    u32  field count (>= 1)
    then per field:  u32 byte length, UTF-8 bytes

Because frames are self-delimiting, any number of requests can be written
back-to-back on one connection before the first reply arrives — that is
pipelining, and :class:`FrameParser` is the incremental decoder that makes
it work: feed it whatever bytes the transport produced and it yields every
complete message, buffering the tail of a partial frame for the next feed.

Requests::

    PING | GET k | PUT k v | DELETE k | SCAN lo hi [limit] | INFO | HEALTH
    BATCH (PUT k v | DELETE k)...
    HELLO version                               -- v2 handshake
    SNAP | SNAP.END token                       -- v2: snapshot lifecycle
    GET k AT token | SCAN lo hi [limit] AT token  -- v2: snapshot reads
    MULTI (PUT k v | DELETE k)...               -- v2: atomic batch
    CLUSTER | MIGRATE shard node_id
    MIG.BEGIN shard | MIG.APPLY shard (PUT k v | DELETE k)... | MIG.SEAL map
    REPL.SYNC shard map | REPL.SHIP shard (PUT k v | DELETE k)...
    REPL.SEEDED shard | REPL.PING node_id epoch

``SCAN``'s optional fourth field is a non-negative decimal integer capping
the number of returned pairs; the two-field form is unchanged and means
"no limit". ``HEALTH`` reports the store's degraded-mode state without
touching data paths, so it works even while every shard is quarantined.

**Version negotiation.** The protocol is versioned per connection.
A connection starts at version 1 — exactly the verb set older clients
speak — and ``HELLO <version>`` upgrades it: the server answers ``HELLO
<negotiated>`` with the highest version both sides support (currently
``2``). The transactional verbs (``SNAP``, ``SNAP.END``, ``MULTI``, and
the ``AT`` suffix on ``GET``/``SCAN``) require a negotiated version of at
least 2 and answer ``ERR BADREQ`` otherwise, so a v1 client can never
trip over replies it does not understand — and a v1 client that never
sends ``HELLO`` sees a byte-identical protocol.

* ``SNAP`` captures a store-wide consistent read point and replies
  ``SNAP <token>``; the server holds the engine-side version pins until
  ``SNAP.END <token>`` (reply ``OK``) or the connection closes.
* ``GET k AT token`` / ``SCAN lo hi [limit] AT token`` answer as of the
  snapshot, consistent across shards.
* ``MULTI`` carries the same sub-op stream as ``BATCH`` but commits
  store-wide atomically — across shards via two-phase commit — and
  replies ``OK <n>``. (``BATCH`` keeps its historical per-routing
  semantics on the group-commit fast path.)

The last four request lines exist only on cluster nodes
(:mod:`repro.cluster`): ``CLUSTER`` fetches the node's cluster map,
``MIGRATE`` asks the owning node to migrate one shard to a peer, the
``MIG.*`` verbs are the node-to-node migration stream (begin a receiving
shard, apply a shipped batch, seal ownership under a bumped-epoch map),
and the ``REPL.*`` verbs are the node-to-node replication stream
(``REPL.SYNC`` wipes and reopens a standby for reseeding under the
shipped map, ``REPL.SHIP`` applies one seed chunk or live commit group,
``REPL.SEEDED`` marks the standby promotable, ``REPL.PING`` is the peer
heartbeat carrying the sender's map epoch).

Replies::

    PONG | OK [n] | VALUE v | NONE | PAIRS k v ... | INFO json
    HELLO version           -- negotiated protocol version
    SNAP token              -- snapshot handle (v2)
    HEALTH json             -- {"state", "num_shards", "quarantined", ...}
    CLUSTER json            -- the node's ClusterMap (epoch'd shard→node)
    BUSY message            -- retryable: the engine is write-stopped
    ERR code message        -- structured failure, connection stays usable

Error codes a client should know:

* ``ERR UNAVAILABLE <shard> <detail>`` — the key's shard is quarantined
  after a background failure; the *connection* and every other shard stay
  usable, so clients should fail only the affected keys (and may retry
  after an operator restores the shard). The third field is the decimal
  shard index.
* ``ERR MOVED <shard> <host>:<port> <epoch> <detail>`` — cluster mode:
  the shard is alive but owned by the node at ``host:port`` (as of map
  epoch ``epoch``). Retryable immediately *at that address*; a client
  whose map epoch is older should refresh via ``CLUSTER``.
* ``ERR BACKGROUND <detail>`` — a background flush/compaction failed on a
  non-sharded store; the store stays readable but refuses writes.
* ``ERR SNAPEXPIRED <detail>`` — the snapshot named by ``AT`` can no
  longer be served consistently (its versions were compacted away or the
  engine's pin budget overflowed). Take a fresh ``SNAP`` and retry.
* ``ERR TXN <detail>`` — a ``MULTI`` batch was rolled back before its
  commit point; nothing was applied anywhere. Retryable as-is.
* ``ERR REFUSED <detail>`` — the request breaks a rule, not the server:
  a migration onto the shard's owner, a replica stream to the node that
  serves the shard, a superseded stream's late frame. Not a fault, and
  not retryable as-is.
* ``ERR BADREQ | PROTOCOL | CLOSED | INTERNAL`` — see the server module.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ReproError

#: Default ceiling on one frame's payload; the server may lower/raise it.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Highest protocol version this codebase speaks (see the module
#: docstring's version-negotiation section).
PROTOCOL_VERSION = 2

_U32 = struct.Struct(">I")
_U32x2 = struct.Struct(">II")

#: Consumed-prefix size past which :class:`FrameParser` compacts its buffer.
#: Compaction only runs once the consumed prefix is also at least half the
#: buffer, so each retained byte is copied O(1) times amortized — the
#: offset-cursor design that replaces the old delete-per-frame behavior
#: (O(n²) on heavily pipelined connections).
_COMPACT_BYTES = 64 * 1024


class ProtocolError(ReproError):
    """A frame violated the wire protocol (malformed, oversized, …).

    Unlike an ``ERR`` reply this is not recoverable on the same
    connection: once framing is lost the stream cannot be re-synchronized,
    so both ends close the connection on it.
    """


def encode_message(fields: Sequence[str]) -> bytes:
    """Encode one message (a non-empty list of strings) as a frame."""
    if len(fields) == 1:
        # Hot constant replies: every successful PUT/DELETE is ``OK`` and
        # every missing GET is ``NIL``, so these frames are pre-encoded.
        frame = _CONSTANT_FRAMES.get(fields[0])
        if frame is not None:
            return frame
    if not fields:
        raise ProtocolError("messages need at least one field")
    encoded = [field.encode("utf-8") for field in fields]
    payload_len = _U32.size * (len(encoded) + 1) + sum(
        len(raw) for raw in encoded
    )
    chunks: List[bytes] = [_U32x2.pack(payload_len, len(encoded))]
    pack_len = _U32.pack
    append = chunks.append
    for raw in encoded:
        append(pack_len(len(raw)))
        append(raw)
    return b"".join(chunks)


_CONSTANT_FRAMES: Dict[str, bytes] = {
    word: (
        _U32x2.pack(_U32.size * 2 + len(word), 1)
        + _U32.pack(len(word))
        + word.encode("utf-8")
    )
    for word in ("OK", "NIL", "PONG")
}


def encode_messages(messages: Sequence[Sequence[str]]) -> bytes:
    """Encode several messages into one contiguous buffer.

    The serving layer uses this to answer a whole pipelined run with a
    single transport write — one ``send(2)`` for N replies instead of N.
    """
    return b"".join(encode_message(message) for message in messages)


class FrameParser:
    """Incremental zero-copy frame decoder: bytes in, complete messages out.

    One parser per connection. :meth:`feed` accepts arbitrary byte chunks
    (a TCP stream fragments frames however it likes) and returns every
    message completed by that chunk, keeping partial-frame bytes buffered.
    A frame whose declared payload exceeds ``max_frame_bytes`` raises
    :class:`ProtocolError` *before* the payload is buffered, bounding
    memory per connection.

    Internally the parser keeps one append-only ``bytearray`` and an
    offset cursor. Completed frames are decoded through ``memoryview``
    slices of that buffer — field bytes are copied exactly once, straight
    into their final ``str`` objects — and consumed bytes are reclaimed
    by periodic compaction instead of a per-frame ``del buffer[:end]``,
    which re-shifted the whole residue on every frame and made heavily
    pipelined feeds quadratic.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._cursor = 0  # bytes before this offset are consumed

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently buffered and not yet consumed (observability)."""
        return len(self._buffer) - self._cursor

    def feed(self, data: bytes) -> List[List[str]]:
        """Consume ``data``; return the messages it completed (in order)."""
        buffer = self._buffer
        buffer += data
        messages: List[List[str]] = []
        cursor = self._cursor
        buffered = len(buffer)
        header_size = _U32.size
        unpack_len = _U32.unpack_from
        decode = self._decode_payload
        view = memoryview(buffer)
        try:
            while buffered - cursor >= header_size:
                (payload_len,) = unpack_len(buffer, cursor)
                if payload_len > self.max_frame_bytes:
                    raise ProtocolError(
                        f"frame of {payload_len} bytes exceeds the "
                        f"{self.max_frame_bytes}-byte limit"
                    )
                end = cursor + header_size + payload_len
                if buffered < end:
                    break
                messages.append(
                    decode(view[cursor + header_size : end], payload_len)
                )
                cursor = end
        finally:
            view.release()
            self._cursor = cursor
            self._compact()
        return messages

    def _compact(self) -> None:
        """Reclaim the consumed prefix when it is worth the copy."""
        cursor = self._cursor
        if cursor == 0:
            return
        buffer = self._buffer
        if cursor == len(buffer):
            buffer.clear()
            self._cursor = 0
        elif cursor >= _COMPACT_BYTES and cursor * 2 >= len(buffer):
            del buffer[:cursor]
            self._cursor = 0

    @staticmethod
    def _decode_payload(payload: memoryview, payload_len: int) -> List[str]:
        header_size = _U32.size
        if payload_len < header_size:
            raise ProtocolError("frame payload too short for a field count")
        (count,) = _U32.unpack_from(payload)
        if count < 1:
            raise ProtocolError("messages need at least one field")
        fields: List[str] = []
        append = fields.append
        unpack_len = _U32.unpack_from
        offset = header_size
        for _ in range(count):
            if payload_len < offset + header_size:
                raise ProtocolError("frame truncated inside a field header")
            (length,) = unpack_len(payload, offset)
            offset += header_size
            if payload_len < offset + length:
                raise ProtocolError("frame truncated inside a field body")
            try:
                # str(memoryview, "utf-8") decodes the slice without an
                # intermediate bytes object: the only copy is into the str.
                append(str(payload[offset : offset + length], "utf-8"))
            except UnicodeDecodeError as exc:
                raise ProtocolError("field is not valid UTF-8") from exc
            offset += length
        if offset != payload_len:
            raise ProtocolError("frame has trailing bytes after last field")
        return fields


# -- BATCH sub-op (de)serialization -----------------------------------------

#: One batch write as the engine consumes it: (op, key, value-or-None).
BatchOp = Tuple[str, str, Optional[str]]


def encode_batch(ops: Iterable[BatchOp]) -> List[str]:
    """Flatten batch ops into a BATCH request's field list."""
    fields = ["BATCH"]
    for op, key, value in ops:
        if op == "put":
            fields.extend(("PUT", key, value if value is not None else ""))
        elif op == "delete":
            fields.extend(("DELETE", key))
        else:
            raise ProtocolError(f"unknown batch op {op!r}")
    return fields


def decode_batch(fields: Sequence[str]) -> List[BatchOp]:
    """Parse a BATCH request's fields back into engine batch ops."""
    ops: List[BatchOp] = []
    index = 1  # fields[0] == "BATCH"
    while index < len(fields):
        verb = fields[index]
        if verb == "PUT":
            if index + 2 >= len(fields):
                raise ProtocolError("BATCH PUT needs a key and a value")
            ops.append(("put", fields[index + 1], fields[index + 2]))
            index += 3
        elif verb == "DELETE":
            if index + 1 >= len(fields):
                raise ProtocolError("BATCH DELETE needs a key")
            ops.append(("delete", fields[index + 1], None))
            index += 2
        else:
            raise ProtocolError(f"unknown BATCH sub-op {verb!r}")
    return ops
