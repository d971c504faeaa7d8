"""repro.server: an asyncio network front-end for the LSM engine.

The serving layer that turns the library into a system: a length-prefixed
wire protocol with pipelining (:mod:`~repro.server.protocol`), a TCP
server that owns one :class:`~repro.core.tree.LSMTree` and adds group
commit plus admission control (:mod:`~repro.server.server`), a pipelined
retrying client (:mod:`~repro.server.client`), serving-side metrics
surfaced through the ``INFO`` command (:mod:`~repro.server.metrics`), and
a closed-loop load generator (:mod:`~repro.server.loadgen`).

Quickstart::

    # shell 1
    python -m repro.cli serve --port 7379 --background

    # shell 2 (python)
    import asyncio
    from repro.server import KVClient

    async def main():
        async with await KVClient.connect("127.0.0.1", 7379) as kv:
            await kv.put("user42", "alice")
            print(await kv.get("user42"))

    asyncio.run(main())
"""

from .client import (
    BusyError,
    KVClient,
    ServerError,
    SnapshotExpiredError,
    TxnError,
    UnavailableError,
)
from .metrics import LatencyHistogram, ServerMetrics
from .protocol import (
    PROTOCOL_VERSION,
    FrameParser,
    ProtocolError,
    decode_batch,
    encode_batch,
    encode_message,
    encode_messages,
)
from .server import KVServer

__all__ = [
    "KVServer",
    "KVClient",
    "ServerError",
    "BusyError",
    "UnavailableError",
    "SnapshotExpiredError",
    "TxnError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "FrameParser",
    "encode_message",
    "encode_messages",
    "encode_batch",
    "decode_batch",
    "ServerMetrics",
    "LatencyHistogram",
]
