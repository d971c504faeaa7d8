"""Seeded op streams and the model their replies are checked against.

Everything a workload will send is generated here from ``--seed`` before
any clock starts: the preload and the timed stream are fixed op counts,
so the program under test sees only generated ops and a faster program
does the same work in less time (rule 1 of the README).

Keys are 16 bytes. Preloaded key ``i`` is ``k{2i:015d}``; the odd ids
between them are the keys GETs of absent data ask for and, on
``engine_write``, the pool inserts come from — absent keys are therefore
inside every table's key range, so only the filters can reject them.
Values are 100 bytes and name their key and version, ``key:version:pad``,
which is what lets a reply be checked without knowing the history.
"""

from __future__ import annotations

import collections
import itertools
import random
from typing import Dict, List, NamedTuple, Optional, Tuple

import spec

#: Sorts above every generated key; the upper bound of limit-bounded scans.
KEY_CEILING = "l"

BATCH_OPS = 12
SCAN_KEYS = 50
SERVED_SCAN_LIMIT = 20
MULTI_OPS = 4
WINDOW = 8
CONNECTIONS = 2
CALLERS = 8
ZIPF_THETA = 0.99

#: Op counts at ``--scale 1 --seconds RUN_SECONDS``, sized on the reference
#: box so each timed stream takes about RUN_SECONDS seconds.
SIZES = {
    "engine_write": {"preload": 20_000, "calls": 10_000},
    "engine_read": {"preload": 20_000, "calls": 240_000},
    "serve_mixed": {"preload": 16_000, "calls": 2_600},  # windows per conn
    "cluster_repl": {"preload": 6_000, "calls": 320},  # calls per caller
}

BatchOp = Tuple[str, str, Optional[str]]


def present_key(index: int) -> str:
    return f"k{2 * index:015d}"


def absent_key(index: int) -> str:
    return f"k{2 * index + 1:015d}"


def value(key: str, version: int) -> str:
    return f"{key}:{version:08d}:".ljust(100, "x")


def parse_value(text: str) -> Tuple[str, int]:
    """``(key, version)`` a value names; raises ``ValueError`` if malformed."""
    if len(text) != 100 or text[16] != ":" or text[25] != ":":
        raise ValueError("not a ledger value")
    return text[:16], int(text[17:25])


#: Blocks' worth of the stream run before the clock starts, so garbage,
#: level count and bytes written per user byte are level while timed.
WARM_BLOCKS = 3


def sized(workload: str, scale: float, seconds: float) -> Tuple[int, int]:
    """``(preload keys, calls per timed block per driver)`` for a run.

    ``scale`` shrinks both (smoke runs); ``seconds`` stretches only the
    stream. A driver's stream is ``WARM_BLOCKS + BLOCKS`` blocks long.
    """
    base = SIZES[workload]
    preload = max(400, int(base["preload"] * scale))
    calls = base["calls"] * scale * seconds / spec.RUN_SECONDS
    return preload, max(2, round(calls / spec.BLOCKS))


def _split(per_block: int) -> Tuple[int, int]:
    """(warm-up calls, total calls) of one driver's stream."""
    warm = WARM_BLOCKS * per_block
    return warm, warm + spec.BLOCKS * per_block


def preload_batches(keys: List[str], size: int) -> List[List[BatchOp]]:
    return [
        [("put", key, value(key, 0)) for key in keys[start:start + size]]
        for start in range(0, len(keys), size)
    ]


class EnginePlan(NamedTuple):
    """One embedded workload: what to load, what to time, what must hold."""

    preload: List[List[BatchOp]]
    warm: int  # leading calls run before the clock starts
    #: The stream's calls. ``("w", batch)``, ``("g", key, expected value or None)``
    #: or ``("s", index)`` scanning ``SCAN_KEYS`` keys from ``pairs[index]``.
    calls: List[tuple]
    #: Every key the run writes -> the value a read-back must return.
    expected: Dict[str, Optional[str]]
    pairs: List[Tuple[str, str]]  # preloaded (key, value) in key order


def _shuffled(rng: random.Random, items: List[str]) -> List[str]:
    order = list(items)
    rng.shuffle(order)
    return order


#: Extra (inserted) keys live at any time on ``engine_write``, as a share
#: of the preloaded keys. Deletes take the *oldest* insert, so a delete
#: meets its key long after the insert was flushed, not in the same buffer.
CHURN_POOL = 0.10


def engine_write_plan(seed: int, preload: int, per_block: int) -> EnginePlan:
    """70 % update, 15 % insert, 15 % delete of the oldest earlier insert,
    uniform, in ``write_batch`` calls of 12. The preload already holds the
    pool of inserted keys, so store size is level from the first call."""
    rng = random.Random(seed)
    keys = [present_key(index) for index in range(preload)]
    extra = [absent_key(index) for index in range(preload)]
    rng.shuffle(extra)
    pool = int(preload * CHURN_POOL)
    inserted = collections.deque(extra[:pool])  # live extras, oldest first
    spare = collections.deque(extra[pool:])  # extras not live
    loaded = keys + list(inserted)
    version: Dict[str, int] = dict.fromkeys(loaded, 0)
    warm, calls = _split(per_block)
    timed = []
    for _ in range(calls):
        batch: List[BatchOp] = []
        for _ in range(BATCH_OPS):
            draw = rng.random()
            if draw >= 0.85:
                key = inserted.popleft()
                spare.append(key)
                batch.append(("delete", key, None))
                continue
            if draw < 0.70:
                key = keys[rng.randrange(preload)]
            else:
                key = spare.popleft()
                inserted.append(key)
            version[key] = version.get(key, -1) + 1
            batch.append(("put", key, value(key, version[key])))
        timed.append(("w", batch))
    live = set(keys) | set(inserted)
    expected = {
        key: value(key, ver) if key in live else None
        for key, ver in version.items()
    }
    return EnginePlan(
        preload_batches(_shuffled(rng, loaded), BATCH_OPS),
        warm,
        timed,
        expected,
        [(key, value(key, 0)) for key in keys],
    )


def engine_read_plan(seed: int, preload: int, per_block: int) -> EnginePlan:
    """60 % GET hit, 25 % GET of an absent in-range key, 15 % SCAN of 50
    (15, not 10: the reported tail is the p90, which must not sit on the
    boundary between the GETs and the ten-times-slower SCANs)."""
    rng = random.Random(seed)
    keys = [present_key(index) for index in range(preload)]
    pairs = [(key, value(key, 0)) for key in keys]
    warm, calls = _split(per_block)
    timed = []
    for _ in range(calls):
        draw = rng.random()
        if draw < 0.60:
            timed.append(("g",) + pairs[rng.randrange(preload)])
        elif draw < 0.85:
            timed.append(("g", absent_key(rng.randrange(preload)), None))
        else:
            timed.append(("s", rng.randrange(preload - SCAN_KEYS)))
    return EnginePlan(
        preload_batches(_shuffled(rng, keys), BATCH_OPS),
        warm,
        timed,
        dict(pairs),
        pairs,
    )


class Request(NamedTuple):
    """One wire request and what its reply is checked against."""

    fields: List[str]
    kind: str  # "get" | "miss" | "put" | "scan" | "multi"
    key: str  # the key read, the scan's lower bound, or "" for multi
    writes: Tuple[Tuple[str, int], ...]  # (key, version) this request puts
    ops: int


class ServedPlan(NamedTuple):
    keys: List[str]
    preload: List[List[BatchOp]]
    warm: int  # leading calls of each driver run before the clock starts
    #: Per driver (connection or caller), its calls in order; a call
    #: is a window of requests on ``serve_mixed`` and one request on
    #: ``cluster_repl``.
    drivers: List[List[List[Request]]]


def _put(key: str, version: Dict[str, int]) -> Tuple[str, int]:
    """The next version of ``key`` (each key has one writer)."""
    version[key] = version.get(key, 0) + 1
    return key, version[key]


def _write_request(verb: str, puts: List[Tuple[str, int]]) -> Request:
    if verb == "PUT":
        (key, ver), = puts
        return Request(["PUT", key, value(key, ver)], "put", key,
                       tuple(puts), 1)
    fields = ["MULTI"]
    for key, ver in puts:
        fields += ["PUT", key, value(key, ver)]
    return Request(fields, "multi", "", tuple(puts), len(puts))


def serve_mixed_plan(seed: int, preload: int, per_block: int) -> ServedPlan:
    """Zipfian (theta 0.99) windows of 8: 50 % GET (1 in 5 absent), 40 %
    PUT update, 5 % SCAN limit 20, 5 % MULTI of 4. Connection ``c``
    writes only keys of index ``c`` mod 2, so every key has one writer
    and its versions are known when the stream is generated."""
    rng = random.Random(seed)
    keys = [present_key(index) for index in range(preload)]
    ranks = list(range(preload))
    rng.shuffle(ranks)  # rank -> key index: hot keys spread over the range
    cum = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_THETA for rank in range(preload)
    ))
    version: Dict[str, int] = {}
    warm, windows = _split(per_block)
    drivers = []
    for conn in range(CONNECTIONS):
        draws = iter(rng.choices(
            ranks, cum_weights=cum, k=windows * WINDOW * MULTI_OPS
        ))

        def own() -> str:
            index = next(draws)
            index += conn - index % CONNECTIONS
            return keys[index if index < preload else index - CONNECTIONS]

        stream = []
        for _ in range(windows):
            window = []
            for _ in range(WINDOW):
                draw = rng.random()
                if draw < 0.10:
                    key = absent_key(next(draws))
                    window.append(Request(["GET", key], "miss", key, (), 1))
                elif draw < 0.50:
                    key = keys[next(draws)]
                    window.append(Request(["GET", key], "get", key, (), 1))
                elif draw < 0.90:
                    window.append(
                        _write_request("PUT", [_put(own(), version)])
                    )
                elif draw < 0.95:
                    index = min(next(draws), preload - SERVED_SCAN_LIMIT)
                    window.append(Request(
                        ["SCAN", keys[index], KEY_CEILING,
                         str(SERVED_SCAN_LIMIT)],
                        "scan", keys[index], (), 1,
                    ))
                else:
                    window.append(_write_request(
                        "MULTI",
                        [_put(own(), version) for _ in range(MULTI_OPS)],
                    ))
            stream.append(window)
        drivers.append(stream)
    order = _shuffled(rng, keys)
    return ServedPlan(keys, preload_batches(order, BATCH_OPS), warm, drivers)


def cluster_repl_plan(seed: int, preload: int, per_block: int) -> ServedPlan:
    """8 closed-loop callers, uniform keys: 60 % PUT update, 20 % GET, 20 %
    MULTI of 4. Caller ``c`` writes only keys of index ``c`` mod 8."""
    rng = random.Random(seed)
    keys = [present_key(index) for index in range(preload)]
    version: Dict[str, int] = {}
    warm, calls = _split(per_block)
    drivers = []
    for caller in range(CALLERS):

        def own() -> str:
            index = rng.randrange(preload // CALLERS) * CALLERS + caller
            return keys[index]

        stream = []
        for _ in range(calls):
            draw = rng.random()
            if draw < 0.60:
                request = _write_request("PUT", [_put(own(), version)])
            elif draw < 0.80:
                key = keys[rng.randrange(preload)]
                request = Request(["GET", key], "get", key, (), 1)
            else:
                request = _write_request(
                    "MULTI", [_put(own(), version) for _ in range(MULTI_OPS)]
                )
            stream.append([request])
        drivers.append(stream)
    order = _shuffled(rng, keys)
    return ServedPlan(keys, preload_batches(order, 2 * BATCH_OPS), warm,
                      drivers)
