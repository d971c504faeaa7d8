"""Quiet-quartile timing: the estimators every wall-clock figure goes through.

On the 2-vCPU box this ledger was built on, a pure-Python kernel loses
5-40 % of its speed in about a third of half-second slices, in bursts, so
a whole-run rate or a median slice flips between clean and disturbed
readings. The timed stream is therefore cut into ``BLOCKS`` equal-count
blocks and the reported rate is the *upper* quartile of the block rates,
the reported latencies the *lower* quartile of the per-block percentiles:
a quarter of the run being undisturbed is enough for the figure to hold.
The whole-run rate and the share of disturbed blocks are reported beside
them so nothing is hidden.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

import spec

#: One timed call: (wall-clock end, user ops it completed, latency in us).
Sample = Tuple[float, int, float]


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already sorted sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Lower quartile, median, upper quartile, as the driver computes them."""
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def traced_block(block: int) -> bool:
    """Whether a traced run records spans in timed block ``block``: blocks
    1, 2, 5, 6, ... (off on on off), so that anything with a two-block
    rhythm — engine_write's level-0 compactions land in every other
    block — falls equally on traced and untraced blocks."""
    return block % 4 in (1, 2)


def block_stats(samples: List[Sample], started: float,
                tail: float) -> Dict[str, object]:
    """Cut ``samples`` into equal-count blocks by completion order;
    ``tail`` is the percentile reported as the tail latency.

    Returns the three quiet-quartile figures, the whole-run rate, the
    share of disturbed blocks and the per-block series they came from.
    """
    samples = sorted(samples)
    per_block = len(samples) // spec.BLOCKS
    if per_block < 1:
        raise ValueError("fewer timed calls than blocks")
    rates: List[float] = []
    p50s: List[float] = []
    tails: List[float] = []
    block_start = started
    for block in range(spec.BLOCKS):
        last = block == spec.BLOCKS - 1
        chunk = samples[block * per_block:
                        None if last else (block + 1) * per_block]
        block_end = chunk[-1][0]
        rates.append(sum(s[1] for s in chunk) / (block_end - block_start))
        latencies = sorted(s[2] for s in chunk)
        p50s.append(percentile(latencies, 0.50))
        tails.append(percentile(latencies, tail))
        block_start = block_end
    ops_per_s = quartiles(rates)[2]
    return {
        "ops_per_s": ops_per_s,
        "p50_us": quartiles(p50s)[0],
        "tail_us": quartiles(tails)[0],
        "total_ops_per_s": sum(s[1] for s in samples)
        / (samples[-1][0] - started),
        "disturbed_frac": sum(r < 0.9 * ops_per_s for r in rates)
        / spec.BLOCKS,
        "calls_per_block": per_block,
        "block_rates": rates,
        "block_p50_us": p50s,
        "block_tail_us": tails,
    }


def wall_clock_metrics(blocks: Dict[str, object],
                       setup_times: Sequence[float]) -> Dict[str, float]:
    """The four end-to-end metrics that come off the clock."""
    return {
        "setup_s": median(setup_times),
        "ops_per_s": blocks["ops_per_s"],
        "p50_us": blocks["p50_us"],
        "tail_us": blocks["tail_us"],
    }


def run_layers(blocks: Dict[str, object], traced: bool) -> Dict[str, float]:
    """The ``run.*`` per-layer figures, and in a traced run the share of
    the rate tracing costs (median traced block against median untraced
    block of the same stream)."""
    layers = {
        "run.total_ops_per_s": blocks["total_ops_per_s"],
        "run.disturbed_frac": blocks["disturbed_frac"],
    }
    if traced:
        rates = blocks["block_rates"]
        on = [r for b, r in enumerate(rates) if traced_block(b)]
        off = [r for b, r in enumerate(rates) if not traced_block(b)]
        layers["trace.overhead_frac"] = 1.0 - median(on) / median(off)
    return layers
