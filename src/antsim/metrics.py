"""Performance measurement: throughput, delay percentiles, overhead, power."""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from typing import Dict, List, Optional


class MetricsCollector:
    """Per-trial collector owned by the event loop.

    Packet/bit counters (generated, delivered, dropped) cover the whole run
    so conservation can be checked; throughput, delay and overhead samples are
    recorded only from ``t_start`` (the end of warmup) onward.

    A routing packet counts as delivered when it arrives by ``t_end``, the
    run end, even if its elaboration is still pending then: the network
    reports it when its transmission ends, with its arrival time, and a
    delivery later than ``t_end`` is not counted. Data deliveries count
    whenever they come, so a run continued past ``t_end`` can still balance
    generated data against delivered and dropped data.
    """

    window_s = 5.0  # length of one windowed_series row

    def __init__(self, t_start: float = 0.0, t_end: float = math.inf):
        self.t_start = t_start
        self.t_end = t_end
        self.generated_count: Dict[str, int] = defaultdict(int)
        self.delivered_count: Dict[str, int] = defaultdict(int)
        self.delivered_bits_total = 0.0
        self.delay_samples: List[float] = []
        self.dropped_count: Dict[str, int] = defaultdict(int)  # key "cause/kind"
        self.routing_bits = 0.0
        # window index -> [delivered bits, delay sum, delay count, generated bits]
        self._windows: Dict[int, List[float]] = defaultdict(lambda: [0.0, 0.0, 0, 0.0])

    def on_generated(self, t: float, kind: str, bits: float) -> None:
        self.generated_count[kind] += 1
        if kind == "data" and t >= self.t_start:
            self._windows[int((t - self.t_start) / self.window_s)][3] += bits

    def on_delivered(self, t: float, kind: str, bits: float, delay: float) -> None:
        if kind == "data" or t <= self.t_end:
            self.delivered_count[kind] += 1
        if kind != "data" or t < self.t_start:
            return
        self.delivered_bits_total += bits
        self.delay_samples.append(delay)
        w = self._windows[int((t - self.t_start) / self.window_s)]
        w[0] += bits
        w[1] += delay
        w[2] += 1

    def on_dropped(self, cause: str, kind: str) -> None:
        self.dropped_count[f"{cause}/{kind}"] += 1

    def on_routing_tx(self, t: float, bits: float) -> None:
        if t >= self.t_start:
            self.routing_bits += bits

    def summarize(self, run_end: float, total_link_bw_bps: float) -> dict:
        measured = run_end - self.t_start
        throughput = self.delivered_bits_total / measured if measured > 0 else 0.0
        ordered = sorted(self.delay_samples)
        p50 = nearest_rank(ordered, 50)
        p90 = nearest_rank(ordered, 90)
        # a left fold from 0.0; on a long sample a loop runs about 1.8x as
        # fast as reduce(add, samples, 0.0)
        total = 0.0
        for delay in self.delay_samples:
            total += delay
        mean_delay = total / len(self.delay_samples) if self.delay_samples else None
        overhead = (
            self.routing_bits / (total_link_bw_bps * measured) if measured > 0 else 0.0
        )
        return {
            "measured_s": measured,
            "throughput_bps": throughput,
            "delivered_data_bits": self.delivered_bits_total,
            "delay_mean_s": mean_delay,
            "delay_p50_s": p50,
            "delay_p90_s": p90,
            "delay_histogram": log_histogram(ordered),
            "delay_samples": len(self.delay_samples),
            "overhead": overhead,
            "routing_bits": self.routing_bits,
            "power": power(throughput, p90),
            "generated": dict(self.generated_count),
            "delivered": dict(self.delivered_count),
            "dropped": dict(self.dropped_count),
        }

    def windowed_series(self, run_end: float) -> List[dict]:
        """Throughput / mean delay / offered load averaged per window. A last
        window cut short by the run end is averaged over the span it covers,
        ``run_end`` minus its start, and stamped ``run_end``. The rounded
        window count can add one window that starts at ``run_end``; it covers
        nothing and gets no row."""
        rows = []
        for i in range(math.ceil((run_end - self.t_start) / self.window_s)):
            start = self.t_start + i * self.window_s
            if start >= run_end:
                break
            bits, dsum, dcnt, gen = self._windows.get(i, [0.0, 0.0, 0, 0.0])
            end = self.t_start + (i + 1) * self.window_s
            span = self.window_s
            if end > run_end:
                end = run_end
                span = run_end - start
            rows.append(
                {
                    "time_s": end,
                    "throughput_bps": bits / span,
                    "mean_delay_s": dsum / dcnt if dcnt else None,
                    "offered_bps": gen / span,
                }
            )
        return rows


def nearest_rank(ordered: List[float], p: float) -> Optional[float]:
    """Nearest-rank ``p``-th percentile of a sorted sample; None when empty."""
    if not ordered:
        return None
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def log_histogram(ordered: List[float], n_bins: int = 24) -> dict:
    """Counts of a sorted delay sample over ``n_bins`` log-spaced bins from
    0.1 ms to 100 s, with an underflow count below 0.1 ms and an overflow
    count from 100 s up.

    A sample ``d`` in range falls in bin ``bin_of(d)``, or in the top bin
    when that is ``n_bins`` or more. ``bin_of`` is a chain of steps that
    never decrease as ``d`` grows: division by ``lo``, ``math.log``,
    multiplication by ``n_bins``, division by ``log(hi / lo)`` and ``int``.
    So over the sorted sample the bins never decrease either, and each bin's
    samples form one run whose start one bisection on ``bin_of`` finds. The
    counts equal those of binning every sample, at ``n_bins - 1`` bisections
    instead of one log per sample.
    """
    lo, hi = 1e-4, 1e2
    edges = [lo * (hi / lo) ** (i / n_bins) for i in range(n_bins + 1)]
    log_span = math.log(hi / lo)

    def bin_of(d: float) -> int:
        return int(n_bins * math.log(d / lo) / log_span)

    first = bisect_left(ordered, lo)  # samples below lo underflow
    end = bisect_left(ordered, hi)  # samples from hi up overflow
    counts = [first]
    at = first  # where the run of bin i - 1 starts
    for i in range(1, n_bins):
        start = bisect_left(ordered, i, at, end, key=bin_of)
        counts.append(start - at)
        at = start
    counts += [end - at, len(ordered) - end]  # the top bin takes every bin_of >= n_bins - 1
    return {"bin_edges_s": edges, "counts": counts}


def power(throughput_bps: float, delay_p90_s: Optional[float]) -> Optional[float]:
    if delay_p90_s is None or delay_p90_s <= 0:
        return None
    return throughput_bps / delay_p90_s
