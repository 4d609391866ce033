"""Performance measurement: throughput, delay percentiles, overhead, power."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional


class MetricsCollector:
    """Per-trial collector owned by the event loop.

    Packet/bit counters (generated, delivered, dropped) cover the whole run
    so conservation can be checked; throughput, delay and overhead samples are
    recorded only from ``t_start`` (the end of warmup) onward.
    """

    window_s = 5.0  # length of one windowed_series row

    def __init__(self, t_start: float = 0.0):
        self.t_start = t_start
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

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile of the delay sample; None when empty."""
        if not self.delay_samples:
            return None
        ordered = sorted(self.delay_samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def summarize(self, run_end: float, total_link_bw_bps: float) -> dict:
        measured = run_end - self.t_start
        throughput = self.delivered_bits_total / measured if measured > 0 else 0.0
        p50 = self.percentile(50)
        p90 = self.percentile(90)
        mean_delay = (
            sum(self.delay_samples) / len(self.delay_samples) if self.delay_samples else None
        )
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
            "delay_histogram": self.delay_histogram(),
            "delay_samples": len(self.delay_samples),
            "overhead": overhead,
            "routing_bits": self.routing_bits,
            "power": power(throughput, p90),
            "generated": dict(self.generated_count),
            "delivered": dict(self.delivered_count),
            "dropped": dict(self.dropped_count),
        }

    def delay_histogram(self, n_bins: int = 24) -> dict:
        """Counts over log-spaced delay bins from 0.1 ms to ~100 s."""
        lo, hi = 1e-4, 1e2
        edges = [lo * (hi / lo) ** (i / n_bins) for i in range(n_bins + 1)]
        counts = [0] * (n_bins + 2)  # underflow + bins + overflow
        for d in self.delay_samples:
            if d < lo:
                counts[0] += 1
            elif d >= hi:
                counts[-1] += 1
            else:
                i = int(n_bins * math.log(d / lo) / math.log(hi / lo))
                counts[1 + min(i, n_bins - 1)] += 1
        return {"bin_edges_s": edges, "counts": counts}

    def windowed_series(self, run_end: float) -> List[dict]:
        """Throughput / mean delay / offered load averaged per window."""
        n = max(1, math.ceil((run_end - self.t_start) / self.window_s))
        rows = []
        for i in range(n):
            bits, dsum, dcnt, gen = self._windows.get(i, [0.0, 0.0, 0, 0.0])
            rows.append(
                {
                    "time_s": self.t_start + (i + 1) * self.window_s,
                    "throughput_bps": bits / self.window_s,
                    "mean_delay_s": dsum / dcnt if dcnt else None,
                    "offered_bps": gen / self.window_s,
                }
            )
        return rows


def power(throughput_bps: float, delay_p90_s: Optional[float]) -> Optional[float]:
    if delay_p90_s is None or delay_p90_s <= 0:
        return None
    return throughput_bps / delay_p90_s
