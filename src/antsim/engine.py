"""Deterministic discrete-event core: clock, event queue, seeded RNG streams."""

from __future__ import annotations

import heapq
import random
from typing import Callable, Dict, List, Tuple


class SchedulingError(Exception):
    """An event was scheduled in the past (simulator bug)."""


class Simulator:
    """Single-threaded event loop with a continuous clock.

    Events pop in (fire_time, insertion seq) order, so equal-time events run
    FIFO and replays with the same seed are bit-identical.
    """

    def __init__(self, master_seed: int = 0):
        self.now = 0.0
        self.master_seed = master_seed
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._streams: Dict[str, random.Random] = {}

    def schedule(self, fire_time: float, action: Callable[[], None]) -> None:
        if not fire_time >= self.now:  # also rejects NaN
            raise SchedulingError(
                f"event scheduled at t={fire_time} but clock is at t={self.now}"
            )
        self._seq += 1
        heapq.heappush(self._queue, (fire_time, self._seq, action))

    def run_until(self, t_end: float) -> int:
        if not t_end >= self.now:
            raise SchedulingError(f"run_until({t_end}) but clock is at t={self.now}")
        processed = 0
        queue = self._queue
        while queue and queue[0][0] <= t_end:
            fire_time, _, action = heapq.heappop(queue)
            self.now = fire_time
            action()
            processed += 1
        self.now = t_end
        return processed

    def stream(self, name: str) -> random.Random:
        """Named substream, independent of all other substreams.

        Seeding by a string derived from the master seed keeps each stochastic
        source (session arrivals, packet sizes, ant draws, data draws)
        decoupled: changing how one stream is consumed does not perturb the
        others, so algorithm comparisons share identical workloads.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(f"{self.master_seed}/{name}")
            self._streams[name] = rng
        return rng
