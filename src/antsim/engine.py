"""Deterministic discrete-event core: clock, event queue, seeded RNG streams."""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Callable, Dict, List, Tuple


class SchedulingError(Exception):
    """An event was scheduled in the past (simulator bug)."""


class Simulator:
    """Single-threaded event loop with a continuous clock.

    An event is a ``(fire_time, seq, fn, args)`` tuple; firing it calls
    ``fn(*args)``. Events pop in (fire_time, insertion seq) order, so
    equal-time events run FIFO, ``fn`` and ``args`` are never compared, and
    replays with the same seed are bit-identical.
    """

    def __init__(self, master_seed: int = 0):
        self.now = 0.0
        self.master_seed = master_seed
        self._queue: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._streams: Dict[str, random.Random] = {}

    def schedule(self, fire_time: float, fn: Callable[..., None], *args) -> None:
        """Call ``fn(*args)`` at ``fire_time``."""
        if not fire_time >= self.now:  # also rejects NaN
            raise SchedulingError(
                f"event scheduled at t={fire_time} but clock is at t={self.now}"
            )
        self._seq = seq = self._seq + 1
        heappush(self._queue, (fire_time, seq, fn, args))

    def run_until(self, t_end: float) -> int:
        if not t_end >= self.now:
            raise SchedulingError(f"run_until({t_end}) but clock is at t={self.now}")
        processed = 0
        queue = self._queue
        while queue and queue[0][0] <= t_end:
            self.now, _, fn, args = heappop(queue)
            fn(*args)
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
