"""Per-layer tracing of one antsim trial, installed from outside the program.

``Tracer.install`` replaces methods and module functions of the simulator with
wrappers at class or module level, before the trial builds its objects. Event
lambdas look up ``self.dispatch``, ``self._arrive`` and similar methods when
they fire, and ``_broadcast_round`` and ``Session._generate`` are bound when
they are scheduled, so class-level wrappers installed before ``attach`` see
every call.

Each wrapper is a span. Spans nest through a parent stack, so a span's self
time is its duration minus the time of the spans it called; the bookkeeping
of those child spans stays in the parent's self time, which is why
``engine.self_s`` carries most of the tracing overhead. A trial fires
about a million events, so spans are aggregated per name in memory; only the
first ``record_cap`` spans are kept in full, for ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# (span name, owner, attribute); owner is a dotted module path, optionally
# followed by ":Class". Every class of antsim.baselines that defines the
# attribute itself is wrapped (see _BASELINE_SPANS).
_SPANS = [
    ("engine.run_until", "antsim.engine:Simulator", "run_until"),
    ("network.dispatch", "antsim.network:Network", "dispatch"),
    ("network.enqueue", "antsim.network:Network", "enqueue_for_link"),
    ("network.tx_done", "antsim.network:Network", "_tx_done"),
    ("network.arrive", "antsim.network:Network", "_arrive"),
    ("network.send_routing", "antsim.network:Network", "send_routing"),
    ("routing.dijkstra", "antsim.routing", "dijkstra"),
    ("routing.cost_table", "antsim.routing:CostTable", "best"),
    ("routing.cost_table", "antsim.routing:CostTable", "distance_vector"),
    ("routing.close_window", "antsim.routing:LinkCostEstimator", "close_window"),
    ("antnet.select_next_hop", "antsim.antnet:AntNetRouting", "select_next_hop"),
    ("antnet.on_ant", "antsim.antnet:AntNetRouting", "on_ant"),
    ("antnet.launch", "antsim.antnet:AntNetRouting", "_launch"),
    ("baselines.daemon_link_cost", "antsim.baselines:DaemonRouting", "link_cost"),
    ("traffic.open_session", "antsim.traffic:TrafficSource", "_open_session"),
    ("traffic.generate", "antsim.network:Session", "_generate"),
    ("metrics.record", "antsim.metrics:MetricsCollector", "on_generated"),
    ("metrics.record", "antsim.metrics:MetricsCollector", "on_delivered"),
    ("metrics.record", "antsim.metrics:MetricsCollector", "on_dropped"),
    ("metrics.record", "antsim.metrics:MetricsCollector", "on_routing_tx"),
    ("metrics.summarize", "antsim.metrics:MetricsCollector", "summarize"),
    ("metrics.series", "antsim.metrics:MetricsCollector", "windowed_series"),
    ("topology.load", "antsim.cli", "resolve_topology"),
    ("cli.attach", "antsim.cli", "build_algorithm"),
    ("cli.attach", "antsim.network:Network", "set_algorithm"),
    ("cli.attach", "antsim.traffic:TrafficSource", "start"),
    ("cli.write", "antsim.cli", "_dump_json"),
    ("cli.write", "antsim.cli", "_dump_series_csv"),
]

_BASELINE_SPANS = [
    ("baselines.select_next_hop", "select_next_hop"),
    ("baselines.on_data_arrival", "on_data_arrival"),
    ("baselines.on_routing_packet", "on_routing_packet"),
    ("baselines.broadcast", "_broadcast_round"),
]

PER_LAYER_METRICS = [
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.self_s", "s"),
    ("engine.heap_peak", "count"),
    ("network.dispatch.calls", "count"),
    ("network.dispatch.self_s", "s"),
    ("network.enqueue.calls", "count"),
    ("network.enqueue.self_s", "s"),
    ("network.tx_done.self_s", "s"),
    ("network.arrive.self_s", "s"),
    ("network.send_routing.calls", "count"),
    ("network.queue_peak_pkts", "count"),
    ("network.ttl_drops", "count"),
    ("network.buffer_drops", "count"),
    ("routing.dijkstra.calls", "count"),
    ("routing.dijkstra.self_s", "s"),
    ("routing.cost_table.calls", "count"),
    ("routing.cost_table.self_s", "s"),
    ("routing.close_window.calls", "count"),
    ("antnet.select_next_hop.calls", "count"),
    ("antnet.select_next_hop.self_s", "s"),
    ("antnet.on_ant.calls", "count"),
    ("antnet.on_ant.self_s", "s"),
    ("antnet.launch.self_s", "s"),
    ("antnet.ants_launched", "count"),
    ("antnet.ants_completed_ratio", "ratio"),
    ("baselines.select_next_hop.calls", "count"),
    ("baselines.select_next_hop.self_s", "s"),
    ("baselines.daemon_link_cost.calls", "count"),
    ("baselines.daemon_link_cost.self_s", "s"),
    ("baselines.on_data_arrival.calls", "count"),
    ("baselines.on_data_arrival.self_s", "s"),
    ("baselines.on_routing_packet.calls", "count"),
    ("baselines.on_routing_packet.self_s", "s"),
    ("baselines.broadcast.self_s", "s"),
    ("traffic.sessions", "count"),
    ("traffic.generate.calls", "count"),
    ("traffic.generate.self_s", "s"),
    ("metrics.record.calls", "count"),
    ("metrics.record.self_s", "s"),
    ("metrics.summarize_s", "s"),
    ("metrics.series_s", "s"),
    ("metrics.delay_samples", "count"),
    ("topology.load_s", "s"),
    ("cli.attach_s", "s"),
    ("cli.write_s", "s"),
    ("trace.overhead_s", "s"),
]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Span and counter wrappers over one trial's simulator classes."""

    def __init__(self, record_cap: int = 20000):
        self.record_cap = record_cap
        self.stats: dict = {}  # name -> [calls, total_s, child_s]
        self.records: list = []  # (name, start_s, duration_s, parent index)
        self._stack = [[0.0, -1]]  # frames: [child time, record index]
        self._installed: list = []  # (owner, attribute, original)
        self.missing: list = []  # hooks whose target no longer exists
        self.t0 = perf_counter()
        self.events = 0
        self.heap_peak = 0
        self.queued_pkts = 0
        self.queue_peak_pkts = 0
        self.ants_completed = 0
        self._observer_table = self._observers()

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        from antsim import baselines, routing

        for name, owner, attr in _SPANS:
            self._wrap(_resolve(owner), attr, name)
        if "dijkstra" in vars(baselines):  # imported by name: its own reference
            self._set(baselines, "dijkstra", routing.dijkstra)
        for cls in vars(baselines).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, routing.RoutingAlgorithm)
                and cls.__module__ == baselines.__name__
            ):
                for name, attr in _BASELINE_SPANS:
                    if attr in vars(cls):
                        self._wrap(cls, attr, name)
        self._observe_schedule()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, owner, attr: str, name: str) -> None:
        if attr not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        before, after = self._observer_table.get(attr, (None, None))
        self._set(owner, attr, self._span(vars(owner)[attr], name, before, after))

    def _span(self, fn, name: str, before=None, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        records = self.records
        cap = self.record_cap
        clock = perf_counter
        t0 = self.t0

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            index = len(records)
            if index < cap:
                records.append(None)
            else:
                index = -1
            frame = [0.0, index]
            stack.append(frame)
            token = before(args) if before else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
                parent[0] += elapsed
                if index >= 0:
                    records[index] = (name, start - t0, elapsed, parent[1])
            if after:
                after(args, token, result)
            return result

        return span

    # -- counters that need more than a call count --------------------------------

    def _observers(self) -> dict:
        """attribute -> (before(args) -> token, after(args, token, result))."""

        def count_events(args, token, processed):
            if isinstance(processed, int):
                self.events += processed

        def port_depth(position):
            def depth(args):
                port = args[position]
                return len(port.hi) + len(port.lo)

            def requeue(args, before, result):
                # _start_tx, the only place packets leave a queue, runs inside
                # these two calls on the same port, so the deltas add up.
                self.queued_pkts += depth(args) - before
                if self.queued_pkts > self.queue_peak_pkts:
                    self.queue_peak_pkts = self.queued_pkts

            return depth, requeue

        def ant_completed(args, token, result):
            _, node, packet = args[:3]
            if packet.kind == "backward_ant" and node == packet.dst:
                self.ants_completed += 1

        return {
            "run_until": (None, count_events),
            "enqueue_for_link": port_depth(2),
            "_tx_done": port_depth(1),
            "on_ant": (None, ant_completed),
        }

    def _observe_schedule(self) -> None:
        from antsim.engine import Simulator

        if "schedule" not in vars(Simulator):
            self.missing.append("Simulator.schedule")
            return
        schedule = vars(Simulator)["schedule"]
        tracer = self

        @functools.wraps(schedule)
        def observed(sim, *args, **kwargs):
            schedule(sim, *args, **kwargs)
            depth = len(getattr(sim, "_queue", ()))
            if depth > tracer.heap_peak:
                tracer.heap_peak = depth

        self._set(Simulator, "schedule", observed)

    # -- results -----------------------------------------------------------------

    def _calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def _total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def _self(self, name: str) -> float:
        _, total, child = self.stats.get(name, [0, 0.0, 0.0])
        return total - child

    def layer_metrics(self, metrics) -> dict:
        """Per-layer values of one traced trial, from spans and ``metrics``.

        ``engine.events_per_s`` and ``trace.overhead_s`` need the untraced
        trials too, so run.py fills them in.
        """
        out = {}
        for metric, _ in PER_LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = self._calls(span)
            elif field == "self_s":
                out[metric] = self._self(span)
        drops = metrics.dropped_count
        launched = self._calls("antnet.launch")
        out.update(
            {
                "engine.events": self.events,
                "engine.self_s": self._self("engine.run_until"),
                "engine.heap_peak": self.heap_peak,
                "network.queue_peak_pkts": self.queue_peak_pkts,
                "network.ttl_drops": sum(n for k, n in drops.items() if k.startswith("ttl/")),
                "network.buffer_drops": sum(
                    n for k, n in drops.items() if k.startswith("buffer/")
                ),
                "antnet.ants_launched": launched,
                "antnet.ants_completed_ratio": (
                    self.ants_completed / launched if launched else 0.0
                ),
                "traffic.sessions": self._calls("traffic.open_session"),
                "metrics.summarize_s": self._total("metrics.summarize"),
                "metrics.series_s": self._total("metrics.series"),
                "metrics.delay_samples": len(metrics.delay_samples),
                "topology.load_s": self._total("topology.load"),
                "cli.attach_s": self._total("cli.attach"),
                "cli.write_s": self._total("cli.write"),
            }
        )
        return out

    def write_spans(self, path: str) -> None:
        """Write the aggregate per span name and the capped span records."""
        spans = {
            name: {"calls": calls, "total_s": total, "self_s": total - child}
            for name, (calls, total, child) in sorted(self.stats.items())
        }
        records = [r for r in self.records if r is not None]
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": spans,
                    "record_fields": ["name", "start_s", "duration_s", "parent"],
                    "records": records,
                    "missing_hooks": self.missing,
                },
                fh,
            )
