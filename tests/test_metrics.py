import json
import math
import random
import types
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from antsim import metrics
from antsim.cli import ExperimentConfig, run_trial
from antsim.metrics import MetricsCollector, log_histogram, nearest_rank, power


def test_percentile_nearest_rank():
    m = MetricsCollector()
    for d in range(1, 11):  # delays 1..10
        m.on_delivered(1.0, "data", 100, float(d))
    assert nearest_rank(sorted(m.delay_samples), 50) == 5.0
    assert nearest_rank(sorted(m.delay_samples), 90) == 9.0
    assert nearest_rank(sorted(m.delay_samples), 100) == 10.0
    assert nearest_rank(sorted(m.delay_samples), 1) == 1.0


def test_percentile_empty_is_none():
    m = MetricsCollector()
    assert nearest_rank(sorted(m.delay_samples), 90) is None
    assert m.summarize(10.0, 1e6)["delay_p90_s"] is None


def test_single_sample_percentiles():
    m = MetricsCollector()
    m.on_delivered(1.0, "data", 100, 0.25)
    assert nearest_rank(sorted(m.delay_samples), 50) == 0.25
    assert nearest_rank(sorted(m.delay_samples), 90) == 0.25


def test_warmup_samples_excluded():
    m = MetricsCollector(t_start=100.0)
    m.on_delivered(50.0, "data", 4096, 1.0)  # before measurement start
    m.on_delivered(150.0, "data", 4096, 2.0)
    s = m.summarize(200.0, 1e6)
    assert s["delay_samples"] == 1
    assert s["delivered_data_bits"] == 4096
    # all-time delivered counter still sees both (conservation bookkeeping)
    assert m.delivered_count["data"] == 2


def test_routing_deliveries_count_by_arrival_up_to_run_end():
    m = MetricsCollector(t_start=1.0, t_end=2.0)
    m.on_delivered(0.5, "routing_info", 800, 0.0)  # during warmup
    m.on_delivered(2.0, "routing_info", 800, 0.0)  # arrives at the run end
    m.on_delivered(math.nextafter(2.0, math.inf), "routing_info", 800, 0.0)
    assert m.delivered_count["routing_info"] == 2
    # data is counted after the run end too: a run continued past it (a
    # drain) balances generated data against delivered and dropped data
    m.on_delivered(3.0, "data", 4096, 2.5)
    assert m.delivered_count["data"] == 1
    assert m.summarize(2.0, 1e6)["delivered"] == {"routing_info": 2, "data": 1}


def test_throughput_and_overhead():
    m = MetricsCollector(t_start=0.0)
    m.on_delivered(5.0, "data", 10_000, 0.1)
    m.on_delivered(7.0, "data", 10_000, 0.2)
    m.on_routing_tx(3.0, 500)
    m.on_routing_tx(4.0, 500)
    s = m.summarize(10.0, 1e4)
    assert s["throughput_bps"] == 2000.0
    assert s["overhead"] == 1000 / (1e4 * 10.0)


def test_power_definition():
    assert power(1000.0, 0.5) == 2000.0
    assert power(1000.0, None) is None
    assert power(0.0, 0.0) is None


def test_windowed_series():
    m = MetricsCollector(t_start=0.0)
    m.on_generated(1.0, "data", 5000)
    m.on_delivered(1.0, "data", 5000, 0.5)
    m.on_generated(6.0, "data", 10_000)
    m.on_delivered(6.0, "data", 10_000, 1.5)
    rows = m.windowed_series(10.0)
    assert len(rows) == 2
    assert rows[0]["time_s"] == 5.0
    assert rows[0]["throughput_bps"] == 1000.0
    assert rows[0]["offered_bps"] == 1000.0
    assert rows[0]["mean_delay_s"] == 0.5
    assert rows[1]["throughput_bps"] == 2000.0
    assert rows[1]["mean_delay_s"] == 1.5


def test_windowed_series_averages_a_partial_last_window_over_its_span():
    # a 3+6 s run: the second window covers 8 s to 9 s only
    m = MetricsCollector(t_start=3.0, t_end=9.0)
    m.on_generated(4.0, "data", 5000)
    m.on_delivered(4.0, "data", 5000, 0.5)
    m.on_generated(8.5, "data", 3000)
    m.on_delivered(8.5, "data", 2000, 0.25)
    m.on_delivered(9.0, "data", 1000, 0.75)  # at the run end
    rows = m.windowed_series(9.0)
    assert [r["time_s"] for r in rows] == [8.0, 9.0]
    assert rows[0]["throughput_bps"] == 1000.0
    assert rows[0]["offered_bps"] == 1000.0
    assert rows[1]["throughput_bps"] == 3000.0  # its bits over 1 s
    assert rows[1]["offered_bps"] == 3000.0
    assert rows[1]["mean_delay_s"] == 0.5


def test_windowed_series_gives_no_row_to_a_window_starting_at_the_run_end():
    # (1.1 + 15.0 - 1.1) / 5 rounds to just above 3, so the window count
    # rounds up to 4; the fourth window starts at the run end itself
    run_end = 1.1 + 15.0
    m = MetricsCollector(t_start=1.1, t_end=run_end)
    m.on_delivered(12.0, "data", 5000, 0.5)
    rows = m.windowed_series(run_end)
    assert [r["time_s"] for r in rows] == [6.1, 11.1, run_end]
    assert rows[2]["throughput_bps"] == 1000.0
    assert rows[2]["offered_bps"] == 0.0


def test_trial_with_a_window_starting_at_the_run_end_completes():
    cfg = ExperimentConfig(
        topology="nsfnet",
        algorithm="spf",
        traffic={"temporal": "P", "spatial": "U", "stream": "GVBR", "msia_s": 1.0},
        warmup_s=1.1,
        run_length_s=15.0,
        trials=1,
        master_seed=7,
    )
    summary, rows = run_trial(cfg, 0)
    assert len(rows) == 3
    assert rows[-1]["time_s"] == 1.1 + 15.0
    assert all(math.isfinite(r["throughput_bps"]) for r in rows)


def test_trial_series_covers_the_run_and_its_delivered_bits():
    cfg = ExperimentConfig(
        topology="nsfnet",
        algorithm="spf",
        traffic={"temporal": "P", "spatial": "U", "stream": "GVBR", "msia_s": 1.0},
        warmup_s=3.0,
        run_length_s=6.0,
        trials=1,
        master_seed=7,
    )
    summary, rows = run_trial(cfg, 0)
    assert [r["time_s"] for r in rows] == [8.0, 9.0]
    spans = [5.0, 1.0]
    bits = [r["throughput_bps"] * span for r, span in zip(rows, spans)]
    assert min(bits) > 0
    assert math.isclose(bits[0] + bits[1], summary["delivered_data_bits"], rel_tol=1e-12)
    # the partial row reads a rate near the run's, not a fifth of it
    assert 0.5 < rows[1]["throughput_bps"] / summary["throughput_bps"] < 2.0


def test_empty_window_mean_delay_is_none():
    m = MetricsCollector(t_start=0.0)
    m.on_delivered(7.0, "data", 100, 0.1)
    rows = m.windowed_series(10.0)
    assert rows[0]["mean_delay_s"] is None
    assert rows[0]["throughput_bps"] == 0.0


def test_drop_counters_keyed_by_cause_and_kind():
    m = MetricsCollector()
    m.on_dropped("ttl", "data")
    m.on_dropped("ttl", "data")
    m.on_dropped("buffer", "forward_ant")
    s = m.summarize(1.0, 1e6)
    assert s["dropped"] == {"ttl/data": 2, "buffer/forward_ant": 1}


def test_delay_histogram_bins():
    m = MetricsCollector()
    m.on_delivered(1.0, "data", 100, 1e-5)  # underflow
    m.on_delivered(1.0, "data", 100, 0.01)
    m.on_delivered(1.0, "data", 100, 500.0)  # overflow
    h = log_histogram(sorted(m.delay_samples), 4)
    assert sum(h["counts"]) == 3
    assert h["counts"][0] == 1
    assert h["counts"][-1] == 1
    assert len(h["bin_edges_s"]) == 5


def percentile_per_call(samples, p):
    """Oracle: the nearest-rank percentile as first written, sorting the
    sample on every call."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def histogram_per_sample(samples, n_bins=24):
    """Oracle: the log-spaced delay histogram as first written, one branch
    per sample over the unsorted list."""
    lo, hi = 1e-4, 1e2
    edges = [lo * (hi / lo) ** (i / n_bins) for i in range(n_bins + 1)]
    counts = [0] * (n_bins + 2)
    for d in samples:
        if d < lo:
            counts[0] += 1
        elif d >= hi:
            counts[-1] += 1
        else:
            i = int(n_bins * math.log(d / lo) / math.log(hi / lo))
            counts[1 + min(i, n_bins - 1)] += 1
    return {"bin_edges_s": edges, "counts": counts}


def test_sorted_readouts_match_per_call_oracles():
    rng = random.Random("delay-readouts")
    lo, hi = 1e-4, 1e2
    # every bin edge of the bin counts below, and its neighbouring floats
    edges = {e for n in (1, 4, 7, 24) for e in histogram_per_sample([], n)["bin_edges_s"]}
    near = sorted(
        x for e in edges | {lo, hi} for x in (e, math.nextafter(e, 0.0), math.nextafter(e, 1e9))
    )
    samples_list = [
        [],
        [lo],
        [hi],
        [0.5 * lo, 2 * hi],
        near,
        near * 3,  # duplicates
        [rng.choice(near) for _ in range(500)],
        [10 ** rng.uniform(-6, 3) for _ in range(2000)],
        [rng.choice((lo, hi, 1e-7, 1e4, rng.expovariate(20.0))) for _ in range(1000)],
    ]
    for samples in samples_list:
        rng.shuffle(samples)
        m = MetricsCollector()
        for d in samples:
            m.on_delivered(1.0, "data", 100, d)
        for p in (0, 1, 10, 50, 90, 99, 100):
            assert nearest_rank(sorted(m.delay_samples), p) == percentile_per_call(samples, p)
        for n in (1, 4, 7, 24):
            assert log_histogram(sorted(m.delay_samples), n) == histogram_per_sample(samples, n)
        s = m.summarize(10.0, 1e6)
        assert s["delay_p50_s"] == percentile_per_call(samples, 50)
        assert s["delay_p90_s"] == percentile_per_call(samples, 90)
        assert s["delay_histogram"] == histogram_per_sample(samples)
        assert s["delay_mean_s"] == (sum(samples) / len(samples) if samples else None)
        assert m.delay_samples == samples  # the readouts leave the sample's order alone


LO, HI = 1e-4, 1e2
# lo, hi and every bin edge for 1 to 40 bins, each with its two float neighbours
EDGE_DELAYS = sorted(
    {
        x
        for n in range(1, 41)
        for e in histogram_per_sample([], n)["bin_edges_s"]
        for x in (e, math.nextafter(e, 0.0), math.nextafter(e, math.inf))
    }
)
DELAYS = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 2.2250738585072009e-308),  # subnormals
    st.sampled_from(EDGE_DELAYS),
    st.floats(LO, HI),
    st.floats(5e-324, 1e-6) | st.floats(1e4, 1.7e308),  # far outside
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(xs=st.lists(DELAYS, max_size=200), n_bins=st.integers(1, 40))
def test_log_histogram_matches_per_sample_binning(xs, n_bins):
    assert log_histogram(sorted(xs), n_bins) == histogram_per_sample(xs, n_bins)


def test_log_histogram_takes_logs_per_bin_not_per_sample(monkeypatch):
    rng = random.Random("histogram-logs")
    n = 100_000
    ordered = sorted(10 ** rng.uniform(-5.0, 3.0) for _ in range(n))
    for n_bins in (1, 24, 40):
        want = histogram_per_sample(ordered, n_bins)
        logs = 0

        def counted_log(x):
            nonlocal logs
            logs += 1
            return math.log(x)

        patched = types.SimpleNamespace(**vars(math))
        patched.log = counted_log
        monkeypatch.setattr(metrics, "math", patched)
        got = log_histogram(ordered, n_bins)
        monkeypatch.undo()
        assert got == want
        assert sum(want["counts"][1:-1]) > 0.7 * n
        assert logs <= n_bins * (math.ceil(math.log2(n)) + 2), (n_bins, logs)


def test_routing_bits_before_measurement_ignored():
    m = MetricsCollector(t_start=100.0)
    m.on_routing_tx(99.0, 1000)
    m.on_routing_tx(101.0, 1000)
    assert m.routing_bits == 1000


class WidxCollector(MetricsCollector):
    """Oracle: the counters and per-packet hooks as first written, with
    string-keyed ``defaultdict`` counters and a ``_widx`` call per windowed
    sample; the readout methods are the collector's own."""

    def __init__(self, t_start=0.0):
        super().__init__(t_start)
        self.generated_count = defaultdict(int)
        self.delivered_count = defaultdict(int)
        self.dropped_count = defaultdict(int)

    def _widx(self, t):
        return int((t - self.t_start) / self.window_s)

    def on_generated(self, t, kind, bits):
        self.generated_count[kind] += 1
        if kind == "data" and t >= self.t_start:
            self._windows[self._widx(t)][3] += bits

    def on_delivered(self, t, kind, bits, delay):
        self.delivered_count[kind] += 1
        if kind != "data" or t < self.t_start:
            return
        self.delivered_bits_total += bits
        self.delay_samples.append(delay)
        w = self._windows[self._widx(t)]
        w[0] += bits
        w[1] += delay
        w[2] += 1

    def on_dropped(self, cause, kind):
        self.dropped_count[f"{cause}/{kind}"] += 1


def assert_same_readouts(new, old, run_end):
    assert json.dumps(new.summarize(run_end, 3e7), sort_keys=True) == json.dumps(
        old.summarize(run_end, 3e7), sort_keys=True
    )
    assert new.windowed_series(run_end) == old.windowed_series(run_end)
    for name in ("generated_count", "delivered_count", "dropped_count"):
        counts, want = getattr(new, name), dict(getattr(old, name))
        assert dict(counts.items()) == want, name
        assert all(counts[k] == n and counts.get(k) == n for k, n in want.items()), name


def test_hooks_match_widx_collector():
    rng = random.Random("metrics-oracle")
    t_start = 7.5
    new, old = MetricsCollector(t_start), WidxCollector(t_start)
    # times on, just before and just after t_start and every window edge
    edges = [t_start + k * MetricsCollector.window_s for k in range(7)]
    near = [t for e in edges for t in (e, math.nextafter(e, 0.0), math.nextafter(e, 50.0))]
    kinds = ["data", "routing_info", "forward_ant", "backward_ant"]
    calls = {"on_generated": 0, "on_delivered": 0, "on_dropped": 0, "on_routing_tx": 0}
    assert_same_readouts(new, old, 40.0)  # nothing counted yet
    for step in range(4000):
        t = rng.choice(near) if rng.random() < 0.3 else rng.uniform(0.0, 40.0)
        kind = rng.choice(kinds[:2] if rng.random() < 0.8 else kinds)
        bits = rng.choice([96.0, 4096.0, rng.expovariate(1 / 4096)])
        hook = rng.choice(list(calls))
        args = {
            "on_generated": (t, kind, bits),
            "on_delivered": (t, kind, bits, rng.expovariate(10.0)),
            "on_dropped": (rng.choice(("ttl", "buffer", "cycle")), kind),
            "on_routing_tx": (t, bits),
        }[hook]
        calls[hook] += 1
        for m in (new, old):
            getattr(m, hook)(*args)
        if step % 500 == 0:
            assert_same_readouts(new, old, 40.0)
    assert_same_readouts(new, old, 40.0)
    assert_same_readouts(new, old, 33.0)  # a run that ends mid-window
    assert min(calls.values()) > 800, calls
    # a kind or drop that never happened reads 0, as perfbench's readers expect
    for name in ("generated_count", "delivered_count", "dropped_count"):
        assert getattr(new, name)["never/counted"] == 0, name
