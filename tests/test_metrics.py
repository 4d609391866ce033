from antsim.metrics import MetricsCollector, power


def test_percentile_nearest_rank():
    m = MetricsCollector()
    for d in range(1, 11):  # delays 1..10
        m.on_delivered(1.0, "data", 100, float(d))
    assert m.percentile(50) == 5.0
    assert m.percentile(90) == 9.0
    assert m.percentile(100) == 10.0
    assert m.percentile(1) == 1.0


def test_percentile_empty_is_none():
    m = MetricsCollector()
    assert m.percentile(90) is None
    assert m.summarize(10.0, 1e6)["delay_p90_s"] is None


def test_single_sample_percentiles():
    m = MetricsCollector()
    m.on_delivered(1.0, "data", 100, 0.25)
    assert m.percentile(50) == 0.25
    assert m.percentile(90) == 0.25


def test_warmup_samples_excluded():
    m = MetricsCollector(t_start=100.0)
    m.on_delivered(50.0, "data", 4096, 1.0)  # before measurement start
    m.on_delivered(150.0, "data", 4096, 2.0)
    s = m.summarize(200.0, 1e6)
    assert s["delay_samples"] == 1
    assert s["delivered_data_bits"] == 4096
    # all-time delivered counter still sees both (conservation bookkeeping)
    assert m.delivered_count["data"] == 2


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
    h = m.delay_histogram(n_bins=4)
    assert sum(h["counts"]) == 3
    assert h["counts"][0] == 1
    assert h["counts"][-1] == 1
    assert len(h["bin_edges_s"]) == 5


def test_routing_bits_before_measurement_ignored():
    m = MetricsCollector(t_start=100.0)
    m.on_routing_tx(99.0, 1000)
    m.on_routing_tx(101.0, 1000)
    assert m.routing_bits == 1000
