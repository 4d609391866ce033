import math

import pytest

from antsim.engine import SchedulingError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.run_until(10.0)
    assert fired == ["a", "b", "c"]
    assert sim.now == 10.0


def test_equal_time_events_run_fifo():
    sim = Simulator()
    fired = []
    for tag in range(20):
        sim.schedule(1.0, lambda t=tag: fired.append(t))
    sim.run_until(1.0)
    assert fired == list(range(20))


def test_schedule_passes_its_arguments():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda a, b: fired.append((a, b)), "x", 2)
    sim.schedule(2.0, fired.append, "no-closure")
    assert sim.run_until(5.0) == 2
    assert fired == [("x", 2), "no-closure"]


def test_equal_time_events_with_arguments_run_fifo():
    sim = Simulator()
    fired = []
    # descending arguments and two different functions: only the insertion
    # order may decide, never a comparison of fn or args
    for tag in reversed(range(20)):
        fn = fired.append if tag % 2 else (lambda t: fired.append(t))
        sim.schedule(1.0, fn, tag)
    sim.schedule(0.5, fired.append, "first")
    sim.run_until(1.0)
    assert fired == ["first", *reversed(range(20))]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until(5.0)
    with pytest.raises(SchedulingError):
        sim.schedule(4.0, lambda: None)
    with pytest.raises(SchedulingError):
        sim.run_until(4.0)
    with pytest.raises(SchedulingError):
        sim.schedule(4.0, print, "never", "fired")
    assert sim._queue == []


def test_nan_times_are_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(math.nan, lambda: None)
    with pytest.raises(SchedulingError):
        sim.schedule(math.nan, print, "never")
    fired = []
    sim.schedule(1.0, lambda: fired.append(sim.now))
    with pytest.raises(SchedulingError):
        sim.run_until(math.nan)
    assert sim.now == 0.0
    # no NaN event sits at the heap root, so the later event still runs
    assert sim.run_until(5.0) == 1
    assert fired == [1.0]


def test_run_until_returns_processed_count():
    sim = Simulator()
    for t in (0.5, 1.5, 2.5):
        sim.schedule(t, lambda: None)
    assert sim.run_until(2.0) == 2
    assert sim.run_until(3.0) == 1


def test_events_scheduled_during_run_fire_in_same_run():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        if sim.now < 3.0:
            sim.schedule(sim.now + 1.0, chain)

    sim.schedule(1.0, chain)
    sim.run_until(10.0)
    assert fired == [1.0, 2.0, 3.0]


def test_clock_nondecreasing_across_events():
    sim = Simulator()
    seen = []
    for t in (3.0, 1.0, 2.0, 2.0):
        sim.schedule(t, lambda: seen.append(sim.now))
    sim.run_until(5.0)
    assert seen == sorted(seen)


def test_streams_are_deterministic_per_seed_and_name():
    a = Simulator(master_seed=42).stream("session_arrivals")
    b = Simulator(master_seed=42).stream("session_arrivals")
    assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]


def test_streams_with_different_names_are_independent():
    sim = Simulator(master_seed=42)
    xs = [sim.stream("packet_sizes").random() for _ in range(20)]
    ys = [sim.stream("packet_intervals").random() for _ in range(20)]
    assert xs != ys
    # the same name returns the same underlying generator
    assert sim.stream("packet_sizes") is sim.stream("packet_sizes")


def test_consuming_one_stream_does_not_perturb_another():
    sim1 = Simulator(master_seed=7)
    sim2 = Simulator(master_seed=7)
    for _ in range(1000):
        sim2.stream("ant_routing").random()  # extra consumption on one stream
    assert sim1.stream("session_arrivals").random() == sim2.stream(
        "session_arrivals"
    ).random()
