"""Unit tests for the clock and event scheduler."""

import pytest

from repro.simulation.clock import DAY, HOUR, MINUTE, WEEK, Clock, days, hours, minutes
from repro.simulation.engine import EventScheduler


class TestClock:
    def test_constants(self):
        assert MINUTE == 1.0
        assert HOUR == 60.0
        assert DAY == 1440.0
        assert WEEK == 7 * 1440.0
        assert hours(2) == 120.0
        assert days(1) == 1440.0
        assert minutes(5) == 5.0

    def test_advance(self):
        clock = Clock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_no_backwards(self):
        clock = Clock(start=5.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(4.0)


class TestScheduler:
    def test_runs_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(10.0, order.append, "b")
        scheduler.schedule(5.0, order.append, "a")
        scheduler.schedule(20.0, order.append, "c")
        scheduler.run_until(100.0)
        assert order == ["a", "b", "c"]
        assert scheduler.clock.now == 100.0

    def test_ties_run_in_schedule_order(self):
        scheduler = EventScheduler()
        order = []
        for tag in ("first", "second", "third"):
            scheduler.schedule(7.0, order.append, tag)
        scheduler.run_until(7.0)
        assert order == ["first", "second", "third"]

    def test_run_until_stops_at_boundary(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(5.0, fired.append, 1)
        scheduler.schedule(15.0, fired.append, 2)
        scheduler.run_until(10.0)
        assert fired == [1]
        assert scheduler.pending() == 1
        scheduler.run_until(20.0)
        assert fired == [1, 2]

    def test_callbacks_can_reschedule(self):
        scheduler = EventScheduler()
        ticks = []

        def tick():
            ticks.append(scheduler.clock.now)
            if scheduler.clock.now < 50.0:
                scheduler.schedule_after(10.0, tick)

        scheduler.schedule(0.0, tick)
        scheduler.run_until(100.0)
        assert ticks == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]

    def test_schedule_in_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.schedule(10.0, lambda: None)
        scheduler.run_until(10.0)
        with pytest.raises(ValueError, match="before now"):
            scheduler.schedule(5.0, lambda: None)

    def test_schedule_after_negative_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            scheduler.schedule_after(-1.0, lambda: None)

    def test_events_run_counter(self):
        scheduler = EventScheduler()
        for i in range(5):
            scheduler.schedule(float(i), lambda: None)
        scheduler.run_until(10.0)
        assert scheduler.events_run == 5

    def test_peek_time(self):
        scheduler = EventScheduler()
        assert scheduler.peek_time() is None
        scheduler.schedule(3.0, lambda: None)
        assert scheduler.peek_time() == 3.0


class TestNonFiniteTimes:
    """NaN compares false against everything, so without an explicit guard
    ``schedule(float('nan'))`` slips past the past-time check and corrupts
    the heap's ordering invariant.  Non-finite times must be rejected."""

    def test_nan_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError, match="non-finite"):
            scheduler.schedule(float("nan"), lambda: None)

    def test_inf_rejected(self):
        scheduler = EventScheduler()
        for bad in (float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite"):
                scheduler.schedule(bad, lambda: None)

    def test_nan_delay_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError, match="finite"):
            scheduler.schedule_after(float("nan"), lambda: None)
        with pytest.raises(ValueError, match="finite"):
            scheduler.schedule_after(float("inf"), lambda: None)

    def test_heap_stays_ordered_after_rejection(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(2.0, order.append, "b")
        with pytest.raises(ValueError):
            scheduler.schedule(float("nan"), order.append, "poison")
        scheduler.schedule(1.0, order.append, "a")
        scheduler.run_until(10.0)
        assert order == ["a", "b"]


class TestSchedulerMetrics:
    def test_events_and_heap_depth_instrumented(self):
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        scheduler = EventScheduler(metrics=registry)
        for i in range(4):
            scheduler.schedule(float(i), lambda: None)
        scheduler.run_until(10.0)
        assert registry.counter("engine.events_run").labels().value() == 4
        depth = registry.histogram("engine.heap_depth").labels()
        assert depth.count() == 4
        # Depth was 4 when the first event popped, then 3, 2, 1.
        assert depth.summary()["max"] == 4
        assert registry.gauge("engine.sim_time_minutes").labels().value() == 10.0

    def test_callback_wall_timing_labeled(self, monkeypatch):
        from repro.observability import MetricsRegistry
        from repro.simulation import engine

        # An interval of 1 times every callback; the default of 16 is
        # covered separately below.
        monkeypatch.setattr(engine, "WALL_SAMPLE_INTERVAL", 1)
        registry = MetricsRegistry()
        scheduler = EventScheduler(metrics=registry)

        def named_callback():
            pass

        scheduler.schedule(1.0, named_callback)
        scheduler.schedule(2.0, named_callback)
        scheduler.run_until(5.0)
        histogram = registry.histogram("engine.callback_wall_ms")
        assert histogram.wall is True
        label = "TestSchedulerMetrics.test_callback_wall_timing_labeled.<locals>.named_callback"
        assert histogram.labels(callback=label).count() == 2

    def test_callback_wall_timing_sampled_by_default(self):
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        scheduler = EventScheduler(metrics=registry)

        def named_callback():
            pass

        for i in range(48):
            scheduler.schedule(float(i), named_callback)
        scheduler.run_until(100.0)
        histogram = registry.histogram("engine.callback_wall_ms")
        label = (
            "TestSchedulerMetrics.test_callback_wall_timing_sampled_by_default"
            ".<locals>.named_callback"
        )
        # 48 events at 1-in-16 -> exactly 3 wall observations; every event
        # still counts in the sim-domain instruments.
        assert histogram.labels(callback=label).count() == 3
        assert registry.counter("engine.events_run").labels().value() == 48
        assert registry.histogram("engine.heap_depth").labels().count() == 48
