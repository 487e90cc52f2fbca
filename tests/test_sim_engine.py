"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Event, Simulator, SimulatorError


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_clock_starts_at_custom_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_equal_times_fire_fifo(self):
        sim = Simulator()
        order = []
        for tag in range(10):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_zero_delay_event_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, True)
        sim.run()
        assert fired == [True]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulatorError):
            Simulator().schedule(-1.0, lambda: None)

    def test_nan_and_inf_delays_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulatorError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulatorError):
            sim.schedule(float("inf"), lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulatorError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "nested"]

    def test_args_passed_to_callback(self):
        sim = Simulator()
        got = []
        sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, True)
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.run() == 0

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        assert keep is not drop

    def test_cancel_during_run(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []


class TestPendingCounter:
    """``Simulator.pending`` is an O(1) live counter; these pin that it
    stays *exact* through every schedule/cancel/fire combination."""

    def test_pending_tracks_schedule_and_fire(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim.pending == 5
        sim.step()
        assert sim.pending == 4
        sim.run()
        assert sim.pending == 0

    def test_cancellation_keeps_pending_exact(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        handles[2].cancel()
        handles[7].cancel()
        assert sim.pending == 8
        # Idempotent: double-cancel must not decrement twice.
        handles[2].cancel()
        assert sim.pending == 8
        sim.run()
        assert sim.pending == 0
        assert sim.events_processed == 8

    def test_cancel_after_fire_does_not_corrupt_pending(self):
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run_until(1.5)
        assert sim.pending == 1
        # The event already fired; a late cancel is a no-op.
        fired.cancel()
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_cancel_during_run_keeps_pending_exact(self):
        sim = Simulator()
        later = sim.schedule(3.0, lambda: None)
        sim.schedule(1.0, later.cancel)
        sim.schedule(2.0, lambda: None)
        sim.run_until(1.0)
        assert sim.pending == 1  # the t=2 event; t=3 was cancelled
        sim.run()
        assert sim.pending == 0

    def test_pending_matches_bruteforce_count_under_churn(self):
        sim = Simulator()
        handles = []
        for i in range(100):
            handles.append(sim.schedule(float(i % 7) + 0.5, lambda: None))
        for handle in handles[::3]:
            handle.cancel()
        for handle in handles[::3]:  # idempotent re-cancel
            handle.cancel()
        alive = sum(1 for h in handles if not h.cancelled)
        assert sim.pending == alive
        processed = sim.run()
        assert processed == alive
        assert sim.pending == 0


class TestRunModes:
    def test_run_returns_processed_count(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim.run() == 5

    def test_run_until_stops_at_deadline(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(3.0, fired.append, "out")
        sim.run_until(2.0)
        assert fired == ["in"]
        assert sim.now == 2.0

    def test_run_until_is_resumable(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(3.0, fired.append, 3)
        sim.run_until(2.0)
        sim.run_until(4.0)
        assert fired == [1, 3]

    def test_run_until_inclusive_of_deadline_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, True)
        sim.run_until(2.0)
        assert fired == [True]

    def test_run_until_past_deadline_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulatorError):
            sim.run_until(1.0)

    def test_max_events_bounds_run(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.pending == 6

    def test_run_until_cut_by_max_events_leaves_the_clock_at_the_event(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        assert sim.run_until(10.0, max_events=1) == 1
        assert (sim.now, sim.pending) == (1.0, 2)
        # Exactly enough events: nothing is left, so the clock moves on.
        assert sim.run_until(10.0, max_events=2) == 2
        assert (sim.now, sim.pending) == (10.0, 0)

    def test_run_until_advances_past_later_events_only(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        assert sim.run_until(10.0, max_events=1) == 1
        assert (sim.now, sim.pending) == (10.0, 1)

    def test_checkpoint_cadence_counts_simulated_seconds_from_the_clock(self):
        # 100 events 0.1 s apart, chunks of 10 events or 2 s: the event
        # budget ends every chunk after one simulated second, and the
        # next 2 s horizon must be measured from there.
        sim = Simulator()
        for i in range(1, 101):
            sim.schedule_at(i / 10, lambda: None)
        hook_times = []
        processed = sim.run_with_checkpoints(
            10.0, lambda: hook_times.append(sim.now),
            every_events=10, every_seconds=2.0,
        )
        assert processed == 100
        assert hook_times == [float(t) for t in range(1, 11)]

    def test_step_fires_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]

    def test_step_on_empty_heap(self):
        assert Simulator().step() is False

    def test_stop_exits_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [1]

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulatorError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 3


class TestEventOrdering:
    def test_event_lt_by_time_then_seq(self):
        a = Event(1.0, 0, lambda: None, ())
        b = Event(1.0, 1, lambda: None, ())
        c = Event(0.5, 2, lambda: None, ())
        assert c < a < b

    def test_interleaved_schedule_and_run(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.run()
        sim.schedule(1.0, order.append, "b")
        sim.run()
        assert order == ["a", "b"]
        assert sim.now == 2.0
