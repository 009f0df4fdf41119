"""Tests for the discrete-event engine."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30.0, fired.append, "c")
        sim.schedule(10.0, fired.append, "a")
        sim.schedule(20.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(5.0, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(7.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [7.5]
        assert sim.now == 7.5

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(5.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(10.0, outer)
        sim.run()
        assert fired == [("outer", 10.0), ("inner", 15.0)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(5.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(10.0, fired.append, "x")
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_pending_ignores_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(10.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        sim.cancel(handle)
        assert sim.pending == 1


class TestRunBounds:
    def test_run_until_stops_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "early")
        sim.schedule(100.0, fired.append, "late")
        sim.run(until=50.0)
        assert fired == ["early"]
        assert sim.now == 50.0
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_never_moves_the_clock_back(self):
        sim = Simulator()
        sim.run(until=20.0)
        with pytest.raises(ValueError):
            sim.run(until=5.0)
        assert sim.now == 20.0
        # The clock still refuses times it has already passed.
        with pytest.raises(ValueError):
            sim.at(7.0, lambda: None)

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_events_fired_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_fired == 5

    def test_determinism_across_runs(self):
        def run_once():
            sim = Simulator()
            order = []
            sim.schedule(1.0, lambda: (order.append(1), sim.schedule(0.0, order.append, 2)))
            sim.schedule(1.0, order.append, 3)
            sim.run()
            return order

        assert run_once() == run_once() == [1, 3, 2]


class ReferenceSim:
    """The order the engine promises, by brute force: every queued event
    in one dict, the next one found by sorting on ``(time, seq)``."""

    def __init__(self):
        self.now = 0.0
        self._queue = {}  # seq -> (time, fn, args)
        self._seq = 0
        self.events_fired = 0

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise ValueError(delay)
        return self.at(self.now + delay, fn, *args)

    def at(self, time, fn, *args):
        if time < self.now:
            raise ValueError(time)
        self._seq += 1
        self._queue[self._seq] = (time, fn, args)
        return self._seq

    def cancel(self, handle):
        self._queue.pop(handle, None)

    @property
    def pending(self):
        return len(self._queue)

    def _next(self):
        return min(self._queue, key=lambda seq: (self._queue[seq][0], seq))

    def step(self):
        if not self._queue:
            return False
        time, fn, args = self._queue.pop(self._next())
        self.now = time
        self.events_fired += 1
        fn(*args)
        return True

    def run(self, until=None):
        if until is not None and until < self.now:
            raise ValueError(until)
        while self._queue:
            seq = self._next()
            if until is not None and self._queue[seq][0] > until:
                break
            time, fn, args = self._queue.pop(seq)
            self.now = time
            self.events_fired += 1
            fn(*args)
        if until is not None:
            self.now = max(self.now, until)


# Delays mix exact zeros, binary fractions, values whose sums round
# (0.1 + 0.2) and a tiny one that rounding absorbs once the clock is
# large (1e9 + 1e-12 == 1e9).
DELAYS = (0.0, 0.0, 0.0, 0.1, 0.2, 0.5, 1.0, 1.0, 3.0, 1e-12, 1e9)


def _random_program(rng):
    """A program as plain data, so two simulators can replay it.

    ``actions[i]`` is what event ``i`` does when it fires: schedule a
    new event with a delay, at ``now`` or at ``now + offset``, or cancel
    the k-th handle handed out so far.  ``phases`` are the top-level
    steps: some actions, then ``run(until=now + x)`` or a few
    ``step()`` calls; a final ``run()`` drains everything.
    """
    budget = 60  # events a program may create

    def new_actions(depth):
        nonlocal budget
        acts = []
        for _ in range(rng.randrange(0, 4 if depth < 6 else 1)):
            roll = rng.random()
            if roll < 0.15:
                acts.append(("cancel", rng.randrange(1 << 16), None))
            elif budget > 0:
                budget -= 1
                child = len(actions)
                actions.append(None)
                actions[child] = new_actions(depth + 1)
                if roll < 0.6:
                    acts.append(("schedule", rng.choice(DELAYS), child))
                elif roll < 0.8:
                    acts.append(("at", 0.0, child))
                else:
                    acts.append(("at", rng.choice(DELAYS), child))
        return acts

    actions = []
    phases = []
    for _ in range(rng.randrange(1, 5)):
        top = new_actions(0)
        if rng.random() < 0.3:
            phases.append((top, "step", rng.randrange(1, 6)))
        else:
            phases.append((top, "until", rng.choice((0.0, 0.5, 2.0, 7.0, 1e9))))
    return actions, phases


def _replay(sim, actions, phases):
    log = []
    handles = []

    def do(acts):
        for op, arg, child in acts:
            if op == "cancel":
                if handles:
                    sim.cancel(handles[arg % len(handles)])
            elif op == "schedule":
                handles.append(sim.schedule(arg, fire, child))
            else:
                handles.append(sim.at(sim.now + arg, fire, child))

    def fire(node):
        log.append((node, sim.now))
        do(actions[node])

    for top, kind, arg in phases:
        do(top)
        if kind == "step":
            for _ in range(arg):
                sim.step()
        else:
            sim.run(until=sim.now + arg)
        log.append(("phase", sim.now, sim.pending, sim.events_fired))
    sim.run()
    return log, sim.now, sim.events_fired, sim.pending


class TestOrderProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_fires_in_time_then_seq_order(self, seed):
        actions, phases = _random_program(random.Random(seed))
        got = _replay(Simulator(), actions, phases)
        want = _replay(ReferenceSim(), actions, phases)
        assert got == want

    def test_rounded_positive_delay_keeps_seq_order(self):
        """A positive delay that rounding absorbs into ``now`` fires at
        ``now`` after everything scheduled earlier for ``now``."""
        sim = Simulator()
        fired = []

        def at_big():
            sim.schedule(1e-12, fired.append, "absorbed")
            sim.schedule(0.0, fired.append, "zero")

        sim.at(1e9, at_big)
        sim.at(1e9, fired.append, "heap")
        sim.run()
        assert fired == ["heap", "absorbed", "zero"]
        assert sim.now == 1e9
