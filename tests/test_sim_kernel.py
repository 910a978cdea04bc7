"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import Interrupt, SimError, SimStopped
from repro.sim import Environment


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=100.0).now == 100.0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(5.0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [5.0]
    assert env.now == 5.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()

    def proc():
        value = yield env.timeout(1.0, value="payload")
        return value

    assert env.run_process(proc()) == "payload"


def test_events_process_in_time_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(3.0, "c"))
    env.process(proc(1.0, "a"))
    env.process(proc(2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_fifo_order_for_simultaneous_events():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("x", "y", "z"):
        env.process(proc(tag))
    env.run()
    assert order == ["x", "y", "z"]


def test_run_until_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10.0)

    env.process(proc())
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_past_raises():
    env = Environment(initial_time=50.0)
    with pytest.raises(SimError):
        env.run(until=10.0)


def test_step_with_empty_queue_raises():
    with pytest.raises(SimStopped):
        Environment().step()


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        return 42

    assert env.run_process(proc()) == 42


def test_nested_process_wait():
    env = Environment()

    def child():
        yield env.timeout(2.0)
        return "child-result"

    def parent():
        result = yield env.process(child())
        return result, env.now

    assert env.run_process(parent()) == ("child-result", 2.0)


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            return f"caught {exc}"

    assert env.run_process(parent()) == "caught boom"


def test_unhandled_process_failure_surfaces():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(proc())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()

    def opener():
        yield env.timeout(3.0)
        gate.succeed("opened")

    def waiter():
        value = yield gate
        return value, env.now

    env.process(opener())
    assert env.run_process(waiter()) == ("opened", 3.0)


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(SimError):
        event.succeed()


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(SimError):
        env.event().fail("not an exception")


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc():
        t1 = env.timeout(1.0, value=1)
        t2 = env.timeout(5.0, value=2)
        results = yield env.all_of([t1, t2])
        return sorted(results.values()), env.now

    assert env.run_process(proc()) == ([1, 2], 5.0)


def test_any_of_returns_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        results = yield env.any_of([t1, t2])
        return list(results.values()), env.now

    assert env.run_process(proc()) == (["fast"], 1.0)


def test_all_of_empty_list_triggers_immediately():
    env = Environment()

    def proc():
        results = yield env.all_of([])
        return results

    assert env.run_process(proc()) == {}


def test_all_of_counts_a_repeated_child_twice():
    # A condition counts callbacks, not distinct children: a child
    # listed twice subscribes twice, so its one success settles both.
    env = Environment()
    child = env.event()
    both = env.all_of([child, child])
    env.run()
    assert not both.triggered
    child.succeed("v")
    env.run()
    assert both.processed and both.value == {child: "v"}


def test_interrupt_raises_inside_process():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            log.append((env.now, exc.cause))

    def attacker(proc):
        yield env.timeout(5.0)
        proc.interrupt(cause="stop now")

    victim_proc = env.process(victim())
    env.process(attacker(victim_proc))
    env.run()
    assert log == [(5.0, "stop now")]


def test_interrupted_process_not_resumed_twice():
    env = Environment()
    resumes = []

    def victim():
        try:
            yield env.timeout(10.0)
            resumes.append("timeout")
        except Interrupt:
            resumes.append("interrupt")
            yield env.timeout(50.0)
            resumes.append("after")

    def attacker(proc):
        yield env.timeout(5.0)
        proc.interrupt()

    env.process(attacker(env.process(victim())))
    env.run()
    # The original 10s timeout must NOT wake the process again at t=10.
    assert resumes == ["interrupt", "after"]
    assert env.now == 55.0


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimError):
        proc.interrupt()


def test_yielding_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(SimError, match="non-event"):
        env.run()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_any_of_defuses_failure_racing_a_win():
    # A child that fails *after* the any_of already triggered is nobody's
    # responsibility; the condition must defuse it so a later step() does
    # not re-raise it as an un-waited failure.
    env = Environment()

    def winner():
        yield env.timeout(1.0)
        return "won"

    def loser():
        yield env.timeout(2.0)
        raise RuntimeError("late failure")

    def waiter():
        results = yield env.any_of([env.process(winner()),
                                    env.process(loser())])
        return list(results.values())

    proc = env.process(waiter())
    env.run()  # must not raise the loser's RuntimeError at t=2
    assert proc.value == ["won"]


def test_all_of_defuses_second_failure_after_first():
    env = Environment()

    def failer(delay, message):
        yield env.timeout(delay)
        raise RuntimeError(message)

    def waiter():
        try:
            yield env.all_of([env.process(failer(1.0, "first")),
                              env.process(failer(2.0, "second"))])
        except RuntimeError as exc:
            return str(exc)

    proc = env.process(waiter())
    env.run()  # the second failure must not surface at t=2
    assert proc.value == "first"


def test_cancelled_timeout_never_fires_nor_advances_clock():
    env = Environment()
    fired = []
    late = env.timeout(100.0)
    late.callbacks.append(lambda event: fired.append(env.now))

    def proc():
        yield env.timeout(5.0)

    env.process(proc())
    late.cancel()
    assert late.cancelled
    env.run()
    assert fired == []
    # The stale heap entry must not drag the clock out to t=100.
    assert env.now == 5.0


def test_rescheduled_timeout_fires_once_at_new_time():
    env = Environment()
    fired = []
    timer = env.timeout(10.0)
    timer.callbacks.append(lambda event: fired.append(env.now))
    timer.reschedule(3.0)
    assert timer.when == 3.0
    env.run()
    assert fired == [3.0]
    assert env.now == 3.0


def test_reschedule_can_move_a_timeout_later():
    env = Environment()
    fired = []
    timer = env.timeout(1.0)
    timer.callbacks.append(lambda event: fired.append(env.now))
    timer.reschedule(6.0)
    env.run()
    assert fired == [6.0]


def test_cancel_or_reschedule_after_processing_rejected():
    env = Environment()
    timer = env.timeout(1.0)
    env.run()
    with pytest.raises(SimError):
        timer.cancel()
    with pytest.raises(SimError):
        timer.reschedule(1.0)


def test_peek_skips_cancelled_timeouts():
    env = Environment()
    soon = env.timeout(1.0)
    env.timeout(4.0)
    soon.cancel()
    assert env.peek() == 4.0


def test_run_until_ignores_stale_entries_beyond_horizon():
    env = Environment()
    fired = []
    stale = env.timeout(1.0)
    later = env.timeout(10.0)
    later.callbacks.append(lambda event: fired.append(env.now))
    stale.cancel()
    # The stale head at t=1 must not trick run(until=5) into processing
    # the t=10 event early.
    env.run(until=5.0)
    assert fired == []
    assert env.now == 5.0
    env.run()
    assert fired == [10.0]


def test_kernel_events_have_no_instance_dict():
    # The kernel classes declare __slots__ (events are allocated millions of
    # times in the scale benchmarks); a __dict__ creeping back in would undo
    # the memory savings silently.
    from repro.sim.kernel import Condition, Event, Process, Timeout

    env = Environment()

    def proc():
        yield env.timeout(1.0)

    instances = [Event(env), env.timeout(1.0), env.process(proc()),
                 env.all_of([env.timeout(2.0)])]
    assert [type(i) for i in instances] == [Event, Timeout, Process, Condition]
    for instance in instances:
        assert not hasattr(instance, "__dict__")
    env.run()
