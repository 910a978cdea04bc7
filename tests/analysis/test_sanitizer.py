"""Schedule-sanitizer semantics: equivalence, races, proofs, wiring.

Three contracts pinned here:

* **transparency** — a sanitizer attached with permutation off changes
  neither the dispatch order nor a single drawn random value, so the
  pinned chaos replay fingerprints survive sanitized runs;
* **race semantics** — same-timestamp conflicting accesses without a
  happens-before edge are reported; causally-ordered and commutative
  accesses are not;
* **proof protocol** — :func:`prove_order_independence` proves an
  order-independent workload in two runs and refutes an
  order-dependent one with a minimized, comparable witness pair.
"""

from collections import deque

import pytest

from repro.analysis.sanitizer import (
    SanitizeConfig,
    ScheduleSanitizer,
    _item_key,
    prove_order_independence,
)
from repro.errors import AnalysisError, Interrupt
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams


def _trace_workload(env, log):
    """A workload with same-timestamp batches, cascades, and processes."""

    def worker(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))
        yield env.timeout(0)
        log.append((env.now, f"{name}/cascade"))

    for index in range(4):
        env.process(worker(f"w{index}", 1.0))
    env.process(worker("late", 2.5))


# -- transparency -----------------------------------------------------------


def test_sanitized_dispatch_is_bit_identical_to_plain():
    plain_log = []
    env = Environment()
    _trace_workload(env, plain_log)
    env.run()

    sanitized_log = []
    env2 = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env2)
    _trace_workload(env2, sanitized_log)
    env2.run()
    sanitizer.detach()

    assert sanitized_log == plain_log
    assert env2.now == env.now
    assert sanitizer.batches > 0
    assert sanitizer.permuted_batches == 0


def _escaping_batch(env, log, state):
    """Three timeouts share t=1. The first bumps ``state`` and wakes
    ``x``, a failure nobody waits on, then ``y``; the second reads
    ``state`` and raises while the third is still on the heap."""

    def note(tag):
        return lambda event: log.append(tag)

    def wake(event):
        log.append("a")
        state["n"] += 1
        woken = env.event()
        woken.callbacks.append(note("x"))
        woken.succeed()
        env.event().fail(ValueError("nobody waits on this"))
        woken = env.event()
        woken.callbacks.append(note("y"))
        woken.succeed()

    def boom(event):
        raise RuntimeError(f"callback failed at n={state['n']}")

    for callback in (wake, boom, note("c")):
        env.timeout(1.0).callbacks.append(callback)


def _run_past_escapes(env):
    """``env.run()`` again after each escaping exception; their names."""
    escaped = []
    while True:
        try:
            env.run()
            return escaped
        except (RuntimeError, ValueError) as exc:
            escaped.append(type(exc).__name__)


def test_escape_mid_batch_leaves_the_remainder_in_order():
    plain_log = []
    env = Environment()
    _escaping_batch(env, plain_log, {"n": 0})
    plain_escapes = _run_past_escapes(env)

    sanitized_log = []
    env2 = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env2)
    _escaping_batch(env2, sanitized_log,
                    sanitizer.track_value("state", {"n": 0}))
    sanitized_escapes = _run_past_escapes(env2)
    sanitizer.detach()

    assert plain_escapes == ["RuntimeError", "ValueError"]
    assert plain_log == ["a", "c", "x", "y"]
    assert sanitized_escapes == plain_escapes
    assert sanitized_log == plain_log
    assert env2.now == env.now == 1.0
    # The batch the first escape cut short was still analysed.
    assert [(race.state, race.kind_pair) for race in sanitizer.races] == [
        ("state", "read-write")]


def test_attach_after_an_escape_keeps_heap_entries_first():
    # A plain escape leaves a t=1 heap entry behind events already on the
    # current FIFO; the first sanitized batch must still run it first.
    log = []
    env = Environment()
    _escaping_batch(env, log, {"n": 0})
    with pytest.raises(RuntimeError):
        env.run()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    assert _run_past_escapes(env) == ["ValueError"]
    sanitizer.detach()
    assert log == ["a", "c", "x", "y"]


def test_detach_restores_the_plain_hot_loop():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(10.0)
        except Interrupt as interrupt:
            log.append(interrupt.cause)

    victim = env.process(sleeper())
    env.run(until=1.0)
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    assert env.sanitizer is sanitizer
    victim.interrupt("stop")
    pending = [env.event().succeed(tag) for tag in "abc"]
    with pytest.raises(AnalysisError):
        ScheduleSanitizer(SanitizeConfig()).attach(env)
    sanitizer.detach()
    assert env.sanitizer is None
    assert type(env._urgent) is deque and type(env._current) is deque
    assert len(env._urgent) == 1
    assert list(env._current) == pending
    env.run()
    assert log == ["stop"]
    with pytest.raises(AnalysisError):
        # Double-attach on one environment is a caller bug.
        other = ScheduleSanitizer(SanitizeConfig()).attach(env)
        ScheduleSanitizer(SanitizeConfig()).attach(env)
        other.detach()


def test_config_rejects_unknown_permutation_order():
    with pytest.raises(AnalysisError):
        SanitizeConfig(order="shuffled")


def test_tracked_rng_draws_identical_values():
    sanitizer = ScheduleSanitizer(SanitizeConfig())
    streams = RandomStreams(7)
    sanitizer.track_streams(streams)
    tracked = [streams.stream("alpha").random(),
               streams.stream("alpha").uniform(0, 10),
               streams.stream("alpha").randrange(1000)]
    raw = RandomStreams(7).stream("alpha")
    assert tracked == [raw.random(), raw.uniform(0, 10),
                       raw.randrange(1000)]


def test_distinct_streams_survive_rng_id_reuse():
    """Regression: the wrap memo must pin raw rngs alive.

    Keyed by ``id()`` alone, a freed stream's address gets recycled by
    the next ``stream()`` call and two different streams silently alias
    onto one wrapper (and one state) — which shifted every chaos
    signature the first time the sanitizer was attached.
    """
    sanitizer = ScheduleSanitizer(SanitizeConfig())
    streams = RandomStreams(7)
    sanitizer.track_streams(streams)
    drawn = {}
    for name in ("alpha", "beta", "gamma", "delta"):
        drawn[name] = streams.stream(name).random()
    raw = RandomStreams(7)
    for name, value in drawn.items():
        assert raw.stream(name).random() == value, f"{name} aliased"


def test_spawned_stream_families_inherit_tracking():
    sanitizer = ScheduleSanitizer(SanitizeConfig())
    streams = RandomStreams(7)
    sanitizer.track_streams(streams)
    child = streams.spawn("recovery/zone-a")
    value = child.stream("backoff").random()
    assert value == RandomStreams(7).spawn(
        "recovery/zone-a").stream("backoff").random()
    from repro.analysis.sanitizer import TrackedRandom
    assert isinstance(child.stream("backoff"), TrackedRandom)


# -- race semantics ---------------------------------------------------------


def _run_two(env, sanitizer, first, second, delay=1.0):
    """Dispatch two generators as same-timestamp sibling events."""

    def as_process(fn):
        def runner():
            yield env.timeout(delay)
            fn()
        return runner

    env.process(as_process(first)())
    env.process(as_process(second)())
    env.run()
    sanitizer.detach()


def test_same_time_rmw_on_shared_key_is_a_race():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    state = sanitizer.track_value("ledger", {"x": 0})
    _run_two(env, sanitizer,
             lambda: state.__setitem__("x", state["x"] * 2),
             lambda: state.__setitem__("x", state["x"] + 3))
    kinds = {race.kind_pair for race in sanitizer.races}
    assert "read-write" in kinds or "write-write" in kinds


def test_commutative_appends_do_not_race():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    log = sanitizer.track_value("log", [])
    _run_two(env, sanitizer,
             lambda: log.append("a"), lambda: log.append("b"))
    assert sanitizer.races == []
    assert sorted(log) == ["a", "b"]


def test_append_vs_len_read_is_a_race():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    log = sanitizer.track_value("log", [])
    _run_two(env, sanitizer,
             lambda: log.append("a"), lambda: len(log))
    assert any(race.state == "log" for race in sanitizer.races)


def test_distinct_dict_keys_do_not_race():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    state = sanitizer.track_value("state", {})
    _run_two(env, sanitizer,
             lambda: state.__setitem__("a", 1),
             lambda: state.__setitem__("b", 2))
    assert sanitizer.races == []


def test_causally_ordered_writes_do_not_race():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    state = sanitizer.track_value("state", {"x": 0})

    def parent():
        yield env.timeout(1)
        state["x"] = state["x"] + 1
        child = env.timeout(0)

        def on_child(_event):
            state["x"] = state["x"] * 10
        child.callbacks.append(on_child)

    env.process(parent())
    env.run()
    sanitizer.detach()
    assert sanitizer.races == []
    assert state["x"] == 10


def test_same_time_draws_from_a_shared_stream_race():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    streams = RandomStreams(1)
    sanitizer.track_streams(streams)
    rng = streams.stream("shared/jitter")
    out = []
    _run_two(env, sanitizer,
             lambda: out.append(rng.random()),
             lambda: out.append(rng.random()))
    assert any(race.state == "stream:shared/jitter"
               for race in sanitizer.races)


def test_per_consumer_streams_do_not_race():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    streams = RandomStreams(1)
    sanitizer.track_streams(streams)
    a, b = streams.stream("consumer/a"), streams.stream("consumer/b")
    out = []
    _run_two(env, sanitizer,
             lambda: out.append(a.random()),
             lambda: out.append(b.random()))
    assert sanitizer.races == []


# -- proof protocol ---------------------------------------------------------


def _independent_workload(config):
    sanitizer = ScheduleSanitizer(config)
    env = Environment()
    sanitizer.attach(env)
    log = sanitizer.track_value("log", [])

    def worker(name):
        yield env.timeout(1)
        log.append(name)

    for index in range(4):
        env.process(worker(f"w{index}"))
    env.run()
    sanitizer.detach()
    return tuple(sorted(log)), sanitizer


def _dependent_workload(config):
    sanitizer = ScheduleSanitizer(config)
    env = Environment()
    sanitizer.attach(env)
    state = sanitizer.track_value("state", {"x": 0})

    def double():
        yield env.timeout(1)
        state["x"] = state["x"] * 2

    def add():
        yield env.timeout(1)
        state["x"] = state["x"] + 3

    env.process(double())
    env.process(add())
    env.run()
    sanitizer.detach()
    return (state["x"],), sanitizer


def test_proof_proves_an_order_independent_workload():
    proof = prove_order_independence(_independent_workload)
    assert proof.proved
    # Baseline + one run per adversary schedule + the prefix probes.
    assert proof.runs >= 4
    assert proof.choice_batches >= 1
    assert proof.witness is None


def test_proof_refutes_with_a_minimized_witness():
    proof = prove_order_independence(_dependent_workload)
    assert not proof.proved
    assert proof.races_total > 0
    assert proof.witness is not None
    witness = proof.witness
    # The minimal flip point is the t=0 creation batch: permuting the
    # two Initialize events re-pairs the t=1 read-modify-writes.
    assert witness.choice_batch == 1
    assert witness.time == 0.0
    # The same batch captured under both schedules, directly comparable.
    assert sorted(witness.baseline_order) == sorted(witness.permuted_order)
    assert witness.baseline_order != witness.permuted_order
    assert witness.baseline_signature != witness.permuted_signature


def test_random_order_uses_the_permute_seed():
    proof = prove_order_independence(_dependent_workload, order="random",
                                     permute_seed=5)
    assert not proof.proved


# -- chaos harness wiring ---------------------------------------------------


def test_sanitized_chaos_run_keeps_the_exact_signature():
    from repro.workloads.chaos import run_chaos

    plain = run_chaos(3)
    sanitized = run_chaos(3, sanitize=True)
    assert sanitized.signature == plain.signature
    assert sanitized.sanitizer is not None
    assert sanitized.sanitizer["batches"] > 0
    assert sanitized.canonical != ()
    assert plain.sanitizer is None and plain.canonical == ()


def test_sanitized_federation_run_keeps_the_exact_signature():
    from repro.federation.chaos import run_federation_chaos

    plain = run_federation_chaos(0)
    sanitized = run_federation_chaos(0, sanitize=True)
    assert sanitized.signature == plain.signature
    assert sanitized.sanitizer is not None


def test_set_keys_render_the_same_in_every_process():
    # Set iteration follows string hashes, which are salted per process.
    assert _item_key(frozenset({"b", "a"})) == "frozenset({'a', 'b'})"
    assert _item_key({2, 1}) == "set({1, 2})"


def test_sanitized_sweep_payloads_match_across_processes():
    from repro.workloads.chaos import run_chaos_sweep

    serial = run_chaos_sweep([0, 1, 2, 3], jobs=1, sanitize=True)
    pooled = run_chaos_sweep([0, 1, 2, 3], jobs=2, sanitize=True)
    assert [r.sanitizer for r in serial] == [r.sanitizer for r in pooled]


def test_shipped_chaos_seed_is_order_independent():
    from repro.workloads.chaos import prove_chaos_order_independence

    proof = prove_chaos_order_independence(3)
    assert proof.proved, proof.to_dict()


def test_shipped_federation_seed_is_order_independent():
    from repro.federation.chaos import prove_federation_order_independence

    proof = prove_federation_order_independence(0)
    assert proof.proved, proof.to_dict()


def test_sanitizer_telemetry_counters_tick():
    from repro.workloads.chaos import run_chaos

    report = run_chaos(3, sanitize=True)
    assert report.sanitizer["batches"] > 0
    # Counter wiring, exercised directly on a tiny racy workload.
    from repro.telemetry.instrument import attach_telemetry

    env = Environment()
    telemetry = attach_telemetry(env)
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    state = sanitizer.track_value("state", {"x": 0})

    def bump():
        yield env.timeout(1)
        state["x"] = state["x"] + 1

    env.process(bump())
    env.process(bump())
    env.run()
    sanitizer.detach()
    assert telemetry.sanitizer_batches.value > 0
    assert sanitizer.races, "expected a read-write race"
    kind = sanitizer.races[0].kind_pair
    assert telemetry.sanitizer_races.labels(kind=kind).value > 0
