"""Tests for the DGL flow interpreter: control patterns, scoping, rules,
fault handling, and execution control."""

import pytest

from repro.dgl import (
    Action,
    DataGridRequest,
    ExecutionState,
    Operation,
    Step,
    UserDefinedRule,
    flow_builder,
    operation,
)
from repro.storage import MB


def submit(dfms, flow, **kw):
    return dfms.submit_sync(flow, **kw)


# -- basic patterns ------------------------------------------------------------

def test_sequential_steps_run_in_order(dfms):
    flow = (flow_builder("seq")
            .step("a", "dgl.sleep", duration=5)
            .step("b", "dgl.sleep", duration=5)
            .build())
    response = submit(dfms, flow)
    status = response.body
    assert status.state is ExecutionState.COMPLETED
    a, b = status.children
    assert a.finished_at == 5.0
    assert b.started_at == 5.0
    assert b.finished_at == 10.0


def test_parallel_steps_overlap(dfms):
    flow = (flow_builder("par")
            .parallel()
            .step("a", "dgl.sleep", duration=10)
            .step("b", "dgl.sleep", duration=10)
            .build())
    response = submit(dfms, flow)
    assert response.body.finished_at == 10.0   # not 20


def test_parallel_bounded_concurrency(dfms):
    builder = flow_builder("bounded").parallel(max_concurrent=2)
    for i in range(4):
        builder.step(f"s{i}", "dgl.sleep", duration=10)
    response = submit(dfms, builder.build())
    assert response.body.finished_at == 20.0   # two waves of two


def test_while_loop_counts(dfms):
    flow = (flow_builder("loop")
            .while_loop("count < 3")
            .variable("count", 0)
            .step("tick", "dgl.set", variable="count", value="${count + 1}")
            .build())
    response = submit(dfms, flow)
    assert response.body.state is ExecutionState.COMPLETED
    assert response.body.iterations == 3


def test_repeat_with_expression_count(dfms):
    flow = (flow_builder("rep")
            .repeat("${n * 2}")
            .variable("n", 2)
            .step("tick", "dgl.sleep", duration=1)
            .build())
    response = submit(dfms, flow)
    assert response.body.iterations == 4
    assert response.body.finished_at == 4.0


def test_foreach_over_datagrid_query(dfms):
    for i in range(3):
        dfms.put_file(f"/home/alice/f{i}.dat", size=MB,
                      metadata={"stage": "raw"})
    dfms.put_file("/home/alice/skip.txt", size=MB,
                  metadata={"stage": "done"})
    flow = (flow_builder("sweep")
            .for_each("f", collection="/home/alice",
                      query="meta:stage = 'raw'")
            .step("mark", "srb.set_metadata", path="${f}",
                  attribute="stage", value="seen")
            .build())
    response = submit(dfms, flow)
    assert response.body.iterations == 3
    for i in range(3):
        obj = dfms.dgms.namespace.resolve_object(f"/home/alice/f{i}.dat")
        assert obj.metadata.get("stage") == "seen"
    skip = dfms.dgms.namespace.resolve_object("/home/alice/skip.txt")
    assert skip.metadata.get("stage") == "done"


def test_foreach_over_expression_items(dfms):
    flow = (flow_builder("items")
            .variable("total", 0)
            .for_each("x", items="[1, 2, 3, 4]")
            .step("add", "dgl.set", variable="total", value="${total + x}")
            .build())
    submit(dfms, flow)
    execution = dfms.server.executions()[0]
    assert execution.status.iterations == 4


def test_switch_selects_named_child(dfms):
    flow = (flow_builder("choose")
            .variable("mode", "fast")
            .switch("mode")
            .subflow(flow_builder("fast").step("f", "dgl.sleep", duration=1))
            .subflow(flow_builder("slow").step("s", "dgl.sleep", duration=100))
            .build())
    response = submit(dfms, flow)
    assert response.body.finished_at == 1.0
    fast, slow = response.body.children
    assert fast.state is ExecutionState.COMPLETED
    assert slow.state is ExecutionState.PENDING     # never ran


def test_switch_falls_back_to_default(dfms):
    flow = (flow_builder("choose")
            .variable("mode", "unknown")
            .switch("mode", default="fallback")
            .subflow(flow_builder("fallback").step("f", "dgl.sleep",
                                                   duration=2))
            .build())
    response = submit(dfms, flow)
    assert response.body.finished_at == 2.0


def test_switch_no_match_no_default_is_noop(dfms):
    flow = (flow_builder("choose")
            .variable("mode", "unknown")
            .switch("mode")
            .subflow(flow_builder("only").step("s", "dgl.sleep", duration=9))
            .build())
    response = submit(dfms, flow)
    assert response.body.state is ExecutionState.COMPLETED
    assert response.body.finished_at == 0.0


def test_nested_flows_inherit_scope(dfms):
    inner = (flow_builder("inner")
             .step("use", "dgl.set", variable="result",
                   value="${outer_var * 10}"))
    flow = (flow_builder("outer")
            .variable("outer_var", 7)
            .variable("result", 0)
            .subflow(inner)
            .build())
    submit(dfms, flow)
    execution = dfms.server.executions()[0]
    assert ("result", 70) in execution.journal["inner/use"].effects


def test_assign_to_binds_result_for_siblings(dfms):
    flow = (flow_builder("pipe")
            .variable("digest", "")
            .step("mk", "srb.put", assign_to="created",
                  path="/home/alice/x.dat", size=MB, resource="sdsc-disk")
            .step("sum", "srb.checksum", assign_to="digest",
                  path="${created}")
            .step("tag", "srb.set_metadata", path="${created}",
                  attribute="md5", value="${digest}")
            .build())
    response = submit(dfms, flow)
    assert response.body.state is ExecutionState.COMPLETED
    obj = dfms.dgms.namespace.resolve_object("/home/alice/x.dat")
    assert obj.metadata.get("md5") == obj.checksum


# -- rules ------------------------------------------------------------------

def test_before_entry_and_after_exit_rules_run(dfms):
    flow = (flow_builder("ruled")
            .before_entry(operation("dgl.log", message="entering"))
            .after_exit(operation("dgl.log", message="leaving"))
            .step("work", "dgl.sleep", duration=1)
            .build())
    submit(dfms, flow)
    execution = dfms.server.executions()[0]
    assert [m for _, m in execution.messages] == ["entering", "leaving"]


def test_rule_condition_selects_action_by_name(dfms):
    rule = UserDefinedRule(
        name="beforeEntry",
        condition="'loud' if volume > 5 else 'quiet'",
        actions=[Action("loud", Operation("dgl.log", {"message": "LOUD"})),
                 Action("quiet", Operation("dgl.log", {"message": "quiet"}))])
    flow = (flow_builder("cond")
            .variable("volume", 9)
            .rule(rule)
            .step("s", "dgl.noop")
            .build())
    submit(dfms, flow)
    execution = dfms.server.executions()[0]
    assert [m for _, m in execution.messages] == ["LOUD"]


def test_rule_with_no_matching_action_is_skipped(dfms):
    rule = UserDefinedRule(
        name="beforeEntry", condition="'nomatch'",
        actions=[Action("a", Operation("dgl.log", {"message": "never"}))])
    flow = flow_builder("f").rule(rule).step("s", "dgl.noop").build()
    submit(dfms, flow)
    assert dfms.server.executions()[0].messages == ()


# -- failures and fault handling ---------------------------------------------

def test_step_failure_fails_flow_with_error(dfms):
    flow = (flow_builder("doomed")
            .step("ok", "dgl.sleep", duration=1)
            .step("boom", "dgl.fail", message="deliberate")
            .step("never", "dgl.sleep", duration=1)
            .build())
    response = submit(dfms, flow)
    status = response.body
    assert status.state is ExecutionState.FAILED
    assert "deliberate" in status.error
    ok, boom, never = status.children
    assert ok.state is ExecutionState.COMPLETED
    assert boom.state is ExecutionState.FAILED
    assert never.state is ExecutionState.PENDING


def test_on_error_retry_succeeds_after_transient_fault(dfms):
    # A step that fails until `attempts` reaches 2, tracked via a variable.
    step = Step(
        name="flaky",
        operation=Operation("dgl.fail", {"message": "transient"}),
        rules=[UserDefinedRule(
            name="onError", condition="true",
            actions=[Action("retry", Operation("dgl.retry",
                                               {"max": 2, "delay": 5}))])])
    flow = (flow_builder("retrying").add_step(step).build())
    response = submit(dfms, flow)
    # dgl.fail always fails; after 2 retries the step gives up.
    assert response.body.state is ExecutionState.FAILED
    assert "after 3 attempts" in response.body.children[0].error
    # The retry delays took virtual time: 2 retries x 5 s.
    assert dfms.env.now == 10.0


def test_on_error_ignore_swallows_failure(dfms):
    step = Step(
        name="besteffort",
        operation=Operation("dgl.fail", {"message": "ignored"}),
        rules=[UserDefinedRule(
            name="onError", condition="true",
            actions=[Action("ignore", Operation("dgl.ignore"))])])
    flow = (flow_builder("tolerant")
            .add_step(step)
            .step("after", "dgl.sleep", duration=1)
            .build())
    response = submit(dfms, flow)
    assert response.body.state is ExecutionState.COMPLETED


def test_on_error_condition_can_inspect_error_message(dfms):
    step = Step(
        name="selective",
        operation=Operation("dgl.fail", {"message": "fatal-problem"}),
        rules=[UserDefinedRule(
            name="onError",
            condition="'ignore' if 'transient' in error else 'abort'",
            actions=[Action("ignore", Operation("dgl.ignore")),
                     Action("abort", Operation("dgl.abort"))])])
    flow = flow_builder("f").add_step(step).build()
    response = submit(dfms, flow)
    assert response.body.state is ExecutionState.FAILED


def test_parallel_failure_waits_for_siblings(dfms):
    flow = (flow_builder("par")
            .parallel()
            .step("fail-fast", "dgl.fail", message="early")
            .step("slow", "dgl.sleep", duration=30)
            .build())
    response = submit(dfms, flow)
    assert response.body.state is ExecutionState.FAILED
    # The engine waited for the slow sibling before failing the flow.
    assert dfms.env.now == 30.0
    slow = response.body.children[1]
    assert slow.state is ExecutionState.COMPLETED


@pytest.mark.parametrize("max_concurrent", [0, 1, 2])
@pytest.mark.parametrize("failing_first", [False, True])
def test_parallel_branch_failure_fails_execution(dfms, failing_first,
                                                 max_concurrent):
    # A branch that fails while the parent still waits on an earlier one
    # must fail the execution once every branch settles, not escape
    # env.run().
    slow = flow_builder("slow").step("nap", "dgl.sleep", duration=5)
    broken = (flow_builder("broken")
              .step("boom", "dgl.fail", message="branch failed"))
    builder = flow_builder("par").parallel(max_concurrent=max_concurrent)
    for branch in ((broken, slow) if failing_first else (slow, broken)):
        builder.subflow(branch)
    status = submit(dfms, builder.build()).body
    assert status.state is ExecutionState.FAILED
    assert "branch failed" in status.error
    assert status.finished_at == dfms.env.now == 5.0
    assert {child.name: child.state for child in status.children} == {
        "slow": ExecutionState.COMPLETED, "broken": ExecutionState.FAILED}


# -- pause / resume / cancel ---------------------------------------------------

def test_pause_stops_progress_then_resume_continues(dfms):
    flow = (flow_builder("long")
            .step("a", "dgl.sleep", duration=10)
            .step("b", "dgl.sleep", duration=10)
            .step("c", "dgl.sleep", duration=10)
            .build())
    from repro.dgl import DataGridRequest
    request = DataGridRequest(user=dfms.alice.qualified_name,
                              virtual_organization="vo", body=flow,
                              asynchronous=True)
    ack = dfms.server.submit(request)
    request_id = ack.request_id

    def scenario():
        yield dfms.env.timeout(12.0)        # step a done, b running
        dfms.server.pause(request_id)
        yield dfms.env.timeout(100.0)       # long pause
        status = dfms.server.status(request_id)
        assert status.children[2].state is ExecutionState.PENDING
        dfms.server.resume(request_id)
        yield dfms.server.wait(request_id)
        return dfms.env.now

    finished = dfms.run(scenario())
    # b finishes at 20 (already in flight), pause bites before c;
    # resume at 112 -> c runs 112..122.
    assert finished == 122.0
    assert dfms.server.status(request_id).state is ExecutionState.COMPLETED


def test_cancel_terminates_at_step_boundary(dfms):
    flow = (flow_builder("long")
            .step("a", "dgl.sleep", duration=10)
            .step("b", "dgl.sleep", duration=10)
            .build())
    from repro.dgl import DataGridRequest
    request = DataGridRequest(user=dfms.alice.qualified_name,
                              virtual_organization="vo", body=flow)
    ack = dfms.server.submit(request)

    def scenario():
        yield dfms.env.timeout(5.0)
        dfms.server.cancel(ack.request_id)
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    status = dfms.server.status(ack.request_id)
    assert status.state is ExecutionState.CANCELLED
    assert status.children[1].state is ExecutionState.PENDING


def test_cancel_wakes_paused_execution(dfms):
    flow = (flow_builder("f")
            .step("a", "dgl.sleep", duration=10)
            .step("b", "dgl.sleep", duration=10)
            .build())
    from repro.dgl import DataGridRequest
    ack = dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=flow))

    def scenario():
        yield dfms.env.timeout(1.0)
        dfms.server.pause(ack.request_id)
        yield dfms.env.timeout(20.0)
        dfms.server.cancel(ack.request_id)
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    assert dfms.server.status(ack.request_id).state is ExecutionState.CANCELLED


def test_control_transitions_validated(dfms):
    from repro.errors import InvalidTransition
    from repro.dgl import DataGridRequest
    flow = flow_builder("quick").step("s", "dgl.noop").build()
    ack = dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=flow))

    def scenario():
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    with pytest.raises(InvalidTransition):
        dfms.server.pause(ack.request_id)
    with pytest.raises(InvalidTransition):
        dfms.server.cancel(ack.request_id)


# -- loop passes ---------------------------------------------------------------

def test_cancel_at_a_loop_gate_closes_enclosing_spans_cancelled(dfms):
    from repro.telemetry import attach_telemetry
    telemetry = attach_telemetry(dfms.env, server=dfms.server)
    inner = (flow_builder("inner").repeat(3)
             .step("nap", "dgl.sleep", duration=2))
    flow = flow_builder("outer").subflow(inner).build()
    ack = dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=flow))

    def scenario():
        yield dfms.env.timeout(3.0)      # pass 1's nap runs 2..4
        dfms.server.cancel(ack.request_id)
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    # The nap in flight finishes; the gate before pass 2 cancels at 4 s
    # and every enclosing span closes `cancelled` at that instant.
    assert [(span.name, span.attrs.get("key"), span.status, span.start,
             span.end) for span in telemetry.tracer.finished] == [
        ("step", "inner[0]/nap", "ok", 0.0, 2.0),
        ("step", "inner[1]/nap", "ok", 2.0, 4.0),
        ("flow", "inner", "cancelled", 0.0, 4.0),
        ("flow", "outer", "cancelled", 0.0, 4.0),
        ("execution", None, "cancelled", 0.0, 4.0)]
    status = dfms.server.status(ack.request_id)
    assert status.state is ExecutionState.CANCELLED
    (loop,) = status.children
    assert (loop.state, loop.iterations, loop.finished_at) == (
        ExecutionState.CANCELLED, 2, 4.0)
    assert loop.children[0].state is ExecutionState.COMPLETED


def test_cancel_during_a_childless_loop_rule_stops_at_the_pass_gate(dfms):
    # With no child to pass a gate of its own, the gate before each pass
    # is what honours a cancel that lands while beforeEntry runs.
    flow = (flow_builder("idle")
            .before_entry(operation("dgl.sleep", duration=5))
            .repeat(2)
            .build())
    ack = dfms.server.submit(DataGridRequest(
        user=dfms.alice.qualified_name, virtual_organization="vo",
        body=flow))

    def scenario():
        yield dfms.env.timeout(1.0)
        dfms.server.cancel(ack.request_id)
        yield dfms.server.wait(ack.request_id)

    dfms.run(scenario())
    status = dfms.server.status(ack.request_id)
    assert (status.state, status.iterations, status.finished_at) == (
        ExecutionState.CANCELLED, 0, 5.0)


@pytest.mark.parametrize("count", [None, 6, 5])
def test_while_and_repeat_are_capped(dfms, monkeypatch, count):
    # None is `while true`; a repeat of 6 runs one pass past the cap, a
    # repeat of 5 reaches it exactly.
    from repro.dfms import engine
    monkeypatch.setattr(engine, "MAX_LOOP_ITERATIONS", 5)
    builder = flow_builder("spin")
    builder = builder.while_loop("true") if count is None \
        else builder.repeat(count)
    status = submit(dfms, builder.step("tick", "dgl.sleep", duration=1)
                    .build()).body
    assert (status.iterations, dfms.env.now) == (5, 5.0)
    if count == 5:
        assert status.state is ExecutionState.COMPLETED
    else:
        assert status.state is ExecutionState.FAILED
        assert status.error == ("flow 'spin' exceeded 5 iterations; "
                                "aborting (runaway loop?)")


def test_foreach_is_not_capped(dfms, monkeypatch):
    from repro.dfms import engine
    monkeypatch.setattr(engine, "MAX_LOOP_ITERATIONS", 5)
    flow = (flow_builder("many")
            .variable("total", 0)
            .for_each("x", items="[1, 2, 3, 4, 5, 6, 7, 8]")
            .step("add", "dgl.set", variable="total", value="${total + x}")
            .build())
    status = submit(dfms, flow).body
    assert status.state is ExecutionState.COMPLETED
    assert status.iterations == 8
    execution = dfms.server.executions()[0]
    assert execution.journal["many[7]/add"].effects == (("total", 36),)
