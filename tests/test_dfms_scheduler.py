"""Tests for cost model, heuristics, HEFT, placer, rewriter, and the IDL."""

import random

import pytest

from repro.errors import DGLParseError, MatchmakingError, SchedulingError
from repro.dfms import (
    SLA,
    ComputeResource,
    DomainDescription,
    InfrastructureDescription,
    StorageOffer,
)
from repro.dfms.scheduler import (
    CostModel,
    CostWeights,
    Placer,
    TaskGraph,
    TaskSpec,
    bind_flow_early,
    pinned_steps,
    schedule_heft,
    schedule_tasks,
    task_spec_for_exec,
)
from repro.dgl import flow_builder
from repro.storage import MB


@pytest.fixture
def sched(dfms):
    """dfms fixture plus detached compute for static scheduling."""
    dfms.cost_model = CostModel(dfms.dgms)
    return dfms


def make_tasks(n, duration=100.0, **kw):
    return [TaskSpec(name=f"t{i}", duration=duration, **kw)
            for i in range(n)]


# -- compute resource ------------------------------------------------------

def test_compute_resource_validation():
    with pytest.raises(SchedulingError):
        ComputeResource("c", "d", cores=0)
    with pytest.raises(SchedulingError):
        ComputeResource("c", "d", cores=1, speed_factor=0)


def test_compute_run_time_scales_with_speed():
    fast = ComputeResource("fast", "d", cores=1, speed_factor=4.0)
    assert fast.run_time(100.0) == 25.0


def test_detached_compute_rejects_execution(dfms):
    detached = ComputeResource("loose", "sdsc", cores=1)
    with pytest.raises(SchedulingError, match="not attached"):
        detached.slots


def test_compute_execute_queues_on_cores(dfms):
    compute = ComputeResource("c", "sdsc", cores=1, env=dfms.env)

    def scenario():
        p1 = dfms.env.process(compute.execute(10.0))
        p2 = dfms.env.process(compute.execute(10.0))
        yield dfms.env.all_of([p1, p2])
        return dfms.env.now

    assert dfms.run(scenario()) == 20.0
    assert compute.tasks_run == 2
    assert compute.busy_core_seconds == 20.0
    assert compute.idle_core_seconds(20.0) == 0.0


# -- cost model ------------------------------------------------------------

def test_stage_in_prefers_local_replicas(sched):
    sched.put_file("/home/alice/in.dat", size=100 * MB)
    task = TaskSpec(name="t", duration=10.0,
                    input_paths=("/home/alice/in.dat",))
    local = sched.sdsc_compute       # data lives at sdsc
    remote = sched.ucsd_compute
    model = sched.cost_model
    assert model.stage_in_seconds(task, local) == 0.0
    assert model.stage_in_seconds(task, remote) > 0.0
    assert model.bytes_moved(task, local) == 0.0
    assert model.bytes_moved(task, remote) == 100 * MB


def test_cost_total_respects_weights(sched):
    sched.put_file("/home/alice/in.dat", size=100 * MB)
    task = TaskSpec(name="t", duration=10.0,
                    input_paths=("/home/alice/in.dat",))
    remote = sched.ucsd_compute
    full = CostModel(sched.dgms).total(task, remote)
    no_data = CostModel(sched.dgms, CostWeights(data=0.0)).total(task, remote)
    assert no_data < full


def test_queue_wait_grows_with_backlog(sched):
    compute = sched.sdsc_compute    # 8 cores, attached
    task = TaskSpec(name="t", duration=100.0)
    idle_wait = sched.cost_model.queue_wait_seconds(task, compute)

    def occupy():
        for _ in range(10):
            sched.env.process(compute.execute(1000.0))
        yield sched.env.timeout(1.0)

    sched.run(occupy())
    busy_wait = sched.cost_model.queue_wait_seconds(task, compute)
    assert busy_wait > idle_wait


# -- heuristics ------------------------------------------------------------

def resources_pair(env=None):
    fast = ComputeResource("fast", "sdsc", cores=2, speed_factor=2.0)
    slow = ComputeResource("slow", "ucsd", cores=2, speed_factor=1.0)
    return [fast, slow]


def test_round_robin_alternates(sched):
    plan = schedule_tasks(make_tasks(4), resources_pair(),
                          sched.cost_model, policy="round_robin")
    names = [a.resource.name for a in plan.assignments]
    assert names == ["fast", "slow", "fast", "slow"]


def test_greedy_prefers_faster_resource(sched):
    plan = schedule_tasks(make_tasks(2), resources_pair(),
                          sched.cost_model, policy="greedy")
    # Both fit on the fast resource's two lanes at half the time.
    assert {a.resource.name for a in plan.assignments} == {"fast"}


def test_informed_beats_random_on_makespan(sched):
    tasks = make_tasks(16, duration=100.0)
    resources = resources_pair()
    rng = random.Random(7)
    random_plan = schedule_tasks(tasks, resources, sched.cost_model,
                                 policy="random", rng=rng)
    min_min_plan = schedule_tasks(tasks, resources, sched.cost_model,
                                  policy="min_min")
    assert min_min_plan.makespan <= random_plan.makespan


def test_min_min_schedules_short_tasks_first(sched):
    tasks = [TaskSpec(name="long", duration=1000.0),
             TaskSpec(name="short", duration=1.0)]
    plan = schedule_tasks(tasks, resources_pair(), sched.cost_model,
                          policy="min_min")
    assert plan.assignments[0].task.name == "short"


def test_max_min_schedules_long_tasks_first(sched):
    tasks = [TaskSpec(name="short", duration=1.0),
             TaskSpec(name="long", duration=1000.0)]
    plan = schedule_tasks(tasks, resources_pair(), sched.cost_model,
                          policy="max_min")
    assert plan.assignments[0].task.name == "long"


def test_random_requires_rng(sched):
    with pytest.raises(SchedulingError):
        schedule_tasks(make_tasks(1), resources_pair(), sched.cost_model,
                       policy="random")


def test_unknown_policy_rejected(sched):
    with pytest.raises(SchedulingError, match="unknown policy"):
        schedule_tasks(make_tasks(1), resources_pair(), sched.cost_model,
                       policy="alien")


def test_zero_resources_rejected(sched):
    with pytest.raises(SchedulingError):
        schedule_tasks(make_tasks(1), [], sched.cost_model)


def test_plan_resource_lookup(sched):
    plan = schedule_tasks(make_tasks(2), resources_pair(),
                          sched.cost_model, policy="round_robin")
    assert plan.resource_for("t1").name == "slow"
    with pytest.raises(SchedulingError):
        plan.resource_for("ghost")


# -- task graphs and HEFT ---------------------------------------------------

def diamond_graph():
    graph = TaskGraph()
    for name, duration in (("src", 10.0), ("left", 50.0),
                           ("right", 50.0), ("sink", 10.0)):
        graph.add_task(TaskSpec(name=name, duration=duration))
    graph.add_edge("src", "left", nbytes=10 * MB)
    graph.add_edge("src", "right", nbytes=10 * MB)
    graph.add_edge("left", "sink", nbytes=MB)
    graph.add_edge("right", "sink", nbytes=MB)
    return graph


def test_graph_rejects_cycles_and_duplicates():
    graph = diamond_graph()
    with pytest.raises(SchedulingError, match="cycle"):
        graph.add_edge("sink", "src")
    with pytest.raises(SchedulingError, match="duplicate"):
        graph.add_task(TaskSpec(name="src", duration=1.0))
    with pytest.raises(SchedulingError):
        graph.add_edge("src", "src")


def test_topological_order_respects_dependencies():
    order = [t.name for t in diamond_graph().topological_order()]
    assert order.index("src") < order.index("left")
    assert order.index("left") < order.index("sink")
    assert order.index("right") < order.index("sink")


def test_heft_respects_dependencies(sched):
    plan = schedule_heft(diamond_graph(), resources_pair(),
                         sched.cost_model)
    starts = {a.task.name: a.estimated_start for a in plan.assignments}
    finishes = {a.task.name: a.estimated_finish for a in plan.assignments}
    assert starts["left"] >= finishes["src"]
    assert starts["sink"] >= max(finishes["left"], finishes["right"])


def test_heft_parallelizes_independent_branches(sched):
    plan = schedule_heft(diamond_graph(), resources_pair(),
                         sched.cost_model)
    left = next(a for a in plan.assignments if a.task.name == "left")
    right = next(a for a in plan.assignments if a.task.name == "right")
    # The two 50 s branches overlap in time.
    assert left.estimated_start < right.estimated_finish
    assert right.estimated_start < left.estimated_finish


# -- IDL / matchmaking ------------------------------------------------------

def test_candidates_filter_by_vo_and_type(dfms):
    infra = InfrastructureDescription()
    infra.add_domain(DomainDescription(
        name="open", compute=[ComputeResource("c1", "open", 4)],
        storage=[StorageOffer("open-disk", "disk")], sla=SLA()))
    infra.add_domain(DomainDescription(
        name="private", compute=[ComputeResource("c2", "private", 16)],
        storage=[StorageOffer("private-tape", "archive")],
        sla=SLA(allowed_vos=["hep"])))
    assert [c.name for c in infra.candidates("anyvo")] == ["c1"]
    assert [c.name for c in infra.candidates("hep")] == ["c1", "c2"]
    assert [c.name for c in infra.candidates("hep",
                                             resource_type="archive")] == ["c2"]
    with pytest.raises(MatchmakingError):
        infra.candidates("anyvo", resource_type="archive")
    with pytest.raises(MatchmakingError):
        infra.candidates("hep", min_cores=32)


def test_idl_xml_round_trip():
    infra = InfrastructureDescription()
    infra.add_domain(DomainDescription(
        name="sdsc",
        compute=[ComputeResource("blue-horizon", "sdsc", 128,
                                 speed_factor=2.5)],
        storage=[StorageOffer("sdsc-tape", "archive"),
                 StorageOffer("sdsc-gpfs", "parallel_fs")],
        sla=SLA(allowed_vos=["scec", "nara"], max_concurrent_tasks=64,
                cost_per_cpu_second=0.5)))
    text = infra.to_xml()
    parsed = InfrastructureDescription.from_xml(text)
    domain = parsed.domain("sdsc")
    assert domain.sla.allowed_vos == ["scec", "nara"]
    assert domain.sla.max_concurrent_tasks == 64
    assert domain.compute[0].cores == 128
    assert domain.compute[0].speed_factor == 2.5
    assert {o.resource_type for o in domain.storage} == {"archive",
                                                         "parallel_fs"}


def test_idl_parse_errors():
    with pytest.raises(DGLParseError):
        InfrastructureDescription.from_xml("<wrong/>")
    with pytest.raises(DGLParseError):
        InfrastructureDescription.from_xml("<infrastructure><domain/></infrastructure>")
    for element in ['<sla maxConcurrentTasks="some"/>',
                    '<sla costPerCpuSecond="cheap"/>',
                    '<compute name="c" cores="2.5"/>',
                    '<compute name="c" speedFactor="fast"/>']:
        with pytest.raises(DGLParseError, match="malformed"):
            InfrastructureDescription.from_xml(
                f'<infrastructure><domain name="d">{element}</domain>'
                '</infrastructure>')


# -- placer ------------------------------------------------------------------

def test_placer_greedy_picks_cheapest(dfms):
    dfms.put_file("/home/alice/big.dat", size=500 * MB)
    task = TaskSpec(name="t", duration=1.0,
                    input_paths=("/home/alice/big.dat",))
    placer = dfms.server.placer
    # Data gravity: the input lives at sdsc, so sdsc wins despite any load.
    assert placer.place("vo", task).name == "sdsc-compute"


def test_placer_round_robin_cycles(dfms):
    placer = Placer(dfms.infrastructure, dfms.server.cost_model,
                    policy="round_robin")
    task = TaskSpec(name="t", duration=1.0)
    names = [placer.place("vo", task).name for _ in range(4)]
    assert names == ["sdsc-compute", "ucsd-compute"] * 2


def test_placer_honours_requirements(dfms):
    task = TaskSpec(name="t", duration=1.0,
                    requirements={"resource_type": "archive"})
    # Only sdsc offers archive storage.
    assert dfms.server.placer.place("vo", task).name == "sdsc-compute"


def test_placer_validation():
    infra = InfrastructureDescription()
    with pytest.raises(SchedulingError):
        Placer(infra, None, policy="alien")
    with pytest.raises(SchedulingError):
        Placer(infra, None, policy="random")     # rng missing


# -- rewriter (early binding) ---------------------------------------------------

def exec_flow():
    return (flow_builder("compute-job")
            .step("t1", "exec", duration=10)
            .step("t2", "exec", duration=10)
            .build())


def test_bind_flow_early_pins_exec_steps(dfms):
    bound = bind_flow_early(exec_flow(), "vo", dfms.server.placer)
    pins = pinned_steps(bound)
    assert len(pins) == 2
    assert all(name in ("sdsc-compute", "ucsd-compute")
               for _, name in pins)
    # The original flow is untouched (deep copy).
    assert pinned_steps(exec_flow()) == []


def test_task_spec_for_exec_parses_parameters():
    flow = (flow_builder("f")
            .step("t", "exec", duration=5, inputs="/a,/b",
                  output_size=100.0,
                  requirements={"resource_type": "disk"})
            .build())
    spec = task_spec_for_exec(flow.children[0])
    assert spec.duration == 5.0
    assert spec.input_paths == ("/a", "/b")
    assert spec.output_size == 100.0
    assert spec.requirements == {"resource_type": "disk"}


def test_task_spec_tolerates_unresolvable_templates():
    flow = (flow_builder("f")
            .step("t", "exec", duration=5, inputs="${loop_var}")
            .build())
    spec = task_spec_for_exec(flow.children[0])
    assert spec.input_paths == ()    # unknown at early-binding time


def test_sufferage_prioritizes_high_affinity_tasks(sched):
    """A task with a huge gap between its best and second-best spot gets
    its preferred resource before tasks that are indifferent."""
    dfms = sched
    dfms.put_file("/home/alice/huge.dat", size=800 * MB)
    # "pinned" suffers badly off sdsc (data gravity); "flexible" does not.
    tasks = [TaskSpec(name="flexible", duration=100.0),
             TaskSpec(name="pinned", duration=100.0,
                      input_paths=("/home/alice/huge.dat",))]
    plan = schedule_tasks(tasks, [dfms.sdsc_compute, dfms.ucsd_compute],
                          dfms.server.cost_model, policy="sufferage")
    assert plan.assignments[0].task.name == "pinned"
    assert plan.resource_for("pinned").domain == "sdsc"
