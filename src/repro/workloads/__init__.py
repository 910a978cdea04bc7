"""Workload generators and the paper's named deployment scenarios."""

from repro.workloads.chaos import (
    ChaosReport,
    default_chaos_seeds,
    run_chaos,
    run_chaos_sweep,
    run_signature,
    sweep_fingerprint,
)
from repro.workloads.generators import (
    populate_collection,
    random_task_graph,
    sleep_bag_flow,
    sleep_chain_flow,
    uniform_sizes,
)
from repro.workloads.scenarios import (
    Scenario,
    bbsrc_scenario,
    cms_scenario,
    scec_scenario,
    ucsd_library_scenario,
)
from repro.workloads.traffic import (
    TrafficGenerator,
    TrafficProfile,
    TrafficStats,
    pareto_gaps,
    run_saturation_curve,
    run_saturation_point,
)

__all__ = [
    "populate_collection", "uniform_sizes",
    "sleep_bag_flow", "sleep_chain_flow", "random_task_graph",
    "Scenario", "bbsrc_scenario", "cms_scenario", "scec_scenario",
    "ucsd_library_scenario",
    "ChaosReport", "run_chaos", "run_chaos_sweep", "run_signature",
    "default_chaos_seeds", "sweep_fingerprint",
    "TrafficGenerator", "TrafficProfile", "TrafficStats", "pareto_gaps",
    "run_saturation_point", "run_saturation_curve",
]
