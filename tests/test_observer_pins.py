"""Every engine-event observer's output, pinned byte for byte.

Provenance, the execution monitor, the telemetry session and the flight
recorder all observe one engine event stream. These sha256 pins hold
what each of them produces on fixed seeded runs, so a change to how the
stream is built or fanned out must leave every observer's output
byte-identical:

* chaos seeds 0, 3 and 7 with the full observability stack: the JSONL
  export and the flight-recorder dump;
* one seeded CMS run with provenance, an ``ExecutionMonitor`` watcher
  and ``attach_observability`` all attached: the provenance records,
  what the watcher and a waiter received, the JSONL export, a recorder
  dump and the Prometheus text;
* the same run with a second, file-backed provenance store attached:
  the bytes of its JSON-lines file.
"""

import hashlib
import json

import pytest

from repro.dfms import ExecutionMonitor
from repro.dgl import DataGridRequest, ExecutionState, flow_builder
from repro.faults import FaultSchedule, attach_faults, attach_recovery
from repro.provenance import ProvenanceStore, attach_to_dgms, attach_to_server
from repro.sim.rng import RandomStreams
from repro.storage import MB
from repro.telemetry import (
    attach_observability,
    jsonl_lines,
    prometheus_text,
)
from repro.workloads import cms_scenario, run_chaos


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _event_line(event) -> str:
    return json.dumps({"kind": event.kind, "request_id": event.request_id,
                       "instance_key": event.instance_key,
                       "time": event.time, "detail": event.detail},
                      sort_keys=True, default=str)


CHAOS_PINS = {
    0: ("aace2dbe700aeeccf4fe16a2aafa3651f94dd2686e516f7c272e9fbcfaad6ee6",
        "6ded71d5a1f6e544234fd37ff986ca3721e5252777d6ccb5d81e74c0bb79f2d4"),
    3: ("7ee6aa58b2a24d0561d558a6f44db8a4124fd286044b0926a084408f282ec05a",
        "5529b52902d123f4fcae2d33679aa962c956d3972f5e788f82b4a9ba4c6760be"),
    7: ("c15e6df699a615e0493d1f9b9c10e0c4ce4950dbee506e55c0a1c162f11cb825",
        "e642b01f81aff30ac85ffcb6228a3a5e132c75dcb17d3cbf2c6927acb31a4b20"),
}


@pytest.mark.parametrize("seed", sorted(CHAOS_PINS))
def test_chaos_observer_outputs_match_pins(seed, tmp_path):
    report = run_chaos(seed, observe=True, observe_export=True,
                       observe_dump_path=str(tmp_path / "dump.jsonl"))
    observe = report.observe
    assert observe.jsonl and observe.dump_lines
    assert (tmp_path / "dump.jsonl").read_text().splitlines() == \
        observe.dump_lines
    assert (_digest(observe.jsonl), _digest(observe.dump_lines)) == \
        CHAOS_PINS[seed]


def _cms_run(provenance=None):
    """A seeded CMS run with every engine-event observer attached (plus
    ``provenance``, a second store, when given)."""
    scenario = cms_scenario(n_tier1=2, n_tier2_per_t1=1, n_events=4,
                            event_size=16 * MB, seed=11)
    env, server, dgms = scenario.env, scenario.server, scenario.dgms
    obs = attach_observability(env, server=server)
    monitor = ExecutionMonitor(server)
    watched = []
    monitor.watch(watched.append)
    streams = RandomStreams(11)
    attach_faults(dgms, FaultSchedule.random(streams, dgms, 30.0,
                                             n_events=4), streams)
    attach_recovery(dgms, streams)
    if provenance is not None:
        attach_to_dgms(provenance, dgms)
        attach_to_server(provenance, server)
    user = scenario.users["physicist"].qualified_name
    paths = [obj.path for obj in
             dgms.namespace.iter_objects_in_path_order("/cms/run1")]
    tier1 = scenario.extras["tier1_resources"]
    tier2_domain = scenario.extras["tier2"][0]

    stages = []
    for resource in tier1:
        stage = flow_builder(f"to-{resource}")
        for index, path in enumerate(paths):
            stage.step(f"rep-{index}", "srb.replicate", path=path,
                       resource=resource)
        stages.append(stage)
    audit = flow_builder("audit")
    for index, path in enumerate(paths):
        audit.step(f"get-{index}", "srb.get", path=path,
                   to_domain=tier2_domain)
    broken = (flow_builder("broken")
              .step("nap", "dgl.sleep", duration=1)
              .step("boom", "dgl.fail", message="pinned failure"))
    napping = (flow_builder("napping")
               .step("first", "dgl.sleep", duration=2)
               .step("second", "dgl.sleep", duration=2))

    def submit(builder):
        return server.submit(DataGridRequest(
            user=user, virtual_organization="pins", body=builder.build(),
            asynchronous=True)).request_id

    waited = []

    def driver():
        first, *_ = [submit(stage) for stage in stages]
        failing = submit(broken)
        paused = submit(napping)
        waits = [monitor.wait_for(first),
                 monitor.wait_for(failing, state=ExecutionState.FAILED),
                 monitor.wait_for(paused, "second",
                                  state=ExecutionState.RUNNING)]
        yield env.timeout(1.5)
        server.pause(paused)
        yield env.timeout(3.0)
        server.resume(paused)
        for wait in waits:
            waited.append((yield wait))
        yield server.wait(submit(audit))
        waited.append((yield monitor.wait_for(first)))

    env.run_process(driver())
    env.run()
    return scenario, obs, watched, waited


CMS_PINS = {
    "provenance":
        "ca1e952466e36a2d485c641568baa3af3334a4fc54f770fc66ecebe91572f77a",
    "watcher":
        "12b8ec36263c3795bbb20036a4f46530cbfa5fca2a4c3bd749b2f86fb237d424",
    "waiter":
        "b3d44b424e222409f299bd4782b371797e2bc6ee12ec0282bb9055599482f592",
    "jsonl":
        "a7c13cb4724cbe8f2564882656ac2958635af3bcc7cb18ad8c0839a8d806b4eb",
    "dump":
        "57459c68623b2951792f6523baba2d06caf36a62963abba4d163e66f6b0249f3",
    "prometheus":
        "dc13766c40cf3550f338ad1d764dcc66641f7c908bedb7ae740d6bc7d9bf8136",
}


def test_cms_observer_outputs_match_pins():
    scenario, obs, watched, waited = _cms_run()
    outputs = {
        "provenance": [json.dumps(record.to_dict(), sort_keys=True)
                       for record in scenario.provenance.records()],
        "watcher": [_event_line(event) for event in watched],
        "waiter": [_event_line(event) for event in waited],
        "jsonl": jsonl_lines(obs.telemetry),
        "dump": obs.recorder.dump("pinned"),
        "prometheus": prometheus_text(obs.telemetry).splitlines(),
    }
    assert all(outputs.values())
    assert {name: _digest(lines) for name, lines in outputs.items()} == \
        CMS_PINS


#: sha256 of a file-backed provenance store's JSON-lines file after the
#: CMS run: every record as written through, byte for byte.
CMS_PROVENANCE_FILE_PIN = \
    "1b69ea409510321929ef0e0f77b4f3b452823e6c5b0173b2e84147c5b88f0f7e"


def test_cms_file_backed_provenance_matches_pin(tmp_path):
    path = tmp_path / "provenance.jsonl"
    with ProvenanceStore(str(path)) as store:
        _cms_run(provenance=store)
    data = path.read_bytes()
    assert b'"category": "dgms"' in data and b'"category": "engine"' in data
    assert hashlib.sha256(data).hexdigest() == CMS_PROVENANCE_FILE_PIN
