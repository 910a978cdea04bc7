"""Tests for datagrid triggers (ECA rules over namespace events)."""

import pytest

from repro.errors import TriggerError
from repro.grid import EventKind, EventPhase
from repro.storage import MB
from repro.triggers import DatagridTrigger, TriggerManager
from repro.dgl import ExecutionState, Operation, flow_builder


def make_trigger(dfms, name="t", kinds=(EventKind.INSERT,),
                 action=None, **kw):
    action = action or Operation("dgl.log", {"message": f"{name} fired"})
    return DatagridTrigger(name=name, owner=dfms.alice,
                           kinds=frozenset(kinds), action=action, **kw)


def drain(dfms):
    """Let all pending trigger actions finish."""
    dfms.env.run()


# -- definition ------------------------------------------------------------

def test_trigger_validation(dfms):
    with pytest.raises(TriggerError):
        DatagridTrigger(name="", owner=dfms.alice,
                        kinds=frozenset({EventKind.INSERT}),
                        action=Operation("dgl.noop"))
    with pytest.raises(TriggerError):
        DatagridTrigger(name="t", owner=dfms.alice, kinds=frozenset(),
                        action=Operation("dgl.noop"))
    with pytest.raises(TriggerError):
        DatagridTrigger(name="t", owner=dfms.alice,
                        kinds=frozenset({EventKind.INSERT}),
                        action="not-an-action")


def test_registration_unique_names(dfms):
    manager = TriggerManager(dfms.dgms, dfms.server)
    manager.register(make_trigger(dfms))
    with pytest.raises(TriggerError):
        manager.register(make_trigger(dfms))
    manager.unregister("t")
    assert len(manager) == 0
    with pytest.raises(TriggerError):
        manager.unregister("t")


# -- firing ------------------------------------------------------------------

def test_insert_trigger_fires_on_put(dfms):
    manager = TriggerManager(dfms.dgms, dfms.server)
    manager.register(make_trigger(dfms, name="on-ingest"))
    dfms.put_file("/home/alice/new.dat", size=MB)
    drain(dfms)
    assert len(manager.firings_for("on-ingest")) == 1
    # The action really ran as a flow on the DfMS.
    executions = dfms.server.executions()
    assert any(e.flow.name == "trigger:on-ingest" and
               e.state is ExecutionState.COMPLETED for e in executions)


def test_path_pattern_narrows_scope(dfms):
    manager = TriggerManager(dfms.dgms, dfms.server)
    manager.register(make_trigger(dfms, name="dat-only",
                                  path_pattern="*.dat"))
    dfms.put_file("/home/alice/a.dat", size=MB)
    dfms.put_file("/home/alice/b.txt", size=MB)
    drain(dfms)
    assert len(manager.firings_for("dat-only")) == 1


def test_phase_selection(dfms):
    manager = TriggerManager(dfms.dgms, dfms.server)
    manager.register(make_trigger(dfms, name="before",
                                  phase=EventPhase.BEFORE))
    manager.register(make_trigger(dfms, name="after",
                                  phase=EventPhase.AFTER))
    dfms.put_file("/home/alice/x.dat", size=MB)
    drain(dfms)
    assert len(manager.firings_for("before")) == 1
    assert len(manager.firings_for("after")) == 1
    before = manager.firings_for("before")[0]
    after = manager.firings_for("after")[0]
    assert before.time <= after.time


def test_condition_filters_by_event_detail(dfms):
    manager = TriggerManager(dfms.dgms, dfms.server)
    manager.register(make_trigger(dfms, name="big-files",
                                  condition=f"size > {10 * MB}"))
    dfms.put_file("/home/alice/small.dat", size=MB)
    dfms.put_file("/home/alice/big.dat", size=50 * MB)
    drain(dfms)
    firings = manager.firings_for("big-files")
    assert [f.event_path for f in firings] == ["/home/alice/big.dat"]


def test_condition_can_read_object_metadata(dfms):
    manager = TriggerManager(dfms.dgms, dfms.server)
    manager.register(make_trigger(
        dfms, name="raw-only", kinds=(EventKind.METADATA,),
        condition="meta['stage'] == 'raw'"))
    dfms.put_file("/home/alice/f.dat", size=MB)
    dfms.dgms.set_metadata(dfms.alice, "/home/alice/f.dat", "stage", "raw")
    dfms.dgms.set_metadata(dfms.alice, "/home/alice/f.dat", "stage", "done")
    drain(dfms)
    assert len(manager.firings_for("raw-only")) == 1


def test_broken_condition_never_fires(dfms):
    manager = TriggerManager(dfms.dgms, dfms.server)
    manager.register(make_trigger(dfms, name="broken",
                                  condition="undefined_var > 1"))
    dfms.put_file("/home/alice/x.dat", size=MB)
    drain(dfms)
    assert manager.firings_for("broken") == []
    # ... but the rejection is logged for the administrator.
    assert any(f.trigger_name == "broken" and not f.condition_met
               for f in manager.firing_log)


def test_action_flow_sees_event_variables(dfms):
    """The classic use-case: create metadata when a file is created (§2.2)."""
    action = (flow_builder("annotate")
              .step("tag", "srb.set_metadata", path="${event_path}",
                    attribute="ingested_by", value="${event_user}")
              .build())
    manager = TriggerManager(dfms.dgms, dfms.server)
    manager.register(make_trigger(dfms, name="annotate", action=action))
    dfms.put_file("/home/alice/doc.dat", size=MB)
    drain(dfms)
    obj = dfms.dgms.namespace.resolve_object("/home/alice/doc.dat")
    assert obj.metadata.get("ingested_by") == "alice@sdsc"


def test_automated_replication_trigger(dfms):
    """§2.2: 'automating replication of certain data based on their
    meta-data'."""
    action = (flow_builder("auto-replicate")
              .step("copy", "srb.replicate", path="${event_path}",
                    resource="ucsd-disk")
              .build())
    manager = TriggerManager(dfms.dgms, dfms.server)
    manager.register(make_trigger(
        dfms, name="replicate-important",
        condition="importance == 'high'", action=action))
    dfms.put_file("/home/alice/vip.dat", size=MB,
                  metadata={"importance": "high"})
    # put's AFTER event carries only size/resource detail; importance is in
    # the event scope via... the metadata was set during put, so check meta:
    drain(dfms)
    obj = dfms.dgms.namespace.resolve_object("/home/alice/vip.dat")
    # The trigger condition reads event detail; importance lives in meta.
    # Expect NO firing for this condition form:
    assert len(manager.firings_for("replicate-important")) == 0

    manager.register(make_trigger(
        dfms, name="replicate-important-meta",
        condition="meta['importance'] == 'high'", action=action))
    dfms.put_file("/home/alice/vip2.dat", size=MB,
                  metadata={"importance": "high"})
    drain(dfms)
    obj2 = dfms.dgms.namespace.resolve_object("/home/alice/vip2.dat")
    assert len(obj2.good_replicas()) == 2


def test_max_firings_bounds_cascades(dfms):
    manager = TriggerManager(dfms.dgms, dfms.server)
    manager.register(make_trigger(dfms, name="bounded", max_firings=2))
    for index in range(5):
        dfms.put_file(f"/home/alice/f{index}.dat", size=MB)
    drain(dfms)
    assert len(manager.firings_for("bounded")) == 2


def test_ordering_strategies_change_outcome(dfms):
    """§2.2's open issue, made concrete: two users' triggers write the same
    attribute; the final value depends on the ordering strategy."""

    def build_manager(ordering):
        local = dfms.__class__()     # fresh grid per strategy
        manager = TriggerManager(local.dgms, local.server, ordering=ordering)
        manager.register(DatagridTrigger(
            name="zeta-rule", owner=local.alice,
            kinds=frozenset({EventKind.INSERT}), priority=1,
            action=(flow_builder("set-a")
                    .step("s", "srb.set_metadata", path="${event_path}",
                          attribute="owner_tag", value="zeta")
                    .build())))
        manager.register(DatagridTrigger(
            name="alpha-rule", owner=local.alice,
            kinds=frozenset({EventKind.INSERT}), priority=5,
            action=(flow_builder("set-b")
                    .step("s", "srb.set_metadata", path="${event_path}",
                          attribute="owner_tag", value="alpha")
                    .build())))
        path = "/home/alice/contested.dat"
        local.put_file(path)
        local.env.run()
        return local.dgms.namespace.resolve_object(path).metadata.get(
            "owner_tag")

    # Registration order: zeta-rule fires first, alpha overwrites -> alpha.
    assert build_manager("registration") == "alpha"
    # Priority order: alpha (5) first, zeta overwrites -> zeta.
    assert build_manager("priority") == "zeta"


def test_unknown_ordering_rejected(dfms):
    with pytest.raises(TriggerError):
        TriggerManager(dfms.dgms, dfms.server, ordering="chaos")


def test_manager_without_server_only_logs(dfms):
    manager = TriggerManager(dfms.dgms, server=None)
    manager.register(make_trigger(dfms, name="observer"))
    dfms.put_file("/home/alice/x.dat", size=MB)
    drain(dfms)
    (firing,) = manager.firings_for("observer")
    assert firing.request_id is None


# -- trigger definition documents (the §2.2 trigger "DDL") ---------------------

def test_trigger_xml_round_trip_with_flow_action(dfms):
    from repro.triggers import trigger_from_xml, trigger_to_xml
    original = DatagridTrigger(
        name="mirror-masters", owner=dfms.alice,
        kinds=frozenset({EventKind.INSERT, EventKind.METADATA}),
        phase=EventPhase.AFTER, path_pattern="/archive/*",
        condition="meta['class'] == 'master'", priority=5, max_firings=100,
        action=(flow_builder("mirror")
                .step("copy", "srb.replicate", path="${event_path}",
                      resource="ucsd-disk")
                .build()))
    text = trigger_to_xml(original)
    parsed = trigger_from_xml(text, dfms.dgms.users)
    assert parsed.name == original.name
    assert parsed.owner == original.owner
    assert parsed.kinds == original.kinds
    assert parsed.phase == original.phase
    assert parsed.path_pattern == original.path_pattern
    assert parsed.condition == original.condition
    assert parsed.priority == original.priority
    assert parsed.max_firings == original.max_firings
    assert parsed.action == original.action


def test_trigger_xml_round_trip_with_operation_action(dfms):
    from repro.dgl import Operation
    from repro.triggers import trigger_from_xml, trigger_to_xml
    original = DatagridTrigger(
        name="notify", owner=dfms.alice,
        kinds=frozenset({EventKind.DELETE}),
        action=Operation("dgl.log", {"message": "gone: ${event_path}"}))
    parsed = trigger_from_xml(trigger_to_xml(original), dfms.dgms.users)
    assert parsed.action == original.action
    assert parsed.max_firings is None


def test_parsed_trigger_actually_fires(dfms):
    from repro.triggers import trigger_from_xml, trigger_to_xml
    definition = trigger_to_xml(DatagridTrigger(
        name="stamp", owner=dfms.alice,
        kinds=frozenset({EventKind.INSERT}),
        action=(flow_builder("stamp")
                .step("tag", "srb.set_metadata", path="${event_path}",
                      attribute="seen", value=1)
                .build())))
    manager = TriggerManager(dfms.dgms, dfms.server)
    manager.register(trigger_from_xml(definition, dfms.dgms.users))
    dfms.put_file("/home/alice/x.dat", size=MB)
    dfms.env.run()
    obj = dfms.dgms.namespace.resolve_object("/home/alice/x.dat")
    assert obj.metadata.get("seen") == 1


@pytest.mark.parametrize("enabled", [True, False])
def test_trigger_xml_keeps_enabled(dfms, enabled):
    from repro.dgl import Operation
    from repro.triggers import trigger_from_xml, trigger_to_xml
    original = DatagridTrigger(
        name="toggle", owner=dfms.alice,
        kinds=frozenset({EventKind.INSERT}),
        action=Operation("dgl.noop", {}), enabled=enabled)
    parsed = trigger_from_xml(trigger_to_xml(original), dfms.dgms.users)
    assert parsed.enabled is enabled


def test_trigger_xml_errors(dfms):
    from repro.errors import DGLParseError
    from repro.triggers import trigger_from_xml
    with pytest.raises(DGLParseError, match="malformed"):
        trigger_from_xml("<datagridTrigger", dfms.dgms.users)
    with pytest.raises(DGLParseError, match="expected"):
        trigger_from_xml("<other/>", dfms.dgms.users)
    with pytest.raises(DGLParseError, match="exactly one"):
        trigger_from_xml(
            '<datagridTrigger name="t" owner="alice@sdsc">'
            '<on kind="insert"/><condition>true</condition>'
            '</datagridTrigger>', dfms.dgms.users)
    for attributes, kind in [('', 'sideways'), ('phase="during"', 'insert'),
                             ('priority="high"', 'insert'),
                             ('maxFirings="1.5"', 'insert'),
                             ('enabled="True"', 'insert')]:
        with pytest.raises(DGLParseError, match="malformed"):
            trigger_from_xml(
                f'<datagridTrigger name="t" owner="alice@sdsc" {attributes}>'
                f'<on kind="{kind}"/><operation name="dgl.noop"/>'
                '</datagridTrigger>', dfms.dgms.users)
