"""A span tracer that works on the program from the outside.

:class:`Tracer` wraps the callables listed in :data:`TARGETS` — the
public entry points of each layer, plus the few kernel callbacks through
which a layer does its work — and records one span per call: layer,
name, start, end, parent span and trace id. It also wraps
``Environment.process`` so that every resumption of a process generator
is a span, attributed to the layer of the module that defined the
generator (:data:`MODULE_LAYERS`). A process inherits the trace id that
was current when it was spawned, and a call to one of :data:`ROOTS`
opens a fresh id, so every span of one flow, copy or locate shares one
id.

A span's self time is its duration minus the time its child spans
cover. The kernel's own dispatch loop is the ``Environment.step`` span:
its self time holds the kernel plus every callback that passes through
no wrapped function, and is reported as the unattributed share.

Nothing under ``src/`` knows about the tracer; :meth:`Tracer.uninstall`
puts every wrapped attribute back, including from-import aliases such
as ``repro.dgl.builder.validate_flow``. Spans stay in memory until
:meth:`Tracer.write` dumps aggregates and a capped JSONL sample.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Tuple

__all__ = ["LAYERS", "TARGETS", "Tracer"]

#: The layers, in report order: this repository's modules.
LAYERS = (
    "sim", "dgl", "dfms.server", "dfms.engine", "dfms.gateway",
    "dfms.cache", "grid.dgms", "grid.catalog", "grid.namespace",
    "grid.acl", "storage", "network", "federation", "faults", "ilm",
    "provenance", "telemetry", "workloads",
)

#: Layer -> wrapped callables, as ``module:qualified.name``.
TARGETS: Dict[str, Tuple[str, ...]] = {
    "sim": (
        "repro.sim.kernel:Environment.step",
        "repro.sim.kernel:Environment.run",
        "repro.sim.kernel:Environment.run_process",
        "repro.sim.resources:Resource.request",
        "repro.sim.resources:Resource.release",
    ),
    "dgl": (
        "repro.dgl.builder:FlowBuilder.build",
        "repro.dgl.schema:validate_flow",
        "repro.dgl.schema:validate_request",
        "repro.dgl.operations:OperationRegistry.missing_operations",
        "repro.dgl.operations:OperationRegistry.parameter_problems",
        "repro.dgl.expressions:evaluate",
        "repro.dgl.expressions:evaluate_condition",
        "repro.dgl.expressions:render_template",
        "repro.dgl.model:FlowStatus.snapshot",
    ),
    "dfms.server": (
        "repro.dfms.server:DfMSServer.submit",
        "repro.dfms.server:DfMSServer.start_flow",
        "repro.dfms.server:DfMSServer.status",
        "repro.dfms.server:DfMSServer.wait",
    ),
    "dfms.engine": (
        "repro.dfms.engine:FlowEngine.start",
        "repro.dfms.execution:FlowExecution.record_step",
        "repro.dfms.context:ExecutionContext.for_step",
    ),
    "dfms.gateway": (
        "repro.dfms.gateway:DfMSGateway.submit",
        "repro.dfms.gateway:TokenBucket.take",
    ),
    "dfms.cache": (
        "repro.dfms.cache:DgmsCache.run_query",
        "repro.dfms.cache:DgmsCache.lookup_replica",
        "repro.dfms.cache:DgmsCache.store_replica",
        "repro.dfms.cache:DgmsCache.on_acl_change",
        "repro.dfms.cache:DgmsCache._on_catalog_change",
    ),
    "grid.dgms": (
        "repro.grid.dgms:DataGridManagementSystem.put",
        "repro.grid.dgms:DataGridManagementSystem.get",
        "repro.grid.dgms:DataGridManagementSystem.replicate",
        "repro.grid.dgms:DataGridManagementSystem.migrate",
        "repro.grid.dgms:DataGridManagementSystem.delete",
        "repro.grid.dgms:DataGridManagementSystem.query",
        "repro.grid.dgms:DataGridManagementSystem.set_metadata",
        "repro.grid.dgms:DataGridManagementSystem.select_replica",
        "repro.grid.dgms:DataGridManagementSystem.create_collection",
    ),
    "grid.catalog": (
        "repro.grid.query:Query.run",
        "repro.grid.query:parse_conditions",
        "repro.grid.catalog:GridCatalog.register_object",
        "repro.grid.catalog:GridCatalog.deregister_object",
        "repro.grid.catalog:GridCatalog.candidates_meta_eq",
        "repro.grid.catalog:GridCatalog.candidates_meta_exists",
        "repro.grid.catalog:GridCatalog.candidates_size",
        "repro.grid.catalog:GridCatalog.lookup_guid",
        "repro.grid.metadata:MetadataSet.set",
    ),
    "grid.namespace": (
        "repro.grid.namespace:LogicalNamespace.resolve",
        "repro.grid.namespace:LogicalNamespace.try_resolve",
        "repro.grid.namespace:LogicalNamespace.resolve_collection",
        "repro.grid.namespace:LogicalNamespace.resolve_object",
        "repro.grid.namespace:LogicalNamespace.exists",
        "repro.grid.namespace:LogicalNamespace.lookup_guid",
        "repro.grid.namespace:LogicalNamespace.create_object",
        "repro.grid.namespace:LogicalNamespace.remove",
        "repro.grid.namespace:DataObject.good_replicas",
        "repro.grid.namespace:DataObject.add_replica",
        "repro.grid.namespace:DataObject.remove_replica",
    ),
    "grid.acl": (
        "repro.grid.acl:AccessControlList.allows",
        "repro.grid.acl:AccessControlList.require",
        "repro.grid.acl:AccessControlList.grant",
    ),
    "storage": (
        "repro.storage.resource:PhysicalStorageResource.write",
        "repro.storage.resource:PhysicalStorageResource.read",
        "repro.storage.resource:PhysicalStorageResource.delete",
        "repro.storage.resource:PhysicalStorageResource.used_bytes",
        "repro.storage.resource:PhysicalStorageResource.free_bytes",
    ),
    "network": (
        "repro.network.transfer:TransferService.transfer",
        "repro.network.transfer:TransferService._on_wake",
        "repro.network.topology:Topology.route",
        "repro.network.topology:Topology.transfer_time",
    ),
    "federation": (
        "repro.federation.rls:ReplicaLocationService.locate",
        "repro.federation.rls:ReplicaLocationService.publish_shards",
        "repro.federation.rls:ReplicaLocationService.flush_all",
        "repro.federation.rls:LocalReplicaCatalog.locations",
        "repro.federation.placement:cross_zone_copy_by_guid",
        "repro.federation.placement:rank_source_zones",
        "repro.federation.sync:DigestSyncer._on_change",
        "repro.federation.sync:DigestSyncer._flush",
        "repro.grid.federation:Federation.cross_zone_copy",
        "repro.grid.federation:Federation.bridge_cost",
    ),
    "faults": (
        "repro.faults.recovery:RecoveryService.note",
        "repro.faults.recovery:RetryPolicy.delay",
        "repro.federation.chaos:FederationFaultDriver._begin",
        "repro.federation.chaos:FederationFaultDriver._end",
    ),
    "ilm": (
        "repro.ilm.engine:ILMManager.run_pass",
        "repro.ilm.policy:ILMPolicy.compile_to_flow",
        "repro.ilm.value:DomainValueModel.domain_value",
    ),
    "provenance": (
        "repro.provenance.store:ProvenanceStore.append",
    ),
    "telemetry": (
        "repro.telemetry.core:Telemetry.engine_listener",
        "repro.telemetry.events:EventLog.emit",
        "repro.telemetry.metrics:_Instrument.labels",
        "repro.telemetry.metrics:Counter.inc",
        "repro.telemetry.tracing:Tracer.begin",
        "repro.telemetry.tracing:Tracer.finish",
    ),
    "workloads": (),
}

#: Entry points whose outermost calls are aggregated per group (a call
#: nested inside another call of the same group is not counted again).
GROUPS = {
    "repro.dgl.builder:FlowBuilder.build": "dgl.build",
    "repro.dgl.schema:validate_flow": "dgl.validate",
    "repro.dfms.server:DfMSServer.submit": "dfms.server.submit",
    "repro.dfms.server:DfMSServer.start_flow": "dfms.server.submit",
    "repro.dfms.gateway:DfMSGateway.submit": "dfms.gateway.submit",
    "repro.grid.query:Query.run": "grid.catalog.query",
    "repro.storage.resource:PhysicalStorageResource.write": "storage.write",
    "repro.network.transfer:TransferService.transfer": "network.transfer",
    "repro.federation.rls:ReplicaLocationService.locate":
        "federation.locate",
}

#: Request boundaries: each opens a fresh trace id unless one is open.
ROOTS = frozenset({
    "repro.dfms.server:DfMSServer.submit",
    "repro.dfms.server:DfMSServer.start_flow",
    "repro.dfms.gateway:DfMSGateway.submit",
    "repro.federation.placement:cross_zone_copy_by_guid",
    "repro.federation.rls:ReplicaLocationService.locate",
    "repro.ilm.engine:ILMManager.run_pass",
})

#: Called too often, and too finely, for a span each: only counted.
#: ``Query.matches`` runs once per catalog candidate examined.
COUNTED = ("repro.grid.query:Query.matches",)

#: Callables whose results are summed by length (catalog query results).
SIZED = frozenset({"repro.grid.query:Query.run"})

#: Module prefix -> layer, longest prefix first, for process generators.
MODULE_LAYERS = (
    ("repro.grid.federation", "federation"),
    ("repro.grid.dgms", "grid.dgms"),
    ("repro.grid.catalog", "grid.catalog"),
    ("repro.grid.query", "grid.catalog"),
    ("repro.grid.metadata", "grid.catalog"),
    ("repro.grid.namespace", "grid.namespace"),
    ("repro.grid.acl", "grid.acl"),
    ("repro.grid", "grid.dgms"),
    ("repro.dfms.server", "dfms.server"),
    ("repro.dfms.gateway", "dfms.gateway"),
    ("repro.dfms.cache", "dfms.cache"),
    ("repro.dfms", "dfms.engine"),
    ("repro.triggers", "dfms.engine"),
    ("repro.dgl", "dgl"),
    ("repro.sim", "sim"),
    ("repro.storage", "storage"),
    ("repro.network", "network"),
    ("repro.federation", "federation"),
    ("repro.faults", "faults"),
    ("repro.ilm", "ilm"),
    ("repro.provenance", "provenance"),
    ("repro.telemetry", "telemetry"),
    ("repro.workloads", "workloads"),
    # The benchmark's own workload processes.
    (__name__.rpartition(".")[0], "workloads"),
)

#: Size at which :meth:`Tracer.write` stops adding spans to the sample.
SPAN_CAP_BYTES = 20 * 1024 * 1024

_KERNEL_STEP = "repro.sim.kernel:Environment.step"
_PROCESS = "repro.sim.kernel:Environment.process"


def _resolve(target: str):
    """(owner, attribute name, raw attribute) for ``module:qualname``."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = (owner.__dict__[attribute] if isinstance(owner, type)
           else getattr(owner, attribute))
    return owner, attribute, raw


def _traced_modules():
    """The loaded modules whose globals may alias a wrapped callable."""
    packages = ("repro", __name__.rpartition(".")[0])
    for module_name, module in list(sys.modules.items()):
        if module is not None and any(
                module_name == package or module_name.startswith(package + ".")
                for package in packages):
            yield module


def _aliases(original):
    """Every (module, name) in the traced packages bound to ``original``."""
    return [(module, name) for module in _traced_modules()
            for name, value in list(vars(module).items())
            if value is original]


class _TracedGenerator:
    """A process generator whose every resumption is a span."""

    __slots__ = ("_generator", "_tracer", "_layer", "_name", "_trace",
                 "__name__")

    def __init__(self, tracer: "Tracer", generator) -> None:
        self._generator = generator
        self._tracer = tracer
        frame = getattr(generator, "gi_frame", None)
        module = frame.f_globals.get("__name__", "") if frame else ""
        self._layer = tracer.layer_of_module(module)
        self.__name__ = getattr(generator, "__name__",
                                type(generator).__name__)
        qualname = getattr(generator, "__qualname__", self.__name__)
        self._name = tracer.name_id(f"{module}:{qualname}")
        self._trace = tracer.trace

    def _resume(self, method, *args):
        tracer = self._tracer
        saved = tracer.trace
        tracer.trace = self._trace
        frame = tracer.open(self._layer, self._name)
        try:
            return method(*args)
        finally:
            tracer.close(frame)
            tracer.trace = saved

    def send(self, value):
        return self._resume(self._generator.send, value)

    def throw(self, *args):
        return self._resume(self._generator.throw, *args)


class Tracer:
    """Install, record, summarize, uninstall."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._module_layers: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object, object]] = []
        self.trace = 0
        self._next_trace = 1
        self._open_roots = 0
        self.span_layer = array("b")
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_trace = array("l")
        self.span_start = array("q")
        self.span_self = array("q")
        self.span_end = array("q")
        self._stack: List[List[int]] = []
        self.group_calls: Dict[str, int] = {}
        self.group_ns: Dict[str, int] = {}
        self._group_depth: Dict[str, int] = {}
        self.counted: Dict[str, int] = {}
        self.result_sizes: Dict[str, int] = {}
        self.origin_ns = 0
        self.reset()

    # -- bookkeeping --------------------------------------------------------

    def reset(self) -> None:
        """Forget every recorded span and count (no span may be open)."""
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside a span")
        for series in (self.span_layer, self.span_name, self.span_parent,
                       self.span_trace, self.span_start, self.span_self,
                       self.span_end):
            del series[:]
        for group in sorted(set(GROUPS.values())):
            self.group_calls[group] = 0
            self.group_ns[group] = 0
            self._group_depth[group] = 0
        # In place: the wrappers hold these dicts.
        self.counted.update(dict.fromkeys(COUNTED, 0))
        self.result_sizes.update(dict.fromkeys(SIZED, 0))
        self.origin_ns = perf_counter_ns()

    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def layer_of_module(self, module: str) -> int:
        layer = self._module_layers.get(module)
        if layer is None:
            name = "sim"
            for prefix, candidate in MODULE_LAYERS:
                if module == prefix or module.startswith(prefix + "."):
                    name = candidate
                    break
            layer = self._module_layers[module] = LAYERS.index(name)
        return layer

    def open(self, layer: int, name: int) -> List[int]:
        index = len(self.span_start)
        stack = self._stack
        self.span_layer.append(layer)
        self.span_name.append(name)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_trace.append(self.trace)
        self.span_self.append(0)
        self.span_end.append(0)
        start = perf_counter_ns()
        self.span_start.append(start)
        frame = [index, start, 0]
        stack.append(frame)
        return frame

    def close(self, frame: List[int]) -> int:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        index, start, children = frame
        duration = end - start
        self.span_end[index] = end
        self.span_self[index] = duration - children
        if stack:
            stack[-1][2] += duration
        return duration

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, target: str, layer: int, function):
        tracer = self
        name = self.name_id(target)
        group = GROUPS.get(target)
        root = target in ROOTS
        sized = target in SIZED
        depth = self._group_depth

        @functools.wraps(function)
        def traced(*args, **kwargs):
            opened = root and tracer._open_roots == 0
            if opened:
                saved = tracer.trace
                tracer.trace = tracer._next_trace
                tracer._next_trace += 1
            if root:
                tracer._open_roots += 1
            if group is not None:
                depth[group] += 1
            frame = tracer.open(layer, name)
            try:
                result = function(*args, **kwargs)
            finally:
                duration = tracer.close(frame)
                if group is not None:
                    depth[group] -= 1
                    if depth[group] == 0:
                        tracer.group_calls[group] += 1
                        tracer.group_ns[group] += duration
                if root:
                    tracer._open_roots -= 1
                if opened:
                    tracer.trace = saved
            if sized:
                tracer.result_sizes[target] += len(result)
            return result

        return traced

    def _count(self, target: str, function):
        counted = self.counted

        @functools.wraps(function)
        def counting(*args, **kwargs):
            counted[target] += 1
            return function(*args, **kwargs)

        return counting

    def _wrap_process(self, function):
        tracer = self

        @functools.wraps(function)
        def process(env, generator):
            return function(env, _TracedGenerator(tracer, generator))

        return process

    def _patch(self, owner, attribute: str, raw, replacement) -> None:
        self._patches.append((owner, attribute, raw, replacement))
        setattr(owner, attribute, replacement)

    def _install_target(self, target: str, make) -> None:
        owner, attribute, raw = _resolve(target)
        if isinstance(raw, property):
            self._patch(owner, attribute, raw,
                        property(make(raw.fget), raw.fset, raw.fdel,
                                 raw.__doc__))
        elif isinstance(raw, staticmethod):
            self._patch(owner, attribute, raw,
                        staticmethod(make(raw.__func__)))
        elif isinstance(raw, classmethod):
            self._patch(owner, attribute, raw,
                        classmethod(make(raw.__func__)))
        elif isinstance(owner, type):
            self._patch(owner, attribute, raw, make(raw))
        else:
            wrapped = make(raw)
            for module, name in _aliases(raw):
                self._patch(module, name, raw, wrapped)

    def install(self) -> "Tracer":
        """Wrap every target; raises if a target no longer exists."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for layer_name, targets in TARGETS.items():
                layer = LAYERS.index(layer_name)
                for target in targets:
                    self._install_target(
                        target, functools.partial(self._wrap, target, layer))
            for target in COUNTED:
                self._install_target(target,
                                     functools.partial(self._count, target))
            self._install_target(_PROCESS, self._wrap_process)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Put back every original, including aliases created by imports
        that ran while the tracer was installed."""
        originals = {id(replacement): raw
                     for _, _, raw, replacement in self._patches}
        for owner, attribute, raw, _ in reversed(self._patches):
            setattr(owner, attribute, raw)
        self._patches.clear()
        for module in _traced_modules():
            for name, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, name, originals[id(value)])

    @staticmethod
    def targets() -> List[str]:
        """Every wrapped callable, for restoration checks."""
        listed = [target for targets in TARGETS.values()
                  for target in targets]
        return listed + list(COUNTED) + [_PROCESS]

    # -- results --------------------------------------------------------------

    def layer_self_ns(self) -> List[int]:
        totals = [0] * len(LAYERS)
        for layer, own in zip(self.span_layer, self.span_self):
            totals[layer] += own
        return totals

    def name_self_ns(self) -> Dict[str, Tuple[int, int]]:
        """Span name -> (calls, self ns)."""
        calls = [0] * len(self.names)
        own_ns = [0] * len(self.names)
        for name, own in zip(self.span_name, self.span_self):
            calls[name] += 1
            own_ns[name] += own
        return {self.names[index]: (calls[index], own_ns[index])
                for index in range(len(self.names)) if calls[index]}

    def unattributed_ns(self) -> int:
        """Self time of the kernel dispatch loop (``Environment.step``)."""
        step = self._name_ids.get(_KERNEL_STEP)
        return sum(own for name, own in zip(self.span_name, self.span_self)
                   if name == step)

    def write(self, directory: Path, stem: str,
              aggregates: Dict) -> Tuple[Path, Path]:
        """Write ``<stem>-trace.json`` (aggregates plus the top span names
        by self time) and ``<stem>-spans.jsonl`` (spans in start order,
        cut off before the file passes :data:`SPAN_CAP_BYTES`)."""
        directory.mkdir(parents=True, exist_ok=True)
        by_name = sorted(self.name_self_ns().items(),
                         key=lambda item: -item[1][1])
        document = dict(aggregates)
        document["top_self_ns"] = [
            {"name": name, "calls": calls, "self_ns": own}
            for name, (calls, own) in by_name[:60]]
        summary = directory / f"{stem}-trace.json"
        summary.write_text(json.dumps(document, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
        spans = directory / f"{stem}-spans.jsonl"
        written = 0
        with spans.open("w", encoding="utf-8") as handle:
            for index in range(len(self.span_start)):
                line = json.dumps({
                    "span": index, "parent": self.span_parent[index],
                    "trace": self.span_trace[index],
                    "layer": LAYERS[self.span_layer[index]],
                    "name": self.names[self.span_name[index]],
                    "start_ns": self.span_start[index] - self.origin_ns,
                    "end_ns": self.span_end[index] - self.origin_ns,
                    "self_ns": self.span_self[index]}) + "\n"
                written += len(line)
                if written > SPAN_CAP_BYTES:
                    break
                handle.write(line)
        return summary, spans
