"""The ``datagridflow`` command-line tool.

Operator-facing utilities over DGL documents and the simulated grid:

* ``validate``  — parse + schema-check a DGL request document;
* ``render``    — draw a document's flow as a text tree;
* ``structure`` — print a model class's schema structure (the paper's
  Figs. 1–4, regenerated on demand);
* ``moml2dgl`` / ``dgl2moml`` — convert between the IDE's MoML models and
  DGL requests;
* ``demo``      — run a named scenario end to end and print its summary;
* ``telemetry`` — same scenarios, with the telemetry layer attached:
  prints a run summary with histogram quantiles (p50/p95/p99, optionally
  restricted to a ``--window`` of sim time) and exports
  metrics/spans/events (Prometheus text and/or JSONL);
* ``trace``     — reconstruct the causal story of one execution from a
  JSONL export / flight-recorder dump (``--jsonl``) or a live observed
  chaos run (``--chaos-seed``);
* ``lint``      — run dgflint, the determinism-contract linter
  (:mod:`repro.analysis`), over a source tree and emit a text or JSON
  report;
* ``farm``      — run the seeded chaos sweep on the :mod:`repro.farm`
  runner and print per-seed invariant results, signatures, and sweep
  throughput;
* ``federation`` — run the multi-zone federation chaos sweep
  (:mod:`repro.federation.chaos`): cross-zone copies under zone outages
  and bridge degradations, with per-seed survival invariants and the
  sweep fingerprint.

Exposed as the ``datagridflow`` and ``repro`` console scripts (see
``pyproject.toml``) and runnable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.dgl import (
    DataGridRequest,
    Flow,
    flow_to_moml,
    moml_to_flow,
    render_flow,
    request_from_xml,
    request_to_xml,
    structure_of,
    validate_request,
)

__all__ = ["main"]

def _structure_classes():
    # Built fresh per call (a handful of name lookups on an interactive
    # path) rather than memoized in module state, which DGF008 forbids.
    from repro.dgl.model import (
        DataGridRequest as Request,
        DataGridResponse,
        Flow as FlowModel,
        FlowLogic,
        Step,
    )
    return {
        "Flow": FlowModel,
        "FlowLogic": FlowLogic,
        "Step": Step,
        "DataGridRequest": Request,
        "DataGridResponse": DataGridResponse,
    }


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        print(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")


# -- commands ------------------------------------------------------------


def _cmd_validate(args) -> int:
    request = request_from_xml(_read(args.document))
    validate_request(request)
    body = request.body
    if isinstance(body, Flow):
        print(f"OK: flow {body.name!r} with {body.count_steps()} steps, "
              f"depth {body.depth()}, user {request.user}")
    else:
        print(f"OK: status query for {body.request_id}")
    return 0


def _cmd_render(args) -> int:
    request = request_from_xml(_read(args.document))
    if not isinstance(request.body, Flow):
        print("document is a status query; nothing to render",
              file=sys.stderr)
        return 1
    print(render_flow(request.body))
    return 0


def _cmd_structure(args) -> int:
    classes = _structure_classes()
    if args.model not in classes:
        print(f"unknown model {args.model!r}; choose from "
              f"{', '.join(sorted(classes))}", file=sys.stderr)
        return 1
    print(structure_of(classes[args.model], max_depth=args.depth))
    return 0


def _cmd_moml2dgl(args) -> int:
    flow = moml_to_flow(_read(args.model))
    request = DataGridRequest(user=args.user,
                              virtual_organization=args.vo, body=flow,
                              asynchronous=True)
    _write(args.output, request_to_xml(request))
    return 0


def _cmd_dgl2moml(args) -> int:
    request = request_from_xml(_read(args.document))
    if not isinstance(request.body, Flow):
        print("document is a status query; nothing to convert",
              file=sys.stderr)
        return 1
    _write(args.output, flow_to_moml(request.body))
    return 0


def _demo_deployment(scenario_name: str, files: int):
    """Build a named demo: returns ``(scenario, user, flow)``.

    Shared between ``demo`` and ``telemetry`` so both commands run the
    exact same workloads.
    """
    from repro.baselines import dgl_integrity_flow
    from repro.workloads import (
        bbsrc_scenario,
        cms_scenario,
        ucsd_library_scenario,
    )

    if scenario_name == "library":
        scenario = ucsd_library_scenario(n_files=files)
        user = scenario.users["librarian"]
        flow = dgl_integrity_flow("/library/ingest", "library-tape")
    elif scenario_name == "bbsrc":
        from repro.ilm import ILMManager, imploding_star_policy
        scenario = bbsrc_scenario(n_hospitals=3,
                                  files_per_hospital=files)
        manager = ILMManager(scenario.server)
        manager.add_policy(imploding_star_policy(
            name="pull", collection="/bbsrc", archiver_domain="ral",
            archive_resource="ral-tape"))
        user = scenario.users["archivist"]
        flow = manager.policy("pull").compile_to_flow()
    else:
        from repro.ilm import exploding_star_flow
        scenario = cms_scenario(n_events=files)
        user = scenario.users["physicist"]
        flow = exploding_star_flow(
            "stage-out", "/cms/run1",
            tier_resources=[scenario.extras["tier1_resources"],
                            scenario.extras["tier2_resources"]])
    return scenario, user, flow


def _cmd_demo(args) -> int:
    scenario, user, flow = _demo_deployment(args.scenario, args.files)

    def go():
        response = yield scenario.env.process(scenario.server.submit_sync(
            DataGridRequest(user=user.qualified_name,
                            virtual_organization="demo", body=flow)))
        return response

    response = scenario.run(go())
    state = response.body.state.value
    print(f"scenario {args.scenario!r}: {state} at virtual "
          f"t={scenario.env.now:.1f} s")
    print(f"  provenance records: {len(scenario.provenance)}")
    print(f"  WAN bytes moved:    "
          f"{scenario.dgms.transfers.total_bytes_moved / 1e6:.1f} MB")
    return 0 if state == "completed" else 1


def _parse_window(raw: Optional[str]):
    """Parse ``start:end`` (either side blank = open) into a float pair."""
    if raw is None:
        return None
    parts = raw.split(":")
    if len(parts) != 2:
        raise ReproError(
            f"bad --window {raw!r}: expected start:end sim times")
    try:
        start = float(parts[0]) if parts[0].strip() else 0.0
        end = float(parts[1]) if parts[1].strip() else float("inf")
    except ValueError:
        raise ReproError(
            f"bad --window {raw!r}: expected start:end sim times")
    if end < start:
        raise ReproError(f"bad --window {raw!r}: end precedes start")
    return (start, end)


def _cmd_telemetry(args) -> int:
    from repro.grid.events import EventKind
    from repro.dgl.model import Operation
    from repro.telemetry import (
        histogram_summaries,
        instrument_scenario,
        write_jsonl,
        write_prometheus,
    )
    from repro.triggers import DatagridTrigger, TriggerManager

    scenario, user, flow = _demo_deployment(args.scenario, args.files)
    telemetry = instrument_scenario(scenario)
    # An audit trigger so the run exercises the trigger manager too: note
    # every replica change (the action is a no-op log flow).
    manager = TriggerManager(scenario.dgms, server=scenario.server)
    manager.register(DatagridTrigger(
        name="audit-replicas", owner=user,
        kinds=frozenset({EventKind.REPLICATE, EventKind.MIGRATE}),
        action=Operation(name="dgl.log",
                         parameters={"message":
                                     "replica change at ${event_path}"})))

    def go():
        response = yield scenario.env.process(scenario.server.submit_sync(
            DataGridRequest(user=user.qualified_name,
                            virtual_organization="demo", body=flow)))
        return response

    response = scenario.run(go())
    state = response.body.state.value
    telemetry.collect()
    window = _parse_window(args.window)

    print(f"scenario {args.scenario!r}: {state} at virtual "
          f"t={scenario.env.now:.1f} s")
    series = sum(len(list(m.series()))
                 for m in telemetry.metrics.metrics())
    print(f"  metric series:  {series}")
    print(f"  spans recorded: {len(telemetry.tracer.finished)}")
    print(f"  event records:  {len(telemetry.log)}")
    print(f"  trigger firings: {len(manager.firing_log)}")
    # Histograms as operator-facing quantiles (exact, from raw samples),
    # not raw bucket dumps; --window restricts to a sim-time interval.
    scope = (f" in t={window[0]:g}..{window[1]:g}" if window else "")
    print(f"  histogram quantiles{scope}:")
    summaries = histogram_summaries(telemetry, window=window)
    if not summaries:
        print("    (no samples in range)")
    for summary in summaries:
        labels = "".join(f" {key}={value}" for key, value
                         in sorted(summary["labels"].items()))
        print(f"    {summary['metric']}{labels}: n={summary['count']} "
              f"p50={summary['p50']:.3f} p95={summary['p95']:.3f} "
              f"p99={summary['p99']:.3f} max={summary['max']:.3f}")
    if args.prom is not None:
        write_prometheus(telemetry, args.prom)
        print(f"  wrote Prometheus text to {args.prom}")
    if args.jsonl is not None:
        write_jsonl(telemetry, args.jsonl, window=window)
        print(f"  wrote JSONL export to {args.jsonl}")
    return 0 if state == "completed" else 1


def _cmd_trace(args) -> int:
    from repro.telemetry.trace import (
        execution_ids,
        parse_jsonl,
        render_trace,
    )

    if (args.jsonl is None) == (args.chaos_seed is None):
        print("trace: give exactly one of --jsonl FILE or --chaos-seed N",
              file=sys.stderr)
        return 2
    if args.jsonl is not None:
        with open(args.jsonl, encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle]
    else:
        from repro.workloads.chaos import run_chaos
        report = run_chaos(args.chaos_seed, observe=True,
                           observe_export=True)
        lines = report.observe.jsonl
    dump = parse_jsonl(lines)
    if args.execution is None:
        known = execution_ids(dump)
        if not known:
            print("no executions found in the telemetry stream",
                  file=sys.stderr)
            return 1
        print("executions in this telemetry stream "
              "(re-run with one to reconstruct its causal story):")
        for rid in known:
            print(f"  {rid}")
        return 0
    text = render_trace(dump, args.execution)
    print(text)
    return 0 if not text.startswith("no trace") else 1


def _cmd_lint(args) -> int:
    from repro.analysis import lint_paths, load_config, render_text
    from repro.analysis.config import LintConfig
    from repro.analysis.core import SUPPRESSION_CODE, SYNTAX_CODE
    from repro.analysis.rules import RULES
    from repro.errors import AnalysisError

    config = load_config(args.paths, explicit=args.config)
    if args.select:
        selected = frozenset(code.strip()
                             for code in args.select.split(",")
                             if code.strip())
        # An unknown code would silently select an empty rule set and
        # report a clean tree; fail loudly instead (exit 2 via main).
        known = ({rule.code for rule in RULES}
                 | {SUPPRESSION_CODE, SYNTAX_CODE})
        unknown = sorted(selected - known)
        if unknown:
            raise AnalysisError(
                f"unknown rule code(s) in --select: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})")
        if not selected:
            raise AnalysisError(
                "--select named no rule codes (use e.g. "
                "--select DGF001,DGF003)")
        config = LintConfig(
            select=selected, exclude=config.exclude,
            dispatch_paths=config.dispatch_paths,
            retryable=config.retryable,
            allowed_labels=config.allowed_labels,
            time_tokens=config.time_tokens,
            effect_methods=config.effect_methods, source=config.source)
    report = lint_paths(args.paths, config=config)
    if args.format == "json":
        _write(args.output, report.to_json())
    else:
        text = render_text(report, verbose_suppressions=args.show_suppressed)
        _write(args.output, text)
    return report.exit_code


def _parse_seeds(raw: str) -> list:
    """``"20"`` means seeds 0..19; ``"3,7,11"`` means exactly those."""
    if "," in raw:
        return [int(part) for part in raw.split(",") if part.strip()]
    return list(range(int(raw)))


def _print_table(header, rows) -> None:
    """Print ``rows`` under ``header`` in left-justified columns."""
    widths = [max(len(str(cell)) for cell in column)
              for column in zip(header, *rows)]
    for row in (header, *rows):
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)))


def _print_violations(reports) -> None:
    """Echo every report's invariant violations to stderr."""
    for report in reports:
        for violation in report.violations:
            print(f"  seed {report.seed}: {violation}", file=sys.stderr)


def _signature_sha256(report) -> str:
    return hashlib.sha256(repr(report.signature).encode()).hexdigest()


def _prove_scenario(scenario, **options):
    """Prove one ``(kind, harness, seed)`` scenario of ``repro sanitize``;
    module-level so the seed farm can send it to a worker."""
    _, harness, seed = scenario
    return harness.prove(seed, **options)


def _cmd_sanitize(args) -> int:
    from repro.analysis.report import Report, render_text
    from repro.farm import run_farm
    from repro.federation.chaos import FEDERATION_CHAOS
    from repro.workloads.chaos import CHAOS

    scenarios = [
        (kind, harness, seed)
        for kind, harness, raw in (
            ("chaos", CHAOS, args.chaos_seeds),
            ("federation", FEDERATION_CHAOS, args.federation_seeds))
        for seed in (_parse_seeds(raw) if raw else harness.seeds())]
    proofs = run_farm(_prove_scenario, scenarios, kwargs={
        "order": args.order, "permute_seed": args.permute_seed,
        "max_runs": args.max_runs})
    report = Report(sanitizer={
        "proved": all(proof.proved for proof in proofs),
        "races_total": sum(proof.races_total for proof in proofs),
        "scenarios": [{"kind": kind, "seed": seed, "proof": proof.to_dict()}
                      for (kind, _, seed), proof in zip(scenarios, proofs)],
    })
    if args.format == "json":
        _write(args.output, report.to_json())
    else:
        _write(args.output, render_text(report))
    return report.exit_code


def _cmd_farm(args) -> int:
    import json
    import time

    from repro.workloads.chaos import CHAOS

    seeds = _parse_seeds(args.seeds)
    # Wall clock, deliberately: the farm is host-side tooling reporting
    # real sweep throughput; nothing below feeds back into any simulation.
    started = time.perf_counter()  # dgf: noqa[DGF001]: farm orchestration is host-side, not sim code — this measures real seeds/sec and never touches a kernel clock
    reports = CHAOS.sweep(seeds)
    elapsed = time.perf_counter() - started  # dgf: noqa[DGF001]: same wall-clock throughput measurement as above

    failures = sum(not report.ok for report in reports)
    _print_table(
        ("seed", "makespan_s", "faults", "restarts", "actions",
         "invariants", "signature"),
        [(report.seed, f"{report.makespan:.2f}", report.faults_begun,
          report.restarts, sum(report.recovery_actions.values()),
          "ok" if report.ok else "VIOLATED",
          _signature_sha256(report)[:12]) for report in reports])
    rate = len(seeds) / elapsed if elapsed else float("inf")
    print(f"{len(seeds)} seeds in {elapsed:.2f} s ({rate:.2f} seeds/s); "
          f"{failures} invariant failure(s)")
    _print_violations(reports)
    if args.json is not None:
        payload = {
            "seeds": seeds, "elapsed_s": round(elapsed, 3),
            "seeds_per_s": round(rate, 3),
            "reports": [{
                "seed": report.seed, "ok": report.ok,
                "makespan_s": report.makespan,
                "faults_begun": report.faults_begun,
                "restarts": report.restarts,
                "recovery_actions": report.recovery_actions,
                "signature_sha256": _signature_sha256(report),
                "violations": report.violations,
            } for report in reports],
        }
        _write(args.json, json.dumps(payload, indent=2))
    return 1 if failures else 0


def _cmd_gateway(args) -> int:
    import json

    from repro.workloads.traffic import run_saturation_curve

    rates = [float(part) for part in args.loads.split(",") if part.strip()]
    if not rates:
        print("gateway: --loads needs at least one arrival rate",
              file=sys.stderr)
        return 2
    points = run_saturation_curve(
        rates, seed=args.seed, horizon_s=args.horizon,
        workers=args.workers, queue_limit=args.queue_limit,
        cache=not args.no_cache)
    _print_table(
        ("offered/s", "goodput/s", "p50_soj_s", "p99_soj_s", "shed",
         "peak_q", "cache_hit"),
        [(f"{p['offered_rate']:.2f}", f"{p['goodput_rate']:.3f}",
          f"{p['p50_sojourn_s']:.2f}", f"{p['p99_sojourn_s']:.2f}",
          p["shed_total"], p["peak_queue_depth"],
          "-" if p["cache_hit_rate"] is None
          else f"{p['cache_hit_rate']:.2f}")
         for p in points])
    if args.json is not None:
        _write(args.json, json.dumps({
            "seed": args.seed, "horizon_s": args.horizon,
            "workers": args.workers, "queue_limit": args.queue_limit,
            "cache": not args.no_cache, "points": points,
        }, indent=2))
    return 0


def _cmd_federation(args) -> int:
    import json

    from repro.federation import run_federation_sweep, sweep_fingerprint

    seeds = _parse_seeds(args.seeds)
    reports = run_federation_sweep(
        seeds=seeds, faults=not args.no_faults, recovery=not args.no_recovery,
        n_zones=args.zones, placement_policy=args.policy)
    failures = sum(not report.ok for report in reports)
    _print_table(
        ("seed", "makespan_s", "copies", "faults", "stale", "wrong",
         "invariants", "signature"),
        [(report.seed, f"{report.makespan:.2f}",
          f"{report.copies_completed}/{report.copies_attempted}",
          report.faults_begun, report.stale_misses, report.wrong_answers,
          "ok" if report.ok else "VIOLATED",
          _signature_sha256(report)[:12]) for report in reports])
    print(f"{len(seeds)} seed(s), {args.zones} zones, "
          f"policy {args.policy}; {failures} invariant failure(s); "
          f"fingerprint {sweep_fingerprint(reports)[:12]}")
    _print_violations(reports)
    if args.json is not None:
        _write(args.json, json.dumps({
            "seeds": seeds, "zones": args.zones, "policy": args.policy,
            "faults": not args.no_faults, "recovery": not args.no_recovery,
            "fingerprint_sha256": sweep_fingerprint(reports),
            "reports": [{
                "seed": report.seed, "ok": report.ok,
                "makespan_s": report.makespan,
                "copies_attempted": report.copies_attempted,
                "copies_completed": report.copies_completed,
                "copies_failed": report.copies_failed,
                "faults_begun": report.faults_begun,
                "stale_misses": report.stale_misses,
                "wrong_answers": report.wrong_answers,
                "rls": report.rls_stats,
                "recovery_actions": report.recovery_actions,
                "violations": report.violations,
            } for report in reports],
        }, indent=2))
    return 1 if failures else 0


# -- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="datagridflow",
        description="Datagridflow utilities (DGL documents and demos).")
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate",
                                   help="schema-check a DGL document")
    validate.add_argument("document", help="path to the XML ('-' = stdin)")
    validate.set_defaults(handler=_cmd_validate)

    render = commands.add_parser("render",
                                 help="draw a DGL flow as a text tree")
    render.add_argument("document", help="path to the XML ('-' = stdin)")
    render.set_defaults(handler=_cmd_render)

    structure = commands.add_parser(
        "structure", help="print a DGL model class structure (Figs. 1-4)")
    structure.add_argument("model",
                           help="Flow | FlowLogic | Step | DataGridRequest "
                                "| DataGridResponse")
    structure.add_argument("--depth", type=int, default=3)
    structure.set_defaults(handler=_cmd_structure)

    moml2dgl = commands.add_parser("moml2dgl",
                                   help="convert a MoML model to a DGL "
                                        "request")
    moml2dgl.add_argument("model", help="path to the MoML ('-' = stdin)")
    moml2dgl.add_argument("--user", default="user@domain")
    moml2dgl.add_argument("--vo", default="default")
    moml2dgl.add_argument("-o", "--output", default=None)
    moml2dgl.set_defaults(handler=_cmd_moml2dgl)

    dgl2moml = commands.add_parser("dgl2moml",
                                   help="convert a DGL request to MoML")
    dgl2moml.add_argument("document", help="path to the XML ('-' = stdin)")
    dgl2moml.add_argument("-o", "--output", default=None)
    dgl2moml.set_defaults(handler=_cmd_dgl2moml)

    demo = commands.add_parser("demo", help="run a named scenario")
    demo.add_argument("scenario", choices=("library", "bbsrc", "cms"))
    demo.add_argument("--files", type=int, default=6)
    demo.set_defaults(handler=_cmd_demo)

    telemetry = commands.add_parser(
        "telemetry",
        help="run a scenario with telemetry attached and export a report")
    telemetry.add_argument("scenario", choices=("library", "bbsrc", "cms"))
    telemetry.add_argument("--files", type=int, default=6)
    telemetry.add_argument("--prom", default=None,
                           help="write Prometheus text exposition here")
    telemetry.add_argument("--jsonl", default=None,
                           help="write the JSONL event/span/sample "
                                "export here")
    telemetry.add_argument(
        "--window", default=None, metavar="START:END",
        help="restrict histogram quantiles and the JSONL export to a "
             "sim-time interval; either side may be blank (open)")
    telemetry.set_defaults(handler=_cmd_telemetry)

    trace = commands.add_parser(
        "trace",
        help="reconstruct the causal story of one execution from "
             "telemetry (flight-recorder dump, JSONL export, or a live "
             "chaos run)")
    trace.add_argument("execution", nargs="?", default=None,
                       help="execution request id; omit to list the ids "
                            "present in the stream")
    trace.add_argument("--jsonl", default=None,
                       help="read a JSONL telemetry export or "
                            "flight-recorder dump from this file")
    trace.add_argument("--chaos-seed", type=int, default=None,
                       help="run the seeded chaos workload with "
                            "observability attached and trace it live")
    trace.set_defaults(handler=_cmd_trace)

    lint = commands.add_parser(
        "lint",
        help="run dgflint (the determinism-contract linter) over a tree")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("-o", "--output", default=None,
                      help="write the report here instead of stdout")
    lint.add_argument("--config", default=None,
                      help="explicit pyproject.toml (default: nearest one "
                           "above the first path)")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule codes to run "
                           "(default: [tool.dgflint] select, or all)")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="also list reasoned suppressions (text format)")
    lint.set_defaults(handler=_cmd_lint)

    sanitize = commands.add_parser(
        "sanitize",
        help="prove (or refute with a minimized witness) that every "
             "seeded chaos/federation scenario is independent of legal "
             "same-timestamp dispatch order")
    sanitize.add_argument("--chaos-seeds", default=None,
                          help="a count ('20' = seeds 0..19) or a "
                               "comma-separated seed list (default: the "
                               "pinned 20-seed sweep)")
    sanitize.add_argument("--federation-seeds", default=None,
                          help="federation seeds, same syntax (default: "
                               "the pinned 10-seed sweep)")
    sanitize.add_argument("--order", choices=("reverse", "random"),
                          default="reverse",
                          help="how permuted runs reorder each "
                               "same-timestamp choice batch")
    sanitize.add_argument("--permute-seed", type=int, default=0,
                          help="seed for --order random draws")
    sanitize.add_argument("--max-runs", type=int, default=40,
                          help="cap on reruns spent minimizing a witness")
    sanitize.add_argument("--format", choices=("text", "json"),
                          default="text")
    sanitize.add_argument("-o", "--output", default=None,
                          help="write the report here instead of stdout")
    sanitize.set_defaults(handler=_cmd_sanitize)

    farm = commands.add_parser(
        "farm",
        help="run the seeded chaos sweep on the seed farm (repro.farm), "
             "which spreads it over cores when that pays")
    farm.add_argument("--seeds", default="20",
                      help="a count ('20' = seeds 0..19) or an explicit "
                           "comma-separated seed list (default: 20)")
    farm.add_argument("--json", default=None,
                      help="also write a JSON report here ('-' = stdout)")
    farm.set_defaults(handler=_cmd_farm)

    gateway = commands.add_parser(
        "gateway",
        help="run a gateway traffic profile and print the saturation curve")
    gateway.add_argument("--loads", default="0.5,1,2,4,8",
                         help="comma-separated session arrival rates per "
                              "sim second (default: 0.5,1,2,4,8)")
    gateway.add_argument("--seed", type=int, default=0,
                         help="traffic/scenario seed (default: 0)")
    gateway.add_argument("--horizon", type=float, default=60.0,
                         help="sim seconds of offered traffic (default: 60)")
    gateway.add_argument("--workers", type=int, default=4,
                         help="gateway worker processes (default: 4)")
    gateway.add_argument("--queue-limit", type=int, default=32,
                         help="bounded queue size (default: 32)")
    gateway.add_argument("--no-cache", action="store_true",
                         help="run without the DGMS cache tier")
    gateway.add_argument("--json", default=None,
                         help="also write the curve as JSON ('-' = stdout)")
    gateway.set_defaults(handler=_cmd_gateway)

    federation = commands.add_parser(
        "federation",
        help="run the multi-zone chaos sweep and print per-seed survival")
    federation.add_argument("--seeds", default="10",
                            help="a count ('10' = seeds 0..9) or an "
                                 "explicit comma-separated seed list "
                                 "(default: 10)")
    federation.add_argument("--zones", type=int, default=3,
                            help="federated zones per run (default: 3)")
    federation.add_argument("--policy", default="bridge-cost-aware",
                            help="cross-zone placement policy (default: "
                                 "bridge-cost-aware)")
    federation.add_argument("--no-faults", action="store_true",
                            help="run the workload without zone chaos")
    federation.add_argument("--no-recovery", action="store_true",
                            help="run without per-zone recovery services")
    federation.add_argument("--json", default=None,
                            help="also write a JSON report here "
                                 "('-' = stdout)")
    federation.set_defaults(handler=_cmd_federation)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
