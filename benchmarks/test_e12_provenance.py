"""E12: provenance query latency vs history size (§2.1, §3.1).

"Provenance information of all the processes managed at any time even
(years) after the execution." The store accumulates histories of 1k → 100k
records (years of virtual operations); we measure the per-subject audit
query (indexed) against a full filtered scan. Shape: the indexed audit
stays effectively flat while the scan grows linearly — audits stay cheap
no matter how old the grid gets. Each size's audit is the best of
``ROUNDS`` timed rounds, every round reported: the gate scales with the
1k audit, and one round of it moved by almost 2x between runs.

E12b feeds the store what a DfMS run feeds it: engine events and DGMS
operation records. The store encodes each as one journal row and builds
no record; the first audit indexes the rows by subject, so its cost is
O(rows since the last read), not O(history of the object). Gate:
appending the entries and reading once costs no more than building one
``ProvenanceRecord`` per entry as it arrives (the way the store builds
the records it reads) and appending that — keeping rows adds no work
over keeping records. Later audits are indexed too, but the store keeps
no record, so each audit builds the records it returns from their rows:
its cost grows with the subject's history (E12b reports it, ungated),
where an audit of kept records (E12a) only copies references.

Both write ``BENCH_provenance.json`` at the repo root: E12a's audit µs per
history size, and E12b's append, first-read and eager ms per size.
"""

import time

from _helpers import REPO_ROOT, merge_results
from repro.dfms.engine import EngineEvent
from repro.errors import ProvenanceError
from repro.grid.dgms import OperationRecord
from repro.provenance import ProvenanceRecord, ProvenanceStore
from repro.provenance.record import _filled

_RESULT_PATH = REPO_ROOT / "BENCH_provenance.json"

HISTORY_SIZES = (1_000, 10_000, 100_000)
N_SUBJECTS = 500
QUERIES = 200
#: Best-of rounds per E12a audit and per E12b measurement.
ROUNDS = 3
#: E12b: appending entries as rows and reading once may cost at most
#: this much more than building a record per entry as it arrives.
DEFERRAL_SLACK = 1.25


def build_store(n_records: int) -> ProvenanceStore:
    store = ProvenanceStore()
    operations = ("put", "replicate", "migrate", "checksum", "delete")
    for index in range(n_records):
        store.append(ProvenanceRecord(
            category="dgms",
            operation=operations[index % len(operations)],
            subject=f"/archive/obj-{index % N_SUBJECTS:05d}.dat",
            time=float(index * 3600),     # one op per virtual hour
            actor="archivist@ral"))
    return store


def time_audit(store: ProvenanceStore) -> float:
    started = time.perf_counter()
    for index in range(QUERIES):
        trail = store.for_subject(f"/archive/obj-{index % N_SUBJECTS:05d}.dat")
        assert trail
    return (time.perf_counter() - started) / QUERIES * 1e6


def time_scan(store: ProvenanceStore) -> float:
    started = time.perf_counter()
    results = store.query(operation="migrate")
    assert results
    return (time.perf_counter() - started) * 1e6


def test_e12_provenance(benchmark, experiment):
    report = experiment(
        "E12", "Provenance query latency vs history size",
        header=["records", "virtual_years", "audit_us", "audit_rounds_us",
                "full_scan_us"],
        expectation="indexed per-object audits stay flat; full scans "
                    "grow linearly")
    audits = {}
    rounds = {}
    scans = {}
    for size in HISTORY_SIZES:
        store = build_store(size)
        rounds[size] = [time_audit(store) for _ in range(ROUNDS)]
        audits[size] = min(rounds[size])
        scans[size] = time_scan(store)
        report.row(size, round(size * 3600 / (365 * 86400), 1),
                   audits[size],
                   "/".join(f"{value:.2f}" for value in rounds[size]),
                   scans[size])

    # 100x more history must not make audits more than ~10x slower.
    assert audits[HISTORY_SIZES[-1]] < audits[HISTORY_SIZES[0]] * 10 + 50
    report.conclusion = ("audits are O(history-per-object): 'years later' "
                         "queries stay interactive")

    store = build_store(HISTORY_SIZES[1])
    benchmark(time_audit, store)
    benchmark.extra_info["audit_us"] = {
        str(size): round(value, 1) for size, value in audits.items()}
    benchmark.extra_info["audit_rounds_us"] = {
        str(size): [round(value, 2) for value in values]
        for size, values in rounds.items()}
    merge_results(_RESULT_PATH, audit={
        "queries": QUERIES,
        "subjects": N_SUBJECTS,
        "rounds": ROUNDS,
        "audit_us": {str(size): round(value, 2)
                     for size, value in audits.items()},
        "full_scan_us": {str(size): round(value, 1)
                         for size, value in scans.items()},
    })


def producer_records(n_records: int) -> list:
    """Engine events with every tenth entry a DGMS operation record, the
    mix a DfMS run feeds the store (``gateway_traffic``: 45k of 47k)."""
    entries = []
    for index in range(n_records):
        subject = f"obj-{index % N_SUBJECTS:05d}"
        time_s = float(index * 3600)
        if index % 10 == 9:
            entries.append(OperationRecord(
                "replicate", "archivist@ral", f"/archive/{subject}.dat",
                time_s, time_s + 60.0, {"bytes": index}))
        else:
            entries.append(EngineEvent(
                "step_completed", "dgr-1", subject, time_s, {},
                "archivist@ral"))
    return entries


def convert(entry) -> ProvenanceRecord:
    """The record an eager store would build for ``entry``, the way the
    store builds the records it reads: the operation checked, the slots
    filled directly by ``_filled``."""
    if type(entry) is EngineEvent:
        kind, request_id, instance_key, time_s, detail, user = entry
        if not kind:
            raise ProvenanceError("operation cannot be empty")
        subject = (f"{request_id}/{instance_key}" if instance_key
                   else request_id)
        return _filled("engine", kind, subject, time_s, user, None, detail)
    operation, user, path, start_time, end_time, detail = entry
    if not operation:
        raise ProvenanceError("operation cannot be empty")
    if type(detail) is not dict:
        detail = dict(detail)
    return _filled("dgms", operation, path, start_time, user, end_time,
                   detail)


def time_deferred(entries: list) -> tuple:
    """Seconds to append ``entries`` as rows, then to the first audit."""
    store = ProvenanceStore()
    started = time.perf_counter()
    for entry in entries:
        store.append(entry)
    appended = time.perf_counter()
    assert store.for_subject(producer_subject(0))
    return appended - started, time.perf_counter() - appended


def time_eager(entries: list) -> float:
    """Seconds to build and append one ``ProvenanceRecord`` per entry."""
    store = ProvenanceStore()
    started = time.perf_counter()
    for entry in entries:
        store.append(convert(entry))
    return time.perf_counter() - started


def test_e12_first_read_after_producer_records(experiment):
    report = experiment(
        "E12b", "First audit after engine/DGMS entries kept as rows",
        header=["entries", "append_ms", "first_read_ms", "eager_ms",
                "audit_us"],
        expectation="the first read indexes what arrived since the last "
                    "one (linear); append + first read <= eager build")
    totals = {}
    rows = {}
    for size in HISTORY_SIZES:
        entries = producer_records(size)
        deferred = min((time_deferred(entries) for _ in range(ROUNDS)),
                       key=sum)
        eager = min(time_eager(entries) for _ in range(ROUNDS))
        store = ProvenanceStore()
        for entry in entries:
            store.append(entry)
        store.records()
        audit_us = time_producer_audit(store)
        totals[size] = (sum(deferred), eager)
        rows[str(size)] = {"append_ms": round(deferred[0] * 1e3, 2),
                           "first_read_ms": round(deferred[1] * 1e3, 2),
                           "eager_ms": round(eager * 1e3, 2),
                           "audit_us": round(audit_us, 2)}
        report.row(size, *rows[str(size)].values())
    report.conclusion = ("the first read pays O(entries since the last "
                         "read); later audits are indexed, and build "
                         "each record they return")
    merge_results(_RESULT_PATH, first_read={
        "rounds": ROUNDS, "slack": DEFERRAL_SLACK, "sizes": rows})
    for size, (deferred_s, eager_s) in totals.items():
        assert deferred_s < eager_s * DEFERRAL_SLACK, (
            f"{size} entries: append + first read {deferred_s * 1e3:.1f} ms "
            f"vs eager {eager_s * 1e3:.1f} ms")


def producer_subject(index: int) -> str:
    """The subject :func:`producer_records` gives entry ``index``."""
    subject = f"obj-{index % N_SUBJECTS:05d}"
    return (f"/archive/{subject}.dat" if index % 10 == 9
            else f"dgr-1/{subject}")


def time_producer_audit(store: ProvenanceStore) -> float:
    started = time.perf_counter()
    for index in range(QUERIES):
        assert store.for_subject(producer_subject(index))
    return (time.perf_counter() - started) / QUERIES * 1e6
