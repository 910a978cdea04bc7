"""DGF006 positive fixture: closed-enum labels; identifiers in the log."""


def record_access(telemetry, obj):
    # Bounded label (a storage-class enum); the unbounded identifier
    # goes to the event log, which is built for per-object records.
    telemetry.reads.labels(storage_class=obj.storage_class).inc()
    telemetry.log.emit("object.read", path=obj.path)


def record_replica(telemetry, replica, outcome):
    telemetry.replicas.labels(outcome=outcome).inc()
    telemetry.log.emit("replica.placed", guid=replica.guid)


def record_fetch(telemetry, kind):
    telemetry.fetches.labels(kind=kind, scope="wan").inc()


def record_bound_access(telemetry, obj, outcome):
    # Hot sites index the held children with the same closed enums.
    telemetry.reads.bound[obj.storage_class, outcome].inc()


def register_reads(metric):
    # Closed-enum label names, positional or by keyword.
    metric.histogram("read_seconds", "Read time, by surface and outcome",
                     labelnames=("surface", "outcome"))
    return metric.counter("reads_total", "Reads, by outcome", ["outcome"])
