"""DGF006 negative fixture: unbounded metric label cardinality."""


def record_access(telemetry, obj):
    telemetry.reads.labels(path=obj.path).inc()  # line 5: raw path label


def record_replica(telemetry, replica):
    telemetry.replicas.labels(  # line 9: guid-derived label value
        target=replica.guid).inc()


def record_fetch(telemetry, source_url, kind):
    telemetry.fetches.labels(kind=kind, url=source_url).inc()  # line 14


def record_bound_access(telemetry, obj, kind):
    telemetry.reads.bound[kind, obj.path].inc()  # line 18: bound by path


def register_reads(metric):
    # line 23: a path-named label, read below only through bound[...]
    return metric.counter("reads_total", "Reads, by path", ["path"])


def record_bound_read(reads, p):
    reads.bound[p].inc()   # the value's name says nothing; line 23 does
