"""In-memory spans and counts recorded around the benchmark's calls into ilscond.

Spans are kept as tuples and summarised once the traced pass ends; nothing is
written while a pass runs.
"""

import statistics
import time
from contextlib import contextmanager, nullcontext

# Every span the benchmark can record, by module.  kron is reached only from
# inside exact/tls and probfile is on no hot path, so neither has a span.
SPANS = (
    "ils.IlsProblem",
    "ils.solution",
    "bench.gen_example1",
    "bench.gen_example2",
    "bench.gen_example3",
    "exact.kappa_2ils",
    "exact.kappa_mixed",
    "exact.kappa_componentwise",
    "exact.kappa_unified_22",
    "exact.kappa_unified_inf",
    "structured.kappa_2ils_structured",
    "structured.kappa_mixed_structured",
    "structured.kappa_componentwise_structured",
    "estimate.estimate_kappa2_pce",
    "estimate.estimate_kappa2_ssce",
    "estimate.estimate_kappa_inf_ssce",
    "tls.TlsProblem",
    "tls.kappa_2tls",
    "tls.kappa_mixed_tls",
    "cli.main",
)

COUNTS = (
    "ils.ill_conditioned",
    "bench.excluded",
    "estimate.pce_iterations",
    "estimate.pce_ratio_not_met",
    "estimate.ssce_clamps",
    "exact.dense_map_mb",
    "tls.dense_map_mb",
    "cli.self_share",
    "trace.overhead_share",
    "failed_share",
)


class Tracer:
    """Records (name, op, start, end) spans; ``op`` identifies the operation
    (trial or report) that caused the span."""

    def __init__(self):
        self.spans = []
        self.op = 0

    @contextmanager
    def span(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, self.op, t0, time.perf_counter()))

    def durations(self, name):
        return [end - start for span, _, start, end in self.spans if span == name]


class NullTracer:
    """Tracing off: the same call sites, no records."""

    def span(self, name):
        return nullcontext()


def span_metrics(tracer, wall_s, names=SPANS):
    """``<span>.calls``, ``<span>.p50_ms`` and ``<span>.share`` of ``wall_s``.

    A span the workload never reaches reports 0 calls, 0 ms and share 0.
    """
    out = {}
    for name in names:
        d = tracer.durations(name)
        out[f"{name}.calls"] = (len(d), "count")
        out[f"{name}.p50_ms"] = (statistics.median(d) * 1e3 if d else 0.0, "ms")
        out[f"{name}.share"] = (sum(d) / wall_s if d else 0.0, "1")
    return out


def span_cost_s():
    """Seconds one span adds over a null span: the median of five timings of
    2000 empty spans of each kind."""
    tr, null = Tracer(), NullTracer()
    n = 2000
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            with tr.span("calibration"):
                pass
        t1 = time.perf_counter()
        for _ in range(n):
            with null.span("calibration"):
                pass
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / n)
    return statistics.median(costs)


def overhead_share(tracer, traced_wall_s):
    """Traced wall time against the untraced wall time, 0 for no overhead.

    The untraced time is the traced time less what the recorded spans cost,
    calibrated in the same process.  Timing the untraced and traced passes
    against each other instead reads run-to-run noise: the spans cost about
    a microsecond each against milliseconds per call.
    """
    cost = len(tracer.spans) * span_cost_s()
    return cost / (traced_wall_s - cost)
