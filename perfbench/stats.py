"""Summary statistics and per-layer metric assembly (standard library only,
so ``run.py`` can use them without importing numpy)."""

from __future__ import annotations

import bisect
import math
import statistics

#: Spans reported with ``.calls`` and ``.self_s``.
CALLS_AND_SELF = (
    "core.supernet.forward", "core.controller.sample",
    "core.search.evaluate_spec", "finetune.evaluate", "nn.tensor.backward",
    "nn.ops.segment_sum", "nn.ops.segment_mean", "nn.ops.segment_max",
    "nn.ops.segment_softmax", "nn.ops.gather_segments", "nn.ops.scatter_add",
    "nn.ops.gather", "nn.ops.matmul", "nn.ops.concat", "nn.ops.lstm_scan",
    "nn.optim.adam_step", "graph.collate", "graph.plan_build",
    "serve.service.predict",
)
#: Spans reported with ``.self_s`` only.
SELF_ONLY = ("nn.optim.clip_grad_norm", "serve.transport.decode",
             "serve.transport.handle")
#: Gauges that add up across a workload's processes.
COUNTERS = ("cache_hits", "cache_misses", "logit_hits", "logit_misses",
            "workspace_hits", "workspace_misses", "router_served",
            "router_batches", "deadline_flushes", "executed_batches")


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile, reported only when at least ten
    samples lie beyond it (so p99 needs 1000 samples)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{q:g} needs >= 10 samples beyond it; "
                         f"have {len(ordered)} samples")
    return float(ordered[rank - 1])


#: Consecutive requests per window.  A run's p50 is the mean of its
#: windows' p50s: one-graph latency follows graph size, and request pools
#: sit near a size boundary, so a pooled median jumps between the latency
#: of one size and the next as the seed changes the pool, while a mean of
#: window medians moves with the mix.  A run's p99 is the median of its
#: windows' p99s: the tail comes from host stalls of tens of milliseconds,
#: and a window that caught a burst of them is one vote, not a mean.  A
#: p99 window holds ten samples beyond its p99.
P50_WINDOW = 100
P99_WINDOW = 1000


def windowed(values, q: float, size: int, reduce=statistics.fmean) -> float:
    """``reduce`` (mean or median) over the whole windows of ``size``
    consecutive values of each window's ``q``-th percentile (a short
    remainder is left out)."""
    count = len(values) // size
    if count == 0:
        raise ValueError(f"need >= {size} samples; have {len(values)}")
    return reduce([percentile(values[i * size:(i + 1) * size], q)
                   for i in range(count)])


def latency_summary(values_ms, slowdowns=None) -> dict:
    """p50 and p99 of per-request latencies (see ``P50_WINDOW``), with the
    sample count.  With the requests' ``slowdowns`` (see ``pace.py``) each
    latency is first divided by its own."""
    values_ms = list(values_ms)
    if slowdowns is not None:
        values_ms = [value / slowdown for value, slowdown in zip(values_ms, slowdowns)]
    return {"p50_ms": windowed(values_ms, 50, P50_WINDOW),
            "p99_ms": windowed(values_ms, 99, P99_WINDOW, statistics.median),
            "samples": len(values_ms)}


#: A request's slowdown is the mean of the pace probes (see ``pace.py``)
#: within this many seconds of its end: the host's phases last a second
#: or more, and one probe alone jitters.
SMOOTH_S = 0.25


def paced(wall_s: float, slowdowns) -> float:
    """``wall_s`` at the reference pace, given the slowdowns probed with it."""
    slowdowns = list(slowdowns)
    return wall_s * len(slowdowns) / sum(slowdowns)


def smoothed(stamps, probe_stamps, probe_slowdowns, half_width: float = SMOOTH_S):
    """For each time in ``stamps``, the mean slowdown of the probes within
    ``half_width`` seconds of it, or of the nearest probe when none is.
    ``probe_stamps`` is ascending."""
    probe_stamps = list(probe_stamps)
    if not probe_stamps:
        raise ValueError("no pace probes")
    prefix = [0.0]
    for slowdown in probe_slowdowns:
        prefix.append(prefix[-1] + slowdown)
    out = []
    for stamp in stamps:
        lo = bisect.bisect_left(probe_stamps, stamp - half_width)
        hi = bisect.bisect_right(probe_stamps, stamp + half_width)
        if hi == lo:
            after = min(lo, len(probe_stamps) - 1)
            before = max(lo - 1, 0)
            lo = (before if stamp - probe_stamps[before] <= probe_stamps[after] - stamp
                  else after)
            hi = lo + 1
        out.append((prefix[hi] - prefix[lo]) / (hi - lo))
    return out


def merge_spans(reports) -> dict:
    """Sum ``{span: [calls, self_s, total_s]}`` tables, folding kernel
    backend tags (``nn.ops.<op>@<backend>``) into their op."""
    merged: dict = {}
    for report in reports:
        for name, (calls, self_s, total_s) in report["spans"].items():
            row = merged.setdefault(name.split("@")[0], [0, 0.0, 0.0])
            row[0] += calls
            row[1] += self_s
            row[2] += total_s
    return merged


def backend_tags(reports) -> dict:
    """``{op: {backend: calls}}`` for the kernel spans."""
    tags: dict = {}
    for report in reports:
        for name, (calls, _, _) in report["spans"].items():
            if "@" in name:
                op, backend = name.split("@")
                op_tags = tags.setdefault(op, {})
                op_tags[backend] = op_tags.get(backend, 0) + calls
    return tags


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(reports, cpu_per_wall: float, overhead: dict) -> dict:
    """Per-layer metrics of one workload from its traced processes'
    reports (see ``jobs.trace_report``).  A layer the workload never
    entered reads 0."""
    spans = merge_spans(reports)
    gauges = {name: sum(r["gauges"].get(name, 0) for r in reports)
              for name in COUNTERS}
    waits = [w for r in reports for w in r["gauges"].get("queue_waits_ms", [])]

    def row(name):
        return spans.get(name, [0, 0.0, 0.0])

    metrics = {"pretrain.total_s": row("pretrain")[2]}
    for name in CALLS_AND_SELF:
        calls, self_s, _ = row(name)
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = row(name)[1]
    client_calls, _, client_total = row("serve.transport.client")
    metrics.update({
        "serve.cache.hit_ratio": _ratio(gauges["cache_hits"], gauges["cache_misses"]),
        "serve.service.logit_hit_ratio": _ratio(gauges["logit_hits"],
                                                gauges["logit_misses"]),
        "nn.policy.workspace.hit_ratio": _ratio(gauges["workspace_hits"],
                                                gauges["workspace_misses"]),
        "serve.router.batch_size_mean": (gauges["router_served"] / gauges["router_batches"]
                                         if gauges["router_batches"] else 0.0),
        "serve.router.deadline_flush_share": (
            gauges["deadline_flushes"] / gauges["router_batches"]
            if gauges["router_batches"] else 0.0),
        "serve.server.queue_wait_ms": statistics.median(waits) if waits else 0.0,
        "serve.server.executed_batches": gauges["executed_batches"],
        "serve.transport.client_rtt_ms": (client_total / client_calls * 1e3
                                          if client_calls else 0.0),
        "process.cpu_per_wall": cpu_per_wall,
    })
    # On the roots' threads: the root's own self time is the part of the
    # measured phase no layer span covers.
    unattributed = sum(r["spans"].get("root", [0, 0.0, 0.0])[1] for r in reports)
    metrics.update({
        "trace.wall_s": sum(r["wall_s"] for r in reports),
        "trace.layer_self_s": sum(r["root_thread_self_s"] for r in reports)
        - unattributed,
        "trace.unattributed_s": unattributed,
        "trace.overhead.fit_s": overhead["fit_s"],
        "trace.overhead.throughput_rps": overhead["throughput_rps"],
    })
    return metrics
