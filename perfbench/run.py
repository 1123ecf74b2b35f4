"""Repository benchmark: the S2PGNN pipeline and its serving paths.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit_small --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; ``BENCHMARK.json`` declares both sets with
their units.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload runs in processes of its own (``jobs.py``): set-up probes,
the fit process, the serving process and, in a traced ``serve_batch``
run, an HTTP client and a server process.  This script imports only the standard library, so the
processes it starts inherit a small resident-set floor.  It writes only
under ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

from stats import backend_tags, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = os.path.join(HERE, "jobs.py")
#: Wall-clock limit of one workload run, kept under the 180 s contract.
RUN_LIMIT_S = 170.0
#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

WORKLOADS = ("fit_small", "serve_batch")
#: The BLAS pool is pinned to one thread: at emb 32 a two-thread pool
#: burns 2x CPU for the same median wall time and doubles the run-to-run
#: spread.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Work rates of a run's plan: seconds of the run per fit on fit_small (a
#: fit and its predict slice take 5-6 s), then per second of the run:
#: one-graph predicts, serve_batch passes over its 2048 graphs, and HTTP
#: requests.
FIT_SECONDS = 7.0
SINGLES_PER_S = 170
PASSES_PER_S = 1.5
#: Requests of the HTTP leg of a traced serve_batch run.
HTTP_REQUESTS = 1000
#: Per-layer metrics a traced run of each workload must find nonzero: the
#: wrappers reached the layers the workload exists for.
ENTERED = {
    "fit_small": ("pretrain.total_s", "core.supernet.forward.calls",
                  "core.controller.sample.calls",
                  "core.search.evaluate_spec.calls", "finetune.evaluate.calls",
                  "nn.tensor.backward.calls", "nn.ops.segment_sum.calls",
                  "nn.ops.matmul.calls", "nn.optim.adam_step.calls",
                  "graph.collate.calls", "graph.plan_build.calls"),
    "serve_batch": ("serve.service.predict.calls", "nn.ops.segment_sum.calls",
                    "graph.collate.calls", "nn.policy.workspace.hit_ratio",
                    "serve.router.batch_size_mean", "serve.transport.decode.self_s",
                    "serve.transport.handle.self_s", "serve.transport.client_rtt_ms",
                    "serve.server.executed_batches", "serve.server.queue_wait_ms"),
}


def plan(workload: str, seconds: float, fits: int | None = None) -> dict:
    """The fixed work of one run of ``workload``, sized so that it takes
    about ``seconds`` on a 2-core VM.  ``serve_batch`` fits the model it
    serves three times, then serves it.  ``fits`` overrides the fit
    count."""
    if workload == "fit_small":
        fits = fits or max(1, round(seconds / FIT_SECONDS))
        singles = max(1000, round(seconds * SINGLES_PER_S))
        return {"fits": fits,
                "predict": {"rounds": 2, "singles": math.ceil(singles / fits)}}
    return {"fits": fits or 3, "passes": max(1, round(seconds * PASSES_PER_S))}


class BenchError(RuntimeError):
    """A job failed to run or to report."""


class Session:
    """The processes of one workload run, their environment and deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=WORK)
        self.children: list[subprocess.Popen] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
        # The default kernel backend (reduceat) builds no compiled kernels;
        # were one built, it would land in the checkout.
        env["REPRO_COMPILED_CACHE"] = os.path.join(WORK, "compiled")
        env["REPRO_ZOO_DIR"] = os.path.join(self.scratch, "zoo")
        # One string-hash layout for every process: dict and set layouts
        # then repeat from run to run.
        env["PYTHONHASHSEED"] = "0"
        env.update(dict.fromkeys(BLAS_VARS, "1"))
        self.env = env

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left

    def count(self, checks: dict) -> None:
        self.attempted += checks["attempted"]
        self.failed += checks["failed"]
        self.reasons.extend(checks.get("reasons", []))

    def check(self, ok: bool, reason: str) -> None:
        self.count({"attempted": 1, "failed": 0 if ok else 1,
                    "reasons": [] if ok else [reason]})

    def job(self, name: str, args: dict) -> tuple[dict, float]:
        """Run ``jobs.py name``; returns its report and launch time."""
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, JOBS, name, json.dumps(args)], cwd=ROOT,
                env=self.env, capture_output=True, text=True,
                timeout=self.remaining())
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{name} job timed out") from err
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name} job failed ({proc.returncode}):\n"
                             f"{proc.stderr[-3000:]}")
        report = json.loads(lines[-1])
        if "checks" in report:
            self.count(report["checks"])
        return report, launched

    def launch_server(self, checkpoint: str):
        """Start a traced server process; returns it and its URL once it
        gives a good answer to the checkpoint's sample request."""
        proc = subprocess.Popen(
            [sys.executable, JOBS, "server",
             json.dumps({"checkpoint": checkpoint, "trace": True})],
            cwd=ROOT, env=self.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.children.append(proc)
        ready, _, _ = select.select([proc.stdout], [], [], self.remaining())
        line = proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("server did not start:\n" + _drain(proc))
        url = f"http://127.0.0.1:{json.loads(line)['port']}"
        with open(os.path.join(checkpoint, "meta.json")) as handle:
            body = json.dumps(json.load(handle)["sample"]).encode()
        while True:
            request = urllib.request.Request(
                f"{url}/predict", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(request, timeout=self.remaining()) as resp:
                    if resp.status == 200 and "logits" in json.loads(resp.read()):
                        break
            except (urllib.error.URLError, ConnectionError):
                if proc.poll() is not None:
                    raise BenchError("server exited:\n" + _drain(proc))
                time.sleep(0.01)
        self.check(True, "")
        return proc, url

    def stop_server(self, proc) -> dict:
        try:
            out, err = proc.communicate("stop\n", timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise BenchError("server did not stop") from exc
        self.children.remove(proc)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"server failed ({proc.returncode}):\n{err[-3000:]}")
        report = json.loads(lines[-1])
        self.check(report["worker_errors"] == 0,
                   f"server worker errors: {report['worker_errors']}")
        return report

    def close(self) -> None:
        for proc in self.children:
            proc.kill()
            proc.communicate()
        self.children.clear()
        shutil.rmtree(self.scratch, ignore_errors=True)


def _drain(proc) -> str:
    proc.kill()
    _, err = proc.communicate()
    return err[-3000:]


# ----------------------------------------------------------------------
# one pass of a workload's pipeline
# ----------------------------------------------------------------------
#: Fit metrics: the median fit's paced value (see pace.py).  An epoch
#: metric is each fit's mean epoch (Table XI's seconds per epoch); a median
#: pooled over epochs would jump, because search epochs shrink as tau
#: anneals (branch skipping).
FIT_METRICS = ("fit_s", "search_epoch_s", "finetune_epoch_s")


def _fit_values(report: dict) -> dict:
    fits = report["fits"]
    values = {name: statistics.median(f[name] for f in fits) for name in FIT_METRICS}
    values["test_roc_auc"] = fits[0]["auc"]
    return values


def _setup_value(setups) -> float:
    """``setup_s``: the median set-up of ``[(wall seconds, slowdown), ...]``
    at the reference pace."""
    return statistics.median(wall / slowdown for wall, slowdown in setups)


def _wall_notes(fit: dict, stage: dict, setups) -> dict:
    """The unpaced wall values behind the paced metrics, and the host's
    mean slowdown over the fits."""
    fits = fit["fits"]
    notes = {name: statistics.median(f["wall"][name] for f in fits)
             for name in FIT_METRICS}
    notes["setup_s"] = statistics.median(wall for wall, _ in setups)
    notes["fit_slowdown"] = statistics.median(f["slowdown"] for f in fits)
    notes["throughput_rps"] = stage["wall_throughput_rps"]
    notes["latency"] = stage["wall_latency"]
    return notes


def pipeline(session: Session, workload: str, seed: int, work: dict,
             trace: bool) -> dict:
    """Set up, fit and serve once; returns the end-to-end values, the
    traced processes' reports, the primary process's CPU per wall second
    and the environment record."""
    fit_args = {"fits": work["fits"], "seed": seed, "trace": trace,
                "scratch": session.scratch}
    if workload == "fit_small":
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            report, launched = session.job("setup", {})
            setups.append((report["ready"] - launched, report["setup_slowdown"]))
            session.check(True, "")
        fit, launched = session.job("fit", {**fit_args, "predict": work["predict"]})
        setups.append((fit["ready"] - launched, fit["setup_slowdown"]))
        stage = fit["predict"]
        values = {**_fit_values(fit), "setup_s": _setup_value(setups),
                  "peak_rss_mb": fit["rss_mb"],
                  "throughput_rps": stage["throughput_rps"],
                  "latency_p50_ms": stage["latency"]["p50_ms"],
                  "latency_p99_ms": stage["latency"]["p99_ms"]}
        return {"values": values, "traces": [fit["trace"]],
                "cpu_per_wall": fit["cpu_per_wall"], "env": fit["env"],
                "latency": stage["latency"], "fits": len(fit["fits"]),
                "wall": _wall_notes(fit, stage, setups)}

    # serve_batch trains, then deploys the model it trained.
    checkpoint = tempfile.mkdtemp(prefix="model-", dir=session.scratch)
    fit, _ = session.job("fit", {**fit_args, "checkpoint": checkpoint})
    serve_args = {"checkpoint": checkpoint, "seed": seed, "trace": trace}
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        report, launched = session.job("serve_batch", {**serve_args, "passes": 0})
        setups.append((report["ready"] - launched, report["setup_slowdown"]))
    serve, launched = session.job("serve_batch",
                                  {**serve_args, "passes": work["passes"]})
    setups.append((serve["ready"] - launched, serve["setup_slowdown"]))
    values = {**_fit_values(fit), "setup_s": _setup_value(setups),
              "peak_rss_mb": serve["rss_mb"],
              "throughput_rps": serve["throughput_rps"],
              "latency_p50_ms": serve["latency"]["p50_ms"],
              "latency_p99_ms": serve["latency"]["p99_ms"]}
    result = {"values": values, "traces": [fit["trace"], serve["trace"]],
              "cpu_per_wall": serve["cpu_per_wall"], "env": serve["env"],
              "latency": serve["latency"], "fits": len(fit["fits"]),
              "wall": _wall_notes(fit, serve, setups),
              "max_rel_error": serve["max_rel_error"]}
    if trace:
        client, server = http_leg(session, checkpoint, seed)
        result["traces"] += [client["trace"], server["trace"]]
        result["http"] = {"throughput_rps": client["throughput_rps"],
                          "latency": client["latency"]}
    return result


def http_leg(session: Session, checkpoint: str, seed: int) -> tuple[dict, dict]:
    """A traced closed loop of two HTTP connections against a traced server
    process serving ``checkpoint``, so that the transport and server
    layers are measured.  Its times are no end-to-end metric: the loop's
    latency is mostly the router deadline and socket waits, and spread up
    to 0.62 over ten runs of one code when the host was contended."""
    proc, url = session.launch_server(checkpoint)
    client, _ = session.job("http_client", {"checkpoint": checkpoint, "url": url,
                                            "seed": seed, "trace": True,
                                            "requests": HTTP_REQUESTS})
    return client, session.stop_server(proc)


def check_trace(session: Session, workload: str, traces: list, metrics: dict) -> None:
    """Per traced process: the self times counted on the root's thread add
    up to the root's wall time, which fails when spans from outside the
    measured phase are counted; no other thread counts more than that wall
    time.  And the layers the workload exists for were entered."""
    for report in traces:
        wall = report["wall_s"]
        gap = report["root_thread_self_s"] - wall
        session.check(abs(gap) <= 1e-6 * max(1.0, wall),
                      f"root-thread self times miss the root's wall time by {gap:.3g} s")
        session.check(report["other_thread_max_self_s"] <= wall * (1 + 1e-6),
                      f"a thread counted {report['other_thread_max_self_s']:.3g} s "
                      f"in a {wall:.3g} s phase")
    for name in ENTERED[workload]:
        session.check(metrics[name] > 0, f"traced run did not enter {name}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 declared: dict) -> tuple[dict, Session, dict]:
    """One benchmark run of ``workload``; returns its metrics (the
    declared end-to-end or per-layer set), the session with its
    operation counts, and notes for the report."""
    session = Session(time.monotonic() + RUN_LIMIT_S)
    try:
        if not trace:
            result = pipeline(session, workload, seed, plan(workload, seconds), False)
            metrics = result["values"]
            notes = {"fits": result["fits"], "latency": result["latency"],
                     "wall": result["wall"],
                     "max_rel_error": result.get("max_rel_error")}
        else:
            # An untraced and a traced half, one fit each.
            work = plan(workload, seconds / 2, fits=1)
            plain = pipeline(session, workload, seed, work, False)
            traced = pipeline(session, workload, seed, work, True)
            session.check(traced["values"]["test_roc_auc"]
                          == plain["values"]["test_roc_auc"],
                          "tracing changed the test ROC-AUC")
            overhead = {key: traced["values"][key] - plain["values"][key]
                        for key in ("fit_s", "throughput_rps")}
            metrics = layer_metrics(traced["traces"], traced["cpu_per_wall"], overhead)
            check_trace(session, workload, traced["traces"], metrics)
            result = traced
            notes = {"untraced": plain["values"], "traced": traced["values"],
                     "http": traced.get("http"),
                     "backends": backend_tags(traced["traces"])}
        notes["env"] = {**result["env"], "seed": seed, "workload": workload}
    finally:
        session.close()
    missing = set(declared) ^ set(metrics)
    if missing:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    return {name: metrics[name] for name in declared}, session, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminate as an exception, so running jobs are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    os.makedirs(WORK, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    out_metrics, attempted, failed, ok = {}, 0, 0, True
    for workload in workloads:
        try:
            metrics, session, notes = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), declared)
        except BenchError as err:
            print(f"perfbench: {workload}: {err}", file=sys.stderr)
            return 1
        print(json.dumps({"environment": notes.pop("env")}))
        print(json.dumps({"notes": notes}))
        for name, value in metrics.items():
            print(f"{workload:12s} {name:42s} {value:14.6g} {declared[name]}")
        print(f"{workload:12s} operations attempted={session.attempted} "
              f"succeeded={session.attempted - session.failed} "
              f"failed={session.failed}")
        for reason in session.reasons[:10]:
            print(f"{workload:12s} FAILED: {reason}")
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in metrics.items():
            out_metrics[prefix + name] = {"value": value, "unit": declared[name]}
        attempted += session.attempted
        failed += session.failed
        ok = ok and session.failed == 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
