"""The benchmark's child processes.  Each job runs in a fresh interpreter
started by ``run.py`` and prints one JSON object as its last stdout line.

Jobs (``python3 perfbench/jobs.py <job> '<json args>'``, with ``src`` on
``PYTHONPATH``):

``setup``       import the library and generate the fit dataset, then exit:
                one sample of the fit workloads' set-up time.
``fit``         the paper's pipeline — ``get_pretrained`` into a fresh zoo
                directory, then ``S2PGNNFineTuner.fit`` (search, fine-tune,
                test split) — a given number of times; then the predict
                stage, or a checkpoint of the fitted model for the serve
                workloads.
``serve_batch`` in-process ``BatchingRouter`` flush-on-size scoring of a
                request pool under the float32 serving policy.
``server``      an ``InferenceServer`` behind the HTTP transport, serving
                the checkpoint until a line arrives on stdin.
``http_client`` a closed loop of two connections against ``server``.

Every job does a fixed amount of work, which ``run.py`` sets from the
run's seconds: how long a run takes follows the program's speed, while
what it measures does not.

Every job that measures time stamps it with ``time.monotonic`` so that
``run.py`` can time process launches (system-wide clock on Linux).
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import tempfile
import threading
import time
from array import array

import numpy as np

from pace import Pace
from spans import QueueWaits, Recorder, instrument
from stats import latency_summary, paced, smoothed

#: The fit pipeline: BBBP-shaped dataset, ContextPred-pretrained 5-layer
#: GIN, search and fine-tune at the library's BENCH_SCALE (the quickstart
#: and Table XI configuration).  Fixed, so every run does the same work;
#: the seed picks the molecules sent to the fitted model.
FIT = {"dataset": "bbbp", "size": 240, "num_layers": 5, "emb_dim": 32,
       "corpus_size": 160, "pretrain_epochs": 2, "search_epochs": 6,
       "finetune_epochs": 15, "patience": 15, "seed": 0}
#: Serving micro-batch size (the router's flush-on-size trigger).
MICRO_BATCH = 32
#: Served logits vs a float64 one-graph reference, relative to
#: max(1, |reference|) (logits reach ~70 here).  Float32 serving measured
#: up to 1e-5; float64 rows differ only in rounding, because micro-batch
#: composition changes BLAS reduction shapes.
FLOAT32_RTOL = 1e-4
FLOAT64_RTOL = 1e-9
#: Served graphs whose logits are checked against the reference per run.
CHECK_SAMPLE = 64
#: One-graph requests per pace probe: a probe takes about as long as a
#: request, and the host's phases last a second or more.
SINGLES_PER_PROBE = 4
#: Pace probes right after a set-up; the set-up time is paced by their
#: mean slowdown.
SETUP_PROBES = 20


def peak_rss_mb() -> float:
    """High-water resident set size of this process in MB (Linux reports
    ``ru_maxrss`` in KB).  Jobs are started by the stdlib-only ``run.py``,
    whose own small footprint is the floor this reading inherits at exec."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import platform

    import scipy

    from repro.nn.compiled import compiled_status

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "compiled": compiled_status(),
    }


def request_pool(seed: int, count: int):
    """``count`` new molecules picked by ``seed``.  Every seed draws from
    one scaffold library, disjoint from the registry datasets' generators,
    so seeds change the molecules but not their size distribution (which
    sets how much work and workspace memory a micro-batch takes)."""
    from repro.graph.molecule import MoleculeGenerator

    generator = MoleculeGenerator(num_scaffolds=80, seed=100_000)
    return generator.generate_many(count, start=seed * count)


def logits_close(actual, expected, rtol: float) -> bool:
    actual = np.asarray(actual, dtype=np.float64)
    return bool(np.all(np.abs(actual - expected)
                       <= rtol * np.maximum(1.0, np.abs(expected))))


class Checks:
    """Counts operations and failed checks; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, ok: bool = True, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "reasons": self.reasons}


def trace_report(recorder: Recorder | None, **gauges) -> dict | None:
    if recorder is None:
        return None
    return {**recorder.report(), "gauges": gauges}


def measured(recorder: Recorder | None, body):
    """Run ``body`` (inside a root span when tracing); returns its result
    and the process CPU time per wall second it took."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = recorder.root(body) if recorder is not None else body()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return result, cpu / wall


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------
class EpochTimer:
    """Times every full iteration of the loaders the search and fine-tune
    loops create, by swapping a timing subclass in for the ``DataLoader``
    name of those two modules, and probes the host's pace after each batch
    (outside the sweep's time).  A search epoch is its train-split sweep
    (theta steps) plus its validation sweep (alpha steps); a fine-tune
    epoch is its training-batch sweep, as ``seconds_per_epoch`` counts."""

    def __init__(self, pace: Pace):
        import repro.core.search as search
        import repro.finetune.base as finetune

        self.pace = pace
        #: ``{(module tag, loader index): [(seconds, paced seconds), ...]}``
        self.sweeps: dict = {}
        #: Every probe since the last ``reset``.
        self.slowdowns: list[float] = []
        self._created: dict = {}
        for tag, module in (("search", search), ("finetune", finetune)):
            module.DataLoader = self._timed(tag, module.DataLoader)

    def _timed(self, tag, base):
        timer = self

        class TimedLoader(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                index = timer._created.get(tag, 0)
                timer._created[tag] = index + 1
                self._sweeps = timer.sweeps.setdefault((tag, index), [])

            def __iter__(self):
                # A batch's time runs from the loader's request for it to
                # the request for the next: collation plus the loop's step.
                seconds, slowdowns = 0.0, []
                start = time.perf_counter()
                try:
                    for batch in super().__iter__():
                        yield batch
                        seconds += time.perf_counter() - start
                        slowdowns.append(timer.pace.probe())
                        start = time.perf_counter()
                finally:
                    seconds += time.perf_counter() - start
                    if not slowdowns:
                        slowdowns.append(timer.pace.probe())
                    timer.slowdowns.extend(slowdowns)
                    self._sweeps.append((seconds, paced(seconds, slowdowns)))

        return TimedLoader

    def reset(self) -> None:
        self.sweeps.clear()
        self.slowdowns.clear()
        self._created.clear()

    def search_epochs(self) -> list[tuple[float, float]]:
        theta = self.sweeps.get(("search", 0), [])
        alpha = self.sweeps.get(("search", 1), [])
        return [(a + b, a_paced + b_paced)
                for (a, a_paced), (b, b_paced) in zip(theta, alpha)]

    def finetune_epochs(self) -> list[tuple[float, float]]:
        return list(self.sweeps.get(("finetune", 0), []))


def _fit_dataset():
    from repro.graph import load_dataset

    return load_dataset(FIT["dataset"], size=FIT["size"])


def _fit_once(dataset, zoo_dir: str):
    from repro import S2PGNNFineTuner, SearchConfig
    from repro.core.api import FineTuneConfig
    from repro.pretrain import get_pretrained

    def encoder():
        return get_pretrained(
            "contextpred", "gin", num_layers=FIT["num_layers"],
            emb_dim=FIT["emb_dim"], corpus_size=FIT["corpus_size"],
            epochs=FIT["pretrain_epochs"], seed=FIT["seed"], cache_dir=zoo_dir)

    tuner = S2PGNNFineTuner(
        encoder,
        search_config=SearchConfig(epochs=FIT["search_epochs"], seed=FIT["seed"]),
        finetune_config=FineTuneConfig(epochs=FIT["finetune_epochs"],
                                       patience=FIT["patience"]),
        seed=FIT["seed"])
    return tuner, tuner.fit(dataset)


class PredictStage:
    """The pipeline's predict step on new molecules, one slice after each
    fit, so it samples the whole run: ``rounds`` throughput rounds
    (``tuner.predict`` over the pool in requests of ``MICRO_BATCH``
    graphs), then ``singles`` one-graph requests (latency).  Every request
    is collated afresh — the batch cache is cleared before it, outside the
    timing — as for molecules the model has not seen.  Each one-graph
    answer must match the row its batched request gave.  The host's pace
    is probed after every batched request and every ``SINGLES_PER_PROBE``
    one-graph requests.  Throughput is the graphs of all rounds over their
    time at the reference pace; each latency is divided by the slowdown
    probed around it (``stats.smoothed``)."""

    def __init__(self, pool, rounds: int, singles: int, seed: int,
                 checks: Checks, pace: Pace):
        self.pool, self.rounds, self.singles = pool, rounds, singles
        self.rng = np.random.default_rng(seed)
        self.checks, self.pace = checks, pace
        self.graphs, self.elapsed, self.round_slowdowns = 0, 0.0, array("d")
        self.latencies, self.stamps = array("d"), array("d")

    def slice(self, tuner) -> None:
        pool, cache, checks = self.pool, tuner.batch_cache, self.checks
        batched = {}
        for _ in range(self.rounds):
            for i in range(0, len(pool), MICRO_BATCH):
                request = pool[i:i + MICRO_BATCH]
                cache.invalidate()
                start = time.perf_counter()
                logits = tuner.predict(request, batch_size=MICRO_BATCH)
                self.elapsed += time.perf_counter() - start
                self.round_slowdowns.append(self.pace.probe())
                self.graphs += len(request)
                checks.op(logits.shape == (len(request), tuner.model_.num_tasks)
                          and bool(np.isfinite(logits).all()),
                          f"predict returned shape {logits.shape}")
                batched.update(zip(range(i, i + len(request)), logits))
        picks = self.rng.integers(0, len(pool), size=self.singles)
        for first in range(0, len(picks), SINGLES_PER_PROBE):
            group = picks[first:first + SINGLES_PER_PROBE]
            for index in group:
                cache.invalidate()
                start = time.perf_counter()
                logits = tuner.predict([pool[index]])
                self.latencies.append((time.perf_counter() - start) * 1e3)
                self.stamps.append(time.monotonic())
                checks.op(logits_close(logits[0], batched[index], FLOAT64_RTOL),
                          f"one-graph logits of graph {index} differ from batched")
            self.pace.probe()

    def report(self) -> dict:
        return {"throughput_rps": self.graphs / paced(self.elapsed, self.round_slowdowns),
                "wall_throughput_rps": self.graphs / self.elapsed,
                "latency": latency_summary(self.latencies, smoothed(
                    self.stamps, self.pace.stamps, self.pace.slowdowns)),
                "wall_latency": latency_summary(self.latencies)}


def setup_slowdown() -> float:
    """The host's slowdown just after a set-up (see ``pace.py``)."""
    pace = Pace()
    for _ in range(SETUP_PROBES):
        pace.probe()
    return statistics.fmean(pace.slowdowns)


def job_setup(args) -> dict:
    _fit_dataset()  # imports the whole package on the way
    return {"ready": time.monotonic(), "setup_slowdown": setup_slowdown()}


def job_fit(args) -> dict:
    """``args["fits"]`` fits, each followed by a predict slice
    (``args["predict"]`` gives its rounds and singles); or a checkpoint of
    the last fitted model."""
    import shutil

    dataset = _fit_dataset()
    ready = time.monotonic()
    slowdown = setup_slowdown()
    plan = args.get("predict")
    recorder = Recorder() if args["trace"] else None
    if recorder is not None:
        instrument(recorder)
    pace = Pace()
    timer = EpochTimer(pace)
    checks = Checks()
    stage = (PredictStage(request_pool(args["seed"], 1024), plan["rounds"],
                          plan["singles"], args["seed"], checks, pace)
             if plan else None)

    def body():
        fits, tuner = [], None
        for _ in range(args["fits"]):
            timer.reset()
            zoo = tempfile.mkdtemp(prefix="zoo-", dir=args["scratch"])
            begin, probing = time.perf_counter(), pace.spent
            tuner, result = _fit_once(dataset, zoo)
            wall = time.perf_counter() - begin - (pace.spent - probing)
            shutil.rmtree(zoo, ignore_errors=True)
            search, finetune = timer.search_epochs(), timer.finetune_epochs()
            checks.op(len(search) == FIT["search_epochs"]
                      and len(finetune) == len(result.train_losses),
                      "epoch sweeps not observed")
            fit = {"fit_s": paced(wall, timer.slowdowns),
                   "search_epoch_s": statistics.fmean(p for _, p in search),
                   "finetune_epoch_s": statistics.fmean(p for _, p in finetune),
                   "auc": float(result.test_score),
                   "wall": {"fit_s": wall,
                            "search_epoch_s": statistics.fmean(s for s, _ in search),
                            "finetune_epoch_s": statistics.fmean(s for s, _ in finetune)},
                   "slowdown": statistics.fmean(timer.slowdowns)}
            checks.op(bool(np.isfinite(fit["auc"])), "test ROC-AUC not finite")
            fits.append(fit)
            if stage is not None:
                stage.slice(tuner)
        return fits, tuner

    (fits, tuner), cpu_per_wall = measured(recorder, body)
    checks.op(len({fit["auc"] for fit in fits}) == 1,
              "test ROC-AUC differs between identical fits")
    if args.get("checkpoint"):
        _write_checkpoint(tuner, args["checkpoint"])
    cache = tuner.batch_cache.stats()
    return {
        "ready": ready, "setup_slowdown": slowdown, "fits": fits,
        "rss_mb": peak_rss_mb(),
        "predict": stage.report() if stage is not None else None,
        "cpu_per_wall": cpu_per_wall,
        "checks": checks.as_dict(), "env": environment(),
        "trace": trace_report(recorder, cache_hits=cache["hits"],
                              cache_misses=cache["misses"]),
    }


def _write_checkpoint(tuner, directory: str) -> None:
    from repro.serve import InferenceService
    from repro.serve.transport import graph_to_payload, spec_to_payload

    os.makedirs(directory, exist_ok=True)
    service = InferenceService.from_tuner(tuner)
    service.models.save_checkpoint(tuner.best_spec_,
                                   os.path.join(directory, "model.npz"))
    sample = request_pool(0, 1)[0]
    meta = {"spec": spec_to_payload(tuner.best_spec_),
            "num_tasks": tuner.model_.num_tasks,
            "sample": {"graph": graph_to_payload(sample),
                       "spec": spec_to_payload(tuner.best_spec_)}}
    with open(os.path.join(directory, "meta.json"), "w") as handle:
        json.dump(meta, handle)


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def _load_checkpoint(directory: str):
    from repro.serve.transport import spec_from_payload

    with open(os.path.join(directory, "meta.json")) as handle:
        meta = json.load(handle)
    return meta, spec_from_payload(meta["spec"])


def _service(directory: str, meta, spec, **kwargs):
    """A fresh ``InferenceService`` serving the checkpointed model."""
    from repro.gnn import GNNEncoder
    from repro.serve import InferenceService

    def encoder():
        return GNNEncoder("gin", num_layers=FIT["num_layers"],
                          emb_dim=FIT["emb_dim"], seed=FIT["seed"])

    service = InferenceService(encoder, meta["num_tasks"], seed=FIT["seed"],
                               **kwargs)
    service.models.load_checkpoint(spec, os.path.join(directory, "model.npz"))
    return service


def _check_against_reference(directory, meta, spec, served: dict, pool,
                             rtol: float, checks: Checks) -> float:
    """Compare served logits (``{pool index: logits}``) with a float64
    in-process ``InferenceService.predict`` of each graph alone; returns
    the largest error relative to max(1, |reference|)."""
    reference = _service(directory, meta, spec, logit_cache_size=0)
    worst = 0.0
    for index, logits in sorted(served.items()):
        expected = reference.predict([pool[index]], spec)[0]
        error = np.abs(np.asarray(logits, dtype=np.float64) - expected)
        worst = max(worst, float((error / np.maximum(1.0, np.abs(expected))).max()))
        checks.op(logits_close(logits, expected, rtol),
                  f"served logits of graph {index} off by {error.max():.3g}")
    return worst


def job_serve_batch(args) -> dict:
    """Load the checkpoint, build the service and router, run one warm
    batch (``ready`` is stamped then), and serve ``args["passes"]`` passes;
    with no passes the job ends at ``ready``, as a set-up probe."""
    from repro.serve.transport import graph_from_payload

    recorder = Recorder() if args["trace"] else None
    if recorder is not None:
        instrument(recorder)
    checks = Checks()
    meta, spec = _load_checkpoint(args["checkpoint"])
    service = _service(args["checkpoint"], meta, spec, policy="float32",
                       logit_cache_size=0)
    router = service.router(max_batch_size=MICRO_BATCH)
    sample = graph_from_payload(meta["sample"]["graph"])
    warm = [router.submit(sample, spec) for _ in range(MICRO_BATCH)]
    checks.op(all(ticket.done for ticket in warm), "warm batch did not run")
    ready = time.monotonic()
    slowdown = setup_slowdown()
    if not args["passes"]:
        return {"ready": ready, "setup_slowdown": slowdown, "checks": checks.as_dict()}
    pool = request_pool(args["seed"], 2048)
    rng = np.random.default_rng(args["seed"])
    sampled = set(rng.choice(len(pool), size=CHECK_SAMPLE, replace=False).tolist())
    pace = Pace()

    def body():
        """``args["passes"]`` shuffled passes over the pool, probing the
        host's pace after each micro-batch.  The work is fixed rather than
        timed because the process grows with the requests it has served
        (each new micro-batch shape leaves workspace buffers), and a faster
        program must not read as a larger one."""
        # Latencies as C doubles: a list of Python floats would grow the
        # process by ~30 B per request.
        latencies, stamps, served = array("d"), array("d"), {}
        start, probing = time.perf_counter(), pace.spent
        for _ in range(args["passes"]):
            pending = []
            for index in rng.permutation(len(pool)):
                pending.append((index, router.submit(pool[index], spec),
                                time.perf_counter()))
                if not pending[-1][1].done:
                    continue
                finished = time.perf_counter()
                stamp = time.monotonic()
                pace.probe()
                for i, ticket, submitted in pending:
                    try:
                        logits = ticket.result()
                    except RuntimeError as err:
                        checks.op(False, f"routed request failed: {err}")
                        continue
                    checks.op()
                    latencies.append((finished - submitted) * 1e3)
                    stamps.append(stamp)
                    if i in sampled:
                        served[i] = logits
                pending = []
        wall = time.perf_counter() - start - (pace.spent - probing)
        return latencies, stamps, served, wall

    (latencies, stamps, served, wall), cpu_per_wall = measured(recorder, body)
    worst = _check_against_reference(args["checkpoint"], meta, spec, served,
                                     pool, FLOAT32_RTOL, checks)
    stats = service.stats()
    workspace = stats["policy"]["workspace"]
    router_stats = router.stats()
    return {
        "ready": ready, "setup_slowdown": slowdown,
        "throughput_rps": len(latencies) / paced(wall, pace.slowdowns),
        "wall_throughput_rps": len(latencies) / wall,
        "latency": latency_summary(latencies, smoothed(stamps, pace.stamps,
                                                       pace.slowdowns)),
        "wall_latency": latency_summary(latencies),
        "rss_mb": peak_rss_mb(), "cpu_per_wall": cpu_per_wall,
        "max_rel_error": worst, "checks": checks.as_dict(), "env": environment(),
        "trace": trace_report(
            recorder, cache_hits=stats["batches"]["hits"],
            cache_misses=stats["batches"]["misses"],
            logit_hits=stats["logits"]["hits"],
            logit_misses=stats["logits"]["misses"],
            workspace_hits=workspace["hits"], workspace_misses=workspace["misses"],
            router_served=router_stats["served"],
            router_batches=router_stats["batches"],
            deadline_flushes=router_stats["flushes"]["deadline"]),
    }


def job_server(args) -> dict:
    """Serve until stdin delivers a line; the ready line carries the port."""
    from repro.serve import HTTPServingTransport, InferenceServer

    meta, spec = _load_checkpoint(args["checkpoint"])
    recorder, waits = (Recorder(), QueueWaits()) if args["trace"] else (None, None)
    if recorder is not None:
        instrument(recorder, waits)
    service = _service(args["checkpoint"], meta, spec)
    server = InferenceServer(service).start()
    transport = HTTPServingTransport(server).start()
    print(json.dumps({"port": transport.port}), flush=True)
    _, cpu_per_wall = measured(recorder, sys.stdin.readline)
    transport.stop()
    server.stop()
    stats = server.stats()
    return {
        "rss_mb": peak_rss_mb(), "cpu_per_wall": cpu_per_wall,
        "worker_errors": stats["server"]["worker_errors"], "env": environment(),
        "trace": trace_report(
            recorder, cache_hits=stats["batches"]["hits"],
            cache_misses=stats["batches"]["misses"],
            logit_hits=stats["logits"]["hits"],
            logit_misses=stats["logits"]["misses"],
            router_served=stats["server_router"]["served"],
            router_batches=stats["server_router"]["batches"],
            deadline_flushes=stats["server_router"]["flushes"]["deadline"],
            executed_batches=stats["server"]["executed_batches"],
            queue_waits_ms=waits.waits_ms if waits is not None else []),
    }


def job_http_client(args) -> dict:
    """Two connections in a closed loop: each sends its next request when
    the previous answer arrives, until ``args["requests"]`` have been
    sent.  Requests are drawn with replacement."""
    from repro.serve import HTTPServingClient

    meta, spec = _load_checkpoint(args["checkpoint"])
    pool = request_pool(args["seed"], 1024)
    recorder = Recorder() if args["trace"] else None
    if recorder is not None:
        instrument(recorder)
    checks, lock = Checks(), threading.Lock()
    latencies, served = [], {}
    sampled = set(np.random.default_rng(args["seed"]).choice(
        len(pool), size=CHECK_SAMPLE, replace=False).tolist())

    sent = iter(range(args["requests"]))

    def connection(worker: int) -> None:
        client = HTTPServingClient(args["url"], timeout_s=10.0)
        rng = np.random.default_rng((args["seed"], worker))
        while next(sent, None) is not None:
            index = int(rng.integers(len(pool)))
            start = time.perf_counter()
            try:
                logits = client.predict(pool[index], spec)
            except (RuntimeError, OSError) as err:
                with lock:
                    checks.op(False, f"{type(err).__name__}: {err}")
                continue
            finished = time.perf_counter()
            with lock:
                checks.op(logits.shape == (meta["num_tasks"],),
                          f"response shape {logits.shape}")
                latencies.append((finished - start) * 1e3)
                if index in sampled:
                    served[index] = logits

    def body():
        start = time.perf_counter()
        other = threading.Thread(target=connection, args=(1,))
        other.start()
        connection(0)
        other.join()
        return len(latencies) / (time.perf_counter() - start)

    rate, cpu_per_wall = measured(recorder, body)
    worst = _check_against_reference(args["checkpoint"], meta, spec, served,
                                     pool, FLOAT64_RTOL, checks)
    return {
        "throughput_rps": rate,
        "latency": latency_summary(latencies),
        "cpu_per_wall": cpu_per_wall, "max_rel_error": worst,
        "checks": checks.as_dict(), "trace": trace_report(recorder),
    }


JOBS = {"setup": job_setup, "fit": job_fit, "serve_batch": job_serve_batch,
        "server": job_server, "http_client": job_http_client}


if __name__ == "__main__":
    job, raw = sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else "{}"
    print(json.dumps(JOBS[job](json.loads(raw))), flush=True)
