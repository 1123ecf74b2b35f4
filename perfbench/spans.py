"""Span recorder for the traced benchmark run, and the wrappers that feed it.

The benchmark's traced run measures per-layer time without changing the
program: :func:`instrument` replaces the public entry points of each
module (class methods, module functions at every import site, and the
per-backend kernel implementations in ``OP_REGISTRY``) with thin wrappers
that open a span around the original call.

Span model (Dapper-style, kept in memory and aggregated when the run
ends): each thread keeps its own stack of open spans.  A span's *self*
time is its duration minus the durations of its direct children, which
are sequential on the same thread and lie inside its interval.
:meth:`Recorder.root` opens a root span around a whole measured phase,
and only spans that close while a root is open are counted, so set-up
and output checks outside the phase add nothing.  On the root's thread
the self times of the root and of every span counted there add up to the
root's duration; on any other thread the counted self time is at most
that duration.  ``run.py`` checks both.

Kernel spans are named ``nn.ops.<op>@<backend>`` — the backend is the one
whose implementation the dispatcher resolved — and ``stats.merge_spans``
folds the backend tags back into ``nn.ops.<op>``.  ``matmul`` and
``concat`` are wrapped at ``Tensor.__matmul__`` and ``concatenate``,
which do not dispatch by backend, so their spans carry no tag.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

#: Kernel ops whose per-backend implementations are wrapped.  matmul and
#: concat are registry ops too, but the model code calls them as
#: ``Tensor.__matmul__`` and ``concatenate``; those are wrapped instead.
REGISTRY_OPS = ("segment_sum", "segment_mean", "segment_max",
                "segment_softmax", "gather_segments", "scatter_add",
                "gather", "lstm_scan")


class Recorder:
    """Per-thread span stacks; per-name call counts and self/total time of
    the spans closed while a root is open."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []  # one state per thread
        self._roots_open = 0
        self.root_wall_s = 0.0

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = {"stack": [], "table": {}, "root": False}
            with self._lock:
                self._threads.append(state)
        return state

    def enter(self, name: str) -> None:
        # [name, start, time covered by direct children]
        self._state()["stack"].append([name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close this thread's innermost span; returns its duration."""
        state = self._state()
        name, start, children = state["stack"].pop()
        duration = self.clock() - start
        if state["stack"]:
            state["stack"][-1][2] += duration
        if self._roots_open:
            row = state["table"].get(name)
            if row is None:
                row = state["table"][name] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += duration - children
            row[2] += duration
        return duration

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def root(self, body):
        """Run ``body()`` inside a root span on this thread, counting the
        spans that close meanwhile on any thread; adds the root's duration
        to ``root_wall_s``."""
        self._state()["root"] = True
        with self._lock:
            self._roots_open += 1
        self.enter("root")
        try:
            return body()
        finally:
            self.root_wall_s += self.exit()
            with self._lock:
                self._roots_open -= 1

    def totals(self) -> dict:
        """``{name: [calls, self_s, total_s]}`` summed over threads."""
        merged: dict = {}
        for table in self._tables():
            for name, (calls, self_s, total_s) in table.items():
                row = merged.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += self_s
                row[2] += total_s
        return merged

    def _tables(self, root: bool | None = None) -> list[dict]:
        with self._lock:
            states = list(self._threads)
        return [dict(s["table"]) for s in states if root in (None, s["root"])]

    def report(self) -> dict:
        """The span totals, the roots' wall time, the self time counted on
        the roots' threads (``root_thread_self_s``, the root itself
        included) and the most counted on any other thread."""
        def self_s(table):
            return sum(row[1] for row in table.values())

        return {"spans": self.totals(), "wall_s": self.root_wall_s,
                "root_thread_self_s": sum(self_s(t) for t in self._tables(True)),
                "other_thread_max_self_s": max(
                    (self_s(t) for t in self._tables(False)), default=0.0)}


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module attribute bound to ``original``
    at ``replacement`` (covers ``from x import f`` import sites)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_method(recorder: Recorder, cls, method: str, name: str) -> None:
    setattr(cls, method, recorder.wrap(name, getattr(cls, method)))


def _wrap_function(recorder: Recorder, function, name: str) -> None:
    _rebind(function, recorder.wrap(name, function))


class QueueWaits:
    """Submit → execute waits of requests sent through ``InferenceServer``.

    ``InferenceServer.submit`` stamps each request graph; the router hands
    the micro-batch's graphs to ``InferenceService.predict``, which reads
    the stamps when execution starts.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stamps: dict = {}
        self._lock = threading.Lock()
        self.waits_ms: list[float] = []

    def stamp(self, graph) -> None:
        with self._lock:
            self._stamps[id(graph)] = self.clock()

    def executed(self, graphs) -> None:
        now = self.clock()
        with self._lock:
            for graph in graphs:
                start = self._stamps.pop(id(graph), None)
                if start is not None:
                    self.waits_ms.append((now - start) * 1e3)


def instrument(recorder: Recorder, waits: QueueWaits | None = None) -> None:
    """Wrap each layer's public entry points.  Call before the objects
    that hold bound entry points (services, routers, servers) are built."""
    import repro.finetune.base as finetune_base
    import repro.nn.optim as optim
    import repro.nn.tensor as tensor
    import repro.pretrain.base as pretrain_base
    import repro.serve.transport as transport
    from repro.core.controller import StrategyController
    from repro.core.search import S2PGNNSearcher
    from repro.core.supernet import S2PGNNSupernet
    from repro.graph.graph import Batch
    from repro.nn.ops import OP_REGISTRY
    from repro.serve import InferenceServer, InferenceService

    _wrap_function(recorder, pretrain_base.pretrain, "pretrain")
    _wrap_method(recorder, S2PGNNSupernet, "forward_full", "core.supernet.forward")
    _wrap_method(recorder, StrategyController, "sample", "core.controller.sample")
    _wrap_method(recorder, S2PGNNSearcher, "evaluate_spec",
                 "core.search.evaluate_spec")
    _wrap_function(recorder, finetune_base.evaluate_model, "finetune.evaluate")
    _wrap_method(recorder, tensor.Tensor, "backward", "nn.tensor.backward")
    _wrap_method(recorder, tensor.Tensor, "__matmul__", "nn.ops.matmul")
    _wrap_function(recorder, tensor.concatenate, "nn.ops.concat")
    for op in REGISTRY_OPS:
        impls = OP_REGISTRY.get(op).impls
        for backend, impl in list(impls.items()):
            impls[backend] = recorder.wrap(f"nn.ops.{op}@{backend}", impl)
    # The dispatchers cache the implementation they resolved; drop those
    # caches so calls made before this point do not bypass the wrappers.
    for table in OP_REGISTRY._tables.values():
        table.clear()
    _wrap_method(recorder, optim.Adam, "step", "nn.optim.adam_step")
    _wrap_function(recorder, optim.clip_grad_norm, "nn.optim.clip_grad_norm")
    _wrap_method(recorder, Batch, "__init__", "graph.collate")
    for plan in ("edge_plan", "edge_src_plan", "node_plan"):
        _wrap_method(recorder, Batch, plan, "graph.plan_build")
    _wrap_function(recorder, transport.graph_from_payload,
                   "serve.transport.decode")
    _wrap_method(recorder, transport.ServingProtocol, "handle",
                 "serve.transport.handle")
    _wrap_method(recorder, transport.HTTPServingClient, "_post",
                 "serve.transport.client")

    predict = recorder.wrap("serve.service.predict", InferenceService.predict)
    if waits is None:
        InferenceService.predict = predict
        return
    submit = InferenceServer.submit

    def stamped_submit(self, graph, spec):
        waits.stamp(graph)
        return submit(self, graph, spec)

    def timed_predict(self, graphs, spec, batch_size=None):
        waits.executed(graphs)
        return predict(self, graphs, spec, batch_size)

    InferenceServer.submit = stamped_submit
    InferenceService.predict = timed_predict
