"""Context-local execution state: ``no_grad`` / ``use_backend`` across threads.

PR 5 replaced the process-global list-stacks behind ``is_grad_enabled`` and
``active_backend`` with ``contextvars.ContextVar`` state.  These tests pin
the semantics the concurrent serving runtime depends on:

* thread isolation — entering ``no_grad`` / ``use_backend`` in one thread
  never changes what another thread observes;
* fresh threads start from the defaults (grad enabled, fast backend) —
  they do *not* inherit the spawning thread's nesting;
* the public single-thread behaviour (nesting, exception unwind, reuse of
  one context-manager instance) is unchanged.

Plus the repeated-index scatter-plan cache behind ``gather`` /
``__getitem__`` adjoints: bit-identical to ``np.add.at``, hit on repeated
arrays *and* repeated views of one base, bypassed for one-shot arrays,
negative indices and the legacy backend.
"""

import threading

import numpy as np
import pytest

from repro.nn import (
    Tensor,
    active_backend,
    gather,
    is_grad_enabled,
    no_grad,
    scatter_add,
    use_backend,
)
from repro.nn import segment as segment_mod


def run_in_thread(fn):
    """Run ``fn`` in a fresh thread, propagating exceptions and the result."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as err:  # pragma: no cover - assertion carrier
            box["error"] = err

    t = threading.Thread(target=target)
    t.start()
    t.join()
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestGradStateThreadIsolation:
    def test_fresh_thread_defaults_to_grad_enabled(self):
        with no_grad():
            assert not is_grad_enabled()
            assert run_in_thread(is_grad_enabled)  # not inherited
            assert not is_grad_enabled()

    def test_no_grad_in_thread_does_not_leak_out(self):
        entered = threading.Event()
        release = threading.Event()
        observed = {}

        def worker():
            with no_grad():
                entered.set()
                release.wait(timeout=10)
                observed["inside"] = is_grad_enabled()

        t = threading.Thread(target=worker)
        t.start()
        assert entered.wait(timeout=10)
        # Main thread: unaffected while the worker sits inside no_grad.
        assert is_grad_enabled()
        x = Tensor(np.ones(3), requires_grad=True)
        assert (x * 2).requires_grad
        release.set()
        t.join()
        assert observed["inside"] is False

    def test_tensors_built_in_no_grad_thread_do_not_track(self):
        def worker():
            with no_grad():
                x = Tensor(np.ones(3), requires_grad=True)
                return x.requires_grad, (x * 2).requires_grad

        assert run_in_thread(worker) == (False, False)

    def test_many_threads_compose_independently(self):
        barrier = threading.Barrier(8, timeout=10)
        failures = []

        def worker(enable):
            try:
                if enable:
                    barrier.wait()
                    if not is_grad_enabled():
                        failures.append("enabled thread saw disabled state")
                else:
                    with no_grad():
                        barrier.wait()
                        if is_grad_enabled():
                            failures.append("no_grad thread saw enabled state")
            except BaseException as err:  # pragma: no cover
                failures.append(repr(err))

        threads = [threading.Thread(target=worker, args=(i % 2 == 0,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_nesting_and_exception_unwind(self):
        assert is_grad_enabled()
        with pytest.raises(RuntimeError):
            with no_grad():
                assert not is_grad_enabled()
                with no_grad():
                    assert not is_grad_enabled()
                    raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_single_instance_reentrant(self):
        guard = no_grad()
        with guard:
            with guard:
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestBackendStateThreadIsolation:
    def test_fresh_thread_defaults_to_fast_backend(self):
        with use_backend("legacy"):
            assert active_backend() == "legacy"
            assert run_in_thread(active_backend) == "compiled"
        assert active_backend() == "compiled"

    def test_legacy_thread_does_not_reroute_others(self):
        entered = threading.Event()
        release = threading.Event()

        def worker():
            with use_backend("legacy"):
                entered.set()
                release.wait(timeout=10)
                return active_backend()

        box = {}
        t = threading.Thread(target=lambda: box.update(r=worker()))
        t.start()
        assert entered.wait(timeout=10)
        assert active_backend() == "compiled"
        release.set()
        t.join()
        assert box["r"] == "legacy"

    def test_single_instance_reentrant_and_nesting(self):
        guard = use_backend("legacy")
        with guard:
            with use_backend("reduceat"):
                assert active_backend() == "reduceat"
                with guard:
                    assert active_backend() == "legacy"
            assert active_backend() == "legacy"
        assert active_backend() == "compiled"


class TestScatterPlanCache:
    def setup_method(self):
        with segment_mod._scatter_plan_lock:
            segment_mod._scatter_plans.clear()

    @pytest.fixture(autouse=True)
    def reduceat(self):
        """The plan cache belongs to the reduceat backend, which still
        serves every process without a compiler; the default compiled
        backend scatters in C and never fills it."""
        with use_backend("reduceat"):
            yield

    def test_scatter_add_matches_add_at_bitwise(self, rng):
        ids = rng.integers(0, 50, size=2000)
        g = rng.normal(size=(2000, 16))
        expected = np.zeros((50, 16))
        np.add.at(expected, ids, g)
        for _ in range(3):  # first call: add.at path; later: cached plan
            assert np.array_equal(scatter_add(g, ids, 50), expected)

    def test_plan_built_on_second_touch_only(self, rng):
        ids = rng.integers(0, 20, size=500)
        g = rng.normal(size=(500, 4))
        scatter_add(g, ids, 20)
        (_, plan), = segment_mod._scatter_plans.values()
        assert plan is None  # first sighting: no plan yet
        scatter_add(g, ids, 20)
        (_, plan), = segment_mod._scatter_plans.values()
        assert plan is not None and plan.num_items == 500

    def test_one_shot_arrays_never_build_plans(self, rng):
        for _ in range(5):
            ids = rng.integers(0, 20, size=100)  # fresh array each time
            scatter_add(rng.normal(size=(100, 2)), ids, 20)
        assert all(plan is None
                   for _, plan in segment_mod._scatter_plans.values())

    def test_repeated_views_of_one_base_hit_one_entry(self, rng):
        base = np.stack([rng.integers(0, 30, size=400)] * 2, axis=1)
        g = rng.normal(size=(400, 8))
        expected = np.zeros((30, 8))
        np.add.at(expected, base[:, 0], g)
        for _ in range(3):  # a *fresh view object* per call, like batch.x[:, 0]
            assert np.array_equal(scatter_add(g, base[:, 0], 30), expected)
        assert len(segment_mod._scatter_plans) == 1
        (_, plan), = segment_mod._scatter_plans.values()
        assert plan is not None

    def test_gather_backward_uses_cache_and_matches_legacy(self, rng):
        weight = rng.normal(size=(40, 8))
        ids = rng.integers(0, 40, size=600)
        g = rng.normal(size=(600, 8))

        def grad_of(backend):
            x = Tensor(weight, requires_grad=True)
            with use_backend(backend):
                gather(x, ids).backward(g)
            return x.grad

        legacy = grad_of("legacy")
        for _ in range(3):
            assert np.array_equal(grad_of("reduceat"), legacy)
        assert any(plan is not None
                   for _, plan in segment_mod._scatter_plans.values())

    def test_getitem_backward_parity_and_fallbacks(self, rng):
        data = rng.normal(size=(25, 4))
        # integer-array, negative-index, slice and bool-mask paths
        indices = (rng.integers(0, 25, size=90),
                   np.array([-1, 3, -5, 3]),
                   slice(2, 11),
                   np.arange(25) % 3 == 0)
        grads = {}
        for backend in ("legacy", "reduceat"):
            with use_backend(backend):
                for index in indices:
                    x = Tensor(data, requires_grad=True)
                    x[index].backward(np.ones_like(x.data[index]))
                    grads.setdefault(backend, []).append(x.grad)
        for a, b in zip(grads["legacy"], grads["reduceat"]):
            assert np.array_equal(a, b)

    def test_legacy_backend_bypasses_cache(self, rng):
        ids = rng.integers(0, 10, size=200)
        with use_backend("legacy"):
            scatter_add(rng.normal(size=(200, 2)), ids, 10)
            scatter_add(rng.normal(size=(200, 2)), ids, 10)
        assert len(segment_mod._scatter_plans) == 0

    def test_dead_base_invalidates_entry(self, rng):
        expected = np.zeros((10, 2))
        ids = np.arange(300) % 10
        g = rng.normal(size=(300, 2))
        np.add.at(expected, ids, g)
        scatter_add(g, ids, 10), scatter_add(g, ids, 10)
        (_, plan), = segment_mod._scatter_plans.values()
        assert plan is not None
        del ids  # plan's base dies; a new array may reuse the id()
        ids2 = (np.arange(300) % 10)[::-1].copy()
        expected2 = np.zeros((10, 2))
        np.add.at(expected2, ids2, g)
        assert np.array_equal(scatter_add(g, ids2, 10), expected2)

    def test_cache_capacity_is_bounded(self, rng):
        keep = [np.arange(50) % 5 for _ in
                range(segment_mod._SCATTER_PLAN_CAPACITY + 40)]
        g = rng.normal(size=(50, 2))
        for ids in keep:
            scatter_add(g, ids, 5)
        assert 0 < len(segment_mod._scatter_plans) \
            <= segment_mod._SCATTER_PLAN_CAPACITY

    def test_concurrent_scatter_adds_are_consistent(self, rng):
        ids = rng.integers(0, 40, size=3000)
        g = rng.normal(size=(3000, 8))
        expected = np.zeros((40, 8))
        np.add.at(expected, ids, g)
        failures = []
        barrier = threading.Barrier(6, timeout=10)

        def worker():
            try:
                barrier.wait()
                with use_backend("reduceat"):  # backend state is per thread
                    for _ in range(10):
                        if not np.array_equal(scatter_add(g, ids, 40),
                                              expected):
                            failures.append("mismatch")
            except BaseException as err:  # pragma: no cover
                failures.append(repr(err))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        (_, plan), = segment_mod._scatter_plans.values()
        assert plan is not None
