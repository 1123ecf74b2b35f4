"""The compiled C kernel backend (``repro.nn.compiled``).

Four contracts, layered on top of the registry-driven gradcheck sweep
(which already runs every op × backend when the compiled impls are
registered):

* **late-fill dispatch** — ``register_backend(name, impls=...)`` on an
  already-declared backend must invalidate the cached dispatch tables
  (a dispatcher called before the fill had resolved through the
  fallback chain and would otherwise serve the stale impl forever) and
  reject inconsistent refills;
* **no-compiler degradation** — with compiler discovery stubbed out,
  every public op must stay bit-identical to the reduceat backend,
  ``compiled_status()`` must report ``unavailable``, and *nothing* may
  be written to the build cache;
* **build manager** — first ``load()`` compiles exactly one shared
  object into the cache directory, a reset + reload is a disk-cache
  hit, and the kernels are bit-identical to the reference backends for
  float64 and float32, forward and gradient, including the fused LSTM
  scan and the LSTM/LSTMCell modules that route through it;
* **surfacing** — ``InferenceService.stats()`` and the CLI
  ``backend-info`` target expose the build status.
"""

import os

import numpy as np
import pytest

from repro.gnn import GNNEncoder
from repro.nn import (
    LSTM,
    Tensor,
    no_grad,
    use_backend,
    use_dtype,
)
from repro.nn import rnn as _rnn
from repro.nn.compiled import build, compiled_status
from repro.nn.compiled import kernels as _kernels
from repro.nn.ops import OP_REGISTRY, OpRegistry
from repro.serve import InferenceService

HAVE_CC = build.find_compiler() is not None

needs_cc = pytest.mark.skipif(not HAVE_CC,
                              reason="no C compiler discovered")


def _fresh_registry() -> OpRegistry:
    registry = OpRegistry()
    registry.register_backend("legacy")
    registry.register_backend("reduceat", fallback="legacy")
    registry.register_backend("compiled", fallback="reduceat")
    registry.register(
        "double",
        backends={"legacy": lambda x: 2 * x, "reduceat": lambda x: x * 2},
        adjoint="2 * g", samples=lambda dtype: [])
    return registry


class TestLateBackendFill:
    def test_fill_invalidates_cached_dispatch_tables(self):
        # Regression: pre-fix, the dispatcher's per-backend table kept
        # the fallback resolution cached across a late fill, so the
        # compiled impl registered after first dispatch was never used.
        registry = _fresh_registry()
        dispatch = registry.dispatcher("double")
        with use_backend("compiled"):
            assert dispatch(3) == 6  # resolved through the fallback chain
            registry.register_backend(
                "compiled", impls={"double": lambda x: ("compiled", 2 * x)})
            assert dispatch(3) == ("compiled", 6)

    def test_fill_resolves_for_other_backends_unchanged(self):
        registry = _fresh_registry()
        registry.register_backend(
            "compiled", impls={"double": lambda x: ("compiled", 2 * x)})
        assert registry.resolve("double", "compiled") is \
            registry.get("double").impls["compiled"]
        assert registry.resolve("double", "reduceat") is \
            registry.get("double").impls["reduceat"]

    def test_redeclare_without_impls_rejected(self):
        registry = _fresh_registry()
        with pytest.raises(ValueError, match="already registered"):
            registry.register_backend("compiled", fallback="reduceat")

    def test_inconsistent_fallback_refill_rejected(self):
        registry = _fresh_registry()
        with pytest.raises(ValueError, match="cannot refill"):
            registry.register_backend(
                "compiled", fallback="legacy",
                impls={"double": lambda x: x})

    def test_fill_for_unregistered_op_rejected(self):
        registry = _fresh_registry()
        with pytest.raises(ValueError, match="unregistered op"):
            registry.register_backend(
                "compiled", impls={"phantom": lambda x: x})

    def test_duplicate_impl_rejected(self):
        registry = _fresh_registry()
        registry.register_backend(
            "compiled", impls={"double": lambda x: x})
        with pytest.raises(ValueError, match="already has a 'compiled'"):
            registry.register_backend(
                "compiled", impls={"double": lambda x: x})

    def test_declaring_with_undeclared_fallback_rejected(self):
        registry = OpRegistry()
        with pytest.raises(ValueError, match="undeclared"):
            registry.register_backend("compiled", fallback="reduceat")


def _forward(op_name, backend, sample):
    """One forward through the dispatcher; plain array out."""
    dispatch = OP_REGISTRY.dispatcher(op_name)
    entry = OP_REGISTRY.get(op_name)
    with use_backend(backend):
        if entry.differentiable:
            return dispatch(Tensor(sample.data.copy()), *sample.args).data
        return np.asarray(dispatch(sample.data.copy(), *sample.args))


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """Compiler discovery stubbed out + a private (empty) build cache."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(build, "find_compiler", lambda: None)
    # ``disabled`` (explicit env opt-out) is a distinct status state;
    # this fixture models a machine with no discoverable compiler.
    monkeypatch.delenv("REPRO_COMPILED_DISABLE", raising=False)
    monkeypatch.setenv("REPRO_COMPILED_CACHE", str(cache))
    build.reset()
    yield cache
    build.reset()


class TestNoCompilerDegradation:
    def test_status_reports_unavailable(self, no_compiler):
        status = compiled_status()
        assert status["state"] == "unavailable"
        assert status["compiler"] is None
        assert status["loaded"] is False
        assert status["build_failed"] is False

    def test_load_returns_none(self, no_compiler):
        assert build.load() is None
        assert compiled_status()["attempted"] is True
        assert compiled_status()["state"] == "unavailable"

    def test_every_op_matches_reduceat_bitwise(self, no_compiler):
        for op_name in OP_REGISTRY.ops():
            for sample in OP_REGISTRY.get(op_name).samples(np.float64):
                out = _forward(op_name, "compiled", sample)
                ref = _forward(op_name, "reduceat", sample)
                assert np.array_equal(out, ref), (op_name, sample.label)

    def test_zero_build_cache_writes(self, no_compiler):
        build.load()
        for sample in OP_REGISTRY.get("segment_sum").samples(np.float64):
            _forward("segment_sum", "compiled", sample)
        assert not no_compiler.exists() or list(no_compiler.iterdir()) == []


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """A private empty build cache; build state reset around the test."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_COMPILED_CACHE", str(cache))
    build.reset()
    yield cache
    build.reset()


@pytest.mark.compiled
@needs_cc
class TestBuildManager:
    def test_first_load_builds_one_shared_object(self, fresh_cache):
        lib = build.load()
        assert lib is not None
        names = sorted(os.listdir(fresh_cache))
        assert len(names) == 1 and names[0].endswith(".so")
        assert names[0].startswith("repro_kernels_")
        status = compiled_status()
        assert status["state"] == "available"
        assert status["loaded"] is True
        assert status["disk_cache_hit"] is False
        assert status["cache_dir"] == str(fresh_cache)

    def test_reset_then_reload_hits_the_disk_cache(self, fresh_cache):
        assert build.load() is not None
        before = sorted(os.listdir(fresh_cache))
        build.reset()
        assert build.load() is not None
        assert compiled_status()["disk_cache_hit"] is True
        assert sorted(os.listdir(fresh_cache)) == before

    def test_status_never_triggers_a_build(self, fresh_cache):
        status = compiled_status()
        assert status["state"] == "available"
        assert status["attempted"] is False
        assert not fresh_cache.exists()


@pytest.mark.compiled
@needs_cc
class TestCompiledKernelParity:
    @pytest.mark.parametrize("dtype_name", ["float64", "float32"])
    def test_forward_bitwise_vs_reduceat_and_legacy(self, dtype_name):
        dtype = np.dtype(dtype_name).type
        for op_name in OP_REGISTRY.ops():
            entry = OP_REGISTRY.get(op_name)
            if "compiled" not in entry.impls:
                continue
            for sample in entry.samples(dtype):
                with use_dtype(dtype_name):
                    out = _forward(op_name, "compiled", sample)
                    for reference in ("reduceat", "legacy"):
                        ref = _forward(op_name, reference, sample)
                        assert np.array_equal(out, ref), \
                            (op_name, reference, sample.label)

    def test_lstm_scan_with_state_matches_reference(self):
        entry = OP_REGISTRY.get("lstm_scan")
        for dtype_name in ("float64", "float32"):
            dtype = np.dtype(dtype_name).type
            for sample in entry.samples(dtype):
                with no_grad(), use_dtype(dtype_name):
                    out_c, h_c, c_c = _kernels._lstm_scan_compiled(
                        Tensor(sample.data.copy()), *sample.args,
                        return_state=True)
                    out_r, h_r, c_r = _rnn._lstm_scan_reference(
                        Tensor(sample.data.copy()), *sample.args,
                        return_state=True)
                assert np.array_equal(out_c.data, out_r.data), sample.label
                assert np.array_equal(h_c.data, h_r.data), sample.label
                assert np.array_equal(c_c.data, c_r.data), sample.label

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_lstm_module_scan_matches_tape_forward(self, bidirectional):
        rng = np.random.default_rng(7)
        lstm = LSTM(5, 4, rng, bidirectional=bidirectional)
        steps = [Tensor(rng.normal(size=(3, 5))) for _ in range(4)]
        # Grad mode runs the fused tape cell; no_grad routes through the
        # fused scan. They must agree bitwise per backend.
        tape = [t.data.copy() for t in lstm(steps)]
        for backend in ("legacy", "reduceat", "compiled"):
            with no_grad(), use_backend(backend):
                scanned = lstm(steps)
            for got, want in zip(scanned, tape):
                assert np.array_equal(got.data, want), (backend, bidirectional)

    def test_gradients_route_through_the_reference(self):
        # With grad enabled the compiled backend must delegate to the
        # tape-building reference — gradients stay bitwise identical.
        entry = OP_REGISTRY.get("lstm_scan")
        dispatch = OP_REGISTRY.dispatcher("lstm_scan")
        for sample in entry.samples(np.float64):
            grads = {}
            for backend in ("legacy", "compiled"):
                with use_backend(backend):
                    x = Tensor(sample.data.copy(), requires_grad=True)
                    out = dispatch(x, *sample.args)
                    out.backward(np.ones_like(out.data))
                grads[backend] = (out.data.copy(), x.grad.copy())
            assert np.array_equal(grads["compiled"][0], grads["legacy"][0])
            assert np.array_equal(grads["compiled"][1], grads["legacy"][1])


class TestOperandChecks:
    """Kernels take raw addresses, so the wrappers refuse any buffer a C
    loop would misread: a foreign dtype or a strided view."""

    def test_float_operands(self):
        assert _kernels._fp(np.zeros((3, 2))) != 0
        assert _kernels._fp(np.zeros(3, dtype=np.float32)) != 0
        with pytest.raises(TypeError):
            _kernels._fp(np.zeros(3, dtype=np.int64))
        with pytest.raises(TypeError):
            _kernels._fp(np.zeros((3, 4))[:, ::2])

    def test_index_operands(self):
        assert _kernels._ip(np.arange(3, dtype=np.int64)) != 0
        with pytest.raises(TypeError):
            _kernels._ip(np.arange(3, dtype=np.int32))
        with pytest.raises(TypeError):
            _kernels._ip(np.arange(6, dtype=np.int64)[::2])


def _encoder_factory():
    return GNNEncoder("gin", num_layers=2, emb_dim=12, dropout=0.0, seed=0)


class TestSurfacing:
    def test_service_stats_expose_compiled_status(self):
        service = InferenceService(_encoder_factory, num_tasks=3)
        compiled = service.stats()["compiled"]
        assert compiled["state"] in ("available", "unavailable", "disabled")
        assert compiled.keys() == compiled_status().keys()

    def test_cli_backend_info(self, capsys):
        from repro.cli import main
        assert main(["backend-info"]) == 0
        captured = capsys.readouterr().out
        assert "declared backends (fallback chains):" in captured
        assert "compiled -> reduceat -> legacy" in captured
        assert "compiled backend status:" in captured
        for op_name in OP_REGISTRY.ops():
            assert op_name in captured
