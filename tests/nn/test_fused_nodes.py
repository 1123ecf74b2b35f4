"""Chain-rule tests of the fused tape nodes against their compositions.

``LSTMCell`` (grad mode), ``Linear`` and ``BatchNorm1d`` /
``StochNorm1d`` each record one to three tape nodes where the composed
forwards (``tests/conftest.py::use_composed_layers``) record one node per
elementary op.  Every case here runs twice — fused, then composed — with
an explicit random incoming gradient on every output (zeros of both signs
included), and compares forward values and every input and parameter
gradient with ``.tobytes()``, so signed zeros and dtypes count.

Dtype modes: ``float64`` (the training default), ``float32`` (module and
inputs built under the float32 policy) and ``mixed`` (a float64 module
run on float32 inputs under the float32 policy, where every composed
node rounds its output to float32).
"""

import numpy as np
import pytest

from repro.gnn.fusion import LSTMFusion
from repro.gnn.readout import Set2SetReadout
from repro.nn import LSTM, BatchNorm1d, Linear, LSTMCell, StochNorm1d, Tensor
from repro.nn.policy import use_dtype
from tests.conftest import use_composed_layers

DTYPE_MODES = ("float64", "float32", "mixed")


def _incoming(rng, shape):
    """A random incoming gradient with signed zeros sprinkled in."""
    g = rng.normal(size=shape)
    zero = rng.random(size=shape) < 0.15
    g[zero] = np.copysign(0.0, g[zero])
    return g


def _pullback(outputs, seed):
    """Backpropagate an explicit incoming gradient ``G_k`` into every
    output ``y_k`` at once, through ``sum_k sum(y_k * G_k)`` (whose
    adjoint hands each ``y_k`` exactly ``G_k``)."""
    rng = np.random.default_rng(seed)
    loss = None
    for out in outputs:
        term = (out * Tensor(_incoming(rng, out.shape))).sum()
        loss = term if loss is None else loss + term
    loss.backward()


def _record(case, mode, composed, monkeypatch):
    build_dtype = "float64" if mode == "mixed" else mode
    run_dtype = "float32" if mode == "mixed" else mode
    with monkeypatch.context() as patch:
        if composed:
            use_composed_layers(patch)
        with use_dtype(build_dtype):
            module = case["module"](np.random.default_rng(5))
        # Random parameters: unit gammas and zero biases would hide a
        # changed association or a missing rounding step.
        scramble = np.random.default_rng(6)
        for p in module.parameters():
            p.data[...] = scramble.normal(size=p.data.shape)
        with use_dtype(run_dtype):
            rng = np.random.default_rng(7)
            inputs = [Tensor(rng.normal(size=shape), requires_grad=grad)
                      for shape, grad in case["inputs"]]
            outputs = case["forward"](module, inputs)
            _pullback(outputs, seed=11)
    outs = [(out.data.dtype.str, out.data.tobytes()) for out in outputs]
    grads = [None if t.grad is None else t.grad.tobytes()
             for t in inputs + list(module.parameters())]
    buffers = [value.tobytes() for _, value in module.named_buffers()]
    return outs, grads, buffers


def _frozen(make, *names):
    def build(rng):
        module = make(rng)
        for name in names:
            getattr(module, name).requires_grad = False
        return module
    return build


def _one(forward):
    return lambda module, inputs: [forward(module, inputs)]


def _lstm_cell_steps(module, inputs):
    x, h, c = inputs
    outs = []
    for _ in range(3):  # one x feeds every step: many grads into x
        h, c = module(x, h, c)
        outs.append(h)
    return outs + [c]


def _lstm_cell_shared_base(module, inputs):
    (base,) = inputs
    # x, h and c all derive from one tensor, so the order in which the
    # tape walks a step's parents decides the add order of its grads.
    scales = np.random.default_rng(4).normal(size=(3,) + base.shape)
    x, h, c = (base * Tensor(s) for s in scales)
    outs = []
    for _ in range(2):
        h, c = module(x, h, c)
        outs.append(h)
    return outs + [c]


def _lstm_fusion(module, inputs):
    base, extra = inputs
    # Five layer tensors, four of them products of one shared base: each
    # layer feeds both LSTM directions and the weighted sum, so the base
    # gathers many gradients whose add order the tape must keep.
    scales = np.random.default_rng(3).normal(size=(4,) + base.shape)
    layers = [base * Tensor(s) for s in scales] + [extra]
    return [module(layers)]


def _set2set(module, inputs):
    (h,) = inputs
    batch = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 3])
    return [module(h, batch, 4)]


def _batch_norm_train_then_eval(module, inputs):
    (x,) = inputs
    train = module(x)
    module.eval()
    return [train, module(x * 0.5)]


CASES = {
    "linear_rank1": {
        "module": lambda rng: Linear(4, 3, rng),
        "inputs": [((4,), True)],
        "forward": _one(lambda m, xs: m(xs[0])),
    },
    "linear_rank2": {
        "module": lambda rng: Linear(4, 3, rng),
        "inputs": [((6, 4), True)],
        "forward": _one(lambda m, xs: m(xs[0])),
    },
    "linear_rank3": {
        "module": lambda rng: Linear(4, 3, rng),
        "inputs": [((2, 5, 4), True)],
        "forward": _one(lambda m, xs: m(xs[0])),
    },
    "linear_shared_input": {
        "module": lambda rng: Linear(4, 4, rng),
        "inputs": [((6, 4), True)],
        "forward": _one(lambda m, xs: m(m(xs[0]) + xs[0]) * xs[0]),
    },
    "linear_frozen_input": {
        "module": lambda rng: Linear(4, 3, rng),
        "inputs": [((6, 4), False)],
        "forward": _one(lambda m, xs: m(xs[0])),
    },
    "linear_frozen_weight": {
        "module": _frozen(lambda rng: Linear(4, 3, rng), "weight"),
        "inputs": [((6, 4), True)],
        "forward": _one(lambda m, xs: m(xs[0])),
    },
    "linear_bias_only": {
        "module": _frozen(lambda rng: Linear(4, 3, rng), "weight"),
        "inputs": [((6, 4), False)],
        "forward": _one(lambda m, xs: m(xs[0])),
    },
    "linear_no_bias": {
        "module": lambda rng: Linear(4, 3, rng, bias=False),
        "inputs": [((6, 4), True)],
        "forward": _one(lambda m, xs: m(xs[0])),
    },
    "batch_norm_train_eval": {
        "module": lambda rng: BatchNorm1d(5),
        "inputs": [((8, 5), True)],
        "forward": _batch_norm_train_then_eval,
    },
    "batch_norm_single_row": {
        "module": lambda rng: BatchNorm1d(5),
        "inputs": [((1, 5), True)],
        "forward": _one(lambda m, xs: m(xs[0])),
    },
    "batch_norm_frozen_affine": {
        "module": _frozen(lambda rng: BatchNorm1d(5), "gamma"),
        "inputs": [((8, 5), True)],
        "forward": _one(lambda m, xs: m(xs[0]).relu() * xs[0]),
    },
    "stoch_norm_train_eval": {
        "module": lambda rng: StochNorm1d(5, p=0.5,
                                          rng=np.random.default_rng(2)),
        "inputs": [((8, 5), True)],
        "forward": _batch_norm_train_then_eval,
    },
    "lstm_cell_step": {
        "module": lambda rng: LSTMCell(3, 4, rng),
        "inputs": [((5, 3), True), ((5, 4), True), ((5, 4), True)],
        "forward": lambda m, xs: list(m(*xs)),
    },
    "lstm_cell_three_steps": {
        "module": lambda rng: LSTMCell(3, 4, rng),
        "inputs": [((5, 3), True), ((5, 4), True), ((5, 4), False)],
        "forward": _lstm_cell_steps,
    },
    "lstm_cell_shared_base": {
        "module": lambda rng: LSTMCell(4, 4, rng),
        "inputs": [((5, 4), True)],
        "forward": _lstm_cell_shared_base,
    },
    "lstm_cell_frozen_weights": {
        "module": _frozen(lambda rng: LSTMCell(3, 4, rng), "w_x", "w_h"),
        "inputs": [((5, 3), True), ((5, 4), False), ((5, 4), False)],
        "forward": _lstm_cell_steps,
    },
    "lstm_unidirectional": {
        "module": lambda rng: LSTM(3, 4, rng),
        "inputs": [((5, 3), True), ((5, 3), True)],
        "forward": lambda m, xs: m([xs[0], xs[1], xs[0]]),
    },
    "set2set_three_steps": {
        "module": lambda rng: Set2SetReadout(4, rng, processing_steps=3),
        "inputs": [((10, 4), True)],
        "forward": _set2set,
    },
    "lstm_fusion_bidirectional_five_steps": {
        "module": lambda rng: LSTMFusion(5, 6, rng),
        "inputs": [((7, 6), True), ((7, 6), True)],
        "forward": _lstm_fusion,
    },
}


@pytest.mark.parametrize("mode", DTYPE_MODES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_fused_matches_composed_bytes(name, mode, monkeypatch):
    case = CASES[name]
    outs, grads, buffers = _record(case, mode, False, monkeypatch)
    assert any(grad is not None for grad in grads)
    assert (outs, grads, buffers) == _record(case, mode, True, monkeypatch)


def _tape_nodes(out):
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._prev)
    return seen


def _nodes_recorded(build, forward, monkeypatch, composed):
    with monkeypatch.context() as patch:
        if composed:
            use_composed_layers(patch)
        module = build(np.random.default_rng(0))
        return len(_tape_nodes(forward(module)))


@pytest.mark.parametrize("build, forward, saved", [
    (lambda rng: LSTMCell(3, 4, rng),
     lambda m: m(Tensor(np.ones((2, 3)), requires_grad=True),
                 *m.initial_state(2))[0],
     13),
    (lambda rng: Linear(3, 2, rng),
     lambda m: m(Tensor(np.ones((2, 3)), requires_grad=True)), 1),
    (lambda rng: BatchNorm1d(3),
     lambda m: m(Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)),
     5),
], ids=["lstm_cell", "linear", "batch_norm"])
def test_fused_nodes_shrink_the_tape(build, forward, saved, monkeypatch):
    """The fused forwards are the ones running, and they record fewer
    tape entries (nodes plus constant operands) than the compositions."""
    fused = _nodes_recorded(build, forward, monkeypatch, composed=False)
    composed = _nodes_recorded(build, forward, monkeypatch, composed=True)
    assert composed - fused == saved
