"""Trajectory oracles for the autograd tape.

A seeded fit runs twice: under the tape as shipped, and under a
copy-on-every-step oracle patched in for this test only — every first
grad copied, later grads summed into a fresh array, non-leaf grads kept
after ``backward``, basic-index adjoints scattered with ``np.add.at``
into zeros, and Adam stepped one parameter at a time.  Both runs must
end with byte-equal parameters and loss histories.

The fusion oracle does the same against the composed forwards of
``LSTMCell``, ``Linear`` and ``BatchNorm1d`` (one tape node per
elementary op, ``tests/conftest.py::use_composed_layers``), which the
fused tape nodes must reproduce byte for byte.
"""

import numpy as np
import pytest

from repro.core import S2PGNNFineTuner, SearchConfig
from repro.core.api import FineTuneConfig
from repro.gnn import GNNEncoder
from repro.nn import Adam, Tensor
from repro.nn.tensor import _unbroadcast
from tests.conftest import use_composed_layers

pytestmark = pytest.mark.slow


def _copying_accumulate(self, grad):
    grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype),
                        self.data.shape)
    if self.grad is None:
        self.grad = grad.copy()
    else:
        self.grad = self.grad + grad


def _scattering_region(self, index, grad):
    full = np.zeros_like(self.data)
    np.add.at(full, index, grad)
    self._accumulate(full)


def _retaining_backward(self, grad=None):
    topo, visited = [], set()
    post = [(self, False)]
    while post:
        node, processed = post.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        post.append((node, True))
        for parent in node._prev:
            if id(parent) not in visited:
                post.append((parent, False))
    if grad is None:
        grad = np.ones_like(self.data)
    self._accumulate(grad)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _per_parameter_adam_step(self):
    self._t += 1
    b1, b2 = self.beta1, self.beta2
    bias1 = 1.0 - b1 ** self._t
    bias2 = 1.0 - b2 ** self._t
    offset = 0
    for p in self.params:
        size = p.data.size
        m = self._m[offset:offset + size].reshape(p.data.shape)
        v = self._v[offset:offset + size].reshape(p.data.shape)
        offset += size
        if p.grad is None or not p.requires_grad:
            continue
        g = p.grad
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        if self.weight_decay:
            update = update + self.weight_decay * p.data
        p.data -= self.lr * update


def _fit(dataset):
    tuner = S2PGNNFineTuner(
        lambda: GNNEncoder("gin", num_layers=3, emb_dim=16, dropout=0.0,
                           seed=0),
        search_config=SearchConfig(epochs=3, batch_size=16, seed=0),
        finetune_config=FineTuneConfig(epochs=4, patience=4),
        seed=0)
    result = tuner.fit(dataset)
    losses = [(h["train_loss"], h["alpha_loss"])
              for h in tuner.search_result_.history]
    return (tuner.model_.state_dict(), losses, result.train_losses,
            result.valid_history)


def test_fit_matches_copying_tape_oracle(tiny_dataset, monkeypatch):
    regions = []
    region = Tensor._accumulate_region

    def counting_region(self, index, grad):
        regions.append(index)
        region(self, index, grad)

    with monkeypatch.context() as patch:
        patch.setattr(Tensor, "_accumulate_region", counting_region)
        state, search_losses, train_losses, valid = _fit(tiny_dataset)
    assert regions, "the fit never took a basic-index adjoint"

    with monkeypatch.context() as patch:
        patch.setattr(Tensor, "_accumulate", _copying_accumulate)
        patch.setattr(Tensor, "_accumulate_region", _scattering_region)
        patch.setattr(Tensor, "backward", _retaining_backward)
        patch.setattr(Adam, "step", _per_parameter_adam_step)
        o_state, o_search, o_train, o_valid = _fit(tiny_dataset)

    assert list(state) == list(o_state)
    for name in state:
        assert np.array_equal(state[name], o_state[name]), name
    assert np.array_equal(search_losses, o_search)
    assert np.array_equal(train_losses, o_train)
    assert np.array_equal(valid, o_valid)


def test_fit_matches_composed_layers_oracle(tiny_dataset, monkeypatch):
    fused_ops = {"lstm_gates": 0, "linear": 0, "batch_norm": 0}
    result = Tensor._result

    def counting_result(data, parents, op, backward):
        if op in fused_ops:
            fused_ops[op] += 1
        return result(data, parents, op, backward)

    with monkeypatch.context() as patch:
        patch.setattr(Tensor, "_result", staticmethod(counting_result))
        state, search_losses, train_losses, valid = _fit(tiny_dataset)
    assert all(fused_ops.values()), fused_ops

    with monkeypatch.context() as patch:
        use_composed_layers(patch)
        o_state, o_search, o_train, o_valid = _fit(tiny_dataset)

    assert list(state) == list(o_state)
    for name in state:
        assert state[name].tobytes() == o_state[name].tobytes(), name
    assert np.array_equal(search_losses, o_search)
    assert np.array_equal(train_losses, o_train)
    assert np.array_equal(valid, o_valid)
