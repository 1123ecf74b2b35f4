"""Shared fixtures: tiny deterministic datasets, encoders, and RNGs."""

import numpy as np
import pytest

from repro.gnn import GNNEncoder
from repro.graph import Batch, MoleculeGenerator, load_dataset
from repro.nn import BatchNorm1d, Linear, LSTMCell, Tensor
from repro.nn.tensor import is_grad_enabled


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def molecules():
    """A reusable pool of 30 small molecules."""
    return MoleculeGenerator(num_scaffolds=8, seed=3).generate_many(30)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small labeled classification dataset (bbbp shape)."""
    return load_dataset("bbbp", size=60)


@pytest.fixture(scope="session")
def tiny_regression_dataset():
    return load_dataset("esol", size=60)


@pytest.fixture
def batch(molecules):
    return Batch(molecules[:6])


@pytest.fixture
def encoder():
    return GNNEncoder(conv_type="gin", num_layers=3, emb_dim=16, dropout=0.0, seed=0)


def gradcheck(fn, x_data, eps=1e-6, tol=1e-5):
    """Finite-difference gradient check for a scalar-valued tensor function."""
    from repro.nn import Tensor

    x_data = np.asarray(x_data, dtype=np.float64)
    x = Tensor(x_data, requires_grad=True)
    fn(x).backward()
    analytic = x.grad.copy()
    numeric = np.zeros_like(x_data)
    flat = x_data.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_hi = float(fn(Tensor(x_data)).data.sum())
        flat[i] = orig - eps
        f_lo = float(fn(Tensor(x_data)).data.sum())
        flat[i] = orig
        numeric.ravel()[i] = (f_hi - f_lo) / (2 * eps)
    err = np.abs(analytic - numeric).max()
    assert err < tol, f"gradcheck failed: max abs err {err:.3e}"
    return err


# ----------------------------------------------------------------------
# Composed reference tapes of the fused layer nodes.  ``LSTMCell``
# (grad mode), ``Linear`` and ``BatchNorm1d._normalize`` each build one
# to three tape nodes whose adjoints must reproduce these multi-node
# compositions byte for byte; the fused-node tests and the fit oracle
# patch them in with ``use_composed_layers``.
# ----------------------------------------------------------------------
_FUSED_LSTM_CELL_FORWARD = LSTMCell.forward


def _composed_lstm_cell_forward(self, x, h, c):
    if not is_grad_enabled():
        return _FUSED_LSTM_CELL_FORWARD(self, x, h, c)
    gates = x @ self.w_x + h @ self.w_h + self.bias
    hd = self.hidden_dim
    i = gates[:, 0 * hd:1 * hd].sigmoid()
    f = gates[:, 1 * hd:2 * hd].sigmoid()
    g = gates[:, 2 * hd:3 * hd].tanh()
    o = gates[:, 3 * hd:4 * hd].sigmoid()
    c_next = f * c + i * g
    h_next = o * c_next.tanh()
    return h_next, c_next


def _composed_linear_forward(self, x):
    out = x @ self.weight
    if self.bias is not None:
        out = out + self.bias
    return out


def _composed_normalize(self, x, mean, var):
    inv_std = Tensor(1.0 / np.sqrt(var + self.eps))
    return (x - Tensor(mean)) * inv_std * self.gamma + self.beta


def use_composed_layers(patch):
    """Patch the composed tapes in (``patch`` is a monkeypatch): grad-mode
    ``LSTMCell`` steps, ``Linear`` and ``BatchNorm1d``/``StochNorm1d``
    normalization then build one tape node per elementary op."""
    patch.setattr(LSTMCell, "forward", _composed_lstm_cell_forward)
    patch.setattr(Linear, "forward", _composed_linear_forward)
    patch.setattr(BatchNorm1d, "_normalize", _composed_normalize)
