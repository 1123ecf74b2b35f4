"""Recurrent cells used by the ``lstm`` fusion candidate and Set2Set readout.

The paper's multi-scale fusion candidate ``lstm`` follows Jumping Knowledge
(Xu et al., 2018): per node, an LSTM consumes the sequence of K layer-wise
representations and produces attention scores over layers.  Set2Set
(Vinyals et al., 2015) runs an LSTM over processing steps with content-based
attention over nodes.

The step math lives in two places that must agree bit for bit:

* :func:`_lstm_scan_reference` — the tape composition registered as the
  ``lstm_scan`` op's reference implementation.  Inference-time forwards
  (``no_grad``) route through the ``lstm_scan`` dispatcher, where the
  default ``compiled`` backend's fused C scan serves them.
* :func:`_lstm_cell` — the step whenever gradients are being recorded:
  three tape nodes (gates, cell state, hidden state) instead of the
  composition's seventeen.  Their adjoints repeat the composed
  arithmetic op for op, and their parents are ordered so the tape
  reaches every input in the composition's order, so training
  trajectories stay byte-identical to the composed tape.
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .policy import active_dtype
from .tensor import (Tensor, _matmul_adjoint, _sigmoid, _sigmoid_adjoint,
                     _tanh_adjoint, as_tensor, concatenate, is_grad_enabled,
                     stack)


__all__ = ["LSTMCell", "LSTM"]


def _lstm_scan_reference(x, w_x, w_h, bias, h0=None, c0=None,
                         return_state=False):
    """Tape-composition LSTM scan over stacked steps ``x`` of shape
    ``(steps, batch, input_dim)``.

    The ``lstm_scan`` op's reference implementation: per step, exactly
    the :class:`LSTMCell` gate math — ``gates = x[t] @ w_x + h @ w_h +
    bias`` with gates packed ``[i, f, g, o]``, then ``c = f*c + i*g``
    and ``h = o*tanh(c)``.  Gradients flow through every step via the
    tape; the compiled backend's fused kernel must match this
    composition bit for bit (and delegates back here whenever gradients
    are being recorded).

    Returns the stacked per-step hidden states ``(steps, batch,
    hidden)``; with ``return_state=True``, also the final ``h`` and
    ``c``.
    """
    x = as_tensor(x)
    w_x = as_tensor(w_x)
    w_h = as_tensor(w_h)
    bias = as_tensor(bias)
    steps, batch = x.shape[0], x.shape[1]
    hidden = w_h.shape[0]
    h = as_tensor(h0) if h0 is not None else Tensor(np.zeros((batch, hidden)))
    c = as_tensor(c0) if c0 is not None else Tensor(np.zeros((batch, hidden)))
    outputs = []
    for t in range(steps):
        gates = x[t] @ w_x + h @ w_h + bias
        i = gates[:, 0 * hidden:1 * hidden].sigmoid()
        f = gates[:, 1 * hidden:2 * hidden].sigmoid()
        g = gates[:, 2 * hidden:3 * hidden].tanh()
        o = gates[:, 3 * hidden:4 * hidden].sigmoid()
        c = f * c + i * g
        h = o * c.tanh()
        outputs.append(h)
    out = stack(outputs, 0)
    if return_state:
        return out, h, c
    return out


def _lstm_cell(x, w_x, m2, bias, c, hidden):
    """One grad-mode LSTM step on ``(batch, input_dim)`` rows as three
    tape nodes; returns ``(h', c')``.

    ``G`` holds the gates ``(x @ w_x + m2) + bias`` (``m2 = h @ w_h``
    stays its own matmul node), ``C`` the next cell state and ``H`` the
    next hidden state.  Each adjoint repeats the composed cell's
    arithmetic through the helpers ``Tensor.__matmul__``, ``sigmoid``
    and ``tanh`` use themselves, and gate regions land in a zeroed
    buffer through ``_accumulate_region``, as the composed slice
    adjoints do.  The parents ``G (x, w_x, m2, bias)``,
    ``C (c, G)``, ``H (G, C)`` make the tape's depth-first walk reach
    the external inputs in the composed cell's order, which keeps every
    gradient's add order.
    """
    dtype = active_dtype()
    gates = x.data @ w_x.data
    if gates.dtype != dtype:
        gates = gates.astype(dtype)
    gates += m2.data
    gates += bias.data

    def backward_gates(g):
        if bias.requires_grad:
            bias._accumulate(g)
        if m2.requires_grad:
            m2._accumulate(g)
        _matmul_adjoint(x, w_x, g)

    G = Tensor._result(gates, (x, w_x, m2, bias), "lstm_gates",
                       backward_gates)
    i_slice = (slice(None), slice(0, hidden))
    f_slice = (slice(None), slice(hidden, 2 * hidden))
    g_slice = (slice(None), slice(2 * hidden, 3 * hidden))
    o_slice = (slice(None), slice(3 * hidden, 4 * hidden))
    i = _sigmoid(gates[i_slice])
    f = _sigmoid(gates[f_slice])
    cand = np.tanh(gates[g_slice])
    o = _sigmoid(gates[o_slice])
    c_data = c.data

    def backward_c(g):
        if G.requires_grad:
            G._accumulate_region(f_slice, _sigmoid_adjoint(g * c_data, f))
            G._accumulate_region(i_slice, _sigmoid_adjoint(g * cand, i))
            G._accumulate_region(g_slice, _tanh_adjoint(g * i, cand))
        if c.requires_grad:
            c._accumulate(g * f)

    C = Tensor._result(f * c_data + i * cand, (c, G), "lstm_cell_state",
                       backward_c)
    tanh_c = np.tanh(C.data)

    def backward_h(g):
        if G.requires_grad:
            G._accumulate_region(o_slice, _sigmoid_adjoint(g * tanh_c, o))
        if C.requires_grad:
            C._accumulate(_tanh_adjoint(g * o, tanh_c))

    H = Tensor._result(o * tanh_c, (G, C), "lstm_hidden", backward_h)
    return H, C


class LSTMCell(Module):
    """A single LSTM step: ``(x, h, c) -> (h', c')``."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        # Gates packed as [i, f, g, o] along the output dimension.
        self.w_x = Parameter(init.xavier_uniform((input_dim, 4 * hidden_dim), rng))
        self.w_h = Parameter(init.xavier_uniform((hidden_dim, 4 * hidden_dim), rng))
        self.bias = Parameter(init.zeros((4 * hidden_dim,)))
        # Positive forget-gate bias helps gradient flow at initialization.
        self.bias.data[hidden_dim:2 * hidden_dim] = 1.0

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        if is_grad_enabled():
            return _lstm_cell(x, self.w_x, h @ self.w_h, self.bias, c,
                              self.hidden_dim)
        # Inference: a one-step scan through the dispatcher, so the
        # compiled backend's fused kernel serves Set2Set's step loop.
        from .ops import lstm_scan

        _, h_next, c_next = lstm_scan(Tensor(x.data[None]), self.w_x,
                                      self.w_h, self.bias, h0=h, c0=c,
                                      return_state=True)
        return h_next, c_next

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((batch, self.hidden_dim))
        return Tensor(zeros), Tensor(zeros.copy())


class LSTM(Module):
    """Unrolled (optionally bidirectional) LSTM over a short sequence.

    Input is a list of ``(batch, input_dim)`` tensors — one per timestep —
    which matches how layer-wise GNN representations arrive in fusion.
    Returns per-step hidden states concatenated over directions.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        bidirectional: bool = False,
    ):
        super().__init__()
        self.bidirectional = bidirectional
        self.hidden_dim = hidden_dim
        self.fwd = LSTMCell(input_dim, hidden_dim, rng)
        if bidirectional:
            self.bwd = LSTMCell(input_dim, hidden_dim, rng)

    @property
    def output_dim(self) -> int:
        return self.hidden_dim * (2 if self.bidirectional else 1)

    def forward(self, steps: list[Tensor]) -> list[Tensor]:
        if not steps:
            raise ValueError("LSTM needs at least one timestep")
        if not is_grad_enabled():
            return self._forward_scan(steps)
        batch = steps[0].shape[0]
        h, c = self.fwd.initial_state(batch)
        forward_states = []
        for x in steps:
            h, c = self.fwd(x, h, c)
            forward_states.append(h)
        if not self.bidirectional:
            return forward_states
        h, c = self.bwd.initial_state(batch)
        backward_states = []
        for x in reversed(steps):
            h, c = self.bwd(x, h, c)
            backward_states.append(h)
        backward_states.reverse()
        return [
            concatenate([f, b], axis=-1)
            for f, b in zip(forward_states, backward_states)
        ]

    def _forward_scan(self, steps: list[Tensor]) -> list[Tensor]:
        """Inference forward as whole-sequence ``lstm_scan`` dispatches."""
        from .ops import lstm_scan

        out = lstm_scan(stack(steps, 0), self.fwd.w_x, self.fwd.w_h,
                        self.fwd.bias)
        forward_states = [out[t] for t in range(len(steps))]
        if not self.bidirectional:
            return forward_states
        out = lstm_scan(stack(list(reversed(steps)), 0), self.bwd.w_x,
                        self.bwd.w_h, self.bwd.bias)
        backward_states = [out[t] for t in range(len(steps))]
        backward_states.reverse()
        return [
            concatenate([f, b], axis=-1)
            for f, b in zip(forward_states, backward_states)
        ]
