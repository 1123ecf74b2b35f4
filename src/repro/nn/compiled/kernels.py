"""ctypes wrappers: compiled forward kernels behind the registry seam.

Each public ``_*_compiled`` function is the ``compiled``-backend
implementation registered for one op.  The contract mirrors the
plan-backed (reduceat) implementations exactly:

* **Bit-identical values.**  The C kernels accumulate in the reference
  order (see :mod:`.csrc`), so outputs — and through them the adjoints —
  match the reduceat backend bit for bit.  The registered tolerances
  stay ``0.0``.
* **Silent per-call fallback.**  When the kernel library is unavailable
  (no compiler, failed build, unsupported dtype/layout) every wrapper
  delegates to the plan implementation for that call, so a process that
  registered the backend optimistically still serves correct results.
* **Same autograd shape.**  Backward closures reproduce the plan
  implementations' adjoints, reducing gradients through the compiled
  kernels where profitable (the fused gather+reduce).
"""

from __future__ import annotations

import numpy as np

from . import build
from .. import rnn as _rnn
from .. import segment as _segment
from ..policy import active_dtype, active_workspace
from ..tensor import Tensor, as_tensor, is_grad_enabled

_SUFFIXES = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32"}
_INT64 = np.dtype(np.int64)


def _kernel(name, dtype):
    """The loaded C symbol ``{name}_{f64|f32}``, or None (-> fallback)."""
    suffix = _SUFFIXES.get(np.dtype(dtype))
    if suffix is None:
        return None
    lib = build.load()
    if lib is None:
        return None
    return getattr(lib, f"{name}_{suffix}")


def _fp(array):
    """Raw address of a C-contiguous float64/float32 kernel operand."""
    if array.dtype not in _SUFFIXES or not array.flags.c_contiguous:
        raise TypeError(f"compiled kernels take C-contiguous float64 or "
                        f"float32 buffers, not {array.dtype} "
                        f"(contiguous={array.flags.c_contiguous})")
    return array.ctypes.data


def _ip(array):
    """Raw address of a C-contiguous int64 index operand."""
    if array.dtype != _INT64 or not array.flags.c_contiguous:
        raise TypeError(f"compiled kernels take C-contiguous int64 "
                        f"indices, not {array.dtype} "
                        f"(contiguous={array.flags.c_contiguous})")
    return array.ctypes.data


def _plan_index(plan):
    """The plan's (order, indptr) as contiguous int64 for the C side."""
    order, indptr = plan.order, plan.indptr
    if order.dtype != np.int64 or not order.flags.c_contiguous:
        order = np.ascontiguousarray(order, dtype=np.int64)
    if indptr.dtype != np.int64 or not indptr.flags.c_contiguous:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    return order, indptr


def _flatten_rows(data, num_rows):
    """C-contiguous ``(num_rows, d)`` view/copy of ``data`` and ``d``."""
    d = 1
    for dim in data.shape[1:]:
        d *= int(dim)
    flat = data.reshape(num_rows, d)
    if not flat.flags.c_contiguous:
        flat = np.ascontiguousarray(flat)
    return flat, d


def _alloc_rows(rows, cols, dtype):
    """Output buffer, leased from the live workspace pool when one is
    active (the kernels overwrite every element, so ``empty`` is safe)."""
    pool = active_workspace()
    if pool is not None:
        return pool.empty((rows, cols), dtype)
    return np.empty((rows, cols), dtype=dtype)


def _segment_reduce_data(name, data, plan, fallback):
    """Run a ``(x, order, indptr, out, S, d)`` C kernel over the plan."""
    kernel = _kernel(name, data.dtype)
    if kernel is None or data.shape[0] != plan.num_items:
        return fallback(data, plan)
    flat, d = _flatten_rows(data, plan.num_items)
    order, indptr = _plan_index(plan)
    out = _alloc_rows(plan.num_segments, d, data.dtype)
    kernel(_fp(flat), _ip(order), _ip(indptr), _fp(out),
           plan.num_segments, d)
    return out.reshape((plan.num_segments,) + data.shape[1:])


def _segment_sum_data(data, plan):
    return _segment_reduce_data("segment_sum", data, plan,
                                _segment._reduce_sum_data)


def _segment_max_data(data, plan):
    return _segment_reduce_data("segment_max", data, plan,
                                _segment._reduce_max_data)


def _segment_sum_compiled(x, index, num_segments=None):
    """Compiled per-segment sum (CSR-style walk of the plan's
    order/indptr); adjoint gathers the segment gradient per item."""
    x = as_tensor(x)
    plan = _segment.as_plan(index, num_segments)
    out_data = _segment_sum_data(x.data, plan)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g[plan.segment_ids])

    return Tensor._result(out_data, (x,), "segment_sum", backward)


def _segment_mean_compiled(x, index, num_segments=None):
    """Compiled segment mean: the compiled sum scaled by the plan's
    cached inverse counts — the same multiply as the plan impl."""
    x = as_tensor(x)
    plan = _segment.as_plan(index, num_segments)
    inv = plan.inv_counts_for(x.data.dtype).reshape(
        (plan.num_segments,) + (1,) * (x.data.ndim - 1))
    sums = _segment_sum_data(x.data, plan)
    if active_workspace() is not None:
        out_data = np.multiply(sums, inv, out=sums)
    else:
        out_data = sums * inv

    def backward(g):
        if x.requires_grad:
            x._accumulate((g * inv)[plan.segment_ids])

    return Tensor._result(out_data, (x,), "segment_mean", backward)


def _segment_max_compiled(x, index, num_segments=None):
    """Compiled per-segment max; the adjoint splits gradient across
    ties exactly like the plan implementation (tie counts reduced
    through the compiled sum kernel)."""
    x = as_tensor(x)
    plan = _segment.as_plan(index, num_segments)
    out_data = _segment_max_data(x.data, plan)

    def backward(g):
        if not x.requires_grad:
            return
        winners = x.data == out_data[plan.segment_ids]
        tie_counts = np.maximum(
            _segment_sum_data(winners.astype(x.data.dtype), plan), 1.0)
        x._accumulate(np.where(
            winners, g[plan.segment_ids] / tie_counts[plan.segment_ids], 0.0))

    return Tensor._result(out_data, (x,), "segment_max", backward)


def _gather_segments_compiled(x, index, num_segments=None):
    """Fused gather+reduce: the forward is the plain row gather (numpy
    fancy indexing is already a single C pass); the *adjoint* is where
    the fusion pays — the incoming gradient reduces straight back
    per segment through the compiled sum kernel."""
    x = as_tensor(x)
    plan = _segment.as_plan(index, num_segments)
    out_data = x.data[plan.segment_ids]

    def backward(g):
        if x.requires_grad:
            x._accumulate(_segment_sum_data(
                np.asarray(g, dtype=x.data.dtype), plan))

    return Tensor._result(out_data, (x,), "gather_segments", backward)


def _segment_softmax_compiled(scores, index, num_segments=None):
    """Numerically-stable segment softmax composed from the compiled
    sub-kernels — the identical composition (and therefore identical
    bits) as the plan implementation."""
    scores = as_tensor(scores)
    plan = _segment.as_plan(index, num_segments)
    seg_max = _segment_max_compiled(scores, plan).detach()
    shifted = scores - _gather_segments_compiled(seg_max, plan)
    exp = shifted.exp()
    denom = _segment_sum_compiled(exp, plan)
    return exp / (_gather_segments_compiled(denom, plan) + 1e-16)


def _scatter_add_compiled(g, index, num_rows):
    """Compiled row scatter-add (plain ndarray in/out, like the other
    backends).  Falls back for layouts the C kernel does not cover:
    non-1-D indices, broadcasting payloads, or out-of-range/negative
    indices (which ``np.add.at`` wraps/raises but raw C would corrupt
    memory on)."""
    g = np.asarray(g)
    if g.dtype.kind != "f":
        g = g.astype(active_dtype())
    index = np.asarray(index)
    num_rows = int(num_rows)
    kernel = _kernel("scatter_add", g.dtype)
    if (kernel is None or index.ndim != 1 or g.ndim < 1
            or g.shape[0] != index.shape[0]
            or (index.shape[0] > 0
                and (int(index.min()) < 0 or int(index.max()) >= num_rows))):
        return _segment._scatter_add_plan(g, index, num_rows)
    if index.dtype != np.int64 or not index.flags.c_contiguous:
        index = np.ascontiguousarray(index, dtype=np.int64)
    flat, d = _flatten_rows(g, index.shape[0])
    out = _alloc_rows(num_rows, d, g.dtype)
    kernel(_fp(flat), _ip(index), _fp(out), index.shape[0], num_rows, d)
    return out.reshape((num_rows,) + g.shape[1:])


def _state_data(state, batch, hidden, dtype):
    """Initial h/c as a contiguous ndarray in the scan dtype."""
    if state is None:
        return np.zeros((batch, hidden), dtype=dtype)
    data = state.data if isinstance(state, Tensor) else np.asarray(state)
    return np.ascontiguousarray(data, dtype=dtype)


def _lstm_scan_compiled(x, w_x, w_h, bias, h0=None, c0=None,
                        return_state=False):
    """Fused LSTM-step scan: per-step GEMMs and numpy transcendentals
    mirror the tape reference exactly (same association, same
    stridedness), with the pure-arithmetic gate finish and state update
    fused into C — compiled with ``-ffp-contract=off`` so no FMA can
    change the reference's rounding.  Grad-tracked inputs delegate to
    the tape reference: the fused scan is an inference-path kernel."""
    x = as_tensor(x)
    w_x = as_tensor(w_x)
    w_h = as_tensor(w_h)
    bias = as_tensor(bias)
    operands = (x, w_x, w_h, bias) + tuple(
        t for t in (h0, c0) if isinstance(t, Tensor))
    xd, wxd, whd, bd = x.data, w_x.data, w_h.data, bias.data
    combine = _kernel("lstm_combine", xd.dtype)
    if ((is_grad_enabled() and any(t.requires_grad for t in operands))
            or combine is None or xd.ndim != 3 or wxd.ndim != 2
            or whd.ndim != 2 or bd.ndim != 1 or xd.shape[0] == 0
            or not (xd.dtype == wxd.dtype == whd.dtype == bd.dtype)):
        return _rnn._lstm_scan_reference(x, w_x, w_h, bias, h0=h0, c0=c0,
                                         return_state=return_state)
    output = _kernel("lstm_output", xd.dtype)
    gates_kernel = _kernel("lstm_gates", xd.dtype)
    steps, batch = xd.shape[0], xd.shape[1]
    hidden = whd.shape[0]
    dtype = xd.dtype
    if not xd.flags.c_contiguous:
        xd = np.ascontiguousarray(xd)
    if not bd.flags.c_contiguous:
        bd = np.ascontiguousarray(bd)
    h = _state_data(h0, batch, hidden, dtype)
    # c is mutated in place through the buffer swap — never alias c0.
    c = np.array(_state_data(c0, batch, hidden, dtype))
    # The input projection has no step-to-step dependency: one stacked
    # GEMM over all steps (bitwise identical to the per-step products —
    # the contraction axis and its accumulation order are unchanged).
    xw = np.matmul(xd, wxd)
    out = np.empty((steps, batch, hidden), dtype=dtype)
    hw = np.empty((batch, 4 * hidden), dtype=dtype)
    ei = np.empty((batch, hidden), dtype=dtype)
    ef = np.empty((batch, hidden), dtype=dtype)
    eo = np.empty((batch, hidden), dtype=dtype)
    gg = np.empty((batch, hidden), dtype=dtype)
    c_next = np.empty((batch, hidden), dtype=dtype)
    tc = np.empty((batch, hidden), dtype=dtype)
    n = batch * hidden
    hw_p, bd_p = _fp(hw), _fp(bd)
    ei_p, ef_p, eo_p, gg_p = _fp(ei), _fp(ef), _fp(eo), _fp(gg)
    tc_p = _fp(tc)
    c_p, c_next_p = _fp(c), _fp(c_next)
    for t in range(steps):
        # One C pass assembles the reference association
        # ((x[t] @ w_x) + (h @ w_h)) + bias per gate slice, pre-negated
        # for the sigmoid gates (mirroring Tensor.sigmoid's
        # np.exp(-view)); numpy's exp/tanh then run on the contiguous
        # buffers — layout-invariant, so bitwise the reference values.
        np.matmul(h, whd, out=hw)
        gates_kernel(_fp(xw[t]), hw_p, bd_p,
                     ei_p, ef_p, gg_p, eo_p, batch, hidden)
        np.exp(ei, out=ei)
        np.exp(ef, out=ef)
        np.exp(eo, out=eo)
        np.tanh(gg, out=gg)
        combine(ei_p, ef_p, gg_p, c_p, c_next_p, n)
        np.tanh(c_next, out=tc)
        output(eo_p, tc_p, _fp(out[t]), n)
        h = out[t]
        c, c_next = c_next, c
        c_p, c_next_p = c_next_p, c_p
    result = Tensor(out)
    if return_state:
        return result, Tensor(h), Tensor(c)
    return result
