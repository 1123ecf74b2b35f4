"""REP004: autograd completeness for ops built on ``Tensor._result``.

Every differentiable op in the autograd modules follows one idiom::

    def op(...):
        out_data = ...
        def backward(g):
            if x.requires_grad:
                x._accumulate(...)
        return Tensor._result(out_data, (x, ...), "op", backward)

The tape only visits tensors reachable through ``_prev`` (the parents
tuple), so a backward closure that accumulates into a tensor *not*
listed there silently drops gradients — the bug class this rule exists
for.  Checks, per ``Tensor._result`` call:

* a backward closure is passed (4th argument) and is defined locally;
* every receiver of ``._accumulate(...)`` or ``._accumulate_region(...)``
  inside that closure appears in the parents tuple — directly by name,
  or as a loop variable drawn (possibly via ``zip``) from a collection
  passed as ``tuple(coll)``.  The tensor arguments of a shared adjoint
  helper (``_matmul_adjoint(a, b, g)``, which accumulates into ``a``
  and ``b``) count as receivers too.

Registry consistency: every *differentiable* implementation registered
in the op table (``config.ops_module``, parsed via
:mod:`repro.devtools.opregs`) must resolve to a named function defined
in one of the autograd-checked modules — a lambda or an impl living
outside ``autograd_modules`` would dodge the checks above.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..opregs import parse_ops_module, resolve_impl
from ..registry import rule


def _result_calls(func_node):
    """Yield ``Tensor._result(...)`` Call nodes lexically inside
    ``func_node`` (not inside nested defs other than the backward)."""
    for node in ast.walk(func_node):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_result"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "Tensor"):
            yield node


def _parent_names(parents_expr) -> tuple[set, set]:
    """(direct parent names, collection names passed via tuple(coll))."""
    direct: set = set()
    collections: set = set()
    if isinstance(parents_expr, ast.Tuple):
        for element in parents_expr.elts:
            if isinstance(element, ast.Name):
                direct.add(element.id)
            elif isinstance(element, ast.Starred) and isinstance(
                    element.value, ast.Name):
                collections.add(element.value.id)
    elif isinstance(parents_expr, ast.Call):
        func = parents_expr.func
        if (isinstance(func, ast.Name) and func.id == "tuple"
                and parents_expr.args
                and isinstance(parents_expr.args[0], ast.Name)):
            collections.add(parents_expr.args[0].id)
    elif isinstance(parents_expr, ast.Name):
        # e.g. a prebuilt `parents` tuple: treat the name as a collection
        collections.add(parents_expr.id)
    return direct, collections


def _loop_sources(backward_node) -> dict:
    """loop-variable name -> iterated collection name, inside backward.

    Handles ``for t in coll`` and positional unpacking over
    ``zip(coll, ...)``: ``for t, s in zip(coll, other)`` maps t -> coll,
    s -> other.
    """
    sources: dict = {}
    for node in ast.walk(backward_node):
        if not isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            continue
        target, iterator = node.target, node.iter
        if isinstance(iterator, ast.Name):
            if isinstance(target, ast.Name):
                sources[target.id] = iterator.id
        elif (isinstance(iterator, ast.Call)
              and isinstance(iterator.func, ast.Name)
              and iterator.func.id == "zip"
              and isinstance(target, ast.Tuple)):
            for element, arg in zip(target.elts, iterator.args):
                if isinstance(element, ast.Name) and isinstance(arg,
                                                                ast.Name):
                    sources[element.id] = arg.id
    return sources


#: The tape's accumulation entry points: whole-tensor and basic-index region.
_ACCUMULATORS = frozenset({"_accumulate", "_accumulate_region"})


#: Shared adjoint helpers -> positions of the tensor arguments they
#: accumulate into.
_ADJOINT_HELPERS = {"_matmul_adjoint": (0, 1)}


def _accumulate_receivers(backward_node):
    """Yield (name, lineno) for every ``name._accumulate(...)`` or
    ``name._accumulate_region(...)`` call, and for every name passed as
    a receiving argument of an adjoint helper."""
    for node in ast.walk(backward_node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in _ACCUMULATORS
                and isinstance(func.value, ast.Name)):
            yield func.value.id, node.lineno
        elif isinstance(func, ast.Name) and func.id in _ADJOINT_HELPERS:
            for position in _ADJOINT_HELPERS[func.id]:
                if position < len(node.args) \
                        and isinstance(node.args[position], ast.Name):
                    yield node.args[position].id, node.lineno


def _local_defs(func_node) -> dict:
    """name -> FunctionDef for defs lexically inside ``func_node``."""
    defs: dict = {}
    for node in ast.walk(func_node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not func_node:
            defs[node.name] = node
    return defs


def _check_op(info, func_node, findings):
    defs = _local_defs(func_node)
    for call in _result_calls(func_node):
        if len(call.args) < 4:
            findings.append(Finding(
                info.rel, call.lineno, "REP004",
                f"{func_node.name}: Tensor._result called without a "
                "backward closure — grad-tracked output has no _backward"))
            continue
        parents_expr, backward_expr = call.args[1], call.args[3]
        direct, collections = _parent_names(parents_expr)
        backward_node = None
        if isinstance(backward_expr, ast.Name):
            backward_node = defs.get(backward_expr.id)
        elif isinstance(backward_expr, ast.Lambda):
            backward_node = backward_expr
        if backward_node is None:
            if not (isinstance(backward_expr, ast.Constant)
                    and backward_expr.value is None):
                continue  # forwarded closure from elsewhere: out of scope
            findings.append(Finding(
                info.rel, call.lineno, "REP004",
                f"{func_node.name}: Tensor._result called with backward="
                "None — grad-tracked output has no _backward"))
            continue
        sources = _loop_sources(backward_node)
        for name, lineno in _accumulate_receivers(backward_node):
            if name in direct:
                continue
            if sources.get(name) in collections:
                continue
            findings.append(Finding(
                info.rel, lineno, "REP004",
                f"{func_node.name}: backward accumulates into '{name}' "
                "which is not listed in the op's parents (_prev) — its "
                "gradient would be dropped by the tape"))


def _module_function_names(tree: ast.Module) -> set:
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _check_registry_impls(project, config, findings):
    """Registered differentiable impls must be named functions in the
    autograd-checked modules (where the ``_result`` checks can see them)."""
    ops_rel = getattr(config, "ops_module", None)
    info = project.get(ops_rel) if ops_rel else None
    if info is None:
        return
    model = parse_ops_module(info)
    checked = {rel: project.get(rel) for rel in config.autograd_modules}
    for reg in model.registrations:
        if reg.dynamic_name or not reg.differentiable:
            continue
        for backend, ref in reg.backends.items():
            if ref is None:
                findings.append(Finding(
                    info.rel, reg.lineno, "REP004",
                    f"op '{reg.name}' backend '{backend}' implementation "
                    "is not a named function — lambdas/expressions dodge "
                    "the autograd completeness checks"))
                continue
            target_rel, func_name = resolve_impl(model, info.rel, ref)
            target = checked.get(target_rel)
            if target_rel not in checked:
                findings.append(Finding(
                    info.rel, reg.lineno, "REP004",
                    f"op '{reg.name}' backend '{backend}' implementation "
                    f"resolves to {target_rel or '<unknown module>'}, "
                    "which is not in the autograd-checked modules"))
            elif target is not None \
                    and func_name not in _module_function_names(target.tree):
                findings.append(Finding(
                    info.rel, reg.lineno, "REP004",
                    f"op '{reg.name}' backend '{backend}' implementation "
                    f"'{func_name}' is not defined in {target_rel}"))


@rule("REP004", "ops returning grad-tracked tensors must attach _backward "
                "and list every accumulated-into tensor in _prev; "
                "registered differentiable impls must live in the "
                "autograd-checked modules")
def check_autograd(project, config):
    findings: list = []
    for rel in config.autograd_modules:
        info = project.get(rel)
        if info is None:
            continue
        for node in ast.walk(info.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == "_result":
                    continue  # the constructor itself
                _check_op(info, node, findings)
    _check_registry_impls(project, config, findings)
    return findings
