"""Reverse-mode automatic differentiation over dense float64 arrays.

A tape is built implicitly: every operation returns a `Node` holding its
value, references to its parent nodes, and a backward closure that maps the
incoming gradient to per-parent gradients. `gradients` walks the graph once
in reverse topological order, accumulating additively over fan-out.

The model's layers are fused ops of their own modules, built on `_result`:
the MLP (`models.mlp_forward`), the NLL (`gaussian.gaussian_nll`), the PITs
and the estimator (`ckl.quantile_reg_loss`) and the soft sort
(`softsort.soft_sorted`). The op set here is only the glue that combines
the losses (`add`, `multiply`) plus `reduce_sum`. Everything runs in 64-bit
floats; any op producing a NaN/Inf raises instead of propagating it.
"""

from __future__ import annotations

import numpy as np


class Node:
    """A value on the tape plus the recipe for back-propagating through it."""

    __slots__ = ("value", "parents", "requires_grad", "_backward")

    def __init__(self, value, requires_grad=False, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in parents
        )
        # a node no gradient can flow through keeps no graph, so a forward
        # pass on constants frees its intermediates as soon as it moves on
        self.parents = tuple(parents) if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self):
        return self.value.size

    def item(self):
        return float(self.value)

    def __repr__(self):
        return f"Node(shape={self.value.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; all route through the module-level primitives
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return multiply(self, other)

    def __rmul__(self, other):
        return multiply(other, self)

    def sum(self):
        return reduce_sum(self)


def constant(value):
    """Wrap an array as a tape leaf that never receives a gradient; a Node
    passes through unchanged."""
    return value if isinstance(value, Node) else Node(value)


def param(value):
    """Wrap an array as a trainable tape leaf."""
    return Node(np.array(value, dtype=np.float64), requires_grad=True)


def _result(name, value, parents, backward):
    value = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name}: non-finite values in result")
    return Node(value, parents=parents, backward=backward)


def _unbroadcast(grad, shape):
    """Sum a gradient over the axes numpy broadcasting introduced."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _binary(name, a, b, fwd, bwd_a, bwd_b):
    a, b = constant(a), constant(b)
    try:
        value = fwd(a.value, b.value)
    except ValueError as exc:
        raise ValueError(
            f"{name}: incompatible shapes {a.shape} and {b.shape}"
        ) from exc

    def backward(g):
        return (
            _unbroadcast(bwd_a(g, a.value, b.value), a.value.shape),
            _unbroadcast(bwd_b(g, a.value, b.value), b.value.shape),
        )

    return _result(name, value, (a, b), backward)


def add(a, b):
    return _binary("add", a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def multiply(a, b):
    return _binary(
        "multiply", a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x
    )


def reduce_sum(a):
    """Sum of every entry, as a scalar node."""
    a = constant(a)
    return _result(
        "sum", a.value.sum(), (a,), lambda g: (np.broadcast_to(g, a.value.shape).copy(),)
    )


def _topo_order(output):
    order = []
    seen = set()
    stack = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def gradients(output, wrt):
    """d(output)/d(node) for each node in `wrt`.

    Requires a scalar output. Fan-out accumulates additively; inputs the
    output does not depend on get a zero gradient.
    """
    if output.value.size != 1:
        raise ValueError(f"gradients: output must be scalar, got shape {output.shape}")
    for w in wrt:
        if not w.requires_grad:
            raise ValueError("gradients: every wrt node must have requires_grad set")
    grads = {id(output): np.ones_like(output.value)}
    for node in reversed(_topo_order(output)):
        g = grads.get(id(node))
        if g is None or node._backward is None:
            continue
        for parent, pg in zip(node.parents, node._backward(g)):
            if not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return [grads.get(id(w), np.zeros_like(w.value)) for w in wrt]


def finite_diff_check(f, x, h=1e-5):
    """Max relative error between the tape gradient of f and central
    finite differences: max |autodiff - central| / (|central| + 1e-8)."""
    if h <= 0:
        raise ValueError(f"finite_diff_check: h must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    leaf = Node(x.copy(), requires_grad=True)
    out = f(leaf)
    if out.value.size != 1:
        raise ValueError("finite_diff_check: f must return a scalar")
    (auto,) = gradients(out, [leaf])
    numeric = np.zeros_like(x)
    flat = numeric.reshape(-1)
    for i in range(x.size):
        bumped = x.reshape(-1).copy()
        bumped[i] += h
        hi = float(f(Node(bumped.reshape(x.shape))).value)
        bumped[i] -= 2 * h
        lo = float(f(Node(bumped.reshape(x.shape))).value)
        flat[i] = (hi - lo) / (2.0 * h)
    rel = np.abs(auto - numeric) / (np.abs(numeric) + 1e-8)
    return float(rel.max())
