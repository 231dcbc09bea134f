"""Reverse-mode automatic differentiation over dense float64 arrays.

A tape is built implicitly: every operation returns a `Node` holding its
value, references to its parent nodes, and a backward closure that maps the
incoming gradient to per-parent gradients. `gradients` walks the graph once
in reverse topological order, accumulating additively over fan-out.

The op set is deliberately small: exactly what the heteroscedastic MLP and
its input gradient require. The losses (`gaussian.gaussian_nll`,
`ckl.quantile_reg_loss`) and the soft sort (`softsort.soft_sorted`) are
fused ops of their own modules, built on `_result`. Everything runs in
64-bit floats; any op producing a NaN/Inf raises instead of propagating it.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit


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

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

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


def relu(a):
    a = constant(a)
    return _result(
        "relu", np.maximum(a.value, 0.0), (a,), lambda g: (g * (a.value > 0.0),)
    )


def softplus(a):
    """log(1 + exp(x)), computed stably; gradient is the logistic sigmoid."""
    a = constant(a)
    value = np.logaddexp(0.0, a.value)
    return _result("softplus", value, (a,), lambda g: (g * expit(a.value),))


def matmul(a, b):
    a, b = constant(a), constant(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def backward(g):
        return (g @ b.value.T, a.value.T @ g)

    return _result("matmul", a.value @ b.value, (a, b), backward)


def reduce_sum(a):
    """Sum of every entry, as a scalar node."""
    a = constant(a)
    return _result(
        "sum", a.value.sum(), (a,), lambda g: (np.broadcast_to(g, a.value.shape).copy(),)
    )


def take(a, idx):
    """Indexing/slicing; the backward scatters the gradient back in place."""
    a = constant(a)
    value = a.value[idx]

    def backward(g):
        buf = np.zeros_like(a.value)
        np.add.at(buf, idx, g)
        return (buf,)

    return _result("take", value, (a,), backward)


def dropout(a, mask, rate):
    """Multiply by a caller-supplied 0/1 mask with inverted scaling 1/(1-rate).

    The mask is sampled outside the tape (from a seeded RNG) so forward
    passes are replayable.
    """
    a = constant(a)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != a.value.shape:
        raise ValueError(
            f"dropout: mask shape {mask.shape} does not match input {a.shape}"
        )
    scaled = mask / (1.0 - rate)
    return _result("dropout", a.value * scaled, (a,), lambda g: (g * scaled,))


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
