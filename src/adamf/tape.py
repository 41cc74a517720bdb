"""Reverse-mode differentiation over a fixed kernel set.

A Tape records every operation in append order; because operands must exist
before they are consumed the node list is already topologically sorted, and
the backward pass is a single reverse sweep that accumulates exact adjoints.
Values are numpy arrays (scalars are 0-d); the last axis is the vector axis
and an optional leading axis batches independent rows.

The kernels are arithmetic (``add``, ``sub``, ``mul``, ``scale``, ``sum``),
``matvec``, ``concat`` and ``gather``, the nonlinearities ``leaky_relu`` and
``log_sigmoid``, adaptive fusion, and complex rotation.  Fusion is two
kernels: ``fusion_weights`` (the tanh-score softmax alpha) and ``mix`` (the
alpha-weighted sum of the parts), each with an analytic backward.

Complex-valued quantities are interleaved (re, im) pairs in an even-length
last axis; phase vectors have half that length.

Dead adjoints are pruned: a node is *live* when some parameter leaf lies
upstream of it.  ``param`` leaves are live; ``const`` leaves (and ``leaf`` on
a group outside the live set) are not; an emitted node is live iff any
parent is.  A node that is not live gets no ``backward_fn``, and every
kernel forms only the adjoints of its live operands, so constants never
receive a gradient.  Live parameters see the same adjoints, accumulated in
the same order, as without pruning.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError


class Node:
    __slots__ = ("value", "grad", "parents", "backward_fn", "name", "live")

    def __init__(self, value, parents=(), backward_fn=None, name=None, live=False):
        self.value = value
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.name = name
        self.live = live

    @property
    def shape(self):
        return self.value.shape

    def add_grad(self, g):
        if self.grad is None:
            self.grad = np.array(g, copy=True)
        else:
            self.grad += g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tape:
    """Append-only computation record yielding gradients of a scalar root."""

    def __init__(self, store=None, check_finite=False):
        self.store = store
        self.nodes: list[Node] = []
        self._param_nodes: dict[str, Node] = {}
        self.check_finite = check_finite
        self.consumed = False
        self.dtype = store.dtype if store is not None else np.float64

    # ------------------------------------------------------------------ leaves

    def param(self, name: str) -> Node:
        """Leaf bound to a named trainable tensor; memoized per tape."""
        if name in self._param_nodes:
            return self._param_nodes[name]
        if self.store is None:
            raise ContractError("param leaves require a ParameterStore")
        node = Node(self.store[name], name=name, live=True)
        self._param_nodes[name] = node
        self.nodes.append(node)
        return node

    def const(self, value) -> Node:
        node = Node(np.asarray(value, dtype=self.dtype))
        self.nodes.append(node)
        return node

    def leaf(self, name: str, live_groups) -> Node:
        """Parameter leaf if its group is live, otherwise a detached constant."""
        if self.store.group_of(name) in live_groups:
            return self.param(name)
        return self.const(self.store[name])

    # ------------------------------------------------------------- op plumbing

    def _emit(self, value, parents, backward_fn) -> Node:
        if self.check_finite and not np.all(np.isfinite(value)):
            raise NumericError("non-finite value in forward pass")
        live = any(p.live for p in parents)
        node = Node(np.asarray(value), parents, backward_fn if live else None,
                    live=live)
        self.nodes.append(node)
        return node

    @staticmethod
    def _require(cond, op, *shapes):
        if not cond:
            raise ContractError(f"{op}: incompatible shapes {[tuple(s) for s in shapes]}")

    # ----------------------------------------------------------------- kernels

    def add(self, a: Node, b: Node) -> Node:
        try:
            out = a.value + b.value
        except ValueError:
            self._require(False, "add", a.shape, b.shape)

        def backward(g):
            if a.live:
                a.add_grad(_unbroadcast(g, a.shape))
            if b.live:
                b.add_grad(_unbroadcast(g, b.shape))

        return self._emit(out, (a, b), backward)

    def sub(self, a: Node, b: Node) -> Node:
        try:
            out = a.value - b.value
        except ValueError:
            self._require(False, "sub", a.shape, b.shape)

        def backward(g):
            if a.live:
                a.add_grad(_unbroadcast(g, a.shape))
            if b.live:
                b.add_grad(_unbroadcast(-g, b.shape))

        return self._emit(out, (a, b), backward)

    def mul(self, a: Node, b: Node) -> Node:
        try:
            out = a.value * b.value
        except ValueError:
            self._require(False, "mul", a.shape, b.shape)

        def backward(g):
            if a.live:
                a.add_grad(_unbroadcast(g * b.value, a.shape))
            if b.live:
                b.add_grad(_unbroadcast(g * a.value, b.shape))

        return self._emit(out, (a, b), backward)

    def matvec(self, w: Node, x: Node) -> Node:
        """w (m,n) applied to x (n,) -> (m,), or row-wise to x (B,n) -> (B,m)."""
        self._require(w.value.ndim == 2, "matvec", w.shape, x.shape)
        self._require(
            x.value.ndim in (1, 2) and x.shape[-1] == w.shape[1],
            "matvec", w.shape, x.shape,
        )
        if x.value.ndim == 1:
            out = w.value @ x.value

            def backward(g):
                if w.live:
                    w.add_grad(np.outer(g, x.value))
                if x.live:
                    x.add_grad(w.value.T @ g)
        else:
            out = x.value @ w.value.T

            def backward(g):
                if w.live:
                    w.add_grad(g.T @ x.value)
                if x.live:
                    x.add_grad(g @ w.value)

        return self._emit(out, (w, x), backward)

    def concat(self, parts: list[Node]) -> Node:
        self._require(len(parts) > 0, "concat")
        lead = parts[0].shape[:-1]
        self._require(all(p.value.ndim == len(lead) + 1 and p.shape[:-1] == lead
                          for p in parts),
                      "concat", *[p.shape for p in parts])
        out = np.concatenate([p.value for p in parts], axis=-1)
        widths = [p.shape[-1] for p in parts]

        def backward(g):
            offset = 0
            for p, w in zip(parts, widths):
                if p.live:
                    p.add_grad(g[..., offset:offset + w])
                offset += w

        return self._emit(out, tuple(parts), backward)

    def gather(self, x: Node, idx: np.ndarray) -> Node:
        """Rows of a 2-d node selected by an integer index array."""
        self._require(x.value.ndim == 2, "gather", x.shape)
        idx = np.asarray(idx, dtype=np.int64)
        out = x.value[idx]

        def backward(g):
            full = np.zeros_like(x.value)
            np.add.at(full, idx, g)
            x.add_grad(full)

        return self._emit(out, (x,), backward)

    def leaky_relu(self, x: Node, slope: float) -> Node:
        positive = x.value >= 0
        out = np.where(positive, x.value, slope * x.value)

        def backward(g):
            x.add_grad(g * np.where(positive, 1.0, slope))

        return self._emit(out, (x,), backward)

    def log_sigmoid(self, x: Node) -> Node:
        out = -np.logaddexp(0.0, -x.value)

        def backward(g):
            # d/dx log sigma(x) = sigma(-x)
            x.add_grad(g * np.exp(-np.logaddexp(0.0, x.value)))

        return self._emit(out, (x,), backward)

    def scale(self, x: Node, c: float) -> Node:
        out = x.value * c

        def backward(g):
            x.add_grad(g * c)

        return self._emit(out, (x,), backward)

    def sum(self, x: Node) -> Node:
        """Full reduction to a scalar."""
        out = x.value.sum()

        def backward(g):
            x.add_grad(np.broadcast_to(g, x.shape).copy())

        return self._emit(out, (x,), backward)

    def fusion_weights(self, parts: list[Node], weights: list[Node]) -> Node:
        """Adaptive fusion weights alpha (B, M) of M parts (B, n):
        alpha[:, j] = softmax_j(tanh(parts[j]) . weights[j]), max-shifted."""
        shape = parts[0].shape if parts else ()
        self._require(len(shape) == 2 and len(weights) == len(parts)
                      and all(p.shape == shape for p in parts)
                      and all(w.shape == shape[1:] for w in weights),
                      "fusion_weights", *[x.shape for x in (*parts, *weights)])
        t = [np.tanh(p.value) for p in parts]
        scores = np.stack([(tj * w.value).sum(axis=-1) for tj, w in zip(t, weights)],
                          axis=-1)
        e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
        out = e / e.sum(axis=-1, keepdims=True)

        def backward(g):
            g_scores = out * (g - (g * out).sum(axis=-1, keepdims=True))
            for j, (p, w) in enumerate(zip(parts, weights)):
                g_b = g_scores[:, j:j + 1]
                if w.live:
                    w.add_grad((g_b * t[j]).sum(axis=0))
                if p.live:
                    p.add_grad((g_b * w.value) * (1.0 - t[j] * t[j]))

        return self._emit(out, (*parts, *weights), backward)

    def mix(self, alpha: Node, parts: list[Node]) -> Node:
        """Row-wise weighted sum of M parts (B, n) by alpha (B, M) -> (B, n)."""
        shape = parts[0].shape if parts else ()
        self._require(len(shape) == 2 and all(p.shape == shape for p in parts)
                      and alpha.shape == (shape[0], len(parts)),
                      "mix", alpha.shape, *[p.shape for p in parts])
        out = alpha.value[:, 0:1] * parts[0].value
        for j in range(1, len(parts)):
            out += alpha.value[:, j:j + 1] * parts[j].value

        def backward(g):
            if alpha.live:
                g_alpha = np.empty_like(alpha.value)
                for j, p in enumerate(parts):
                    g_alpha[:, j] = (g * p.value).sum(axis=-1)
                alpha.add_grad(g_alpha)
            for j, p in enumerate(parts):
                if p.live:
                    p.add_grad(g * alpha.value[:, j:j + 1])

        return self._emit(out, (alpha, *parts), backward)

    def complex_rotate(self, x: Node, theta: Node) -> Node:
        """Rotate interleaved complex pairs of x by unit phases cos/sin(theta).

        x has even last axis 2d; theta has last axis d (broadcastable over the
        batch axis of x).  Each rotation has unit modulus by construction.
        """
        self._require(x.shape[-1] % 2 == 0, "complex_rotate", x.shape, theta.shape)
        self._require(theta.shape[-1] * 2 == x.shape[-1], "complex_rotate",
                      x.shape, theta.shape)
        a = x.value[..., 0::2]
        b = x.value[..., 1::2]
        c = np.cos(theta.value)
        s = np.sin(theta.value)
        out = np.empty_like(x.value)
        out[..., 0::2] = a * c - b * s
        out[..., 1::2] = a * s + b * c

        def backward(g):
            gre = g[..., 0::2]
            gim = g[..., 1::2]
            if x.live:
                gx = np.empty_like(x.value)
                gx[..., 0::2] = gre * c + gim * s
                gx[..., 1::2] = -gre * s + gim * c
                x.add_grad(gx)
            if theta.live:
                gtheta = gre * (-a * s - b * c) + gim * (a * c - b * s)
                theta.add_grad(_unbroadcast(gtheta, theta.shape))

        return self._emit(out, (x, theta), backward)

    def complex_modulus_sum(self, x: Node) -> Node:
        """Sum of moduli of interleaved complex pairs: sum_k sqrt(re^2 + im^2)."""
        self._require(x.shape[-1] % 2 == 0, "complex_modulus_sum", x.shape)
        a = x.value[..., 0::2]
        b = x.value[..., 1::2]
        m = np.hypot(a, b)
        out = m.sum(axis=-1)

        def backward(g):
            safe = np.where(m > 0, m, 1.0)
            ge = np.expand_dims(g, -1)
            gx = np.empty_like(x.value)
            gx[..., 0::2] = ge * np.where(m > 0, a / safe, 0.0)
            gx[..., 1::2] = ge * np.where(m > 0, b / safe, 0.0)
            x.add_grad(gx)

        return self._emit(out, (x,), backward)

    # ---------------------------------------------------------------- backward

    def backward(self, root: Node) -> dict[str, np.ndarray]:
        """Gradients of the scalar root for every registered parameter.

        Parameters the root does not depend on get zero gradients.  A tape
        can run backward once.
        """
        if self.consumed:
            raise ContractError("tape already consumed by a backward pass")
        if np.asarray(root.value).ndim != 0:
            raise ContractError(f"backward root must be scalar, got shape {root.shape}")
        self.consumed = True
        root.grad = np.asarray(1.0, dtype=self.dtype)
        for node in reversed(self.nodes):
            if node.grad is not None and node.backward_fn is not None:
                node.backward_fn(node.grad)
        grads = {}
        if self.store is not None:
            for name in self.store.names():
                node = self._param_nodes.get(name)
                if node is not None and node.grad is not None:
                    grads[name] = node.grad
                else:
                    grads[name] = np.zeros_like(self.store[name])
        return grads
