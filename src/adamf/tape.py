"""Reverse-mode differentiation over a fixed kernel set.

A Tape records every operation in append order; because operands must exist
before they are consumed the node list is already topologically sorted, and
the backward pass is a single reverse sweep that accumulates exact adjoints.
Values are numpy arrays (scalars are 0-d); the last axis is the vector axis
and an optional leading axis batches independent rows.

The kernels are arithmetic (``add``, ``sub``, ``mul``, ``scale``, ``sum``),
``matvec``, ``concat``, ``gather`` and ``merge_rows``, the nonlinearities
``leaky_relu`` and ``log_sigmoid``, adaptive fusion as ``fusion_weights``
(the tanh-score softmax alpha) and ``mix`` (the alpha-weighted sum of the
parts), and ``rotate_distance``, the RotatE score of indexed table rows.
Each has an analytic backward.

Complex-valued quantities are interleaved (re, im) pairs in an even-length
last axis; phase vectors have half that length.

Dead adjoints are pruned: a node is *live* when some parameter leaf lies
upstream of it.  ``param`` leaves are live; ``const`` leaves (and ``leaf`` on
a group outside the live set) are not; an emitted node is live iff any
parent is.  A node that is not live gets no ``backward_fn``, and every
kernel forms only the adjoints of its live operands, so constants never
receive a gradient.  Live parameters see the same adjoints, accumulated in
the same order, as without pruning.

Subnormal adjoints are flushed in one place: ``matvec``'s backward sets each
entry of its incoming adjoint below ``np.finfo(dtype).tiny`` to exactly 0
before its two GEMMs.  Such entries arise where self-adversarial weights and
sigma(-x) underflow, and already carry fewer than 24 significant bits in
float32.  Each adds at most tiny * |x| to a GEMM output, below the last bit
of an output of ordinary size, yet each sends BLAS down a slow path.  Every
other kernel keeps them, and no normal or non-finite entry is changed, so the
finite check below sees everything it saw before.

The one finite check runs at the end of ``backward``, on the root value and
each gradient the sweep produced, before any optimizer sees them.  A failure
rescans the tape once to name the first non-finite node or gradient.
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


def _pairs(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Interleave (B, d) real and imaginary parts into (B, 2d) pairs."""
    return np.stack((re, im), axis=-1).reshape(re.shape[0], -1)


class Tape:
    """Append-only computation record yielding gradients of a scalar root."""

    def __init__(self, store=None):
        self.store = store
        self.nodes: list[Node] = []
        self._param_nodes: dict[str, Node] = {}
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
        """Parameter leaf if its group is live, otherwise a detached constant
        that keeps the parameter's name."""
        if self.store.group_of(name) in live_groups:
            return self.param(name)
        node = self.const(self.store[name])
        node.name = name
        return node

    # ------------------------------------------------------------- op plumbing

    def _emit(self, op, value, parents, backward_fn) -> Node:
        live = any(p.live for p in parents)
        node = Node(np.asarray(value), parents, backward_fn if live else None,
                    name=op, live=live)
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

        return self._emit("add", out, (a, b), backward)

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

        return self._emit("sub", out, (a, b), backward)

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

        return self._emit("mul", out, (a, b), backward)

    def matvec(self, w: Node, x: Node) -> Node:
        """w (m,n) applied row-wise to x (B,n) -> (B,m)."""
        self._require(w.value.ndim == 2 and x.value.ndim == 2
                      and x.shape[1] == w.shape[1], "matvec", w.shape, x.shape)
        out = x.value @ w.value.T

        def backward(g):
            # Subnormal entries become exact zeros (see the module docstring).
            g = np.where(np.abs(g) < np.finfo(g.dtype).tiny, g.dtype.type(0), g)
            if w.live:
                w.add_grad(g.T @ x.value)
            if x.live:
                x.add_grad(g @ w.value)

        return self._emit("matvec", out, (w, x), backward)

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

        return self._emit("concat", out, tuple(parts), backward)

    def gather(self, x: Node, idx: np.ndarray) -> Node:
        """Rows of a 2-d node selected by an integer index array.  The adjoint
        is assigned when the indices strictly increase (unique rows, as a
        table's sorted ids), else scatter-added."""
        self._require(x.value.ndim == 2, "gather", x.shape)
        idx = np.asarray(idx, dtype=np.int64)
        out = x.value[idx]

        def backward(g):
            full = np.zeros_like(x.value)
            flat = idx.ravel()
            if np.all(flat[1:] > flat[:-1]):
                full[idx] = g + 0.0     # unique rows; + 0.0 as np.add.at, so -0.0 -> 0.0
            else:
                np.add.at(full, idx, g)
            x.add_grad(full)

        return self._emit("gather", out, (x,), backward)

    def merge_rows(self, mask, a: Node, b: Node) -> Node:
        """Rows of a where the 1-d bool mask is set and rows of b elsewhere,
        each in order: a (P, n), b (B - P, n) -> (B, n)."""
        mask = np.asarray(mask, dtype=bool)
        p = int(mask.sum())
        self._require(mask.ndim == 1 and a.value.ndim == 2 and b.value.ndim == 2
                      and a.shape == (p, b.shape[1]) and b.shape[0] == mask.size - p,
                      "merge_rows", mask.shape, a.shape, b.shape)
        out = np.empty((mask.size, a.shape[1]), dtype=np.result_type(a.value, b.value))
        out[mask] = a.value
        out[~mask] = b.value

        def backward(g):
            if a.live:
                a.add_grad(g[mask])
            if b.live:
                b.add_grad(g[~mask])

        return self._emit("merge_rows", out, (a, b), backward)

    def leaky_relu(self, x: Node, slope: float) -> Node:
        positive = x.value >= 0
        out = np.where(positive, x.value, slope * x.value)

        def backward(g):
            x.add_grad(np.where(positive, g, g * slope))

        return self._emit("leaky_relu", out, (x,), backward)

    def log_sigmoid(self, x: Node) -> Node:
        out = -np.logaddexp(0.0, -x.value)

        def backward(g):
            # d/dx log sigma(x) = sigma(-x)
            x.add_grad(g * np.exp(-np.logaddexp(0.0, x.value)))

        return self._emit("log_sigmoid", out, (x,), backward)

    def scale(self, x: Node, c: float) -> Node:
        out = x.value * c

        def backward(g):
            x.add_grad(g * c)

        return self._emit("scale", out, (x,), backward)

    def sum(self, x: Node) -> Node:
        """Full reduction to a scalar."""
        out = x.value.sum()

        def backward(g):
            x.add_grad(np.broadcast_to(g, x.shape).copy())

        return self._emit("sum", out, (x,), backward)

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

        return self._emit("fusion_weights", out, (*parts, *weights), backward)

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

        return self._emit("mix", out, (alpha, *parts), backward)

    def rotate_distance(self, h: Node, h_idx, phase: Node, r_idx, t: Node,
                        t_idx) -> Node:
        """RotatE distance sum_k |h_k e^{i theta_k} - t_k| of rows
        (h[h_idx[i]], phase[r_idx[i]], t[t_idx[i]]), shape (rows,).

        h and t are (., 2d) tables, possibly one node; phase is (R, d).  Rows
        run in fixed-size blocks that the backward recomputes, so no
        (rows, 2d) array outlives a block.  Adjoints scatter-add into h, t
        and phase; at |u| = 0 the subgradient is 0.
        """
        idx = [np.asarray(i, dtype=np.int64) for i in (h_idx, r_idx, t_idx)]
        d = phase.shape[-1]
        self._require(phase.value.ndim == 2 and h.shape[1:] == t.shape[1:] == (2 * d,)
                      and idx[0].ndim == 1 and len({i.shape for i in idx}) == 1,
                      "rotate_distance", h.shape, phase.shape, t.shape, *map(np.shape, idx))
        n = idx[0].shape[0]
        step = max(1, (1 << 19) // (np.dtype(self.dtype).itemsize * 2 * d))

        def block(lo):
            hi, ri, ti = (i[lo:lo + step] for i in idx)
            c, s = np.cos(phase.value[ri]), np.sin(phase.value[ri])
            a, b = h.value[hi, 0::2], h.value[hi, 1::2]
            rot_re, rot_im = a * c - b * s, a * s + b * c
            return ((hi, ri, ti), c, s, rot_re, rot_im,
                    rot_re - t.value[ti, 0::2], rot_im - t.value[ti, 1::2])

        out = np.empty(n, dtype=self.dtype)
        for lo in range(0, n, step):
            *_, u_re, u_im = block(lo)
            out[lo:lo + step] = np.hypot(u_re, u_im).sum(axis=-1)

        def backward(g):
            grads = {x: np.zeros_like(x.value) for x in (h, t, phase) if x.live}
            for lo in range(0, n, step):
                (hi, ri, ti), c, s, rot_re, rot_im, u_re, u_im = block(lo)
                m = np.hypot(u_re, u_im)
                scale = np.divide(g[lo:lo + step, None], m, out=np.zeros_like(m), where=m > 0)
                g_re, g_im = scale * u_re, scale * u_im
                if h.live:
                    np.add.at(grads[h], hi, _pairs(g_re * c + g_im * s, g_im * c - g_re * s))
                if t.live:
                    np.subtract.at(grads[t], ti, _pairs(g_re, g_im))
                if phase.live:
                    np.add.at(grads[phase], ri, g_im * rot_re - g_re * rot_im)
            for x, g_x in grads.items():
                x.add_grad(g_x)

        return self._emit("rotate_distance", out, (h, phase, t), backward)

    # ---------------------------------------------------------------- backward

    def backward(self, root: Node) -> dict[str, np.ndarray]:
        """Gradients of the scalar root for every registered parameter.

        Parameters the root does not depend on get zero gradients.  A tape
        can run backward once.  A non-finite root or gradient raises
        `NumericError` naming where it arose.
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
        reached = {name: node.grad for name, node in self._param_nodes.items()
                   if node.grad is not None}
        if not (np.isfinite(root.value)
                and all(np.isfinite(g).all() for g in reached.values())):
            raise NumericError(_first_nonfinite(self.nodes, reached))
        names = self.store.names() if self.store is not None else ()
        return {n: reached[n] if n in reached
                else np.zeros(self.store[n].shape, self.store.dtype) for n in names}


def _first_nonfinite(nodes: list[Node], grads: dict[str, np.ndarray]) -> str:
    """The first non-finite value in tape order (a parameter leaf by its name,
    an emitted node by its kernel), else the first non-finite gradient."""
    for node in nodes:
        if not np.isfinite(node.value).all():
            if node.parents:
                return f"non-finite value from op {node.name!r}"
            return f"non-finite parameter {node.name!r}" if node.name else "non-finite constant"
    name = next(n for n, g in grads.items() if not np.isfinite(g).all())
    return f"non-finite gradient of parameter {name!r}"
