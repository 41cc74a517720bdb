"""Reverse-mode differentiation over a fixed kernel set.

A Tape records every operation in append order; because operands must exist
before they are consumed the node list is already topologically sorted, and
the backward pass is a single reverse sweep that accumulates exact adjoints.
Values are numpy arrays (scalars are 0-d); the last axis is the vector axis
and an optional leading axis batches independent rows.

The kernels are ``add`` (equal shapes), ``scale``, the affine ``matvec``
(x @ w.T + b), ``concat``, ``gather``, ``merge_rows``, ``leaky_relu``,
``log_sigmoid_sum`` (both losses' sigmoid-margin sum of w log sigma(x)),
adaptive fusion as ``fusion_weights`` (the tanh-score softmax alpha) and
``mix`` (the alpha-weighted sum of the parts), and ``query_distance``, the
RotatE score of candidate table rows against rotated query rows (h o r for
tails, t o conj(r) for heads), whose forward shares ``modulus_sum`` with
evaluation.  Each has an analytic backward that adds or scatters (through
flat element indices, ``_scatter``) straight into its operands' one
accumulator each: a live leaf's view of its group's flat gradient, else
made on first use, as zeros for a scatter (``Node.adjoint``) and as an owned
zeros + g for an add (``Node.add_grad``).  No backward makes an operand-sized
table.  Float addition is not associative, so a row two kernels reach gets
(acc + g1) + g2.

Complex-valued quantities are interleaved (re, im) pairs in an even-length
last axis; phase vectors have half that length.

A tape is made for the parameter groups it trains (``Tape(store, live)``,
every group by default).  ``leaf(name)`` is a parameter's one node per tape,
live iff its group is.  Dead adjoints are pruned: a node is *live* when some
live leaf lies upstream of it, so an emitted node is live iff any parent is.
A node that is not live gets no ``backward_fn``, and every kernel forms only
the adjoints of its live operands, so constants and frozen leaves never
receive a gradient.  Live parameters see the same adjoints, accumulated in
the same order, as without pruning.

Subnormal adjoints are flushed in two places (``_flush_subnormals``): the
backwards of ``matvec`` and ``query_distance`` set each entry of their
incoming adjoint below ``np.finfo(dtype).tiny`` to exactly 0 (``matvec``'s
bias takes the column sums of the adjoint before the flush, unchanged).
Such entries arise where self-adversarial weights and sigma(-x) underflow,
and already carry fewer than 24 significant bits in float32.  Each adds at
most tiny * |x| to an output, below the last bit of an output of ordinary
size, yet each sends BLAS and the complex products down a slow path.  Every
other kernel keeps them, and no normal or non-finite entry is changed, so
the finite check below sees everything it saw before.

The one finite check runs at the end of ``backward``, on the root value and
each live group's flat gradient in ADAM_CHUNK slices, before any optimizer
sees them.  A failure rescans the tape once to name the first non-finite
node or gradient.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError
from .params import ADAM_CHUNK, GROUPS


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

    def adjoint(self) -> np.ndarray:
        """The node's one gradient accumulator, zeros until first used."""
        if self.grad is None:
            self.grad = np.zeros(self.value.shape, self.value.dtype)
        return self.grad

    def add_grad(self, g):
        if g.shape != self.value.shape or g.dtype != self.value.dtype:
            raise ContractError(f"adjoint of node {self.name!r} is {g.dtype} {g.shape}, "
                                f"the node {self.value.dtype} {self.value.shape}")
        if self.grad is None:   # an owned zeros + g, -0.0 made +0.0, 0-d kept an array
            self.grad = np.add(g, 0.0, out=np.empty(g.shape, g.dtype))
        else:
            self.grad += g


def _flush_subnormals(g: np.ndarray) -> np.ndarray:
    """g with each entry below np.finfo(dtype).tiny in magnitude set to 0."""
    return np.where(np.abs(g) < np.finfo(g.dtype).tiny, g.dtype.type(0), g)


def _scatter(ufunc, table: np.ndarray, idx, rows: np.ndarray) -> None:
    """ufunc.at(table, idx, rows) on a C-contiguous 2-d table, through flat
    element indices: numpy's 1-d path, with the same operations in the same
    order, so the same bytes."""
    if not table.flags.c_contiguous:    # reshape(-1) would copy and lose the scatter
        raise ContractError(f"scatter into a table that is not C-contiguous, {table.shape}")
    width = table.shape[1]
    flat = np.asarray(idx).reshape(-1, 1) * width + np.arange(width)
    ufunc.at(table.reshape(-1), flat.reshape(-1), rows.reshape(-1))


def modulus_sum(x, y, re, im, a, b, out) -> np.ndarray:
    """out = sum over the last axis of |(x - re) + i (y - im)|, computed in
    the buffers a and b (the shape of re), which it overwrites."""
    np.subtract(x, re, out=a)
    np.subtract(y, im, out=b)
    a *= a
    a += np.square(b, out=b)
    return np.add.reduce(np.sqrt(a, out=a), axis=-1, out=out)


class Tape:
    """Append-only computation record yielding gradients of a scalar root."""

    def __init__(self, store=None, live=GROUPS):
        self.store = store
        self.live = frozenset(live)
        self.nodes: list[Node] = []
        self._param_nodes: dict[str, Node] = {}
        self.grads: dict[str, np.ndarray] = {}     # per group, made by backward
        self.consumed = False
        self.dtype = store.dtype if store is not None else np.float64

    # ------------------------------------------------------------------ leaves

    def leaf(self, name: str) -> Node:
        """The parameter's one node on this tape, live iff its group is."""
        if self.store is None:
            raise ContractError("parameter leaves require a ParameterStore")
        node = self._param_nodes.get(name)
        if node is None:
            live = self.store.group_of(name) in self.live
            node = self._param_nodes[name] = Node(self.store[name], name=name, live=live)
            self.nodes.append(node)
        return node

    def const(self, value) -> Node:
        node = Node(np.asarray(value, dtype=self.dtype))
        self.nodes.append(node)
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
        self._require(a.shape == b.shape, "add", a.shape, b.shape)
        out = a.value + b.value

        def backward(g):
            if a.live:
                a.add_grad(g)
            if b.live:
                b.add_grad(g)

        return self._emit("add", out, (a, b), backward)

    def matvec(self, w: Node, x: Node, b: Node) -> Node:
        """Affine map of rows: x (B,n) @ w (m,n).T + bias b (m,) -> (B,m)."""
        self._require(w.value.ndim == 2 and x.value.ndim == 2 and x.shape[1] == w.shape[1]
                      and b.shape == w.shape[:1], "matvec", w.shape, x.shape, b.shape)
        out = x.value @ w.value.T + b.value

        def backward(g):
            if b.live:
                b.add_grad(g.sum(axis=0))
            g = _flush_subnormals(g)
            if w.live:
                w.add_grad(g.T @ x.value)
            if x.live:
                x.add_grad(g @ w.value)

        return self._emit("matvec", out, (w, x, b), backward)

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
        is added in one fancy-index add when the indices strictly increase
        (unique rows, as a table's sorted ids), else scattered."""
        self._require(x.value.ndim == 2, "gather", x.shape)
        idx = np.asarray(idx, dtype=np.int64)
        out = x.value[idx]

        def backward(g):
            flat = idx.ravel()
            if np.all(flat[1:] > flat[:-1]):
                x.adjoint()[idx] += g       # np.add.at's sums, faster on unique rows
            else:
                _scatter(np.add, x.adjoint(), idx, g)

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

    def scale(self, x: Node, c: float) -> Node:
        out = x.value * c

        def backward(g):
            x.add_grad(g * c)

        return self._emit("scale", out, (x,), backward)

    def log_sigmoid_sum(self, f: Node, gamma: float, sign: int, weights=None) -> Node:
        """Sigmoid-margin sum_i w_i log sigma(x_i) over every entry of f, with
        x = gamma - f (sign +1) or f - gamma (sign -1).  The weights, of f's
        shape, are a constant; without them every w_i is 1."""
        self._require(sign in (1, -1) and (weights is None or np.shape(weights) == f.shape),
                      "log_sigmoid_sum", f.shape, np.shape(weights))
        gamma = np.asarray(gamma, dtype=self.dtype)
        x = gamma - f.value if sign == 1 else f.value - gamma
        out = -np.logaddexp(0.0, -x)
        if weights is not None:
            weights = np.asarray(weights, dtype=self.dtype)
            out = out * weights

        def backward(g):
            if weights is not None:
                g = g * weights
            g = g * np.exp(-np.logaddexp(0.0, x))      # d/dx log sigma(x) = sigma(-x)
            f.add_grad(-g if sign == 1 else g)

        return self._emit("log_sigmoid_sum", out.sum(), (f,), backward)

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
                for j, p in enumerate(parts):
                    alpha.adjoint()[:, j] += (g * p.value).sum(axis=-1)
            for j, p in enumerate(parts):
                if p.live:
                    p.add_grad(g * alpha.value[:, j:j + 1])

        return self._emit("mix", out, (alpha, *parts), backward)

    def query_distance(self, q: Node, q_idx, phase: Node, r_idx, c: Node, c_idx,
                       head=None) -> Node:
        """RotatE distances sum_k |x_k - y_k| of candidate rows y = c[c_idx]
        from rotated query rows x, in the shape of c_idx, (B,) or (B, K).

        Row b's tail query is q[q_idx[0, b]] o e^{i theta}, theta =
        phase[r_idx[b]]; with q_idx (2, B) its head query q[q_idx[1, b]] o
        e^{-i theta} serves the slots where head[b] is set.  q and c are
        (., 2d) tables, possibly one node.  The backward keeps the forward's
        (sides, B, d) rotations and rotated queries; slots run in blocks that
        it recomputes, so no (slots, 2d) array outlives a block.  Each
        query's adjoint sums its slots; only candidates scatter.  At |u| = 0
        the subgradient is 0.
        """
        q_idx, r_idx, c_idx = (np.asarray(i, dtype=np.int64) for i in (q_idx, r_idx, c_idx))
        q_idx, slots = np.atleast_2d(q_idx), c_idx[:, None] if c_idx.ndim == 1 else c_idx
        side = np.zeros(slots.shape, np.int64) if head is None else np.asarray(head, np.int64)
        d = phase.shape[-1]
        self._require(phase.value.ndim == 2 and q.shape[1:] == c.shape[1:] == (2 * d,)
                      and q_idx.ndim == slots.ndim == 2 and q_idx.shape[0] <= 2
                      and r_idx.shape == q_idx.shape[1:] == slots.shape[:1]
                      and side.shape == slots.shape and (head is None or len(q_idx) == 2),
                      "query_distance", q.shape, phase.shape, c.shape,
                      *map(np.shape, (q_idx, r_idx, c_idx, side)))
        (n_sides, n), k, dtype = q_idx.shape, slots.shape[1], np.dtype(self.dtype)
        cdtype = np.result_type(dtype, np.complex64)              # views of (re, im) pairs
        sign = np.array([1, -1], dtype)[:n_sides, None, None]     # conj(r) for heads
        query = side * n + np.arange(n)[:, None]                  # slot -> query row
        step = max(1, (1 << 19) // (dtype.itemsize * 2 * d * k))

        theta, rot = phase.value[r_idx], np.empty((n_sides, n, d), cdtype)
        rot.real, rot.imag = np.cos(theta), np.sin(theta) * sign
        z = q.value[q_idx].view(cdtype) * rot   # (sides, B, d) queries, kept for backward
        queries = z.view(dtype).reshape(-1, 2 * d)

        def block(lo):      # the queries and candidates of slots [lo, lo + step)
            return queries[query[lo:lo + step]], c.value[slots[lo:lo + step]]

        out = np.empty(slots.shape, dtype)
        buffers = np.empty((2, min(step, n), k, d), dtype)
        for lo in range(0, n, step):
            xy, cand = block(lo)
            modulus_sum(xy[..., 0::2], xy[..., 1::2], cand[..., 0::2], cand[..., 1::2],
                        *buffers[:, :len(xy)], out[lo:lo + step])

        def backward(g):
            g = _flush_subnormals(g).reshape(slots.shape)
            g_z = np.zeros((n, n_sides, 2 * d), dtype)
            pick = (side[:, None, :] == np.arange(n_sides)[:, None]).astype(dtype)
            for lo in range(0, n, step):
                u = np.subtract(*block(lo))     # then its adjoint, in place
                m = np.abs(u.view(cdtype))
                u.view(cdtype)[...] *= np.divide(g[lo:lo + step, :, None], m, out=m,
                                                 where=m > 0)
                if c.live:
                    _scatter(np.subtract, c.adjoint(), slots[lo:lo + step], u)
                if q.live or phase.live:
                    np.matmul(pick[lo:lo + step], u, out=g_z[lo:lo + step])
            g_z = g_z.view(cdtype).transpose(1, 0, 2)
            if q.live:
                _scatter(np.add, q.adjoint(), q_idx, (g_z * rot.conj()).view(dtype))
            if phase.live:
                _scatter(np.add, phase.adjoint(), r_idx,
                         (sign * (g_z * z.conj()).imag).sum(axis=0))

        return self._emit("query_distance", out.reshape(c_idx.shape), (q, phase, c), backward)

    # ---------------------------------------------------------------- backward

    def backward(self, root: Node) -> dict[str, np.ndarray]:
        """Gradients of the scalar root for every registered parameter: views
        of ``grads[group]``, one zeroed flat buffer per group that holds the
        live leaves' accumulators, so unreached and frozen ones read zero.
        A tape can run backward once; a non-finite root or gradient raises
        `NumericError` naming where it arose.
        """
        if self.consumed:
            raise ContractError("tape already consumed by a backward pass")
        if np.asarray(root.value).ndim != 0:
            raise ContractError(f"backward root must be scalar, got shape {root.shape}")
        self.consumed = True
        grads = {}
        if self.store is not None:
            self.grads = {g: np.zeros(self.store.values[g].shape, self.dtype) for g in GROUPS}
            grads = {n: self.store.view(n, self.grads) for n in self.store.names()}
        for node in self._param_nodes.values():
            node.grad = grads[node.name] if node.live else None
        root.add_grad(np.asarray(1.0, dtype=self.dtype))
        for node in reversed(self.nodes):
            if node.grad is not None and node.backward_fn is not None:
                node.backward_fn(node.grad)
        flats = [g for group, g in self.grads.items() if group in self.live]
        if not (np.isfinite(root.value) and all(    # by chunks: no buffer-sized mask
                np.isfinite(g[lo:lo + ADAM_CHUNK]).all()
                for g in flats for lo in range(0, g.size, ADAM_CHUNK))):
            raise NumericError(_first_nonfinite(self.nodes, grads))
        return grads


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
