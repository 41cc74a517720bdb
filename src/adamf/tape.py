"""Reverse-mode differentiation over a fixed kernel set.

A Tape records every operation in append order; because operands must exist
before they are consumed the node list is already topologically sorted, and
the backward pass is a single reverse sweep that accumulates exact adjoints.
Values are numpy arrays (scalars are 0-d); the last axis is the vector axis
and an optional leading axis batches independent rows.

The eight kernels are ``add`` (equal shapes), ``scale``, the affine
``matvec`` (x @ w.T + b), ``take`` (rows of one part, or of two joined by a
bool mask: output row i is row index[i] of parts[mask[i]]), ``leaky_relu``,
``log_sigmoid_sum`` (both losses' sigmoid-margin sum of w log sigma(x)),
``fuse`` (the joint rows sum_m alpha_m e_m, with alpha the tanh-score
softmax or mean fusion's 1/M, returned as an array that no loss reads), and
``query_distance``, the RotatE score of one table's candidate rows against
its rotated query rows (h o r for tails, t o conj(r) for heads), whose
forward shares ``rotation`` and ``modulus_sum`` with evaluation.  Each
has an analytic backward that adds or scatters (through flat element
indices, ``_scatter``) straight into its operands' one accumulator each: a
live leaf's view of its group's flat gradient, else made on first use, as
zeros for a scatter (``Node.adjoint``) and as an owned zeros + g for an
add (``Node.add_grad``).  ``take`` picks one of three rules per part: a part
whose rows are all taken, in order (``every_row``), gets ``add_grad``;
strictly increasing indices get one fancy-index add; any other indices go
through ``_scatter``.  No backward makes an operand-sized table.  Float
addition is not associative, so a row two kernels reach gets
(acc + g1) + g2.  A kernel checks its operands' shapes before it computes
and raises `ContractError` naming itself and the shapes (``_mismatch``, the
only place the shape list is built).

Complex-valued quantities are interleaved (re, im) pairs in an even-length
last axis; phase vectors have half that length.

A tape is made for one ParameterStore and the parameter groups it trains
(``Tape(store, live)``, every group by default).  ``leaf(name)`` is a
parameter's one node per tape, live iff its group is.  Dead adjoints are
pruned: a node is *live* when some live leaf lies upstream of it, so an
emitted node is live iff any parent is.  A node that is not live gets no
``backward_fn``, and every kernel forms only the adjoints of its live
operands, so constants and frozen leaves never receive a gradient.  Live
parameters see the same adjoints, accumulated in the same order, as without
pruning.

Subnormal adjoints are flushed in two places (``_flush_subnormals``): the
backwards of ``matvec`` and ``query_distance`` set each entry of their
incoming adjoint below ``np.finfo(dtype).tiny`` to exactly 0 (``matvec``'s
bias takes the column sums of the adjoint before the flush, unchanged).
Such entries arise where self-adversarial weights and sigma(-x) underflow,
and already carry fewer than 24 significant bits in float32.  Each adds at
most tiny * |x| to an output, below the last bit of an output of ordinary
size, yet each sends BLAS and the complex products down a slow path.  So
does a normal entry below about 2^-100, whose products are subnormal: in
db15k_train the generator's 128x400 @ 400x400 ``w2`` input-gradient GEMM
takes 2-7 ms, 0.2-0.3 ms with entries below 2^-60 zeroed; the threshold
stays at tiny, as a higher one would change values.  Every other kernel
keeps them, and no normal or non-finite entry is changed, so the finite
check below sees everything it saw before.

``backward`` drops each emitted node's adjoint once that node's backward
has run, so a step does not hold every adjoint until it ends; a live leaf's
accumulator, its view of the group gradient, stays.  The one finite check
runs at the end of ``backward``, on the root value and each live group's
flat gradient in ``block_rows(1, itemsize)`` slices, before any optimizer
sees them.  A failure rescans the tape once to name the first non-finite
node or gradient.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError
from .params import GROUPS, block_rows


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
    """Set each entry of g below np.finfo(dtype).tiny in magnitude to 0, in
    place (g is the adjoint its node owns); returns g."""
    g[np.abs(g) < np.finfo(g.dtype).tiny] = 0
    return g


def _mismatch(op: str, *operands) -> ContractError:
    """The error of a kernel given operands (nodes or arrays) whose shapes do
    not fit; the shape list is built only here, once a check has failed."""
    shapes = [tuple(np.shape(x.value if isinstance(x, Node) else x)) for x in operands]
    return ContractError(f"{op}: incompatible shapes {shapes}")


def _scatter(ufunc, table: np.ndarray, idx, rows: np.ndarray) -> None:
    """ufunc.at(table, idx, rows) on a C-contiguous 2-d table, through flat
    element indices: numpy's 1-d path, with the same operations in the same
    order, so the same bytes."""
    if not table.flags.c_contiguous:    # reshape(-1) would copy and lose the scatter
        raise ContractError(f"scatter into a table that is not C-contiguous, {table.shape}")
    width = table.shape[1]
    flat = np.asarray(idx).reshape(-1, 1) * width + np.arange(width)
    ufunc.at(table.reshape(-1), flat.reshape(-1), rows.reshape(-1))


def every_row(index: np.ndarray, n: int) -> bool:
    """Whether the int array `index` names each of n rows once, in order."""
    return index.size == n and (index.ravel() == np.arange(n)).all()


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by each row's max."""
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def rotation(theta, sign) -> np.ndarray:
    """e^(i sign theta), theta broadcast against sign (1, or -1 for the
    conjugate), complex64 for float32 phases and complex128 for float64."""
    s = np.multiply(np.sin(theta), sign)
    rot = np.empty(s.shape, np.result_type(theta, np.complex64))
    rot.real, rot.imag = np.cos(theta), s
    return rot


def modulus_sum(x, y, re, im, a, b, out, axis=-1) -> np.ndarray:
    """out = sum over `axis` of |(x - re) + i (y - im)|, computed in the
    buffers a and b (the shape of re), which it overwrites."""
    np.subtract(x, re, out=a)
    np.subtract(y, im, out=b)
    a *= a
    a += np.square(b, out=b)
    return np.add.reduce(np.sqrt(a, out=a), axis=axis, out=out)


class Tape:
    """Append-only computation record yielding gradients of a scalar root."""

    def __init__(self, store, live=GROUPS):
        self.store = store
        self.live = frozenset(live)
        self.nodes: list[Node] = []
        self._param_nodes: dict[str, Node] = {}
        self.grads: dict[str, np.ndarray] = {}     # per group, made by backward
        self.consumed = False
        self.dtype = store.dtype
        self._sign = np.array([1, -1], self.dtype)[:, None, None]  # conj(r) for heads

    # ------------------------------------------------------------------ leaves

    def leaf(self, name: str) -> Node:
        """The parameter's one node on this tape, live iff its group is."""
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
        live = False
        for p in parents:
            if p.live:
                live = True
                break
        node = Node(np.asarray(value), parents, backward_fn if live else None,
                    name=op, live=live)
        self.nodes.append(node)
        return node

    # ----------------------------------------------------------------- kernels

    def add(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise _mismatch("add", a, b)
        out = a.value + b.value

        def backward(g):
            if a.live:
                a.add_grad(g)
            if b.live:
                b.add_grad(g)

        return self._emit("add", out, (a, b), backward)

    def matvec(self, w: Node, x: Node, b: Node) -> Node:
        """Affine map of rows: x (B,n) @ w (m,n).T + bias b (m,) -> (B,m)."""
        wv, xv = w.value, x.value
        if not (wv.ndim == 2 and xv.ndim == 2 and xv.shape[1] == wv.shape[1]
                and b.value.shape == wv.shape[:1]):
            raise _mismatch("matvec", w, x, b)
        out = xv @ wv.T + b.value

        def backward(g):
            if b.live:
                b.add_grad(np.add.reduce(g, axis=0))
            g = _flush_subnormals(g)
            if w.live:
                w.add_grad(g.T @ xv)
            if x.live:
                x.add_grad(g @ wv)

        return self._emit("matvec", out, (w, x, b), backward)

    def take(self, parts: list[Node], index, mask=None) -> Node:
        """Rows of 2-d parts of one width: output row i is row index[i] of
        parts[mask[i]] for two parts and a bool mask of index's shape, or of
        parts[0] for one part and no mask.  A part's adjoint is added whole
        when its rows are all taken in order, in one fancy-index add when its
        indices strictly increase, else scattered."""
        index = np.asarray(index, dtype=np.int64)
        width = parts[0].value.shape[1:] if parts else None
        mask = None if mask is None else np.asarray(mask)
        if not (parts and all(p.value.ndim == 2 and p.value.shape[1:] == width for p in parts)
                and (len(parts) == 1 if mask is None else (
                    len(parts) == 2 and mask.dtype == bool and mask.shape == index.shape))):
            raise _mismatch("take", *parts, index, mask)
        if mask is None:
            masks = (None,)
            out = parts[0].value.take(index, axis=0)
        else:
            masks = (~mask, mask)
            out = np.empty(index.shape + width, np.result_type(*[p.value for p in parts]))
            for p, rows in zip(parts, masks):
                out[rows] = p.value.take(index[rows], axis=0)

        def backward(g):
            for p, rows in zip(parts, masks):
                if not p.live:
                    continue
                idx, g_rows = (index, g) if rows is None else (index[rows], g[rows])
                flat = idx.ravel()
                if every_row(flat, len(p.value)):
                    p.add_grad(g_rows.reshape(p.value.shape))
                elif (flat[1:] > flat[:-1]).all():
                    p.adjoint()[idx] += g_rows      # np.add.at's sums, faster on unique rows
                else:
                    _scatter(np.add, p.adjoint(), idx, g_rows)

        return self._emit("take", out, tuple(parts), backward)

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
        if not (sign in (1, -1) and (weights is None or np.shape(weights) == f.value.shape)):
            raise _mismatch("log_sigmoid_sum", f, weights)
        gamma = np.asarray(gamma, dtype=self.dtype)
        x = gamma - f.value if sign == 1 else f.value - gamma
        out = -np.logaddexp(0.0, -x)
        if weights is not None:
            weights = np.asarray(weights, dtype=self.dtype)
            out *= weights

        def backward(g):
            if weights is not None:
                g = g * weights
            g = g * np.exp(-np.logaddexp(0.0, x))      # d/dx log sigma(x) = sigma(-x)
            f.add_grad(-g if sign == 1 else g)

        return self._emit("log_sigmoid_sum", np.add.reduce(out, axis=None), (f,), backward)

    def fuse(self, parts: list[Node], weights: list[Node] | None = None
             ) -> tuple[Node, np.ndarray]:
        """Fusion of M parts (B, n) into the joint rows sum_j alpha[:, j]
        parts[j], (B, n), with alpha[:, j] = softmax_j(tanh(parts[j]) .
        weights[j]), max-shifted, or 1/M without weights.  Returns the
        joint node and alpha (B, M) as an array, since no loss reads it."""
        shape = parts[0].value.shape if parts else ()
        if not (len(shape) == 2 and all(p.value.shape == shape for p in parts)
                and (weights is None or (len(weights) == len(parts) and all(
                    w.value.shape == shape[1:] for w in weights)))):
            raise _mismatch("fuse", *parts, *(weights or ()))
        if weights is None:
            alpha = np.full((shape[0], len(parts)), 1.0 / len(parts), self.dtype)
        else:
            t = [np.tanh(p.value) for p in parts]
            scores = np.empty((shape[0], len(parts)), self.dtype)
            for j, (tj, w) in enumerate(zip(t, weights)):
                np.add.reduce(tj * w.value, axis=-1, out=scores[:, j])
            alpha = softmax(scores)
        out = alpha[:, 0:1] * parts[0].value
        for j in range(1, len(parts)):
            out += alpha[:, j:j + 1] * parts[j].value

        def backward(g):
            for j, p in enumerate(parts):
                if p.live:
                    p.add_grad(g * alpha[:, j:j + 1])
            if weights is None:
                return
            g_alpha = np.zeros(alpha.shape, alpha.dtype)    # zeros + each sum, as an accumulator
            for j, p in enumerate(parts):
                g_alpha[:, j] += np.add.reduce(g * p.value, axis=-1)
            g_scores = alpha * (g_alpha - np.add.reduce(g_alpha * alpha, axis=-1, keepdims=True))
            for j, (p, w) in enumerate(zip(parts, weights)):
                g_b = g_scores[:, j:j + 1]
                if w.live:
                    w.add_grad(np.add.reduce(g_b * t[j], axis=0))
                if p.live:
                    p.add_grad((g_b * w.value) * (1.0 - t[j] * t[j]))

        return self._emit("fuse", out, (*parts, *(weights or ())), backward), alpha

    def query_distance(self, e: Node, q_idx, phase: Node, r_idx, c_idx, head=None) -> Node:
        """RotatE distances sum_k |x_k - y_k| of candidate rows y = e[c_idx]
        from rotated query rows x, in the shape of c_idx, (B,) or (B, K).

        Row b's tail query is e[q_idx[0, b]] o e^{i theta}, theta =
        phase[r_idx[b]], and serves the row's slots; without the (B, K) bool
        `head`, every slot is a tail slot.  Given a two-row q_idx, the head
        query e[q_idx[1, b]] o e^{-i theta} serves the slots where head is
        set instead.  Queries and candidates are rows of the (., 2d) e.  The
        backward keeps the forward's (sides, B, d) rotations and rotated
        queries; slots run in blocks that it recomputes, so no (slots, 2d)
        array outlives a block.  Each query's adjoint sums its slots; the
        candidates' adjoints are scattered into e's in the block loop, the
        queries' after it.  At |u| = 0 the subgradient is 0.
        """
        q_idx, r_idx, c_idx = (np.asarray(i, dtype=np.int64) for i in (q_idx, r_idx, c_idx))
        q_idx = q_idx[None] if q_idx.ndim == 1 else q_idx
        slots = c_idx[:, None] if c_idx.ndim == 1 else c_idx
        side = np.zeros(slots.shape, np.int64) if head is None else np.asarray(head, np.int64)
        pv, d = phase.value, phase.value.shape[-1]
        if not (pv.ndim == 2 and e.value.shape[1:] == (2 * d,) and side.shape == slots.shape
                and q_idx.ndim == slots.ndim == 2 and len(q_idx) <= 2
                and r_idx.shape == q_idx.shape[1:] == slots.shape[:1]
                and np.maximum.reduce(side, axis=None, initial=0) < len(q_idx)):
            raise _mismatch("query_distance", e, phase, q_idx, r_idx, c_idx, head)
        (n_sides, n), k, dtype = q_idx.shape, slots.shape[1], self.dtype
        sign = self._sign[:n_sides]
        query = side * n + np.arange(n)[:, None]   # slot -> row of `queries`
        step = block_rows(2 * d * k, dtype.itemsize)

        rot = rotation(pv.take(r_idx, axis=0), sign)    # (sides, B, d)
        z = e.value.take(q_idx, axis=0).view(rot.dtype) * rot  # kept for backward
        queries = z.view(dtype).reshape(-1, 2 * d)

        def block(lo):      # the queries and candidates of slots [lo, lo + step)
            return (queries.take(query[lo:lo + step], axis=0),
                    e.value.take(slots[lo:lo + step], axis=0))

        out = np.empty(slots.shape, dtype)
        buffers = np.empty((2, min(step, n), k, d), dtype)
        for lo in range(0, n, step):
            xy, cand = block(lo)
            modulus_sum(xy[..., 0::2], xy[..., 1::2], cand[..., 0::2], cand[..., 1::2],
                        *buffers[:, :len(xy)], out[lo:lo + step])

        def backward(g):
            g = _flush_subnormals(g).reshape(slots.shape)
            g_z = np.empty((n, n_sides, 2 * d), dtype)
            pick = (side[:, None] == np.arange(n_sides)[:, None]).astype(dtype)  # a slot's query
            for lo in range(0, n, step):
                u = np.subtract(*block(lo))     # then its adjoint, in place
                uc = u.view(rot.dtype)
                m = np.abs(uc)
                np.multiply(uc, np.divide(g[lo:lo + step, :, None], m, out=m, where=m > 0),
                            out=uc)
                if e.live:
                    _scatter(np.subtract, e.adjoint(), slots[lo:lo + step], u)
                np.matmul(pick[lo:lo + step], u, out=g_z[lo:lo + step])
            g_z = g_z.view(rot.dtype).transpose(1, 0, 2)
            if e.live:
                _scatter(np.add, e.adjoint(), q_idx, (g_z * rot.conj()).view(dtype))
            if phase.live:
                _scatter(np.add, phase.adjoint(), r_idx,
                         np.add.reduce(sign * (g_z * z.conj()).imag, axis=0))

        return self._emit("query_distance", out.reshape(c_idx.shape), (e, phase), backward)

    # ---------------------------------------------------------------- backward

    def backward(self, root: Node) -> dict[str, np.ndarray]:
        """Fill and return ``grads``, one zeroed flat buffer per group, with
        the gradients of the scalar root.  Only live leaves get a view of it
        (``store.view(name, grads)``) as their accumulator, so unreached and
        frozen parameters read zero.  A tape can run backward once; a
        non-finite root or gradient raises `NumericError` naming where it arose.
        """
        if self.consumed:
            raise ContractError("tape already consumed by a backward pass")
        if np.asarray(root.value).ndim != 0:
            raise ContractError(f"backward root must be scalar, got shape {root.shape}")
        self.consumed = True
        self.grads = {g: np.zeros(self.store.values[g].shape, self.dtype) for g in GROUPS}
        for node in self._param_nodes.values():
            node.grad = self.store.view(node.name, self.grads) if node.live else None
        root.add_grad(np.asarray(1.0, dtype=self.dtype))
        for node in reversed(self.nodes):
            if node.grad is not None and node.backward_fn is not None:
                node.backward_fn(node.grad)
                node.grad = None    # used up; a leaf keeps its view
        chunk = block_rows(1, self.dtype.itemsize)
        if not (np.isfinite(root.value) and all(    # by chunks: no buffer-sized mask
                np.isfinite(g[lo:lo + chunk]).all() for group, g in self.grads.items()
                if group in self.live for lo in range(0, g.size, chunk))):
            raise NumericError(_first_nonfinite(self))
        return self.grads


def _first_nonfinite(tape: Tape) -> str:
    """The first non-finite value in tape order (a parameter leaf by its name,
    an emitted node by its kernel), else the first non-finite gradient."""
    for node in tape.nodes:
        if not np.isfinite(node.value).all():
            if node.parents:
                return f"non-finite value from op {node.name!r}"
            return f"non-finite parameter {node.name!r}" if node.name else "non-finite constant"
    name = next(n for n in tape.store.names()
                if not np.isfinite(tape.store.view(n, tape.grads)).all())
    return f"non-finite gradient of parameter {name!r}"
