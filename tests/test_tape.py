"""Kernel-by-kernel gradient checks and algebraic invariants for the tape.

Every differentiable kernel is compared against central finite differences
on randomized shapes with fixed trial seeds (deterministic, no flakes).
Components whose derivative is truncation-limited pass at the small probe
step and roundoff-limited ones at the large step, so each trial takes the
per-parameter minimum over both.
"""

import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adamf.errors import ContractError, NumericError
from adamf.model import DISC, FROZEN, GEN
from adamf.params import ADAM_CHUNK, ParameterStore, finite_diff_check
from adamf.rng import SeededRng
from adamf.tape import Tape, _scatter
from conftest import backward_views, probe_square, probe_sum

TRIALS = 100
EPSILONS = (1e-6, 2e-5)
TOL = 1e-6
# Conditioning scale on the checked scalar: keeps pure finite-difference
# noise on near-zero derivative components inside the relative-error
# formula's absolute floor without hiding real formula errors, which stay
# scale-invariant.
SCALE = 1e-4


def _make_store(shapes, rng):
    store = ParameterStore(dtype=np.float64)
    for name, shape in shapes.items():
        values = rng.normals(int(np.prod(shape, dtype=int))).reshape(shape)
        store.add(name, values, group="discriminator")
    return store


def check_kernel(make_shapes, build, trials=TRIALS, mutate=None):
    """FD-verify `build(tape, leaves)` over `trials` random fixtures."""
    for trial in range(trials):
        rng = SeededRng(trial, stream="kernel-check")
        shapes = make_shapes(rng)
        store = _make_store(shapes, rng)
        if mutate is not None:
            mutate(store)

        def builder(params):
            tape = Tape(params)
            leaves = {name: tape.leaf(name) for name in shapes}
            out = build(tape, leaves)
            root = out if out.value.shape == () else probe_sum(tape, out)
            return tape, tape.scale(root, SCALE)

        res = finite_diff_check(builder, store, EPSILONS)
        assert res.worst < TOL, f"trial {trial}: worst {res.worst:.3e} in {res.per_param}"


def dims(rng, lo=1, hi=6):
    return int(rng.randints([hi - lo + 1])[0]) + lo


# --- elementwise and reduction kernels ------------------------------------

def test_add_gradients():
    check_kernel(lambda rng: {"a": (dims(rng), dims(rng, 2, 5)),
                              "b": (1,)},
                 lambda tape, lv: tape.add(lv["a"], lv["a"]))
    check_kernel(lambda rng: (lambda b, n: {"a": (b, n), "c": (b, n)})(dims(rng), dims(rng)),
                 lambda tape, lv: tape.add(lv["a"], lv["c"]), trials=TRIALS // 2)


def test_first_adjoint_is_an_owned_zeros_plus_g():
    # add passes one array to both operands: the first adjoint each takes
    # must be a copy, or a later add into one would reach the other.  Its
    # bytes are zeros + g's: -0.0 becomes +0.0, and a 0-d root stays an array.
    store = ParameterStore(dtype=np.float64)
    store.add("x", np.arange(4.0), group="discriminator")
    tape = Tape(store)
    x = tape.leaf("x")
    u, v = tape.scale(x, 1.0), tape.scale(x, 1.0)
    t = tape.add(tape.add(u, v), u)
    root = probe_sum(tape, t, np.array([-0.0, 1.0, 2.0, 3.0]))
    grads = backward_views(tape, root)
    assert grads["x"].tolist() == [0.0, 3.0, 6.0, 9.0]
    assert t.grad.tolist() == [0.0, 1.0, 2.0, 3.0] and not np.signbit(t.grad).any()
    assert isinstance(root.grad, np.ndarray) and root.grad.shape == ()


def test_add_requires_equal_shapes():
    tape = Tape(ParameterStore(np.float64))
    with pytest.raises(ContractError, match="add"):
        tape.add(tape.const(np.ones((2, 3))), tape.const(np.ones(3)))


def test_probe_gradients():
    # The test probes themselves: sum(r * x), sum(x) and sum(x * x).
    fixed = {}

    def shapes(rng):
        b, n = dims(rng), dims(rng)
        fixed["r"] = rng.normals(b * n).reshape(b, n)
        return {"a": (b, n)}

    check_kernel(shapes, lambda tape, lv: probe_sum(tape, lv["a"], fixed["r"]))
    check_kernel(shapes, lambda tape, lv: probe_sum(tape, lv["a"]))
    check_kernel(shapes, lambda tape, lv: probe_square(tape, lv["a"]))


def test_scale_gradients():
    check_kernel(lambda rng: {"a": (dims(rng), dims(rng))},
                 lambda tape, lv: tape.scale(lv["a"], -0.37))


def margin_fixture(weighted):
    """Shapes of one (B, K) score leaf f, drawing a gamma that puts the
    margin inside the scores' range and, if `weighted`, (B, K) weights."""
    fixed = {}

    def shapes(rng):
        b, k = dims(rng), dims(rng)
        fixed["gamma"] = 2.0 * rng.normals(2)[0]
        fixed["w"] = rng.uniforms(b * k).reshape(b, k) if weighted else None
        return {"f": (b, k)}

    return fixed, shapes


@pytest.mark.parametrize("sign", [1, -1])
def test_log_sigmoid_sum_gradients(sign):
    fixed, shapes = margin_fixture(weighted=False)
    check_kernel(shapes, lambda tape, lv: tape.log_sigmoid_sum(lv["f"], fixed["gamma"],
                                                               sign))


@pytest.mark.parametrize("sign", [1, -1])
def test_log_sigmoid_sum_weighted_gradients(sign):
    fixed, shapes = margin_fixture(weighted=True)
    check_kernel(shapes, lambda tape, lv: tape.log_sigmoid_sum(lv["f"], fixed["gamma"],
                                                               sign, fixed["w"]))


def test_log_sigmoid_sum_equals_composed_chain():
    # The parent form of the discriminator step's margin terms, in numpy:
    # log_sigmoid(gamma - F_pos) summed once per loss, and the weighted
    # log_sigmoid(F_neg - gamma), each the sub -> log_sigmoid -> mul -> sum
    # chain with its backward.  Values and the adjoints of F_pos (which both
    # losses share) and F_neg must be the same bytes.
    rng = SeededRng(8, stream="margin-chain")
    b, k, gamma = 37, 16, 4.0
    store = ParameterStore(dtype=np.float32)
    store.add("pos", 4.0 + 2.0 * rng.normals(b), "discriminator")
    store.add("neg", 4.0 + 3.0 * rng.normals(b * k).reshape(b, k), "discriminator")
    weights = rng.uniforms(b * k).reshape(b, k)
    weights /= weights.sum(axis=1, keepdims=True)

    tape = Tape(store)
    pos = tape.log_sigmoid_sum(tape.leaf("pos"), gamma, 1)
    kgc = tape.scale(tape.add(pos, tape.log_sigmoid_sum(tape.leaf("neg"), gamma, -1,
                                                        weights)), -1.0 / b)
    adv = tape.scale(tape.add(pos, tape.const(np.float32(0.25))), -1.0 / b)
    grads = backward_views(tape, tape.add(kgc, tape.scale(adv, 0.5)))

    f32, g = np.float32, np.float32(1.0)
    c = np.asarray(gamma, f32)
    x_pos, x_neg = c - store["pos"], store["neg"] - c
    t_pos, t_neg = -np.logaddexp(0.0, -x_pos), -np.logaddexp(0.0, -x_neg)
    w = np.asarray(weights, f32)
    weighted = t_neg * w
    assert pos.value.tobytes() == t_pos.sum().tobytes()
    assert kgc.value.tobytes() == ((t_pos.sum() + weighted.sum()) * (-1.0 / b)).tobytes()
    g_kgc, g_adv = g * (-1.0 / b), (g * 0.5) * (-1.0 / b)
    g_pos = np.full(b, g_adv, f32) + np.full(b, g_kgc, f32)
    want_pos = -(g_pos * np.exp(-np.logaddexp(0.0, x_pos)))
    want_neg = (np.full((b, k), g_kgc, f32) * w) * np.exp(-np.logaddexp(0.0, x_neg))
    assert grads["pos"].tobytes() == want_pos.tobytes()
    assert grads["neg"].tobytes() == want_neg.tobytes()
    assert grads["pos"].dtype == grads["neg"].dtype == np.float32


def test_log_sigmoid_sum_rejects_bad_sign_and_weights():
    tape = Tape(ParameterStore(np.float64))
    f = tape.const(np.ones((2, 3)))
    for sign, weights in ((0, None), (1, np.ones(3)), (-1, np.ones((3, 2)))):
        with pytest.raises(ContractError, match="log_sigmoid_sum"):
            tape.log_sigmoid_sum(f, 1.0, sign, weights)


def test_leaky_relu_gradients():
    # Push every component away from the kink so the finite-difference
    # probes stay within one linear piece.
    def clear_kink(store):
        a = store["a"]
        store.set("a", a + 0.25 * np.sign(a))

    check_kernel(lambda rng: {"a": (dims(rng), dims(rng))},
                 lambda tape, lv: tape.leaky_relu(lv["a"], 0.01),
                 mutate=clear_kink)


# --- shape-manipulation kernels --------------------------------------------

def test_matvec_gradients():
    def shapes(rng):
        m, n = dims(rng), dims(rng)
        return {"w": (m, n), "x": (1, n), "b": (m,)}
    check_kernel(shapes, lambda tape, lv: tape.matvec(lv["w"], lv["x"], lv["b"]))


def test_matvec_batched_gradients():
    def shapes(rng):
        b, m, n = dims(rng), dims(rng), dims(rng)
        return {"w": (m, n), "x": (b, n), "b": (m,)}
    check_kernel(shapes, lambda tape, lv: tape.matvec(lv["w"], lv["x"], lv["b"]))


def test_concat_gradients():
    # A row join: parts of one width and any row counts, one part used twice.
    def shapes(rng):
        n = dims(rng)
        return {"a": (dims(rng), n), "b": (dims(rng), n)}
    check_kernel(shapes,
                 lambda tape, lv: tape.log_sigmoid_sum(
                     tape.concat([lv["a"], lv["b"], lv["a"]]), 0.0, -1))


def test_gather_gradients():
    # Repeated indices exercise scatter-add accumulation in the backward.
    def build(tape, lv):
        idx = np.array([0, 2, 2, 1, 0])
        return tape.log_sigmoid_sum(tape.gather(lv["table"], idx), 0.0, -1)
    check_kernel(lambda rng: {"table": (4, dims(rng))}, build)


def scatter_add_adjoint(store, idx, coef):
    """Adjoint of table rows `idx` under coefficients `coef`: the gather
    kernel's, and the one np.add.at forms into zeros."""
    tape = Tape(store)
    root = probe_sum(tape, tape.gather(tape.leaf("table"), idx), coef)
    expect = np.zeros_like(store["table"])
    np.add.at(expect, idx, coef)
    return backward_views(tape, root)["table"], expect


def test_unique_gather_adjoint_equals_scatter_add():
    # Strictly increasing indices (sorted table ids) add their rows in one
    # fancy-index add; the bytes must be np.add.at's, -0.0 (which 0.0 + -0.0
    # makes 0.0) too.
    store = ParameterStore(dtype=np.float32)
    store.add("table", np.ones((8, 3)), group="discriminator")
    rng = SeededRng(5, stream="unique-gather")
    for idx in ([0, 2, 3, 7], [[0, 1], [4, 6]], [5], [3, 1, 6], [0, 2, 2, 5],
                [[0, 3], [1, 4]], [[0, 1], [1, 2]]):
        idx = np.array(idx)
        coef = rng.normals(idx.size * 3).reshape(*idx.shape, 3).astype(np.float32)
        coef.reshape(-1)[::4] = -0.0
        got, expect = scatter_add_adjoint(store, idx, coef)
        assert got.dtype == np.float32
        assert got.tobytes() == expect.tobytes(), idx.tolist()


def test_two_gathers_of_one_parameter_add_into_its_one_view():
    # Both kernels scatter repeated rows into the leaf's one accumulator,
    # its view of the group gradient; integer coefficients keep every sum
    # exact whatever the order.
    store = ParameterStore(dtype=np.float32)
    store.add("table", np.ones((5, 2)), group="discriminator")
    tape = Tape(store)
    table = tape.leaf("table")
    idx_a, idx_b = np.array([1, 1, 3]), np.array([[3, 0], [3, 3]])
    coef_a, coef_b = np.arange(1.0, 7.0).reshape(3, 2), np.arange(-4.0, 4.0).reshape(2, 2, 2)
    grads = backward_views(tape, tape.add(probe_sum(tape, tape.gather(table, idx_a), coef_a),
                                          probe_sum(tape, tape.gather(table, idx_b), coef_b)))
    expect = np.zeros((5, 2), np.float32)
    np.add.at(expect, idx_a, coef_a)
    np.add.at(expect, idx_b, coef_b)
    assert (table.grad.ctypes.data, table.grad.shape) == (grads["table"].ctypes.data, (5, 2))
    assert np.shares_memory(table.grad, tape.grads["discriminator"])
    assert np.array_equal(grads["table"], expect)


@pytest.mark.parametrize("use", ["unique", "repeated", "query_distance"])
def test_scatter_backward_makes_no_operand_sized_table(use):
    # Kernels that read a few rows of a large leaf scatter their adjoint into
    # the leaf's view of the group gradient, allocating only row-sized
    # temporaries beside that buffer, and the finite check reads the buffer
    # in chunks rather than through a mask of its size.
    n, d = 20_000, 32
    store = ParameterStore(dtype=np.float32)
    store.add("table", np.ones((n, 2 * d)), "discriminator")
    store.add("phase", np.full((3, d), 0.5), "discriminator")
    tape = Tape(store)
    table = tape.leaf("table")
    if use == "query_distance":
        out = tape.query_distance(table, [[0, 7, 9]], tape.leaf("phase"), [0, 2, 1],
                                  table, [[1, 2], [3, 4], [5, 6]])
    else:
        out = tape.gather(table, np.array([2, 5, 900] if use == "unique" else [5, 2, 5]))
    root = probe_sum(tape, out)
    tracemalloc.start()
    try:
        grads = backward_views(tape, root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads["table"].any()
    assert peak < 1.1 * store.values["discriminator"].nbytes


def test_scatter_refuses_a_table_that_is_not_c_contiguous():
    # Its reshape(-1) would be a copy, which would take the scatter with it.
    table = np.zeros((4, 6))
    for bad in (table[:, ::2], table.T, np.asfortranarray(table)):
        with pytest.raises(ContractError, match="C-contiguous"):
            _scatter(np.add, bad, np.array([0, 1]), np.ones((2, bad.shape[1])))
    assert not table.any()


def test_merge_rows_gradients():
    fixed = {}

    def shapes(rng):
        b, n = dims(rng, 2, 7), dims(rng)
        mask = rng.uniforms(b) < 0.5
        mask[:2] = (True, False)
        fixed["mask"] = mask
        return {"a": (int(mask.sum()), n), "b": (b - int(mask.sum()), n)}

    def build(tape, lv):
        out = tape.merge_rows(fixed["mask"], lv["a"], lv["b"])
        return probe_square(tape, out)
    check_kernel(shapes, build)


def test_merge_rows_routes_rows_in_order():
    tape = Tape(ParameterStore(np.float64))
    a = tape.const(np.array([[1.0], [2.0]]))
    b = tape.const(np.array([[-1.0], [-2.0], [-3.0]]))
    out = tape.merge_rows(np.array([False, True, False, True, False]), a, b)
    assert out.value.ravel().tolist() == [-1.0, 1.0, -2.0, 2.0, -3.0]
    for mask in ([True, True, False], [True, True, False, False, False, True], [[True]]):
        with pytest.raises(ContractError, match="merge_rows"):
            tape.merge_rows(np.array(mask), a, b)


# --- rotation distance --------------------------------------------------------

def rows_of(n):
    return np.arange(n, dtype=np.int64)


def test_complex_rotate_gradients():
    # The rotation's adjoints: query rows and theta live, candidates a fixed
    # constant.
    def shapes(rng):
        b, d = dims(rng), dims(rng)
        return {"h": (b, 2 * d), "theta": (b, d)}

    def build(tape, lv):
        b, n = lv["h"].shape
        t = tape.const(2.0 * np.cos(np.arange(b * n)).reshape(b, n))
        return tape.query_distance(lv["h"], rows_of(b), lv["theta"], rows_of(b),
                                   t, rows_of(b))
    check_kernel(shapes, build)


def test_complex_modulus_sum_gradients():
    # With zero queries the distance is the modulus sum of the candidates.
    # The modulus is nonsmooth at the origin; push every complex pair's
    # magnitude above a floor so the probes stay in the smooth region.
    def clear_cone(store):
        x = store["t"]
        pairs = x.reshape(x.shape[0], -1, 2)
        mod = np.sqrt((pairs ** 2).sum(axis=2, keepdims=True))
        scale = np.maximum(1.0, 0.3 / np.maximum(mod, 1e-12))
        store.set("t", (pairs * scale).reshape(x.shape))

    def shapes(rng):
        b, d = dims(rng), dims(rng)
        return {"t": (b, 2 * d)}

    def build(tape, lv):
        b, n = lv["t"].shape
        return tape.query_distance(tape.const(np.zeros((b, n))), rows_of(b),
                                   tape.const(np.zeros((b, n // 2))), rows_of(b),
                                   lv["t"], rows_of(b))
    check_kernel(shapes, build, mutate=clear_cone)


def mixed_slots(n_q, n_r, n_c, n_rows, k):
    """Index arrays for `n_rows` rows of `k` slots that repeat query rows,
    relations and candidates, and mix head and tail slots in every row."""
    q_idx = np.stack([rows_of(n_rows) * 3 % n_q, rows_of(n_rows) * 5 % n_q])
    c_idx = (rows_of(n_rows * k) * 7 % n_c).reshape(n_rows, k)
    head = (rows_of(n_rows * k) % 3 == 1).reshape(n_rows, k)
    return q_idx, rows_of(n_rows) * 2 % n_r, c_idx, head


def test_rotate_then_score_gradients():
    # The whole score with all three operands live, head and tail queries
    # mixed, indexed with repeats so the backward scatter-adds, under a
    # non-uniform upstream gradient.
    def clear(store):
        for name in ("q", "c"):
            store.set(name, store[name] + 0.5 * np.sign(store[name]))

    def shapes(rng):
        d = dims(rng, 2, 4)
        return {"q": (dims(rng, 2, 4), 2 * d), "theta": (dims(rng, 1, 3), d),
                "c": (dims(rng, 2, 4), 2 * d)}

    def build(tape, lv):
        q_idx, r_idx, c_idx, head = mixed_slots(lv["q"].shape[0], lv["theta"].shape[0],
                                                lv["c"].shape[0], 4, 3)
        return tape.log_sigmoid_sum(tape.query_distance(lv["q"], q_idx, lv["theta"], r_idx,
                                                        lv["c"], c_idx, head), 0.0, -1)
    check_kernel(shapes, build, trials=TRIALS // 2, mutate=clear)


def triple_reference(q, q_idx, theta, r_idx, c, c_idx, head, w):
    """Every slot as the triple it scores, in complex128: a tail slot is
    (q row, r, c row) and a head slot (c row, r, q row), both scored
    F = sum_k |z_h e^{i theta} - z_t|.  Returns F and the gradients of
    sum w F for q, theta and c, from the complex chain rule."""
    z_q, z_c = (x[:, 0::2] + 1j * x[:, 1::2] for x in (q, c))
    rows = np.broadcast_to(np.arange(r_idx.size)[:, None], c_idx.shape)
    q_rows = np.where(head, q_idx[-1][rows], q_idx[0][rows])
    flip = head[..., None]
    z_h = np.where(flip, z_c[c_idx], z_q[q_rows])
    z_t = np.where(flip, z_q[q_rows], z_c[c_idx])
    rot = np.exp(1j * theta[r_idx])[:, None, :]
    u = z_h * rot - z_t
    n = w[..., None] * u / np.abs(u)
    g_h, g_t = n * np.conj(rot), -n
    g_q, g_c, g_theta = np.zeros_like(z_q), np.zeros_like(z_c), np.zeros(theta.shape)
    np.add.at(g_q, q_rows, np.where(flip, g_t, g_h))
    np.add.at(g_c, c_idx, np.where(flip, g_h, g_t))
    np.add.at(g_theta, r_idx[rows], np.imag(n * np.conj(z_h * rot)))

    def interleave(z):
        return np.stack([z.real, z.imag], axis=-1).reshape(z.shape[0], -1)

    return np.abs(u).sum(axis=-1), interleave(g_q), g_theta, interleave(g_c)


@pytest.mark.parametrize("shared", [True, False])
def test_rotate_distance_matches_complex_reference(shared):
    # float64, 300 rows of 8 slots at d = 64 (five blocks), head and tail
    # slots mixed, query rows, relations and candidates repeated; `shared`
    # scores one table against itself, as training does.
    rng = SeededRng(5, stream="rotate-reference")
    d, n_rows, k, n_q, n_c, n_r = 64, 300, 8, 37, 23, 5
    store = ParameterStore(dtype=np.float64)
    store.add("q", rng.normals(n_q * 2 * d).reshape(n_q, 2 * d), "discriminator")
    store.add("c", rng.normals(n_c * 2 * d).reshape(n_c, 2 * d), "discriminator")
    store.add("theta", (rng.uniforms(n_r * d).reshape(n_r, d) * 2 - 1) * math.pi,
              "discriminator")
    q_idx = rng.randints(np.full(2 * n_rows, n_q)).reshape(2, n_rows)
    r_idx = rng.randints(np.full(n_rows, n_r))
    c_idx = rng.randints(np.full(n_rows * k, n_q if shared else n_c)).reshape(n_rows, k)
    head = (rng.uniforms(n_rows * k) < 0.5).reshape(n_rows, k)
    w = rng.normals(n_rows * k).reshape(n_rows, k)

    tape = Tape(store)
    q = tape.leaf("q")
    c = q if shared else tape.leaf("c")
    out = tape.query_distance(q, q_idx, tape.leaf("theta"), r_idx, c, c_idx, head)
    grads = backward_views(tape, probe_sum(tape, out, w))

    c_value = store["q"] if shared else store["c"]
    f, g_q, g_theta, g_c = triple_reference(store["q"], q_idx, store["theta"], r_idx,
                                            c_value, c_idx, head, w)
    if shared:
        g_q, g_c = g_q + g_c, np.zeros_like(store["c"])
    assert out.value.dtype == np.float64 and out.shape == (n_rows, k)
    for got, want in ((out.value, f), (grads["q"], g_q), (grads["theta"], g_theta),
                      (grads["c"], g_c)):
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_rotate_distance_keeps_tape_dtype():
    store = ParameterStore(dtype=np.float32)
    store.add("h", np.ones((3, 4)), "discriminator")
    store.add("theta", np.full((2, 2), 0.5), "discriminator")
    tape = Tape(store)
    h = tape.leaf("h")
    out = tape.query_distance(h, [[0, 1, 1], [2, 0, 1]], tape.leaf("theta"), [0, 1, 0],
                              h, [[2, 1], [2, 0], [0, 0]],
                              [[False, True], [True, False], [True, True]])
    grads = backward_views(tape, probe_sum(tape, out))
    assert out.value.dtype == np.float32
    assert grads["h"].dtype == grads["theta"].dtype == np.float32


def _float32_uses():
    """One use of every kernel on float32 parameter leaves; `p` makes a leaf."""
    mask = np.array([True, False, True])
    return {
        "add": lambda t, p: t.add(p("a"), p("b")),
        "matvec": lambda t, p: t.matvec(p("w"), p("a"), p("c")),
        "concat": lambda t, p: t.concat([p("a"), p("b")]),
        "gather": lambda t, p: t.gather(p("a"), np.array([2, 0, 0])),
        "merge_rows": lambda t, p: t.merge_rows(
            mask, t.gather(p("a"), np.array([0, 1])), t.gather(p("b"), np.array([2]))),
        "leaky_relu": lambda t, p: t.leaky_relu(p("a"), 0.01),
        "log_sigmoid_sum": lambda t, p: t.add(
            t.log_sigmoid_sum(p("a"), 0.5, 1),
            t.log_sigmoid_sum(p("b"), 0.5, -1, np.linspace(0.1, 1.2, 12).reshape(3, 4))),
        "scale": lambda t, p: t.scale(p("a"), 0.3),
        "fusion_weights": lambda t, p: t.fusion_weights([p("a"), p("b")],
                                                        [p("u"), p("v")]),
        "mix": lambda t, p: t.mix(p("alpha"), [p("a"), p("b")]),
        "query_distance": lambda t, p: t.query_distance(
            p("a"), [[0, 1, 2], [2, 2, 0]], p("phase"), [1, 0, 1], p("b"),
            [[2, 0], [1, 1], [0, 2]], [[True, False], [False, True], [True, True]]),
    }


def test_float32_tape_gradients_stay_float32():
    # A float64 adjoint in a float32 store would run float64 GEMMs and mix
    # dtypes in Adam.  Every kernel is listed, so a new one must join here.
    uses = _float32_uses()
    kernels = {n for n, v in vars(Tape).items() if inspect.isfunction(v)
               and not n.startswith("_")} - {"const", "leaf", "backward"}
    assert set(uses) == kernels
    rng = SeededRng(3, stream="float32-grads")
    shapes = {"a": (3, 4), "b": (3, 4), "w": (5, 4), "c": (5,), "u": (4,), "v": (4,),
              "alpha": (3, 2), "phase": (2, 2), "unused": (2, 2)}
    store = ParameterStore(dtype=np.float32)
    for name, shape in shapes.items():
        store.add(name, rng.normals(int(np.prod(shape))).reshape(shape), "discriminator")
    assert (store["a"] < 0).any() and (store["a"] > 0).any()   # both leaky slopes
    for op, use in uses.items():
        tape = Tape(store)
        leaves = []

        def p(name):
            leaves.append(name)
            return tape.leaf(name)

        out = use(tape, p)
        grads = backward_views(tape, probe_square(tape, out))
        assert {n: g.dtype for n, g in grads.items()} == dict.fromkeys(shapes, np.float32), op
        assert all(np.any(grads[n] != 0) for n in leaves), op
        assert not np.any(grads["unused"]), op


def test_rotate_distance_zero_modulus_subgradient():
    # Identical rows under a zero phase give u = 0 exactly, for the tail and
    # the head query: the distance is 0 and the subgradient 0, like the
    # modulus at the origin.
    store = ParameterStore(dtype=np.float64)
    store.add("h", np.array([[1.5, -2.0, 0.25, 3.0]]), "discriminator")
    store.add("theta", np.zeros((1, 2)), "discriminator")
    tape = Tape(store)
    h = tape.leaf("h")
    out = tape.query_distance(h, [[0], [0]], tape.leaf("theta"), [0], h, [[0, 0]],
                              [[False, True]])
    grads = backward_views(tape, probe_sum(tape, out))
    assert np.all(out.value == 0.0)
    assert np.all(grads["h"] == 0.0) and np.all(grads["theta"] == 0.0)


# --- fusion kernels ----------------------------------------------------------

def fusion_shapes(rng, fixed=None):
    """M parts (B, n) and M weight vectors (n,); with `fixed` given, the
    parts are drawn into it as constants and only the weights are leaves."""
    b, n, m = dims(rng), dims(rng), dims(rng, 1, 4)
    if fixed is not None:
        fixed["parts"] = rng.normals(m * b * n).reshape(m, b, n)
        return {f"w{j}": (n,) for j in range(m)}
    return {**{f"p{j}": (b, n) for j in range(m)},
            **{f"w{j}": (n,) for j in range(m)}}


def leaves_named(lv, prefix):
    return [lv[name] for name in sorted(lv) if name.startswith(prefix)]


def test_fusion_weights_gradients():
    def build(tape, lv):
        alpha = tape.fusion_weights(leaves_named(lv, "p"), leaves_named(lv, "w"))
        return probe_square(tape, alpha)
    check_kernel(fusion_shapes, build)


def test_softmax_gradients():
    # Constant parts fix tanh(e_m), so the scores are linear in the weights
    # and the check isolates the shifted softmax's backward.
    fixed = {}

    def build(tape, lv):
        parts = [tape.const(p) for p in fixed["parts"]]
        alpha = tape.fusion_weights(parts, leaves_named(lv, "w"))
        return probe_square(tape, alpha)
    check_kernel(lambda rng: fusion_shapes(rng, fixed), build)


def test_tanh_gradients():
    # Constant weights leave only the parts adjoint (g*w)*(1-t*t).
    fixed = {}

    def shapes(rng):
        out = fusion_shapes(rng)
        fixed["w"] = [rng.normals(out[name][0])
                      for name in sorted(out) if name.startswith("w")]
        return {name: shape for name, shape in out.items() if name.startswith("p")}

    def build(tape, lv):
        weights = [tape.const(w) for w in fixed["w"]]
        alpha = tape.fusion_weights(leaves_named(lv, "p"), weights)
        return probe_square(tape, alpha)
    check_kernel(shapes, build)


def test_sum_axis_gradients():
    # Each score sums t*w over the last axis; one weight leaf shared by
    # every modality must collect its adjoint over batch rows and modalities.
    def shapes(rng):
        b, n, m = dims(rng), dims(rng, 2, 6), dims(rng, 2, 4)
        return {"w": (n,), **{f"p{j}": (b, n) for j in range(m)}}

    def build(tape, lv):
        parts = leaves_named(lv, "p")
        alpha = tape.fusion_weights(parts, [lv["w"]] * len(parts))
        return probe_square(tape, alpha)
    check_kernel(shapes, build)


def mix_shapes(rng):
    b, n, m = dims(rng), dims(rng), dims(rng, 1, 4)
    return {"alpha": (b, m), **{f"p{j}": (b, n) for j in range(m)}}


def test_mix_gradients():
    def build(tape, lv):
        out = tape.mix(lv["alpha"], leaves_named(lv, "p"))
        return probe_square(tape, out)
    check_kernel(mix_shapes, build)


def test_mix_constant_alpha_gradients():
    fixed = {}

    def shapes(rng):
        out = mix_shapes(rng)
        alpha_shape = out.pop("alpha")
        fixed["alpha"] = rng.uniforms(int(np.prod(alpha_shape))).reshape(alpha_shape)
        return out

    def build(tape, lv):
        out = tape.mix(tape.const(fixed["alpha"]), leaves_named(lv, "p"))
        return probe_square(tape, out)
    check_kernel(shapes, build)


def test_stack_gradients():
    # One part leaf in every modality slot: its adjoint accumulates over
    # the stacked modality axis.
    def shapes(rng):
        b, n, m = dims(rng), dims(rng), dims(rng, 2, 4)
        return {"alpha": (b, m), "p": (b, n)}

    def build(tape, lv):
        m = lv["alpha"].value.shape[1]
        out = tape.mix(lv["alpha"], [lv["p"]] * m)
        return probe_square(tape, out)
    check_kernel(shapes, build)


def test_fusion_then_mix_gradients():
    # Composition mirroring Model.fuse: the parts feed both kernels.
    def build(tape, lv):
        parts = leaves_named(lv, "p")
        joint = tape.mix(tape.fusion_weights(parts, leaves_named(lv, "w")), parts)
        return probe_square(tape, joint)
    check_kernel(fusion_shapes, build, trials=TRIALS // 2)


def test_fusion_kernels_form_no_constant_adjoints():
    store = ParameterStore(dtype=np.float64)
    store.add("w", np.full(3, 0.5), group="discriminator")
    tape = Tape(store)
    parts = [tape.const(np.full((2, 3), float(j))) for j in range(2)]
    alpha = tape.fusion_weights(parts, [tape.leaf("w"), tape.leaf("w")])
    mean = tape.mix(tape.const(np.full((2, 2), 0.5)), parts)
    tape.backward(tape.add(probe_sum(tape, tape.mix(alpha, parts)), probe_sum(tape, mean)))
    assert alpha.grad is not None
    assert not mean.live and mean.backward_fn is None
    assert all(p.grad is None for p in parts)


def test_fusion_kernels_shape_mismatch():
    tape = Tape(ParameterStore(np.float64))
    a = tape.const(np.ones((2, 3)))
    b = tape.const(np.ones((3, 3)))
    with pytest.raises(ContractError, match="fusion_weights"):
        tape.fusion_weights([a, b], [tape.const(np.ones(3))] * 2)
    with pytest.raises(ContractError, match="fusion_weights"):
        tape.fusion_weights([a], [tape.const(np.ones(2))])
    with pytest.raises(ContractError, match="mix"):
        tape.mix(tape.const(np.ones((2, 3))), [a, a])


# --- exact values -----------------------------------------------------------

def test_identity_rotation_is_exact():
    # Zero phases give sum_k |h_k - t_k| exactly.
    h = np.array([[1.5, -2.0, 0.25, 3.0], [0.0, 1.0, -4.0, 0.5]])
    t = np.array([[0.5, 2.0, 0.25, -1.0]])
    tape = Tape(ParameterStore(np.float64))
    out = tape.query_distance(tape.const(h), [0, 1], tape.const(np.zeros((1, 2))),
                              [0, 0], tape.const(t), [0, 0])
    diff = h - t
    assert np.array_equal(out.value, np.hypot(diff[:, 0::2], diff[:, 1::2]).sum(axis=1))


@given(hnp.arrays(np.float64, st.integers(1, 8).map(lambda d: (3, 2 * d)),
                  elements=st.floats(-100, 100)),
       st.floats(-10, 10))
@settings(max_examples=200, deadline=None)
def test_rotation_preserves_norm(x, angle):
    # With t = 0 the distance is sum_k |h_k| at every angle.
    tape = Tape(ParameterStore(np.float64))
    theta = np.full((1, x.shape[1] // 2), angle)
    rows = np.arange(x.shape[0])
    out = tape.query_distance(tape.const(x), rows, tape.const(theta), np.zeros(3, int),
                              tape.const(np.zeros_like(x)), rows)
    before = np.hypot(x[:, 0::2], x[:, 1::2]).sum(axis=1)
    assert np.all(np.abs(before - out.value) <= 1e-12 * np.maximum(1.0, before))


def test_log_sigmoid_at_zero():
    tape = Tape(ParameterStore(np.float64))
    for sign in (1, -1):
        out = tape.log_sigmoid_sum(tape.const(np.array([3.0])), 3.0, sign)
        assert abs(out.value + math.log(2.0)) < 1e-15


@given(hnp.arrays(np.float64, (3, 4, 5), elements=st.floats(-10, 10)),
       hnp.arrays(np.float64, (3, 5), elements=st.floats(-1, 1)),
       st.floats(710, 1e300))
@example(np.ones((3, 4, 5)), np.ones((3, 5)), 1e3)
@example(np.zeros((3, 4, 5)), np.ones((3, 5)), 1e300)
@settings(max_examples=200, deadline=None)
def test_softmax_simplex(parts, w, scale):
    # Scores reach scale * 5 >> 709, where an unshifted exp overflows.
    tape = Tape(ParameterStore(np.float64))
    out = tape.fusion_weights([tape.const(p) for p in parts],
                              [tape.const(scale * row) for row in w]).value
    assert np.all(np.isfinite(out)) and np.all(out >= 0.0)
    assert np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-12)


def test_softmax_of_zeros_is_uniform():
    # Zero parts or zero weights give every modality a zero score.
    tape = Tape(ParameterStore(np.float64))
    zeros = [tape.const(np.zeros((2, 4))) for _ in range(3)]
    weights = [tape.const(np.array([1e300, -2.0, 0.5, 3.0])) for _ in range(3)]
    out = tape.fusion_weights(zeros, weights).value
    assert np.array_equal(out, np.full((2, 3), 1.0 / 3.0))
    parts = [tape.const(np.full((2, 4), float(j + 1))) for j in range(3)]
    out = tape.fusion_weights(parts, [tape.const(np.zeros(4))] * 3).value
    assert np.array_equal(out, np.full((2, 3), 1.0 / 3.0))


# --- backward-pass contracts ------------------------------------------------

def test_sum_gradient_is_ones():
    store = ParameterStore()
    store.add("p", np.arange(6, dtype=float).reshape(2, 3), group="discriminator")
    tape = Tape(store)
    grads = backward_views(tape, probe_sum(tape, tape.leaf("p")))
    assert np.array_equal(grads["p"], np.ones((2, 3)))


def test_stationary_point_gradient_zero():
    store = ParameterStore()
    store.add("w", np.zeros(()), group="discriminator")
    tape = Tape(store)
    w = tape.leaf("w")
    grads = backward_views(tape, probe_square(tape, w))
    assert grads["w"] == 0.0


def test_untouched_param_gets_zero_gradient():
    store = ParameterStore()
    store.add("used", np.ones(3), group="discriminator")
    store.add("unused", np.ones(4), group="discriminator")
    tape = Tape(store)
    grads = backward_views(tape, probe_sum(tape, tape.leaf("used")))
    assert np.array_equal(grads["unused"], np.zeros(4))


def test_backward_returns_views_of_the_group_gradients():
    # One zeroed flat gradient per group; every parameter's gradient is its
    # view of it, reached, unreached and frozen alike.
    store = ParameterStore(dtype=np.float32)
    store.add("a", np.ones((2, 3)), "discriminator")
    store.add("g", np.ones(4), "generator")
    store.add("b", np.ones(2), "discriminator")
    tape = Tape(store, DISC)
    grads = backward_views(tape, probe_sum(tape, tape.add(tape.leaf("a"), tape.leaf("a"))))
    for name in store.names():
        group = store.group_of(name)
        assert tape.grads[group].shape == store.values[group].shape
        assert np.shares_memory(grads[name], tape.grads[group]), name
        assert grads[name].shape == store[name].shape and grads[name].dtype == np.float32
    assert tape.grads["discriminator"].tolist() == [2.0] * 6 + [0.0] * 2
    assert not tape.grads["generator"].any()


@pytest.mark.parametrize("wrong", [lambda g: g[:1], lambda g: g.astype(np.float64)],
                         ids=["shape", "dtype"])
def test_adjoint_of_another_shape_or_dtype_names_the_node(wrong):
    # A leaf accumulates into its view of the group gradient, where a (1, n)
    # adjoint would broadcast into an (m, n) leaf, and a float64 one round
    # into float32, without a word.
    store = ParameterStore(dtype=np.float32)
    store.add("w", np.ones((3, 2)), "discriminator")
    tape = Tape(store)
    w = tape.leaf("w")
    out = tape.scale(w, 2.0)
    out.backward_fn = lambda g: w.add_grad(wrong(g) * 2.0)
    with pytest.raises(ContractError, match="adjoint of node 'w'"):
        tape.backward(probe_sum(tape, out))


def test_backward_requires_scalar_root():
    tape = Tape(ParameterStore(np.float64))
    vec = tape.const(np.ones(3))
    with pytest.raises(ContractError):
        tape.backward(vec)


def test_backward_runs_once():
    store = ParameterStore()
    store.add("p", np.ones(2), group="discriminator")
    tape = Tape(store)
    root = probe_sum(tape, tape.leaf("p"))
    tape.backward(root)
    with pytest.raises(ContractError):
        tape.backward(root)


def test_check_finite_raises_on_overflow():
    # The forward pass never checks; backward names the kernel whose value
    # first went non-finite.
    tape = Tape(ParameterStore(np.float64))
    big = tape.const(np.array([1e308]))
    with np.errstate(over="ignore"):
        root = probe_sum(tape, tape.add(big, big))
    with pytest.raises(NumericError, match="op 'add'"):
        tape.backward(root)


def test_finite_loss_with_overflowing_gradient_names_parameter():
    # sum(p*c*c) = 2e30 fits float32, but its gradient c*c = 1e60 does not;
    # backward must refuse it before any optimizer step can see it.
    store = ParameterStore(dtype=np.float32)
    store.add("p", np.full(2, 1e-30), group="discriminator")
    tape = Tape(store)
    c = 1e30
    root = probe_sum(tape, tape.scale(tape.scale(tape.leaf("p"), c), c))
    assert np.isfinite(root.value)
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match="gradient of parameter 'p'"):
        tape.backward(root)


def test_nonfinite_gradient_in_the_last_chunk_names_parameter():
    # The finite check reads each group's gradient ADAM_CHUNK entries at a
    # time; one overflowing entry in the last, partial chunk is still seen.
    n = 2 * ADAM_CHUNK + 5
    store = ParameterStore(dtype=np.float32)
    store.add("p", np.zeros(n), group="discriminator")
    tape = Tape(store)
    r = np.ones(n)
    r[-1] = 1e30
    root = probe_sum(tape, tape.scale(tape.leaf("p"), 1e30), r)
    assert root.value == 0
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match="gradient of parameter 'p'"):
        tape.backward(root)


def test_matvec_shape_mismatch_names_op():
    tape = Tape(ParameterStore(np.float64))
    w = tape.const(np.ones((2, 3)))
    for x, b in ((np.ones((1, 4)), np.ones(2)),      # wrong width
                 (np.ones(3), np.ones(2)),           # unbatched row
                 (np.ones((1, 3)), np.ones(3)),      # bias of the input width
                 (np.ones((1, 3)), np.ones((1, 2)))):
        with pytest.raises(ContractError, match="matvec"):
            tape.matvec(w, tape.const(x), tape.const(b))


def test_complex_rotate_shape_mismatch():
    tape = Tape(ParameterStore(np.float64))
    x = tape.const(np.ones((1, 3)))  # odd length: no complex pairing
    theta = tape.const(np.ones((1, 1)))
    with pytest.raises(ContractError, match="query_distance"):
        tape.query_distance(x, [0], theta, [0], x, [0])
    even = tape.const(np.ones((1, 2)))
    for q_idx, c_idx, head in (([0, 0], [0, 0], None),     # queries vs relations
                               ([0], [[0], [0]], None),    # slot rows vs relations
                               ([0], [[0]], [[True]]),     # head slot, no head query
                               ([[0], [0]], [[0]], None),  # head query, no head slot
                               ([[0], [0], [0]], [0], None)):
        with pytest.raises(ContractError, match="query_distance"):
            tape.query_distance(even, q_idx, theta, [0], even, c_idx, head)


def _ones(tape, *shape):
    return tape.const(np.ones(shape))


@pytest.mark.parametrize("op, use, shapes", [
    ("add", lambda t: t.add(_ones(t, 2, 3), _ones(t, 3)), [(2, 3), (3,)]),
    ("matvec", lambda t: t.matvec(_ones(t, 2, 3), _ones(t, 1, 4), _ones(t, 2)),
     [(2, 3), (1, 4), (2,)]),
    ("concat", lambda t: t.concat([_ones(t, 2, 3), _ones(t, 2, 4)]), [(2, 3), (2, 4)]),
    ("gather", lambda t: t.gather(_ones(t, 4), np.array([0])), [(4,)]),
    ("merge_rows", lambda t: t.merge_rows([True, False], _ones(t, 1, 3), _ones(t, 2, 3)),
     [(2,), (1, 3), (2, 3)]),
    ("log_sigmoid_sum", lambda t: t.log_sigmoid_sum(_ones(t, 2, 3), 1.0, 1, np.ones(3)),
     [(2, 3), (3,)]),
    ("fusion_weights", lambda t: t.fusion_weights([_ones(t, 2, 3), _ones(t, 3, 3)],
                                                  [_ones(t, 3), _ones(t, 3)]),
     [(2, 3), (3, 3), (3,), (3,)]),
    ("mix", lambda t: t.mix(_ones(t, 2, 3), [_ones(t, 2, 3), _ones(t, 2, 3)]),
     [(2, 3), (2, 3), (2, 3)]),
    ("query_distance", lambda t: t.query_distance(_ones(t, 1, 4), [0], _ones(t, 1, 2), [0],
                                                  _ones(t, 1, 4), [[0]], [[True]]),
     [(1, 4), (1, 2), (1, 4), (1, 1), (1,), (1, 1), (1, 1)]),
])
def test_mismatched_shapes_name_the_op_and_the_shapes(op, use, shapes):
    # Each kernel checks its operands before it computes; the shapes are
    # listed only once a check has failed.
    with pytest.raises(ContractError, match=re.escape(f"{op}: incompatible shapes {shapes}")):
        use(Tape(ParameterStore(np.float64)))


def test_concat_shape_mismatch():
    # Rows join only at one width; parts must be 2-d, and there must be one.
    tape = Tape(ParameterStore(np.float64))
    a = tape.const(np.ones((2, 3)))
    assert tape.concat([a, tape.const(np.ones((4, 3)))]).shape == (6, 3)
    for parts in ([a, tape.const(np.ones((2, 4)))], [a, tape.const(np.ones(3))],
                  [tape.const(np.ones((2, 3, 1)))], []):
        with pytest.raises(ContractError, match="concat"):
            tape.concat(parts)


def test_matvec_flushes_subnormal_adjoint():
    # 2% of a float32 adjoint is subnormal: all of output 1's and 1% of the
    # rest.  The gradients must be the GEMMs of the hand-zeroed adjoint
    # (output 1's weight row exactly 0) and agree with float64 unflushed.
    rng = SeededRng(21, stream="subnormal-matvec")
    b, m, n = 300, 100, 6
    store = ParameterStore(dtype=np.float32)
    store.add("w", rng.normals(m * n).reshape(m, n), group="discriminator")
    store.add("x", rng.normals(b * n).reshape(b, n), group="discriminator")
    coef = rng.normals(b * m).reshape(b, m).astype(np.float32)
    tiny = np.finfo(np.float32).tiny
    sub = rng.uniforms(b * m).reshape(b, m) < 0.01
    sub[:, 1] = True
    coef[sub] = (np.sign(coef[sub]) * tiny * rng.uniforms(int(sub.sum()))).astype(np.float32)
    assert 0.015 < np.mean((coef != 0) & (np.abs(coef) < tiny)) < 0.025
    tape = Tape(store)
    root = probe_sum(tape, tape.matvec(tape.leaf("w"), tape.leaf("x"),
                                       tape.const(np.zeros(m))), coef)
    grads = backward_views(tape, root)
    zeroed = np.where(np.abs(coef) < tiny, np.float32(0), coef)
    w, x = store["w"], store["x"]
    assert grads["w"].tobytes() == (zeroed.T @ x).tobytes()
    assert grads["x"].tobytes() == (zeroed @ w).tobytes()
    assert not grads["w"][1].any()
    ref_w = coef.astype(np.float64).T @ x.astype(np.float64)
    ref_x = coef.astype(np.float64) @ w.astype(np.float64)
    for got, ref in ((grads["w"], ref_w), (grads["x"], ref_x)):
        assert np.allclose(got, ref, rtol=1e-5, atol=1e-6 * np.abs(ref).max())


def test_matvec_bias_takes_unflushed_adjoint():
    # The bias gradient is the column sum of the adjoint as it arrives, so
    # subnormal entries reach it: column 1 is wholly subnormal and its bias
    # gradient is their nonzero sum, while the weights see zeros there.
    rng = SeededRng(22, stream="subnormal-bias")
    b, m, n = 64, 3, 4
    store = ParameterStore(dtype=np.float32)
    store.add("w", rng.normals(m * n).reshape(m, n), group="discriminator")
    store.add("x", rng.normals(b * n).reshape(b, n), group="discriminator")
    store.add("b", np.zeros(m), group="discriminator")
    coef = rng.normals(b * m).reshape(b, m).astype(np.float32)
    tiny = np.finfo(np.float32).tiny
    coef[:, 1] = (tiny * rng.uniforms(b)).astype(np.float32)
    coef[::3, 2] = (-tiny * rng.uniforms(len(coef[::3]))).astype(np.float32)
    tape = Tape(store)
    root = probe_sum(tape, tape.matvec(tape.leaf("w"), tape.leaf("x"),
                                       tape.leaf("b")), coef)
    grads = backward_views(tape, root)
    assert grads["b"].tobytes() == coef.sum(axis=0).tobytes()
    assert 0 < grads["b"][1] < b * tiny
    assert not grads["w"][1].any()


def test_forward_and_backward_deterministic():
    def run():
        rng = SeededRng(99)
        store = ParameterStore()
        store.add("w", rng.normals(12).reshape(3, 4), group="discriminator")
        store.add("x", rng.normals(4).reshape(1, 4), group="discriminator")
        store.add("b", rng.normals(4)[:3], group="discriminator")
        tape = Tape(store)
        y = tape.matvec(tape.leaf("w"), tape.leaf("x"), tape.leaf("b"))
        root = tape.log_sigmoid_sum(y, 0.0, -1)
        grads = backward_views(tape, root)
        return (root.value.tobytes(), grads["w"].tobytes(), grads["x"].tobytes(),
                grads["b"].tobytes())

    assert run() == run()


# --- dead-adjoint pruning ----------------------------------------------------

def test_constant_subgraph_gets_no_adjoint():
    store = ParameterStore(dtype=np.float64)
    store.add("p", np.ones((1, 3)), group="discriminator")
    store.add("frozen", np.full((1, 3), 2.0), group="generator")
    tape = Tape(store, DISC)
    c = tape.const(np.arange(3.0)[None] - 3.0)
    frozen = tape.leaf("frozen")
    total = tape.add(c, frozen)
    dead = tape.leaky_relu(total, 0.5)
    bias = tape.const(np.zeros(1))
    root = probe_sum(tape, tape.matvec(tape.leaf("p"), dead, bias))
    grads = backward_views(tape, root)
    for node in (c, frozen, total, dead, bias):
        assert not node.live
        assert node.backward_fn is None
        assert node.grad is None
    assert root.live
    assert np.array_equal(grads["p"], [[-0.5, 0.0, 1.0]])
    assert np.array_equal(grads["frozen"], np.zeros((1, 3)))
    # Every parameter is one node per tape, on the store's own array, live
    # iff the tape's live groups hold it; a frozen leaf never gets an
    # accumulator, and backward still returns zeros for each parameter the
    # root does not reach.
    for live in (DISC, GEN, FROZEN):
        tape = Tape(store, live)
        leaves = {name: tape.leaf(name) for name in ("p", "frozen")}
        for name, node in leaves.items():
            assert tape.leaf(name) is node and node.name == name
            assert node.live == (store.group_of(name) in live) and node.backward_fn is None
            assert np.shares_memory(node.value, store[name])
        root = probe_sum(tape, tape.add(tape.leaf("p"), tape.leaf("frozen")))
        grads = backward_views(tape, root)
        for name, node in leaves.items():
            reached = store.group_of(name) in live
            assert (node.grad is not None) == reached, (live, name)
            assert np.array_equal(grads[name], np.full((1, 3), float(reached))), (live, name)


def test_matvec_constant_input_forms_no_input_adjoint():
    rng = SeededRng(3)
    store = ParameterStore(dtype=np.float64)
    store.add("w", rng.normals(12).reshape(3, 4), group="discriminator")
    store.add("x", rng.normals(20).reshape(5, 4), group="discriminator")

    def run(x_is_param):
        tape = Tape(store)
        x = tape.leaf("x") if x_is_param else tape.const(store["x"])
        out = tape.matvec(tape.leaf("w"), x, tape.const(np.zeros(3)))
        grads = backward_views(tape, probe_square(tape, out))
        return grads["w"], x

    w_grad, x_param = run(True)
    w_grad_const, x_const = run(False)
    assert w_grad_const.tobytes() == w_grad.tobytes()
    assert x_param.grad is not None
    assert x_const.grad is None
