"""Kernel-by-kernel gradient checks and algebraic invariants for the tape.

Every differentiable kernel is compared against central finite differences
on randomized shapes with fixed trial seeds (deterministic, no flakes).
Components whose derivative is truncation-limited pass at the small probe
step and roundoff-limited ones at the large step, so each trial takes the
per-parameter minimum over both.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adamf.errors import ContractError, NumericError
from adamf.params import ParameterStore, finite_diff_check
from adamf.rng import SeededRng
from adamf.tape import Tape

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
            leaves = {name: tape.param(name) for name in shapes}
            out = build(tape, leaves)
            root = out if out.value.shape == () else tape.sum(out)
            return tape, tape.scale(root, SCALE)

        per_param = {}
        for eps in EPSILONS:
            res = finite_diff_check(builder, store, eps)
            for name, err in res.per_param.items():
                per_param[name] = min(per_param.get(name, math.inf), err)
        worst = max(per_param.values())
        assert worst < TOL, f"trial {trial}: worst {worst:.3e} in {per_param}"


def dims(rng, lo=1, hi=6):
    return int(rng.randint(hi - lo + 1)) + lo


# --- elementwise and reduction kernels ------------------------------------

def test_add_gradients():
    check_kernel(lambda rng: {"a": (dims(rng), dims(rng, 2, 5)),
                              "b": (1,)},
                 lambda tape, lv: tape.add(lv["a"], lv["a"]))
    check_kernel(lambda rng: (lambda b, n: {"a": (b, n), "c": (n,)})(dims(rng), dims(rng)),
                 lambda tape, lv: tape.add(lv["a"], lv["c"]), trials=TRIALS // 2)


def test_sub_gradients():
    def shapes(rng):
        b, n = dims(rng), dims(rng)
        return {"a": (b, n), "b": (b, n)}
    check_kernel(shapes, lambda tape, lv: tape.sub(lv["a"], lv["b"]))


def test_mul_gradients():
    def shapes(rng):
        b, n = dims(rng), dims(rng)
        return {"a": (b, n), "b": (b, n)}
    check_kernel(shapes, lambda tape, lv: tape.mul(lv["a"], lv["b"]))


def test_scale_gradients():
    check_kernel(lambda rng: {"a": (dims(rng), dims(rng))},
                 lambda tape, lv: tape.scale(lv["a"], -0.37))


def test_log_sigmoid_gradients():
    check_kernel(lambda rng: {"a": (dims(rng), dims(rng))},
                 lambda tape, lv: tape.log_sigmoid(lv["a"]))


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
        return {"w": (m, n), "x": (1, n)}
    check_kernel(shapes, lambda tape, lv: tape.matvec(lv["w"], lv["x"]))


def test_matvec_batched_gradients():
    def shapes(rng):
        b, m, n = dims(rng), dims(rng), dims(rng)
        return {"w": (m, n), "x": (b, n)}
    check_kernel(shapes, lambda tape, lv: tape.matvec(lv["w"], lv["x"]))


def test_concat_gradients():
    def shapes(rng):
        b = dims(rng)
        return {"a": (b, dims(rng)), "b": (b, dims(rng))}
    check_kernel(shapes,
                 lambda tape, lv: tape.log_sigmoid(tape.concat([lv["a"], lv["b"]])))


def test_gather_gradients():
    # Repeated indices exercise scatter-add accumulation in the backward.
    def build(tape, lv):
        idx = np.array([0, 2, 2, 1, 0])
        return tape.log_sigmoid(tape.gather(lv["table"], idx))
    check_kernel(lambda rng: {"table": (4, dims(rng))}, build)


def scatter_add_adjoint(store, idx, coef):
    """Adjoint of table rows `idx` under coefficients `coef`: the gather
    kernel's, and the one np.add.at forms into zeros."""
    tape = Tape(store)
    root = tape.sum(tape.mul(tape.gather(tape.param("table"), idx), tape.const(coef)))
    expect = np.zeros_like(store["table"])
    np.add.at(expect, idx, coef)
    return tape.backward(root)["table"], expect


def test_unique_gather_adjoint_equals_scatter_add():
    # Strictly increasing indices (sorted table ids) assign their adjoint;
    # the bytes must be np.add.at's, -0.0 (which 0.0 + -0.0 makes 0.0) too.
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
        return tape.mul(out, out)
    check_kernel(shapes, build)


def test_merge_rows_routes_rows_in_order():
    tape = Tape()
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
    # The rotation's adjoints: h and theta live, t a fixed constant.
    def shapes(rng):
        b, d = dims(rng), dims(rng)
        return {"h": (b, 2 * d), "theta": (b, d)}

    def build(tape, lv):
        b, n = lv["h"].shape
        t = tape.const(2.0 * np.cos(np.arange(b * n)).reshape(b, n))
        return tape.rotate_distance(lv["h"], rows_of(b), lv["theta"], rows_of(b),
                                    t, rows_of(b))
    check_kernel(shapes, build)


def test_complex_modulus_sum_gradients():
    # With h = 0 the distance is the modulus sum of t.  The modulus is
    # nonsmooth at the origin; push every complex pair's magnitude above a
    # floor so the probes stay in the smooth region.
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
        return tape.rotate_distance(tape.const(np.zeros((b, n))), rows_of(b),
                                    tape.const(np.zeros((b, n // 2))), rows_of(b),
                                    lv["t"], rows_of(b))
    check_kernel(shapes, build, mutate=clear_cone)


def test_rotate_then_score_gradients():
    # The whole score with all three operands live, indexed with repeats so
    # the backward scatter-adds, under a non-uniform upstream gradient.
    def clear(store):
        for name in ("h", "t"):
            store.set(name, store[name] + 0.5 * np.sign(store[name]))

    def shapes(rng):
        d = dims(rng, 2, 4)
        return {"h": (dims(rng, 2, 4), 2 * d), "theta": (dims(rng, 1, 3), d),
                "t": (dims(rng, 2, 4), 2 * d)}

    def build(tape, lv):
        n_rows = 7
        idx = [np.arange(n_rows) * (3 + j) % lv[name].shape[0]
               for j, name in enumerate(("h", "theta", "t"))]
        return tape.log_sigmoid(tape.rotate_distance(lv["h"], idx[0], lv["theta"],
                                                     idx[1], lv["t"], idx[2]))
    check_kernel(shapes, build, trials=TRIALS // 2, mutate=clear)


def complex_reference(h, h_idx, theta, r_idx, t, t_idx, w):
    """F = sum_k |z_h q - z_t| with q = e^{i theta} in complex128, and the
    gradients of sum_i w_i F_i, from the complex chain rule."""
    z_h = (h[:, 0::2] + 1j * h[:, 1::2])[h_idx]
    z_t = (t[:, 0::2] + 1j * t[:, 1::2])[t_idx]
    q = np.exp(1j * theta[r_idx])
    u = z_h * q - z_t
    n = w[:, None] * u / np.abs(u)

    def scatter(shape, idx, rows):
        out = np.zeros(shape, dtype=rows.dtype)
        np.add.at(out, idx, rows)
        return out

    def interleave(z):
        return np.stack([z.real, z.imag], axis=-1).reshape(z.shape[0], -1)

    return (np.abs(u).sum(axis=1),
            interleave(scatter((h.shape[0], theta.shape[1]), h_idx, n * np.conj(q))),
            scatter(theta.shape, r_idx, np.imag(n * np.conj(z_h * q))),
            interleave(scatter((t.shape[0], theta.shape[1]), t_idx, -n)))


@pytest.mark.parametrize("shared", [True, False])
def test_rotate_distance_matches_complex_reference(shared):
    # float64, repeated indices, and 2000 rows at d = 64 (four 512-row
    # blocks); `shared` scores one table against itself, as training does.
    rng = SeededRng(5, stream="rotate-reference")
    d, n_rows, n_h, n_t, n_r = 64, 2000, 37, 23, 5
    store = ParameterStore(dtype=np.float64)
    store.add("h", rng.normals(n_h * 2 * d).reshape(n_h, 2 * d), "discriminator")
    store.add("t", rng.normals(n_t * 2 * d).reshape(n_t, 2 * d), "discriminator")
    store.add("theta", (rng.uniforms(n_r * d).reshape(n_r, d) * 2 - 1) * math.pi,
              "discriminator")
    h_idx = rng.randints(np.full(n_rows, n_h))
    r_idx = rng.randints(np.full(n_rows, n_r))
    t_idx = rng.randints(np.full(n_rows, n_h if shared else n_t))
    w = rng.normals(n_rows)

    tape = Tape(store)
    h = tape.param("h")
    t = h if shared else tape.param("t")
    out = tape.rotate_distance(h, h_idx, tape.param("theta"), r_idx, t, t_idx)
    grads = tape.backward(tape.sum(tape.mul(out, tape.const(w))))

    t_value = store["h"] if shared else store["t"]
    f, g_h, g_theta, g_t = complex_reference(store["h"], h_idx, store["theta"], r_idx,
                                             t_value, t_idx, w)
    if shared:
        g_h, g_t = g_h + g_t, np.zeros_like(store["t"])
    assert out.value.dtype == np.float64
    for got, want in ((out.value, f), (grads["h"], g_h), (grads["theta"], g_theta),
                      (grads["t"], g_t)):
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_rotate_distance_keeps_tape_dtype():
    store = ParameterStore(dtype=np.float32)
    store.add("h", np.ones((3, 4)), "discriminator")
    store.add("theta", np.full((2, 2), 0.5), "discriminator")
    tape = Tape(store)
    h = tape.param("h")
    out = tape.rotate_distance(h, [0, 1, 1], tape.param("theta"), [0, 1, 0], h, [2, 2, 0])
    grads = tape.backward(tape.sum(out))
    assert out.value.dtype == np.float32
    assert grads["h"].dtype == grads["theta"].dtype == np.float32


def _float32_uses():
    """One use of every kernel on float32 parameter leaves; `p` makes a leaf."""
    mask = np.array([True, False, True])
    return {
        "add": lambda t, p: t.add(p("a"), p("b")),
        "sub": lambda t, p: t.sub(p("a"), p("b")),
        "mul": lambda t, p: t.mul(p("a"), p("b")),
        "matvec": lambda t, p: t.matvec(p("w"), p("a")),
        "concat": lambda t, p: t.concat([p("a"), p("b")]),
        "gather": lambda t, p: t.gather(p("a"), np.array([2, 0, 0])),
        "merge_rows": lambda t, p: t.merge_rows(
            mask, t.gather(p("a"), np.array([0, 1])), t.gather(p("b"), np.array([2]))),
        "leaky_relu": lambda t, p: t.leaky_relu(p("a"), 0.01),
        "log_sigmoid": lambda t, p: t.log_sigmoid(p("a")),
        "scale": lambda t, p: t.scale(p("a"), 0.3),
        "sum": lambda t, p: t.sum(p("a")),
        "fusion_weights": lambda t, p: t.fusion_weights([p("a"), p("b")],
                                                        [p("u"), p("v")]),
        "mix": lambda t, p: t.mix(p("alpha"), [p("a"), p("b")]),
        "rotate_distance": lambda t, p: t.rotate_distance(
            p("a"), [0, 1, 2], p("phase"), [1, 0, 1], p("b"), [2, 2, 0]),
    }


def test_float32_tape_gradients_stay_float32():
    # A float64 adjoint in a float32 store would run float64 GEMMs and mix
    # dtypes in Adam.  Every kernel is listed, so a new one must join here.
    uses = _float32_uses()
    kernels = {n for n, v in vars(Tape).items() if inspect.isfunction(v)
               and not n.startswith("_")} - {"param", "const", "leaf", "backward"}
    assert set(uses) == kernels
    rng = SeededRng(3, stream="float32-grads")
    shapes = {"a": (3, 4), "b": (3, 4), "w": (5, 4), "u": (4,), "v": (4,),
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
            return tape.param(name)

        out = use(tape, p)
        grads = tape.backward(tape.sum(tape.mul(out, out)))
        assert {n: g.dtype for n, g in grads.items()} == dict.fromkeys(shapes, np.float32), op
        assert all(np.any(grads[n] != 0) for n in leaves), op
        assert not np.any(grads["unused"]), op


def test_rotate_distance_zero_modulus_subgradient():
    # Identical rows under a zero phase give u = 0 exactly: the distance is
    # 0 and the subgradient 0, like the modulus at the origin.
    store = ParameterStore(dtype=np.float64)
    store.add("h", np.array([[1.5, -2.0, 0.25, 3.0]]), "discriminator")
    store.add("theta", np.zeros((1, 2)), "discriminator")
    tape = Tape(store)
    h = tape.param("h")
    out = tape.rotate_distance(h, [0], tape.param("theta"), [0], h, [0])
    grads = tape.backward(tape.sum(out))
    assert out.value[0] == 0.0
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
        return tape.mul(alpha, alpha)
    check_kernel(fusion_shapes, build)


def test_softmax_gradients():
    # Constant parts fix tanh(e_m), so the scores are linear in the weights
    # and the check isolates the shifted softmax's backward.
    fixed = {}

    def build(tape, lv):
        parts = [tape.const(p) for p in fixed["parts"]]
        alpha = tape.fusion_weights(parts, leaves_named(lv, "w"))
        return tape.mul(alpha, alpha)
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
        return tape.mul(alpha, alpha)
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
        return tape.mul(alpha, alpha)
    check_kernel(shapes, build)


def mix_shapes(rng):
    b, n, m = dims(rng), dims(rng), dims(rng, 1, 4)
    return {"alpha": (b, m), **{f"p{j}": (b, n) for j in range(m)}}


def test_mix_gradients():
    def build(tape, lv):
        out = tape.mix(lv["alpha"], leaves_named(lv, "p"))
        return tape.mul(out, out)
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
        return tape.mul(out, out)
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
        return tape.mul(out, out)
    check_kernel(shapes, build)


def test_fusion_then_mix_gradients():
    # Composition mirroring Model.fuse: the parts feed both kernels.
    def build(tape, lv):
        parts = leaves_named(lv, "p")
        joint = tape.mix(tape.fusion_weights(parts, leaves_named(lv, "w")), parts)
        return tape.mul(joint, joint)
    check_kernel(fusion_shapes, build, trials=TRIALS // 2)


def test_fusion_kernels_form_no_constant_adjoints():
    store = ParameterStore(dtype=np.float64)
    store.add("w", np.full(3, 0.5), group="discriminator")
    tape = Tape(store)
    parts = [tape.const(np.full((2, 3), float(j))) for j in range(2)]
    alpha = tape.fusion_weights(parts, [tape.param("w"), tape.param("w")])
    mean = tape.mix(tape.const(np.full((2, 2), 0.5)), parts)
    tape.backward(tape.add(tape.sum(tape.mix(alpha, parts)), tape.sum(mean)))
    assert alpha.grad is not None
    assert not mean.live and mean.backward_fn is None
    assert all(p.grad is None for p in parts)


def test_fusion_kernels_shape_mismatch():
    tape = Tape()
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
    tape = Tape()
    out = tape.rotate_distance(tape.const(h), [0, 1], tape.const(np.zeros((1, 2))),
                               [0, 0], tape.const(t), [0, 0])
    diff = h - t
    assert np.array_equal(out.value, np.hypot(diff[:, 0::2], diff[:, 1::2]).sum(axis=1))


@given(hnp.arrays(np.float64, st.integers(1, 8).map(lambda d: (3, 2 * d)),
                  elements=st.floats(-100, 100)),
       st.floats(-10, 10))
@settings(max_examples=200, deadline=None)
def test_rotation_preserves_norm(x, angle):
    # With t = 0 the distance is sum_k |h_k| at every angle.
    tape = Tape()
    theta = np.full((1, x.shape[1] // 2), angle)
    rows = np.arange(x.shape[0])
    out = tape.rotate_distance(tape.const(x), rows, tape.const(theta), np.zeros(3, int),
                               tape.const(np.zeros_like(x)), rows)
    before = np.hypot(x[:, 0::2], x[:, 1::2]).sum(axis=1)
    assert np.all(np.abs(before - out.value) <= 1e-12 * np.maximum(1.0, before))


def test_log_sigmoid_at_zero():
    tape = Tape()
    out = tape.log_sigmoid(tape.const(np.array([0.0])))
    assert abs(out.value[0] + math.log(2.0)) < 1e-15


@given(hnp.arrays(np.float64, (3, 4, 5), elements=st.floats(-10, 10)),
       hnp.arrays(np.float64, (3, 5), elements=st.floats(-1, 1)),
       st.floats(710, 1e300))
@example(np.ones((3, 4, 5)), np.ones((3, 5)), 1e3)
@example(np.zeros((3, 4, 5)), np.ones((3, 5)), 1e300)
@settings(max_examples=200, deadline=None)
def test_softmax_simplex(parts, w, scale):
    # Scores reach scale * 5 >> 709, where an unshifted exp overflows.
    tape = Tape()
    out = tape.fusion_weights([tape.const(p) for p in parts],
                              [tape.const(scale * row) for row in w]).value
    assert np.all(np.isfinite(out)) and np.all(out >= 0.0)
    assert np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-12)


def test_softmax_of_zeros_is_uniform():
    # Zero parts or zero weights give every modality a zero score.
    tape = Tape()
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
    grads = tape.backward(tape.sum(tape.param("p")))
    assert np.array_equal(grads["p"], np.ones((2, 3)))


def test_stationary_point_gradient_zero():
    store = ParameterStore()
    store.add("w", np.zeros(()), group="discriminator")
    tape = Tape(store)
    w = tape.param("w")
    loss = tape.mul(w, w)
    grads = tape.backward(tape.sum(loss))
    assert grads["w"] == 0.0


def test_untouched_param_gets_zero_gradient():
    store = ParameterStore()
    store.add("used", np.ones(3), group="discriminator")
    store.add("unused", np.ones(4), group="discriminator")
    tape = Tape(store)
    grads = tape.backward(tape.sum(tape.param("used")))
    assert np.array_equal(grads["unused"], np.zeros(4))


def test_backward_requires_scalar_root():
    tape = Tape()
    vec = tape.const(np.ones(3))
    with pytest.raises(ContractError):
        tape.backward(vec)


def test_backward_runs_once():
    store = ParameterStore()
    store.add("p", np.ones(2), group="discriminator")
    tape = Tape(store)
    root = tape.sum(tape.param("p"))
    tape.backward(root)
    with pytest.raises(ContractError):
        tape.backward(root)


def test_check_finite_raises_on_overflow():
    # The forward pass never checks; backward names the kernel whose value
    # first went non-finite.
    tape = Tape()
    big = tape.const(np.array([1e308]))
    with np.errstate(over="ignore"):
        root = tape.sum(tape.add(big, big))
    with pytest.raises(NumericError, match="op 'add'"):
        tape.backward(root)


def test_finite_loss_with_overflowing_gradient_names_parameter():
    # sum(p*c*c) = 2e30 fits float32, but its gradient c*c = 1e60 does not;
    # backward must refuse it before any optimizer step can see it.
    store = ParameterStore(dtype=np.float32)
    store.add("p", np.full(2, 1e-30), group="discriminator")
    tape = Tape(store)
    c = tape.const(np.full(2, 1e30))
    root = tape.sum(tape.mul(tape.mul(tape.param("p"), c), c))
    assert np.isfinite(root.value)
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match="gradient of parameter 'p'"):
        tape.backward(root)


def test_matvec_shape_mismatch_names_op():
    tape = Tape()
    w = tape.const(np.ones((2, 3)))
    for x in (np.ones((1, 4)), np.ones(3)):  # wrong width; unbatched row
        with pytest.raises(ContractError, match="matvec"):
            tape.matvec(w, tape.const(x))


def test_complex_rotate_shape_mismatch():
    tape = Tape()
    x = tape.const(np.ones((1, 3)))  # odd length: no complex pairing
    theta = tape.const(np.ones((1, 1)))
    with pytest.raises(ContractError, match="rotate_distance"):
        tape.rotate_distance(x, [0], theta, [0], x, [0])
    even = tape.const(np.ones((1, 2)))
    with pytest.raises(ContractError, match="rotate_distance"):
        tape.rotate_distance(even, [0, 0], theta, [0], even, [0, 0])


def test_concat_shape_mismatch():
    tape = Tape()
    a = tape.const(np.ones((2, 3)))
    b = tape.const(np.ones((3, 3)))
    with pytest.raises(ContractError):
        tape.concat([a, b])


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
    root = tape.sum(tape.mul(tape.matvec(tape.param("w"), tape.param("x")),
                             tape.const(coef)))
    grads = tape.backward(root)
    zeroed = np.where(np.abs(coef) < tiny, np.float32(0), coef)
    w, x = store["w"], store["x"]
    assert grads["w"].tobytes() == (zeroed.T @ x).tobytes()
    assert grads["x"].tobytes() == (zeroed @ w).tobytes()
    assert not grads["w"][1].any()
    ref_w = coef.astype(np.float64).T @ x.astype(np.float64)
    ref_x = coef.astype(np.float64) @ w.astype(np.float64)
    for got, ref in ((grads["w"], ref_w), (grads["x"], ref_x)):
        assert np.allclose(got, ref, rtol=1e-5, atol=1e-6 * np.abs(ref).max())


def test_forward_and_backward_deterministic():
    def run():
        rng = SeededRng(99)
        store = ParameterStore()
        store.add("w", rng.normals(12).reshape(3, 4), group="discriminator")
        store.add("x", rng.normals(4).reshape(1, 4), group="discriminator")
        tape = Tape(store)
        y = tape.log_sigmoid(tape.matvec(tape.param("w"), tape.param("x")))
        root = tape.sum(y)
        grads = tape.backward(root)
        return root.value.tobytes(), grads["w"].tobytes(), grads["x"].tobytes()

    assert run() == run()


# --- dead-adjoint pruning ----------------------------------------------------

def test_constant_subgraph_gets_no_adjoint():
    store = ParameterStore(dtype=np.float64)
    store.add("p", np.ones(3), group="discriminator")
    store.add("frozen", np.full(3, 2.0), group="generator")
    tape = Tape(store)
    c = tape.const(np.arange(3.0))
    frozen = tape.leaf("frozen", frozenset({"discriminator"}))
    product = tape.mul(c, frozen)
    dead = tape.log_sigmoid(product)
    root = tape.sum(tape.mul(tape.param("p"), dead))
    grads = tape.backward(root)
    for node in (c, frozen, product, dead):
        assert not node.live
        assert node.backward_fn is None
        assert node.grad is None
    assert root.live
    assert np.array_equal(grads["p"], -np.logaddexp(0.0, -(np.arange(3.0) * 2.0)))
    assert np.array_equal(grads["frozen"], np.zeros(3))


def test_matvec_constant_input_forms_no_input_adjoint():
    rng = SeededRng(3)
    store = ParameterStore(dtype=np.float64)
    store.add("w", rng.normals(12).reshape(3, 4), group="discriminator")
    store.add("x", rng.normals(20).reshape(5, 4), group="discriminator")

    def run(x_is_param):
        tape = Tape(store)
        x = tape.param("x") if x_is_param else tape.const(store["x"])
        out = tape.matvec(tape.param("w"), x)
        grads = tape.backward(tape.sum(tape.mul(out, out)))
        return grads["w"], x

    w_grad, x_param = run(True)
    w_grad_const, x_const = run(False)
    assert w_grad_const.tobytes() == w_grad.tobytes()
    assert x_param.grad is not None
    assert x_const.grad is None
