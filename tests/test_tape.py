"""Kernel-by-kernel gradient checks and algebraic invariants for the tape.

Every differentiable kernel is compared against central finite differences
on randomized shapes with fixed trial seeds (deterministic, no flakes).
Components whose derivative is truncation-limited pass at the small probe
step and roundoff-limited ones at the large step, so each trial takes the
per-parameter minimum over both.
"""

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
        return {"w": (m, n), "x": (n,)}
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


# --- complex-rotation kernels ----------------------------------------------

def test_complex_rotate_gradients():
    def shapes(rng):
        b, d = dims(rng), dims(rng)
        return {"x": (b, 2 * d), "theta": (b, d)}
    check_kernel(shapes,
                 lambda tape, lv: tape.complex_rotate(lv["x"], lv["theta"]))


def test_complex_modulus_sum_gradients():
    # The modulus is nonsmooth at the origin; push every complex pair's
    # magnitude above a floor so the probes stay in the smooth region.
    def clear_cone(store):
        x = store["x"]
        pairs = x.reshape(x.shape[0], -1, 2)
        mod = np.sqrt((pairs ** 2).sum(axis=2, keepdims=True))
        scale = np.maximum(1.0, 0.3 / np.maximum(mod, 1e-12))
        store.set("x", (pairs * scale).reshape(x.shape))

    def shapes(rng):
        b, d = dims(rng), dims(rng)
        return {"x": (b, 2 * d)}
    check_kernel(shapes,
                 lambda tape, lv: tape.complex_modulus_sum(lv["x"]),
                 mutate=clear_cone)


def test_rotate_then_score_gradients():
    # Composition mirroring the triple-score data path.
    def clear(store):
        for name in ("h", "t"):
            store.set(name, store[name] + 0.5 * np.sign(store[name]))

    def shapes(rng):
        b, d = dims(rng), dims(rng, 2, 4)
        return {"h": (b, 2 * d), "theta": (b, d), "t": (b, 2 * d)}

    def build(tape, lv):
        rotated = tape.complex_rotate(lv["h"], lv["theta"])
        return tape.complex_modulus_sum(tape.sub(rotated, lv["t"]))
    check_kernel(shapes, build, trials=TRIALS // 2, mutate=clear)


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
    tape = Tape()
    x = tape.const(np.array([[1.5, -2.0, 0.25, 3.0]]))
    theta = tape.const(np.zeros((1, 2)))
    out = tape.complex_rotate(x, theta)
    assert np.array_equal(out.value, x.value)


@given(hnp.arrays(np.float64, st.integers(1, 8).map(lambda d: (3, 2 * d)),
                  elements=st.floats(-100, 100)),
       st.floats(-10, 10))
@settings(max_examples=200, deadline=None)
def test_rotation_preserves_norm(x, angle):
    tape = Tape()
    theta = np.full((x.shape[0], x.shape[1] // 2), angle)
    out = tape.complex_rotate(tape.const(x), tape.const(theta))
    before = np.linalg.norm(x, axis=1)
    after = np.linalg.norm(out.value, axis=1)
    assert np.all(np.abs(before - after) <= 1e-12 * np.maximum(1.0, before))


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
    tape = Tape(check_finite=True)
    big = tape.const(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        tape.add(big, big)


def test_matvec_shape_mismatch_names_op():
    tape = Tape()
    w = tape.const(np.ones((2, 3)))
    x = tape.const(np.ones(4))
    with pytest.raises(ContractError, match="matvec"):
        tape.matvec(w, x)


def test_complex_rotate_shape_mismatch():
    tape = Tape()
    x = tape.const(np.ones((1, 3)))  # odd length: no complex pairing
    theta = tape.const(np.ones((1, 1)))
    with pytest.raises(ContractError):
        tape.complex_rotate(x, theta)


def test_concat_shape_mismatch():
    tape = Tape()
    a = tape.const(np.ones((2, 3)))
    b = tape.const(np.ones((3, 3)))
    with pytest.raises(ContractError):
        tape.concat([a, b])


def test_forward_and_backward_deterministic():
    def run():
        rng = SeededRng(99)
        store = ParameterStore()
        store.add("w", rng.normals(12).reshape(3, 4), group="discriminator")
        store.add("x", rng.normals(4), group="discriminator")
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
