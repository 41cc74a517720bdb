"""Parameter store, Adam update arithmetic, and the gradient checker."""

import numpy as np
import pytest

from adamf.errors import ContractError
from adamf.params import ParameterStore, adam_step, finite_diff_check
from adamf.tape import Tape


def make_store(**arrays):
    store = ParameterStore(dtype=np.float64)
    for name, (value, group) in arrays.items():
        store.add(name, value, group)
    return store


def test_first_adam_step_hand_derived():
    # g=1, lr=0.1: m_hat = v_hat = 1 after bias correction, so the update
    # is lr * 1 / (1 + eps) = 0.1 up to the eps denominator.
    store = make_store(w=(np.array(2.0), "discriminator"))
    adam_step(store, {"w": np.array(1.0)}, "discriminator", lr=0.1)
    assert abs((2.0 - store["w"]) - 0.1) < 1e-8


def test_adam_descends_along_gradient_sign():
    store = make_store(w=(np.array([1.0, -1.0]), "discriminator"))
    adam_step(store, {"w": np.array([0.5, -0.5])}, "discriminator", lr=0.01)
    assert store["w"][0] < 1.0
    assert store["w"][1] > -1.0


def test_zero_gradient_leaves_values():
    store = make_store(w=(np.arange(3.0), "discriminator"))
    adam_step(store, {"w": np.zeros(3)}, "discriminator", lr=0.1)
    assert np.array_equal(store["w"], np.arange(3.0))
    _, _, step = store.adam_state("w")
    assert step == 1


def test_group_isolation_bitwise():
    store = make_store(d=(np.ones(4), "discriminator"),
                       g=(np.ones(4), "generator"))
    before = store.snapshot("generator")
    adam_step(store, {"d": np.full(4, 0.3), "g": np.full(4, 0.3)},
              "discriminator", lr=0.1)
    after = store.snapshot("generator")
    assert before["g"].tobytes() == after["g"].tobytes()
    assert not np.array_equal(store["d"], np.ones(4))


def _adam_formula(value, m, v, step, g, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The out-of-place Adam update, one fresh array per operation."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    return value - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_adam_equals_out_of_place_formula(dtype):
    gen = np.random.default_rng(7)
    for shape in ((), (5,), (40, 30)):
        store = ParameterStore(dtype=dtype)
        store.add("w", gen.standard_normal(shape), "discriminator")
        value = store["w"].copy()
        m = v = np.zeros(shape, dtype)
        for step in range(1, 7):
            scale = 10.0 ** gen.integers(-8, 3)
            g = np.array(scale * gen.standard_normal(shape), dtype=dtype)
            if step == 3:
                g[...] = 0
            adam_step(store, {"w": g}, "discriminator", lr=3e-3)
            value, m, v = _adam_formula(value, m, v, step, g, lr=3e-3)
            got_m, got_v, got_step = store.adam_state("w")
            assert store["w"].dtype == got_m.dtype == got_v.dtype == dtype
            assert store["w"].tobytes() == value.tobytes(), (shape, step)
            assert got_m.tobytes() == m.tobytes() and got_v.tobytes() == v.tobytes()
            assert got_step == step


def test_adam_rejects_gradient_of_another_dtype():
    store = ParameterStore(dtype=np.float32)
    store.add("d", np.ones(3), "discriminator")
    store.add("g", np.ones(3), "generator")
    before = (store["d"].tobytes(), [a.tobytes() for a in store.adam_state("d")[:2]])
    grads = {"d": np.ones(3, np.float32), "g": np.ones(3, np.float64)}
    with pytest.raises(ContractError, match="'g' is float64"):
        adam_step(store, grads, "discriminator", lr=0.1)
    assert (store["d"].tobytes(), [a.tobytes() for a in store.adam_state("d")[:2]]) == before
    assert store.adam_state("d")[2] == 0


def test_store_owns_set_values():
    # Checkpoints load read-only buffers; Adam must still update in place,
    # and never write through to the caller's array.
    store = make_store(w=(np.zeros(3), "discriminator"))
    loaded = np.frombuffer(np.arange(3.0).tobytes())
    store.set("w", loaded)
    adam_step(store, {"w": np.ones(3)}, "discriminator", lr=0.1)
    assert loaded.tolist() == [0.0, 1.0, 2.0]
    assert np.all(store["w"] < loaded)


def test_unknown_gradient_name_rejected():
    store = make_store(w=(np.ones(2), "discriminator"))
    with pytest.raises(ContractError):
        adam_step(store, {"nope": np.ones(2)}, "discriminator", lr=0.1)


def test_duplicate_registration_rejected():
    store = make_store(w=(np.ones(2), "discriminator"))
    with pytest.raises(ContractError):
        store.add("w", np.ones(2), "discriminator")


def test_set_checks_shape():
    store = make_store(w=(np.ones((2, 3)), "discriminator"))
    with pytest.raises(ContractError):
        store.set("w", np.ones((3, 2)))


def test_moments_accumulate_across_steps():
    store = make_store(w=(np.array(0.0), "discriminator"))
    adam_step(store, {"w": np.array(1.0)}, "discriminator", lr=0.1)
    adam_step(store, {"w": np.array(1.0)}, "discriminator", lr=0.1)
    m, v, step = store.adam_state("w")
    assert step == 2
    # m = 0.1*1 + 0.9*0.1*... i.e. 1 - 0.9^2 before correction
    assert abs(m - (1.0 - 0.9 ** 2)) < 1e-12
    assert abs(v - (1.0 - 0.999 ** 2)) < 1e-12


def test_finite_diff_quadratic_is_exact():
    # L = 0.5 * ||p||^2 has constant second derivative, so central
    # differences are exact up to roundoff.
    store = make_store(p=(np.array([0.3, -1.2, 2.0]), "discriminator"))

    def builder(params):
        tape = Tape(params)
        p = tape.param("p")
        return tape, tape.scale(tape.sum(tape.mul(p, p)), 0.5)

    res = finite_diff_check(builder, store, 1e-5)
    assert res.worst < 1e-9


def test_finite_diff_catches_wrong_gradient():
    store = make_store(p=(np.array([0.5, 1.5]), "discriminator"))

    def builder(params):
        tape = Tape(params)
        p = tape.param("p")
        loss = tape.sum(tape.mul(p, p))
        # Sabotage: report half the true gradient.
        node = tape.scale(loss, 0.5)
        return tape, node

    # scale(·, 0.5) is a correct graph; build a genuinely wrong one instead
    # by post-editing the backward closure.
    def bad_builder(params):
        tape = Tape(params)
        p = tape.param("p")
        loss = tape.sum(tape.mul(p, p))
        fn = loss.backward_fn
        loss.backward_fn = lambda g: fn(0.5 * g)
        return tape, loss

    ok = finite_diff_check(builder, store, 1e-5)
    assert ok.worst < 1e-9
    bad = finite_diff_check(bad_builder, store, 1e-5)
    assert bad.worst > 0.3
    assert bad.worst_param == "p"


def test_finite_diff_requires_double():
    store = ParameterStore()  # default single precision
    store.add("p", np.ones(2), "discriminator")

    def builder(params):
        tape = Tape(params)
        return tape, tape.sum(tape.param("p"))

    with pytest.raises(ContractError):
        finite_diff_check(builder, store, 1e-5)


def test_names_filter_restricts_probing():
    store = make_store(a=(np.ones(2), "discriminator"),
                       b=(np.ones(2), "generator"))

    def builder(params):
        tape = Tape(params)
        return tape, tape.sum(tape.add(tape.param("a"), tape.param("b")))

    res = finite_diff_check(builder, store, 1e-5, names=["a"])
    assert set(res.per_param) == {"a"}
