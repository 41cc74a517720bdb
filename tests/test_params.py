"""Parameter store, Adam update arithmetic, and the gradient checker."""

import numpy as np
import pytest

from adamf.checkpoint import load_checkpoint, save_checkpoint
from adamf.errors import ContractError
from adamf.params import ParameterStore, adam_step, block_rows, finite_diff_check
from adamf.tape import Tape
from conftest import probe_square, probe_sum


def make_store(**arrays):
    store = ParameterStore(dtype=np.float64)
    for name, (value, group) in arrays.items():
        store.add(name, value, group)
    return store


def test_first_adam_step_hand_derived():
    # g=1, lr=0.1: m_hat = v_hat = 1 after bias correction, so the update
    # is lr * 1 / (1 + eps) = 0.1 up to the eps denominator.
    store = make_store(w=(np.array(2.0), "discriminator"))
    adam_step(store, "discriminator", np.array([1.0]), lr=0.1)
    assert abs((2.0 - store["w"]) - 0.1) < 1e-8


def test_adam_descends_along_gradient_sign():
    store = make_store(w=(np.array([1.0, -1.0]), "discriminator"))
    adam_step(store, "discriminator", np.array([0.5, -0.5]), lr=0.01)
    assert store["w"][0] < 1.0
    assert store["w"][1] > -1.0


def test_zero_gradient_leaves_values():
    store = make_store(w=(np.arange(3.0), "discriminator"))
    adam_step(store, "discriminator", np.zeros(3), lr=0.1)
    assert np.array_equal(store["w"], np.arange(3.0))
    _, _, step = store.adam_state("w")
    assert step == 1


def test_group_isolation_bitwise():
    store = make_store(d=(np.ones(4), "discriminator"),
                       g=(np.ones(4), "generator"))
    before = store.values["generator"].copy()
    adam_step(store, "discriminator", np.full(4, 0.3), lr=0.1)
    assert store.values["generator"].tobytes() == before.tobytes()
    assert store.steps == {"discriminator": 1, "generator": 0}
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
    # One group of parameters whose sizes fall below, between and above
    # multiples of the chunk, so chunks span two parameters, and
    # Fortran-ordered start values, which the store keeps C-ordered.  Each
    # parameter must follow its own out-of-place formula.
    gen = np.random.default_rng(7)
    chunk = block_rows(1, np.dtype(dtype).itemsize)
    shapes = {"s": (), "a": (5,), "b": (40, 30), "c": (2 * chunk + 7,),
              "d": (3, chunk // 2 + 5)}
    store = ParameterStore(dtype=dtype)
    store.extend("discriminator", {n: np.array(gen.standard_normal(shape), order="F")
                                   for n, shape in shapes.items()})
    assert store.values["discriminator"].size > 3 * chunk
    state = {n: (store[n].copy(), np.zeros(shape, dtype), np.zeros(shape, dtype))
             for n, shape in shapes.items()}
    for step in range(1, 7):
        grads = {n: np.array(10.0 ** gen.integers(-8, 3) * gen.standard_normal(shape),
                             dtype=dtype) for n, shape in shapes.items()}
        if step == 3:
            grads = {n: np.zeros_like(g) for n, g in grads.items()}
        adam_step(store, "discriminator",
                  np.concatenate([g.reshape(-1) for g in grads.values()]), lr=3e-3)
        for name, g in grads.items():
            value, m, v = state[name] = _adam_formula(*state[name], step, g, lr=3e-3)
            got_m, got_v, got_step = store.adam_state(name)
            assert store[name].dtype == got_m.dtype == got_v.dtype == dtype
            assert store[name].tobytes() == value.tobytes(), (name, step)
            assert got_m.tobytes() == m.tobytes() and got_v.tobytes() == v.tobytes()
            assert got_step == step


def _group_state(store, group):
    return store.values[group].tobytes(), store.moments(group).tobytes(), store.steps[group]


def test_adam_rejects_gradient_of_another_dtype():
    store = ParameterStore(dtype=np.float32)
    store.add("d", np.ones(3), "discriminator")
    store.add("g", np.ones(3), "generator")
    before = _group_state(store, "discriminator")
    with pytest.raises(ContractError, match="'discriminator' is float64"):
        adam_step(store, "discriminator", np.ones(3, np.float64), lr=0.1)
    assert _group_state(store, "discriminator") == before
    assert before[2] == 0


def test_adam_rejects_gradient_of_another_shape():
    # The gradient is the group's flat buffer: one of another size, or one
    # in a parameter's own shape, is refused before anything changes.
    store = ParameterStore(dtype=np.float32)
    store.add("d", np.ones((3, 2)), "discriminator")
    store.add("e", np.ones(2), "discriminator")
    before = _group_state(store, "discriminator")
    for shape in ((6,), (3, 2), (9,)):
        with pytest.raises(ContractError, match=rf"has shape \({shape[0]},"):
            adam_step(store, "discriminator", np.ones(shape, np.float32), lr=0.1)
    assert _group_state(store, "discriminator") == before
    assert before[2] == 0


def test_store_owns_set_values():
    # Checkpoints load read-only buffers; Adam must still update in place,
    # and never write through to the caller's array.
    store = make_store(w=(np.zeros(3), "discriminator"))
    loaded = np.frombuffer(np.arange(3.0).tobytes())
    store.set("w", loaded)
    adam_step(store, "discriminator", np.ones(3), lr=0.1)
    assert loaded.tolist() == [0.0, 1.0, 2.0]
    assert np.all(store["w"] < loaded)


def test_parameters_are_views_of_their_group_buffer():
    store = make_store(a=(np.arange(6.0).reshape(2, 3), "discriminator"),
                       g=(np.ones(2), "generator"), s=(np.array(7.0), "discriminator"))
    assert store.values["discriminator"].tolist() == [0, 1, 2, 3, 4, 5, 7]
    assert store.names() == ["a", "g", "s"] and store.names("discriminator") == ["a", "s"]
    store.set("s", 8.0)
    store["a"][1, 2] = -1.0
    assert store.values["discriminator"].tolist() == [0, 1, 2, 3, 4, -1, 8]
    m, v, _ = store.adam_state("a")
    assert np.shares_memory(m, store.moments("discriminator")) and m.shape == (2, 3)
    store.set_adam_state("a", np.ones((2, 3)), np.full((2, 3), 2.0), 5)
    assert store.moments("discriminator")[:, :6].tolist() == [[1.0] * 6, [2.0] * 6]
    assert store.steps == {"discriminator": 5, "generator": 0}


def test_registration_after_adam_state_rejected():
    store = make_store(w=(np.ones(2), "discriminator"))
    adam_step(store, "discriminator", np.ones(2), lr=0.1)
    with pytest.raises(ContractError, match="'discriminator' already has Adam state"):
        store.add("x", np.ones(2), "discriminator")
    assert "x" not in store and store.values["discriminator"].size == 2
    store.add("g", np.ones(2), "generator")
    assert store.names() == ["w", "g"]


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
    adam_step(store, "discriminator", np.array([1.0]), lr=0.1)
    adam_step(store, "discriminator", np.array([1.0]), lr=0.1)
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
        p = tape.leaf("p")
        return tape, tape.scale(probe_square(tape, p), 0.5)

    res = finite_diff_check(builder, store, (1e-5,))
    assert res.worst < 1e-9


def test_finite_diff_catches_wrong_gradient():
    store = make_store(p=(np.array([0.5, 1.5]), "discriminator"))

    def builder(params):
        tape = Tape(params)
        p = tape.leaf("p")
        loss = probe_square(tape, p)
        # Sabotage: report half the true gradient.
        node = tape.scale(loss, 0.5)
        return tape, node

    # scale(·, 0.5) is a correct graph; build a genuinely wrong one instead
    # by post-editing the backward closure.
    def bad_builder(params):
        tape = Tape(params)
        p = tape.leaf("p")
        loss = probe_square(tape, p)
        fn = loss.backward_fn
        loss.backward_fn = lambda g: fn(0.5 * g)
        return tape, loss

    ok = finite_diff_check(builder, store, (1e-5,))
    assert ok.worst < 1e-9
    bad = finite_diff_check(bad_builder, store, (1e-5,))
    assert bad.worst > 0.3
    assert bad.worst_param == "p"


def test_finite_diff_requires_double():
    store = ParameterStore()  # default single precision
    store.add("p", np.ones(2), "discriminator")

    def builder(params):
        tape = Tape(params)
        return tape, probe_sum(tape, tape.leaf("p"))

    with pytest.raises(ContractError):
        finite_diff_check(builder, store, (1e-5,))


def test_finite_diff_requires_positive_steps():
    store = make_store(p=(np.ones(2), "discriminator"))

    def builder(params):
        tape = Tape(params)
        return tape, probe_sum(tape, tape.leaf("p"))

    for epsilons in ((), (1e-5, 0.0), (-1e-5,)):
        with pytest.raises(ContractError, match="positive"):
            finite_diff_check(builder, store, epsilons)


def test_names_filter_restricts_probing():
    store = make_store(a=(np.ones(2), "discriminator"),
                       b=(np.ones(2), "generator"))

    def builder(params):
        tape = Tape(params)
        return tape, probe_sum(tape, tape.add(tape.leaf("a"), tape.leaf("b")))

    res = finite_diff_check(builder, store, (1e-5,), names=["a"])
    assert set(res.per_param) == {"a"}


def test_named_views_follow_extend_and_load(tmp_path):
    # store[name] is made once per buffer: extend replaces the group's
    # buffer, so the name must then read the new one; a checkpoint load
    # writes into the buffer, so the same view must read the loaded values.
    store = make_store(a=(np.ones((2, 3)), "discriminator"))
    assert store["a"] is store["a"]
    store.extend("discriminator", {"b": np.arange(4.0)})
    assert np.shares_memory(store["a"], store.values["discriminator"])
    store["a"][...] = 5.0
    assert store.values["discriminator"].tolist() == [5.0] * 6 + [0.0, 1.0, 2.0, 3.0]
    assert store["b"].tolist() == [0.0, 1.0, 2.0, 3.0]
    saved = make_store(a=(np.full((2, 3), 7.0), "discriminator"),
                       b=(np.full(4, 8.0), "discriminator"))
    path = str(tmp_path / "saved.bin")
    save_checkpoint(saved, path)
    view = store["a"]
    load_checkpoint(store, path)
    assert store["a"] is view and view.tolist() == [[7.0] * 3] * 2
    assert store["b"].tolist() == [8.0] * 4
