"""Negative sampling, loss arithmetic, and the alternating optimization."""

import collections
import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import adamf.evaluation
from adamf import cli, training
from adamf.checkpoint import save_checkpoint
from adamf.data import TripleDataset
from adamf.errors import ContractError, NumericError
from adamf.model import ALL_PATTERNS, DISC, FROZEN, GEN, Model, ModelConfig, init_params
from adamf.params import adam_step, finite_diff_check
from adamf.rng import SeededRng
from adamf.tape import Tape
from adamf.toykg import build_toy_kg
from adamf.training import (TrainConfig, TrainState, loss_adv, positive_parts,
                            sample_negatives, self_adv_weights, train, train_batch,
                            train_step_discriminator, train_step_generator)

from conftest import (backward_views, line_model, make_dataset, margin_loss, small_model,
                      synthetic_scores)


# --- config -----------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ContractError):
        TrainConfig(k_negatives=0)
    with pytest.raises(ContractError):
        TrainConfig(adv_lambda=-0.1)
    with pytest.raises(ContractError):
        TrainConfig(batch_size=0)
    with pytest.raises(ContractError):
        TrainConfig(mat_enabled=True, adversarial_patterns=())
    with pytest.raises(ContractError, match="bogus"):
        TrainConfig(adversarial_patterns=("syn_tail", "bogus"))
    TrainConfig(mat_enabled=False, adversarial_patterns=())


# --- self-adversarial weights --------------------------------------------------

def test_weights_equal_scores_split_evenly():
    w = self_adv_weights(np.array([[1.3, 1.3]]), beta=2.0)
    assert np.allclose(w, 0.5, atol=1e-15)


def test_weights_beta_zero_uniform():
    w = self_adv_weights(np.array([[0.1, 5.0, 2.0, 7.7]]), beta=0.0)
    assert np.allclose(w, 0.25, atol=1e-15)


def test_weights_negated_hand_case():
    # scores (0, ln 3): exp(0)=1 vs exp(-ln 3)=1/3 -> (3/4, 1/4)
    w = self_adv_weights(np.array([[0.0, math.log(3.0)]]), beta=1.0)
    assert np.allclose(w, [0.75, 0.25], atol=1e-12)


def test_weights_single_negative():
    for beta in (0.0, 1.0, 7.5):
        w = self_adv_weights(np.array([[3.3]]), beta=beta)
        assert w.tolist() == [[1.0]]


@given(hnp.arrays(np.float64, (3, 6), elements=st.floats(-50, 50)),
       st.floats(0.0, 5.0))
@settings(max_examples=100, deadline=None)
def test_weights_simplex_and_shift_invariance(scores, beta):
    w = self_adv_weights(scores, beta=beta)
    assert np.all(w >= 0.0)
    assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)
    shifted = self_adv_weights(scores + 11.25, beta=beta)
    assert np.allclose(w, shifted, atol=1e-9)


# --- negative sampling -----------------------------------------------------------

def test_negatives_shape_and_single_slot():
    rng = SeededRng(0, stream="negatives")
    batch = np.array([[0, 0, 1], [2, 1, 3], [4, 0, 5]])
    negs = sample_negatives(batch, n_entities=6, k=8, rng=rng)
    assert negs.shape == (3, 8, 3)
    for b, (h, r, t) in enumerate(batch):
        for i in range(8):
            nh, nr, nt = negs[b, i]
            assert nr == r
            assert (nh == h) != (nt == t) or (nh == h and nt == t)
            # relation never corrupted; at most one entity slot changed
            assert (nh == h) or (nt == t)


def test_negatives_deterministic():
    batch = np.array([[0, 0, 1]])
    a = sample_negatives(batch, 10, 16, SeededRng(3, stream="negatives"))
    b = sample_negatives(batch, 10, 16, SeededRng(3, stream="negatives"))
    assert a.tobytes() == b.tobytes()


def test_negatives_two_entity_universe():
    batch = np.array([[0, 0, 1]])
    negs = sample_negatives(batch, 2, 50, SeededRng(1, stream="negatives"))
    for nh, nr, nt in negs[0]:
        assert (nh, nt) in ((0, 0), (1, 1), (0, 1))


def test_negatives_redraw_once_accepts_collision():
    # Single-entity vocabulary: both the draw and the redraw must hit
    # entity 0, which is then accepted.
    batch = np.array([[0, 0, 0]])
    negs = sample_negatives(batch, 1, 4, SeededRng(2, stream="negatives"))
    assert np.all(negs[:, :, [0, 2]] == 0)


def reference_negatives(triples, n_entities, k, rng):
    """Slot-by-slot statement of the sampling rule, over the same bulk draws:
    B*K coins, B*K first picks, B*K second picks."""
    n = triples.shape[0] * k
    coins = rng.uniforms(n)
    first = rng.randints([n_entities] * n)
    second = rng.randints([n_entities] * n)
    out = np.repeat(triples[:, None, :], k, axis=1).copy()
    for slot in range(n):
        b, j = divmod(slot, k)
        h, r, t = (int(v) for v in triples[b])
        head = coins[slot] < 0.5
        e = int(first[slot])
        collides = e == (h if head else t)
        out[b, j, 0 if head else 2] = int(second[slot]) if collides else e
    return out, first.reshape(-1, k), second.reshape(-1, k)


def test_vectorised_negatives_match_slot_rule():
    # Three entities, so a first pick collides often and the second pick
    # (which may differ from it) must be the one kept.  The second batch
    # has two relations, and a collision is a rebuilt positive under its own
    # relation only.  The third draws over four entities, and its batch
    # holds (0, 0, 0), whose two sides are one entity.  Each batch is drawn
    # from twice, under two seeds.
    datasets = ((3, make_dataset(3, {"train": [(0, 0, 1), (0, 0, 2), (2, 0, 1)]})),
                (3, make_dataset(3, {"train": [(0, 0, 1), (2, 1, 0), (1, 1, 2)],
                                     "valid": [(2, 0, 1)], "test": [(1, 1, 0)]},
                                 n_relations=2)),
                (4, make_dataset(4, {"train": [(0, 0, 0), (0, 0, 1), (1, 0, 2), (2, 0, 0)]})))
    for (n, ds), call in itertools.product(datasets, (1, 2)):
        batch = ds.train
        k = 40
        rng = SeededRng(21 + call, stream="negatives")
        rng.uniforms(5)  # start mid-stream
        start = rng.counter
        negs = sample_negatives(batch, n, k, rng)
        assert rng.counter - start == 3 * batch.shape[0] * k

        ref_rng = SeededRng(21 + call, stream="negatives")
        ref_rng.uniforms(5)
        want, first, second = reference_negatives(batch, n, k, ref_rng)
        assert negs.tobytes() == want.tobytes()
        assert ref_rng.counter == rng.counter

        changed_head = negs[:, :, 0] != batch[:, None, 0]
        changed_tail = negs[:, :, 2] != batch[:, None, 2]
        assert np.all(negs[:, :, 1] == batch[:, None, 1])
        assert not np.any(changed_head & changed_tail)  # one side at most
        # collisions happened and were replaced by a differing second pick
        replaced = (first != second) & ((negs[:, :, 0] == second) & changed_head |
                                        (negs[:, :, 2] == second) & changed_tail)
        assert replaced.any()


def test_negatives_stream_position_ignores_collisions():
    # A single-entity universe collides on every slot; a large one almost
    # never does.  Both consume exactly 3*B*K draws.
    batch = np.array([[0, 0, 0], [0, 0, 0]])
    for n_entities in (1, 10**6):
        rng = SeededRng(2, stream="negatives")
        sample_negatives(batch, n_entities, 7, rng)
        assert rng.counter == 3 * 2 * 7


# --- loss arithmetic ---------------------------------------------------------------

def test_loss_kgc_all_scores_at_margin():
    # F(pos) = gamma and F(neg) = gamma: both sigmoids sit at 0, so the
    # loss is -2*log(1/2) = 2 ln 2 per triple.
    gamma = 4.0
    model = line_model([0.0, gamma, gamma], gamma=gamma)
    batch = np.array([[1, 0, 0]])        # F = gamma
    negatives = np.array([[[2, 0, 0]]])  # F = gamma
    tape = Tape(model.store, DISC)
    loss, _ = margin_loss(model, tape, batch, negatives)
    assert abs(loss.value - 2.0 * math.log(2.0)) < 1e-12


def test_loss_kgc_wide_margin_hand_value():
    # gamma=12, F(pos)=0, one negative at F=24:
    # loss = -log sigma(12) - log sigma(12) = 2*log(1+e^-12)
    model = line_model([0.0, 0.0, 24.0], gamma=12.0)
    batch = np.array([[0, 0, 1]])
    negatives = np.array([[[0, 0, 2]]])
    tape = Tape(model.store, DISC)
    loss, _ = margin_loss(model, tape, batch, negatives)
    expect = 2.0 * math.log1p(math.exp(-12.0))
    assert abs(loss.value - expect) < 1e-12
    assert abs(loss.value - 1.229e-5) < 1e-8


def test_loss_kgc_batch_mean():
    gamma = 4.0
    model = line_model([0.0, gamma, gamma], gamma=gamma)
    one = (np.array([[1, 0, 0]]), np.array([[[2, 0, 0]]]))
    two = (np.array([[1, 0, 0], [1, 0, 0]]),
           np.array([[[2, 0, 0]], [[2, 0, 0]]]))
    losses = []
    for batch, negs in (one, two):
        tape = Tape(model.store, DISC)
        loss, _ = margin_loss(model, tape, batch, negs)
        losses.append(float(loss.value))
    assert abs(losses[0] - losses[1]) < 1e-12


def test_loss_adv_all_scores_at_margin():
    # Structural-only: synthetic entities coincide with the real ones, so
    # every synthetic score equals its real counterpart.
    gamma = 4.0
    model = line_model([0.0, gamma], gamma=gamma)
    batch = np.array([[1, 0, 0]])  # F(pos) = gamma
    tape = Tape(model.store, DISC)
    # syn scores: tail pattern F(1,0*)=gamma... all entities sit at their
    # real positions, so every pattern scores gamma as well.
    inputs = model.generator_inputs(batch, ALL_PATTERNS, SeededRng(0, stream="noise"))
    assert inputs == {}  # no projected modality, nothing to generate
    loss, _ = loss_adv(model, tape, ALL_PATTERNS, inputs, positive_parts(model, tape, (batch,)))
    assert abs(loss.value - 2.0 * math.log(2.0)) < 1e-12


def test_loss_positive_on_random_fixtures():
    for seed in range(10):
        model = small_model(seed=seed)
        rng = SeededRng(seed, stream="negatives")
        batch = np.array([[0, 0, 1], [2, 1, 3]])
        negs = sample_negatives(batch, model.n_entities, 4, rng)
        tape = Tape(model.store, DISC)
        kgc, _ = margin_loss(model, tape, batch, negs)
        inputs = model.generator_inputs(batch, ALL_PATTERNS, SeededRng(seed, stream="noise"))
        adv, _ = loss_adv(model, tape, ALL_PATTERNS, inputs, positive_parts(model, tape, (batch,)))
        assert kgc.value > 0.0
        assert adv.value > 0.0


def test_restricted_patterns_shrink_synthetic_set():
    model = small_model()
    batch = np.array([[0, 0, 1]])
    tape = Tape(model.store, DISC)
    inputs = model.generator_inputs(batch, ("syn_head",), SeededRng(0, stream="noise"))
    scores = synthetic_scores(model, tape, batch, ("syn_head",), inputs)
    assert scores.value.shape == (1,)


# --- gradient routing ---------------------------------------------------------------

def test_discriminator_view_gives_zero_generator_gradient():
    model = small_model()
    batch = np.array([[0, 0, 1], [2, 1, 3]])
    inputs = model.generator_inputs(batch, ALL_PATTERNS, SeededRng(0, stream="noise"))
    tape = Tape(model.store, DISC)
    loss, _ = loss_adv(model, tape, ALL_PATTERNS, inputs, positive_parts(model, tape, (batch,)))
    grads = backward_views(tape, loss)
    for name in model.store.names("generator"):
        assert np.all(grads[name] == 0.0), name
    assert np.any(grads["entity.structural"] != 0.0)


def test_generator_view_gives_zero_discriminator_gradient():
    model = small_model()
    batch = np.array([[0, 0, 1], [2, 1, 3]])
    inputs = model.generator_inputs(batch, ALL_PATTERNS, SeededRng(0, stream="noise"))
    tape = Tape(model.store, GEN)
    loss, _ = loss_adv(model, tape, ALL_PATTERNS, inputs, positive_parts(model, tape, (batch,)))
    grads = backward_views(tape, loss)
    for name in model.store.names("discriminator"):
        assert np.all(grads[name] == 0.0), name
    assert any(np.any(grads[name] != 0.0)
               for name in model.store.names("generator"))


@pytest.mark.parametrize("modalities", [("s",), ("v", "t")])
def test_mat_steps_run_without_structural_or_projected_modalities(modalities):
    # Structural-only: there is nothing to generate, every synthetic entity
    # is its real one, so each pattern scores the positive itself.  v+t: the
    # synthetic entities are wholly generated.  Both steps run either way.
    model = small_model(modalities=modalities)
    cfg = TrainConfig(k_negatives=4, batch_size=4, seed=0)
    batch = np.array([[0, 0, 1], [2, 1, 3], [4, 0, 4]])
    negs = sample_negatives(batch, model.n_entities, 4, SeededRng(0, stream="negatives"))
    tape = Tape(model.store, FROZEN)
    pos = positive_parts(model, tape, (batch,))
    inputs = model.generator_inputs(batch, ALL_PATTERNS, SeededRng(0, stream="noise"))
    _, info = loss_adv(model, tape, ALL_PATTERNS, inputs, pos)
    f_pos = model.distances(tape, pos[0], batch).value
    assert (info["f_syn"] == f_pos).all() == (modalities == ("s",))
    disc, gen = (model.store.values[g].copy() for g in ("discriminator", "generator"))
    noise_rng = SeededRng(1, stream="noise")
    kgc, adv = train_step_discriminator(model, batch, negs, cfg, noise_rng)
    adv_gen = train_step_generator(model, batch, cfg, noise_rng)
    assert all(np.isfinite((kgc, adv, adv_gen))) and adv > 0 and adv_gen > 0
    assert (model.store.values["discriminator"] != disc).any()
    assert (gen.size == 0) == (modalities == ("s",))
    assert gen.size == 0 or (model.store.values["generator"] != gen).any()


def test_generator_objective_gradcheck_on_one_side():
    # ("syn_head",) builds only h*: the generator's stacked pass has B rows.
    model = small_model(seed=3)
    batch = np.array([[0, 0, 1], [2, 1, 3], [5, 0, 2]])
    inputs = model.generator_inputs(batch, ("syn_head",), SeededRng(3, stream="noise"))
    assert [(m, x.shape) for m, x in inputs.items()] == [("v", (3, 9)), ("t", (3, 9))]
    cli._clear_generator_kinks(model, inputs)

    def builder(params):
        tape = Tape(params, GEN)
        adv, _ = loss_adv(model, tape, ("syn_head",), inputs,
                          positive_parts(model, tape, (batch,)))
        return tape, tape.scale(adv, -0.01 * cli.GRADCHECK_SCALE)

    check = finite_diff_check(builder, model.store, cli.GRADCHECK_EPSILONS,
                              model.store.names("generator"))
    assert check.worst < cli.GRADCHECK_TOLERANCE, check.per_param


KERNELS = {"add", "scale", "matvec", "take", "leaky_relu", "log_sigmoid_sum", "fuse",
           "query_distance"}


def test_mat_on_toy_batch_call_counts(monkeypatch):
    # One generator pass per projected modality (2 matvecs) on each step's
    # tape, and one query_distance for all synthetic patterns: the scorer's
    # tape scores positives, negatives and synthetic triples, the generator's
    # positives and synthetic triples, each through the tape's 8 kernels.
    # The host's speed moves none of this.
    dataset, tables = build_toy_kg()
    cfg = ModelConfig(d=16, visual_dim=3, textual_dim=3, noise_dim=8, gamma=4.0)
    vocab = dataset.vocab
    model = Model(cfg, init_params(cfg, vocab.n_entities, vocab.n_relations, 0), tables)
    counts = []
    backward = Tape.backward

    def counting(tape, root):
        ops = collections.Counter(n.name for n in tape.nodes if n.parents)
        gen = sum(n.name == "matvec" and n.parents[0].name.startswith("gen.")
                  for n in tape.nodes)
        counts.append((tape.live, ops["query_distance"], gen, len(tape.nodes), ops))
        return backward(tape, root)

    monkeypatch.setattr(Tape, "backward", counting)
    train_batch(model, dataset.train[:16], TrainConfig(k_negatives=16, batch_size=16),
                TrainState.from_seed(0))
    (disc, disc_qd, disc_gen, disc_nodes, disc_ops), (gen, gen_qd, gen_gen, gen_nodes,
                                                      gen_ops) = counts
    assert (disc, gen) == (DISC, GEN)
    assert (disc_qd, gen_qd) == (3, 2)
    assert disc_gen == gen_gen == 2 * len(cfg.projected_modalities)
    assert disc_nodes + gen_nodes <= 89     # 119 with one scoring call per pattern
    assert set(disc_ops) | set(gen_ops) <= KERNELS


def test_d_step_keeps_generator_bitwise():
    model = small_model()
    cfg = TrainConfig(k_negatives=4, batch_size=4, epochs=1, seed=0)
    batch = np.array([[0, 0, 1], [2, 1, 3]])
    negs = sample_negatives(batch, model.n_entities, 4,
                            SeededRng(0, stream="negatives"))
    before = model.store.values["generator"].copy()
    train_step_discriminator(model, batch, negs, cfg,
                             noise_rng=SeededRng(0, stream="noise"))
    assert model.store.values["generator"].tobytes() == before.tobytes()


def test_g_step_keeps_discriminator_bitwise():
    model = small_model()
    cfg = TrainConfig(k_negatives=4, batch_size=4, epochs=1, seed=0)
    batch = np.array([[0, 0, 1], [2, 1, 3]])
    before = model.store.values["discriminator"].copy()
    train_step_generator(model, batch, cfg,
                         noise_rng=SeededRng(0, stream="noise"))
    assert model.store.values["discriminator"].tobytes() == before.tobytes()


def test_g_step_with_zero_lambda_is_noop():
    model = small_model()
    cfg = TrainConfig(k_negatives=4, batch_size=4, epochs=1, adv_lambda=0.0,
                      seed=0)
    batch = np.array([[0, 0, 1]])
    before = model.store.values["generator"].copy()
    train_step_generator(model, batch, cfg, noise_rng=SeededRng(0, stream="noise"))
    assert model.store.values["generator"].tobytes() == before.tobytes()


def test_g_step_requires_mat():
    model = small_model()
    cfg = TrainConfig(mat_enabled=False)
    with pytest.raises(ContractError):
        train_step_generator(model, np.array([[0, 0, 1]]), cfg,
                             noise_rng=SeededRng(0))


def test_d_step_descends_for_small_lr():
    model = small_model(seed=3)
    cfg = TrainConfig(k_negatives=4, batch_size=8, lr_d=1e-4,
                      mat_enabled=False, seed=0)
    batch = np.array([[0, 0, 1], [2, 1, 3], [4, 0, 5]])
    negs = sample_negatives(batch, model.n_entities, 4,
                            SeededRng(0, stream="negatives"))

    def loss_now():
        tape = Tape(model.store, DISC)
        loss, _ = margin_loss(model, tape, batch, negs)
        return float(loss.value)

    before = loss_now()
    train_step_discriminator(model, batch, negs, cfg, SeededRng(0, stream="noise"))
    assert loss_now() < before


def test_each_step_fuses_one_union_table(monkeypatch):
    # One joint_and_alpha call per step, on the unique entities of the
    # batch (and, in the discriminator step, of its negatives).
    model = small_model(seed=2)
    cfg = TrainConfig(k_negatives=4, batch_size=8, mat_enabled=True, seed=0)
    batch = np.array([[0, 0, 1], [2, 1, 3], [0, 1, 3]])
    negs = sample_negatives(batch, model.n_entities, 4,
                            SeededRng(0, stream="negatives"))
    seen = []
    original = Model.joint_and_alpha

    def recording(self, tape, idx):
        seen.append(np.asarray(idx).copy())
        return original(self, tape, idx)

    monkeypatch.setattr(Model, "joint_and_alpha", recording)
    noise_rng = SeededRng(0, stream="noise")
    train_step_discriminator(model, batch, negs, cfg, noise_rng)
    train_step_generator(model, batch, cfg, noise_rng)
    entities = [np.concatenate([batch[:, 0], batch[:, 2], negs[..., 0].ravel(),
                                negs[..., 2].ravel()]),
                np.concatenate([batch[:, 0], batch[:, 2]])]
    assert len(seen) == 2
    for idx, named in zip(seen, entities):
        assert np.array_equal(idx, np.unique(named))


# --- alternating training -----------------------------------------------------------

def toy_train_setup(mat=True, n=8, seed=0, **kwargs):
    triples = [(i, 0, (i + 1) % n) for i in range(n)]
    ds = make_dataset(n, {"train": triples[:-2], "valid": [triples[-2]],
                          "test": [triples[-1]]})
    model = small_model(n_entities=n, n_relations=1, seed=seed)
    kwargs.setdefault("k_negatives", 4)
    kwargs.setdefault("batch_size", 4)
    kwargs.setdefault("validate_every", 0)
    cfg = TrainConfig(mat_enabled=mat, seed=seed, **kwargs)
    return model, ds, cfg


def test_single_batch_single_epoch_counts(tmp_path):
    model, ds, cfg = toy_train_setup(epochs=1, batch_size=1024)
    train(model, ds, cfg, tmp_path)
    _, _, d_steps = model.store.adam_state("entity.structural")
    _, _, g_steps = model.store.adam_state("gen.v.w1")
    assert d_steps == 1
    assert g_steps == 1


def test_mat_disabled_never_touches_generator(tmp_path):
    model, ds, cfg = toy_train_setup(mat=False, epochs=3)
    before = model.store.values["generator"].copy()
    train(model, ds, cfg, tmp_path)
    assert model.store.values["generator"].tobytes() == before.tobytes()
    _, _, g_steps = model.store.adam_state("gen.v.w1")
    assert g_steps == 0


def test_mat_disabled_matches_handwritten_kgc_loop(tmp_path):
    # A loop with the adversarial path physically absent must reproduce the
    # mat_enabled=false trajectory bit for bit.
    model, ds, cfg = toy_train_setup(mat=False, epochs=3, batch_size=4)
    train(model, ds, cfg, tmp_path)

    manual = small_model(n_entities=8, n_relations=1, seed=0)
    root = SeededRng(cfg.seed)
    neg_rng = root.substream("negatives")
    shuffle_rng = root.substream("shuffle")
    for _ in range(3):
        order = shuffle_rng.permutation(len(ds.train))
        shuffled = ds.train[order]
        for start in range(0, len(shuffled), 4):
            batch = shuffled[start:start + 4]
            negs = sample_negatives(batch, 8, cfg.k_negatives, neg_rng)
            tape = Tape(manual.store, DISC)
            loss, _ = margin_loss(manual, tape, batch, negs)
            tape.backward(loss)
            adam_step(manual.store, "discriminator", tape.grads["discriminator"], lr=cfg.lr_d)

    for name in model.store.names():
        assert model.store[name].tobytes() == manual.store[name].tobytes(), name


@pytest.mark.parametrize("mat", [True, False], ids=["mat", "no-mat"])
def test_train_batches_through_the_module_global_steps(tmp_path, monkeypatch, mat):
    # Benchmarks time a batch by rebinding `adamf.training.sample_negatives`
    # (its start) and `adamf.training.train_step_generator` (its end): each
    # batch must call both there, the generator step last, and with MAT off
    # never the generator step.
    model, ds, cfg = toy_train_setup(mat=mat, epochs=2)
    events = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(training, "sample_negatives",
                        recording("start", training.sample_negatives))
    monkeypatch.setattr(training, "train_step_generator",
                        recording("end", training.train_step_generator))
    train(model, ds, cfg, tmp_path)
    n_batches = 2 * math.ceil(len(ds.train) / cfg.batch_size)
    assert events == (["start", "end"] if mat else ["start"]) * n_batches


@pytest.mark.parametrize("seed", [0, 7])
def test_train_state_draws_the_run_seed_substreams(seed):
    state = TrainState.from_seed(seed)
    for label in ("negatives", "noise", "shuffle"):
        want = SeededRng(seed).substream(label).uniforms(16)
        assert getattr(state, label).uniforms(16).tobytes() == want.tobytes(), label


def test_train_batch_without_mat_draws_no_noise():
    model, ds, cfg = toy_train_setup(mat=False)
    state = TrainState.from_seed(cfg.seed)
    kgc, adv, gen = train_batch(model, ds.train[:4], cfg, state)
    assert kgc > 0 and (adv, gen) == (0.0, 0.0)
    assert state.noise.counter == 0
    assert state.negatives.counter == 3 * 4 * cfg.k_negatives


def test_train_batch_loop_matches_train(tmp_path):
    # train() is the epoch loop around train_batch: the same batches in the
    # same order leave the same parameters and Adam moments.
    model, ds, cfg = toy_train_setup(epochs=3)
    train(model, ds, cfg, tmp_path)

    manual = small_model(n_entities=8, n_relations=1, seed=0)
    state = TrainState.from_seed(cfg.seed)
    for _ in range(cfg.epochs):
        shuffled = ds.train[state.shuffle.permutation(len(ds.train))]
        for start in range(0, len(shuffled), cfg.batch_size):
            train_batch(manual, shuffled[start:start + cfg.batch_size], cfg, state)
    assert _store_state(manual.store) == _store_state(model.store)


def test_train_writes_jsonl_log(tmp_path):
    model, ds, cfg = toy_train_setup(epochs=4, validate_every=2)
    history = train(model, ds, cfg, tmp_path)
    log_path = tmp_path / "train_log.jsonl"
    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(lines) == 4
    assert [line["epoch"] for line in lines] == [1, 2, 3, 4]
    for line in lines:
        assert "loss_kgc" in line and "loss_adv" in line
    assert "val_mrr" in lines[1] and "val_mrr" in lines[3]
    assert "val_mrr" not in lines[0]
    assert history[-1]["epoch"] == 4


@pytest.mark.parametrize("epochs, validate_every, has_valid, writes", [
    (2, 50, True, ["best.bin", "checkpoint.bin"]),  # the last epoch validates and saves
    # never validated: both saved after the loop
    (2, 0, True, ["checkpoint.bin", "best.bin"]),
    (0, 50, True, ["checkpoint.bin", "best.bin"]),
    (2, 50, False, ["checkpoint.bin", "best.bin"]),
], ids=["50-writes0", "0-writes1", "no-epochs", "empty-valid"])
def test_train_writes_each_checkpoint_once(tmp_path, monkeypatch, epochs, validate_every,
                                           has_valid, writes):
    model, ds, cfg = toy_train_setup(epochs=epochs, validate_every=validate_every)
    if not has_valid:
        ds = TripleDataset.from_splits(ds.vocab, ds.train, [], ds.test)
    calls = []

    def counting_save(store, path):
        calls.append(os.path.basename(path))
        save_checkpoint(store, path)

    monkeypatch.setattr(training, "save_checkpoint", counting_save)
    train(model, ds, cfg, tmp_path)
    assert calls == writes
    save_checkpoint(model.store, str(tmp_path / "final.bin"))
    assert (tmp_path / "checkpoint.bin").read_bytes() == \
        (tmp_path / "final.bin").read_bytes()


def test_train_refuses_an_empty_train_split(tmp_path):
    # Refused before the log is opened, as evaluate refuses an empty split.
    model, ds, cfg = toy_train_setup(epochs=1)
    ds = TripleDataset.from_splits(ds.vocab, [], ds.valid, ds.test)
    with pytest.raises(ContractError, match="cannot train on an empty train split"):
        train(model, ds, cfg, tmp_path)
    assert not (tmp_path / "train_log.jsonl").exists()


@pytest.mark.parametrize("tie_break", ["optimistic", "pessimistic"])
def test_validation_ranks_with_the_run_tie_break(tmp_path, monkeypatch, tie_break):
    model, ds, cfg = toy_train_setup(epochs=4, validate_every=2)
    real_evaluate = adamf.evaluation.evaluate
    seen = []

    def recording_evaluate(model, dataset, split="test", ks=(1, 3, 10),
                           tie_break="optimistic"):
        seen.append((split, tie_break))
        return real_evaluate(model, dataset, split, ks, tie_break)

    monkeypatch.setattr(adamf.evaluation, "evaluate", recording_evaluate)
    history = train(model, ds, cfg, tmp_path, tie_break)
    assert seen == [("valid", tie_break)] * 2
    assert history[-1]["val_mrr"] == real_evaluate(model, ds, "valid",
                                                   tie_break=tie_break).mrr


def test_train_deterministic_across_runs(tmp_path):
    outs = []
    for _ in range(2):
        model, ds, cfg = toy_train_setup(epochs=3)
        train(model, ds, cfg, tmp_path)
        outs.append({n: model.store[n].tobytes() for n in model.store.names()})
    assert outs[0] == outs[1]


def test_nonfinite_loss_aborts_with_batch_context(tmp_path):
    # The loop must surface a non-finite step with its epoch, batch and
    # origin, in its error and in the log's last line, and refuse it before
    # Adam moves anything.  The fixture is double precision: 1e308
    # embeddings are finite and overflow the per-triple modulus sum, so the
    # kernel is named; NaN embeddings are named by their parameter.  (Merely
    # huge-but-finite values train fine.)
    for fill, origin in ((1e308, "op 'query_distance'"),
                         (np.nan, "parameter 'entity.structural'")):
        model, ds, cfg = toy_train_setup(mat=False, epochs=1)
        store = model.store
        store.set("entity.structural", np.full_like(store["entity.structural"], fill))
        before = _store_state(store)
        with pytest.raises(NumericError, match=f"epoch 1 batch 0: .*{origin}") as raised:
            with np.errstate(all="ignore"):
                train(model, ds, cfg, tmp_path)
        assert _store_state(store) == before
        last = json.loads((tmp_path / "train_log.jsonl").read_text().splitlines()[-1])
        assert sorted(last) == ["batch", "epoch", "error"] and origin in last["error"]
        assert (last["epoch"], last["batch"]) == (1, 0)
        assert str(raised.value) == f"epoch 1 batch 0: {last['error']}"


def test_nonfinite_validation_ends_the_log_with_its_epoch(tmp_path, monkeypatch):
    # A validation that cannot rank stops the run too; its line has no batch.
    def unrankable(*args, **kwargs):
        raise NumericError("non-finite entity embeddings; cannot rank")

    monkeypatch.setattr(adamf.evaluation, "evaluate", unrankable)
    model, ds, cfg = toy_train_setup(mat=False, epochs=3, validate_every=2)
    with pytest.raises(NumericError, match="^epoch 2 validation: non-finite entity"):
        train(model, ds, cfg, tmp_path)
    lines = [json.loads(line)
             for line in (tmp_path / "train_log.jsonl").read_text().splitlines()]
    assert [line["epoch"] for line in lines] == [1, 2]
    assert lines[-1] == {"epoch": 2, "batch": None,
                         "error": "non-finite entity embeddings; cannot rank"}


def test_generator_step_names_nonfinite_detached_parameter():
    # In the generator step the scorer's parameters are constants; a NaN
    # among them is still named by its parameter, and Adam never runs.
    model, ds, cfg = toy_train_setup(mat=True, epochs=1)
    store = model.store
    store.set("entity.structural", np.full_like(store["entity.structural"], np.nan))
    before = _store_state(store)
    with np.errstate(all="ignore"), pytest.raises(
            NumericError, match="parameter 'entity.structural'"):
        train_step_generator(model, ds.train[:4], cfg, SeededRng(0, stream="noise"))
    assert _store_state(store) == before


def _store_state(store):
    """Bytes of every value and Adam moment, and every Adam step count."""
    state = {}
    for name in store.names():
        m, v, step = store.adam_state(name)
        state[name] = (store[name].tobytes(), m.tobytes(), v.tobytes(), step)
    return state


def test_monotone_descent_rate_on_tiny_fixture():
    # 3-entity, 1-relation fixture: the per-step full-batch loss should be
    # non-increasing through the first 50 steps in at least 95 of 100 seeds.
    passes = 0
    for seed in range(100):
        model = small_model(n_entities=3, n_relations=1, d=2, seed=seed)
        batch = np.array([[0, 0, 1], [1, 0, 2]])
        negs = sample_negatives(batch, 3, 2, SeededRng(seed, stream="negatives"))
        cfg = TrainConfig(k_negatives=2, batch_size=4, lr_d=1e-3,
                          mat_enabled=False, seed=seed)

        def loss_now():
            tape = Tape(model.store, DISC)
            loss, _ = margin_loss(model, tape, batch, negs)
            return float(loss.value)

        ok = True
        prev = loss_now()
        for _ in range(50):
            train_step_discriminator(model, batch, negs, cfg,
                                     SeededRng(seed, stream="noise"))
            cur = loss_now()
            if cur > prev + 1e-9:
                ok = False
                break
            prev = cur
        passes += ok
    assert passes >= 95, f"monotone in only {passes}/100 trials"


def test_generator_pressure_reduces_synthetic_distance():
    model = small_model(seed=1)
    batch = np.array([[0, 0, 1], [2, 1, 3], [4, 0, 5]])
    cfg = TrainConfig(k_negatives=4, batch_size=4, lr_g=1e-2, seed=0)
    probe_inputs = model.generator_inputs(batch, ALL_PATTERNS, SeededRng(123, stream="probe"))

    def mean_synthetic_f():
        tape = Tape(model.store, GEN)
        scores = synthetic_scores(model, tape, batch, ALL_PATTERNS, probe_inputs)
        return float(scores.value.mean())

    start = mean_synthetic_f()
    rng = SeededRng(7, stream="noise")
    for _ in range(50):
        train_step_generator(model, batch, cfg, noise_rng=rng)
    assert mean_synthetic_f() < start
