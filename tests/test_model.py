"""Projection, fusion, rotation scoring, and the synthetic-embedding path."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from adamf import model as model_module
from adamf.data import apply_modality_missing
from adamf.errors import ContractError
from adamf.model import (ALL_PATTERNS, DISC, FROZEN, GEN, MODALITY_ORDER,
                         Model, ModelConfig, init_params, zero_params)
from adamf.params import GROUPS, ParameterStore
from adamf.rng import SeededRng
from adamf.tape import Tape
from adamf.training import (TrainConfig, sample_negatives, train_step_discriminator,
                            train_step_generator)

from conftest import (probe_sum, random_features, small_features, small_model,
                      synthetic_scores)


# --- configuration ------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(d=0)
    with pytest.raises(ContractError):
        ModelConfig(gamma=0.0)
    with pytest.raises(ContractError):
        ModelConfig(fusion_mode="other")
    with pytest.raises(ContractError):
        ModelConfig(modalities=("v",))  # missing structural, not the v+t case
    with pytest.raises(ContractError):
        ModelConfig(modalities=())
    with pytest.raises(ContractError, match="'x'"):
        ModelConfig(modalities=("s", "x"))  # not dropped on the way to ("s",)
    ModelConfig(modalities=("v", "t"))  # explicit no-structural ablation


def test_config_canonicalizes_modality_order():
    cfg = ModelConfig(modalities=("t", "s", "v"))
    assert cfg.modalities == ("s", "v", "t")


# --- initialization -------------------------------------------------------------

def test_init_deterministic():
    cfg = ModelConfig(d=8, visual_dim=6, textual_dim=5, noise_dim=4)
    a = init_params(cfg, 10, 3, seed=5)
    b = init_params(cfg, 10, 3, seed=5)
    for name in a.names():
        assert a[name].tobytes() == b[name].tobytes(), name
    c = init_params(cfg, 10, 3, seed=6)
    assert any(a[name].tobytes() != c[name].tobytes() for name in a.names())


def test_zero_params_is_init_params_layout_undrawn():
    # The store a checkpoint loads into: init_params's groups, names, shapes
    # and dtype, with every value zero and nothing drawn.
    cfg = ModelConfig(d=8, visual_dim=6, textual_dim=5, noise_dim=4, precision="double")
    drawn, blank = init_params(cfg, 10, 3, seed=5), zero_params(cfg, 10, 3)
    for group in GROUPS:
        assert blank.names(group) == drawn.names(group)
        assert blank.values[group].shape == drawn.values[group].shape
        assert blank.values[group].dtype == np.float64 and not blank.values[group].any()


def test_init_shapes_and_ranges():
    cfg = ModelConfig(d=16, visual_dim=6, textual_dim=5, noise_dim=4)
    store = init_params(cfg, 12, 4, seed=0)
    assert store["entity.structural"].shape == (12, 32)
    assert store["relation.phase"].shape == (4, 16)
    bound = 6.0 / math.sqrt(32)
    assert np.all(np.abs(store["entity.structural"]) <= bound)
    phases = store["relation.phase"]
    assert np.all(phases > -math.pi) and np.all(phases <= math.pi)
    for m in ("v", "t"):
        assert np.array_equal(store[f"proj.{m}.bias"],
                              np.zeros_like(store[f"proj.{m}.bias"]))
        assert np.all(store[f"fusion.w.{m}"] == 1.0)
    assert store["proj.v.weight"].shape == (32, 6)
    assert store["gen.v.w1"].shape == (32, 32 + 4)
    assert store["gen.v.w2"].shape == (32, 32)
    assert store.group_of("gen.v.w1") == "generator"
    assert store.group_of("entity.structural") == "discriminator"


def test_init_name_substreams_independent():
    # Growing the entity table must not reshuffle relation phases.
    cfg = ModelConfig(d=4, visual_dim=3, textual_dim=3, noise_dim=2)
    small = init_params(cfg, 5, 3, seed=9)
    large = init_params(cfg, 50, 3, seed=9)
    assert small["relation.phase"].tobytes() == large["relation.phase"].tobytes()


def one_shot_uniform_tables(cfg, n_entities, n_relations, seed):
    """init_params's uniform tables, each drawn in one call and cast once."""
    two_d, hidden, b = cfg.entity_dim, cfg.entity_dim, 6.0 / math.sqrt(cfg.entity_dim)
    tables = {"entity.structural": ((n_entities, two_d), b),
              "relation.phase": ((n_relations, cfg.d), math.pi)}
    for m in cfg.projected_modalities:
        dim = cfg.feature_dim(m)
        tables[f"proj.{m}.weight"] = ((two_d, dim), math.sqrt(6.0 / (dim + two_d)))
        tables[f"fallback.{m}"] = ((n_entities, two_d), b)
        tables[f"gen.{m}.w1"] = ((hidden, two_d + cfg.noise_dim),
                                 math.sqrt(6.0 / (two_d + cfg.noise_dim + hidden)))
        tables[f"gen.{m}.w2"] = ((two_d, hidden), math.sqrt(6.0 / (hidden + two_d)))
    root = SeededRng(seed)
    return {name: ((root.substream(f"init/{name}").uniforms(int(np.prod(shape))) * 2 - 1)
                   .reshape(shape) * bound).astype(cfg.dtype)
            for name, (shape, bound) in tables.items()}


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("chunk", [1000, None])
def test_init_chunked_equals_one_shot_formula(monkeypatch, precision, chunk):
    # 12,001 x 16 = 192,016 draws per entity table: three module-sized
    # chunks or 193 small ones, the last one partial either way; the
    # 3 x 8 phase table is one partial chunk.
    if chunk is None:
        assert 2 * model_module.INIT_CHUNK < 12_001 * 16 < 3 * model_module.INIT_CHUNK
    else:
        monkeypatch.setattr(model_module, "INIT_CHUNK", chunk)
    cfg = ModelConfig(d=8, visual_dim=7, textual_dim=5, noise_dim=3, precision=precision)
    store = init_params(cfg, 12_001, 3, seed=4)
    expected = one_shot_uniform_tables(cfg, 12_001, 3, seed=4)
    assert set(expected) < set(store.names())
    for name, want in expected.items():
        assert store[name].dtype == want.dtype and store[name].tobytes() == want.tobytes(), name


# --- projection -----------------------------------------------------------------

def project_values(weight, bias, feats):
    tape = Tape()
    out = tape.matvec(tape.const(np.asarray(weight, dtype=float)),
                      tape.const(np.asarray(feats, dtype=float)),
                      tape.const(np.asarray(bias, dtype=float)))
    return out.value


def test_projection_hand_case():
    out = project_values([[1, 0, 0], [0, 1, 0]], [1, 1], [[1, 2, 3]])
    assert out.tolist() == [[2.0, 3.0]]


def test_projection_zero_and_identity():
    assert project_values(np.zeros((2, 3)), np.zeros(2), [[1, 2, 3]]).tolist() == [[0.0, 0.0]]
    eye = project_values(np.eye(3), np.zeros(3), [[4, 5, 6]])
    assert eye.tolist() == [[4.0, 5.0, 6.0]]


# --- fusion ----------------------------------------------------------------------

def fuse_scalar_case(e_values, w_values):
    """1-long embedding vectors so the modality scores are w*tanh(e)."""
    store = ParameterStore(dtype=np.float64)
    for m, w in zip(MODALITY_ORDER, w_values):
        store.add(f"fusion.w.{m}", np.array([w], dtype=float), "discriminator")
    tape = Tape(store, DISC)
    parts = [tape.const(np.array([[e]], dtype=float)) for e in e_values]
    alpha = tape.fusion_weights(
        parts, [tape.leaf(f"fusion.w.{m}") for m in MODALITY_ORDER])
    return alpha.value[0]


def test_fusion_alpha_hand_case():
    # scores = tanh(0), tanh(10), tanh(-10) ~ (0, 1, -1);
    # softmax -> (1, e, 1/e)/Z = (0.2447, 0.6652, 0.0901)
    alpha = fuse_scalar_case([0.0, 10.0, -10.0], [1.0, 1.0, 1.0])
    assert np.allclose(alpha, [0.24473, 0.66524, 0.09003], atol=5e-4)


def test_fusion_symmetry_exactly_uniform():
    model = small_model()
    tape = Tape(model.store, DISC)
    e = tape.const(np.full((2, 6), 0.37))
    parts = {m: e for m in MODALITY_ORDER}
    # identical w vectors are guaranteed by init (all ones)
    _, alpha = model.fuse(tape, parts)
    assert np.all(alpha.value == alpha.value[:, :1])
    assert np.allclose(alpha.value.sum(axis=1), 1.0, atol=1e-12)


def test_fusion_mean_mode():
    model = small_model(fusion_mode="mean", modalities=("s", "v"))
    tape = Tape(model.store, DISC)
    joint, alpha = model.joint_and_alpha(tape, np.array([0, 1, 2]))
    assert np.all(alpha.value == 0.5)
    assert joint.value.shape == (3, 6)


def test_fusion_simplex_over_random_models():
    for seed in range(40):
        model = small_model(seed=seed)
        tape = Tape(model.store, DISC)
        idx = np.arange(model.n_entities)
        _, alpha = model.joint_and_alpha(tape, idx)
        a = alpha.value
        assert np.all(a > 0.0)
        assert np.all(np.abs(a.sum(axis=1) - 1.0) <= 1e-12)


def test_fusion_permutation_equivariance():
    # Swapping the (w, e) pairs of two modalities swaps their weights.
    base = fuse_scalar_case([0.3, 1.2, -0.7], [1.0, 0.5, 2.0])
    swapped = fuse_scalar_case([0.3, -0.7, 1.2], [1.0, 2.0, 0.5])
    assert np.allclose(base[[0, 2, 1]], swapped, atol=1e-15)


def test_fuse_is_two_nodes():
    # Adaptive: fusion_weights + mix beside the fusion-vector leaves;
    # mean: a constant alpha + mix.
    for mode in ("adaptive", "mean"):
        model = small_model(fusion_mode=mode)
        tape = Tape(model.store, DISC)
        parts = {m: tape.const(np.full((2, 6), 0.1 * j))
                 for j, m in enumerate(MODALITY_ORDER)}
        before = len(tape.nodes)
        joint, alpha = model.fuse(tape, parts)
        added = tape.nodes[before:]
        emitted = [node for node in added if node.parents]
        assert emitted[-1] is joint and joint.parents[0] is alpha
        if mode == "adaptive":
            assert len(emitted) == 2 and emitted[0] is alpha
            assert [node.name for node in added if not node.parents] == [
                f"fusion.w.{m}" for m in MODALITY_ORDER]
        else:
            assert added == [alpha, joint] and not alpha.parents


def test_fuse_rejects_wrong_parts():
    model = small_model()
    tape = Tape(model.store, DISC)
    e = tape.const(np.zeros((1, 6)))
    with pytest.raises(ContractError):
        model.fuse(tape, {"s": e, "v": e})  # missing t


def test_joint_equals_convex_combination():
    model = small_model()
    tape = Tape(model.store, DISC)
    idx = np.array([0, 3, 5])
    parts = {m: model.modal_embedding(tape, m, idx)
             for m in MODALITY_ORDER}
    joint, alpha = model.fuse(tape, parts)
    manual = sum(alpha.value[:, j:j + 1] * parts[m].value
                 for j, m in enumerate(MODALITY_ORDER))
    assert np.allclose(joint.value, manual, atol=1e-12)


def test_joint_and_alpha_dedup_matches_row_by_row():
    # The union-table builder fuses every entity of its triple arrays once;
    # reading rows back must match building every requested row on its own,
    # gradients included.
    model = small_model(absent_v=(1,), absent_t=(4,))
    idx = np.array([3, 1, 3, 0, 4, 1, 3, 5])
    batch = np.stack([idx[:4], np.zeros(4, dtype=np.int64), idx[4:]], axis=1)
    rng = SeededRng(11, stream="dedup")
    coef_joint = rng.normals(idx.size * 6).reshape(idx.size, 6)
    coef_alpha = rng.normals(idx.size * 3).reshape(idx.size, 3)

    def loss(tape, joint, alpha, rows):
        return tape.add(probe_sum(tape, joint, coef_joint[rows]),
                        probe_sum(tape, alpha, coef_alpha[rows]))

    tape = Tape(model.store, DISC)
    table = model.entity_table(tape, (batch[:2], batch[2:, None]))
    assert np.array_equal(table.ids, np.unique(idx))
    assert table.joint.shape[0] == table.alpha.shape[0] == np.unique(idx).size
    rows = table.rows(idx)
    joint, alpha = tape.gather(table.joint, rows), tape.gather(table.alpha, rows)
    grads = tape.backward(loss(tape, joint, alpha, slice(None)))

    ref = Tape(model.store, DISC)
    total, ref_joint, ref_alpha = None, [], []
    for i in range(idx.size):
        j, a = model.joint_and_alpha(ref, idx[i:i + 1])
        ref_joint.append(j.value[0])
        ref_alpha.append(a.value[0])
        term = loss(ref, j, a, slice(i, i + 1))
        total = term if total is None else ref.add(total, term)
    ref_grads = ref.backward(total)

    assert np.allclose(joint.value, np.stack(ref_joint), rtol=0, atol=1e-12)
    assert np.allclose(alpha.value, np.stack(ref_alpha), rtol=0, atol=1e-12)
    for name in model.store.names("discriminator"):
        assert np.allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12), name


def test_entity_table_rejects_entity_outside_it():
    model = small_model()
    table = model.entity_table(Tape(model.store, DISC), (np.array([[0, 0, 2]]),))
    assert np.array_equal(table.rows(np.array([2, 0, 2])), [1, 0, 1])
    for outside in ([1], [5]):
        with pytest.raises(ContractError, match="entity table"):
            table.rows(np.array(outside))


# --- scoring ---------------------------------------------------------------------

def complex_rows(x):
    """Interleaved (re, im) rows as complex128 values."""
    x = np.asarray(x, dtype=np.float64)
    return x[..., 0::2] + 1j * x[..., 1::2]


def score_pair(h, theta, t):
    tape = Tape()
    row = np.zeros(1, dtype=np.int64)
    out = tape.query_distance(tape.const(np.array([h], dtype=float)), row,
                              tape.const(np.array([theta], dtype=float)), row,
                              tape.const(np.array([t], dtype=float)), row)
    return float(out.value[0])


def test_score_identity_fixed_point():
    assert score_pair([1.0, 0.5, -2.0, 0.25], [0.0, 0.0],
                      [1.0, 0.5, -2.0, 0.25]) == 0.0


def test_score_quarter_turn():
    # (1+0i) rotated by pi/2 is (0+1i)
    assert abs(score_pair([1.0, 0.0], [math.pi / 2], [0.0, 1.0])) < 1e-15


def test_score_half_turn():
    # (1+0i) rotated by pi is (-1+0i); distance to (1+0i) is 2
    assert abs(score_pair([1.0, 0.0], [math.pi], [1.0, 0.0]) - 2.0) < 1e-12


def test_score_nonnegative_random():
    rng = SeededRng(17)
    for _ in range(200):
        h = rng.normals(6)
        t = rng.normals(6)
        theta = rng.normals(3)
        assert score_pair(h, theta, t) >= 0.0


def test_score_rotation_invariance():
    # Applying one extra unit rotation q to both h and t preserves F.
    rng = SeededRng(23)
    for _ in range(100):
        h, t = rng.normals(8), rng.normals(8)
        theta, q = rng.normals(4), rng.normals(4)

        def rotate(x, angles):
            z = complex_rows(x) * np.exp(1j * angles)
            return np.stack([z.real, z.imag], axis=-1).reshape(-1)

        base = score_pair(h, theta, t)
        moved = score_pair(rotate(h, q), theta, rotate(t, q))
        assert abs(base - moved) <= 1e-10 * max(1.0, base)


def test_triple_scores_match_manual():
    model = small_model()
    tape = Tape(model.store, DISC)
    batch = np.array([[0, 0, 1], [2, 1, 3]])
    table = model.entity_table(tape, (batch,))
    scores = model.distances(tape, table, batch)
    for i, (h, r, t) in enumerate(batch):
        z_h, z_t = complex_rows(table.joint.value[table.rows([h, t])])
        theta = model.store["relation.phase"][r]
        manual = np.abs(z_h * np.exp(1j * theta) - z_t).sum()
        assert abs(scores.value[i] - manual) < 1e-12


def test_negative_distances_need_one_corrupted_side():
    model = small_model()
    tape = Tape(model.store, DISC)
    batch = np.array([[0, 0, 1], [2, 1, 3]])
    for bad in ([[[4, 0, 5]], [[2, 1, 3]]],      # both sides replaced
                [[[0, 1, 5]], [[2, 1, 3]]]):     # relation replaced
        bad = np.array(bad)
        table = model.entity_table(tape, (batch, bad))
        with pytest.raises(ContractError, match="one side"):
            model.distances(tape, table, batch, bad)


# --- masked-modality fallback -----------------------------------------------------

def test_absent_entity_uses_fallback_row():
    model = small_model(absent_v=(2,))
    tape = Tape(model.store, DISC)
    emb = model.modal_embedding(tape, "v", np.array([2]))
    assert np.allclose(emb.value[0], model.store["fallback.v"][2], atol=1e-12)


def test_present_entity_uses_projection():
    model = small_model(absent_v=(2,))
    tape = Tape(model.store, DISC)
    emb = model.modal_embedding(tape, "v", np.array([1]))
    w, b = model.store["proj.v.weight"], model.store["proj.v.bias"]
    f = small_features(absent_v=(2,))["v"].matrix[1]
    assert np.allclose(emb.value[0], w @ f + b, atol=1e-12)


def test_mixed_batch_routes_by_mask():
    model = small_model(absent_t=(0, 4))
    raw = small_features(absent_t=(0, 4))["t"].matrix
    tape = Tape(model.store, DISC)
    idx = np.array([0, 1, 4, 5])
    emb = model.modal_embedding(tape, "t", idx).value
    w, b = model.store["proj.t.weight"], model.store["proj.t.bias"]
    for row, i in enumerate(idx):
        if i in (0, 4):
            expect = model.store["fallback.t"][i]
        else:
            expect = w @ raw[i] + b
        assert np.allclose(emb[row], expect, atol=1e-12)


def project_then_mix(tape, table, m, idx):
    """Every row of `table` projected, then mixed with the fallback rows by
    the 0/1 presence mask: the form that present-row projection must equal."""
    mask = table.present[idx].astype(np.float64)[:, None]
    raw = tape.const(table.matrix[idx])
    projected = tape.matvec(tape.leaf(f"proj.{m}.weight"), raw, tape.leaf(f"proj.{m}.bias"))
    fallback = tape.gather(tape.leaf(f"fallback.{m}"), idx)
    return tape.mix(tape.const(np.hstack([mask, 1.0 - mask])), [projected, fallback])


def test_present_rows_projection_matches_project_then_mix():
    model = small_model(absent_v=(1, 4), absent_t=(1, 4))
    tables = small_features(absent_v=(1, 4), absent_t=(1, 4))
    rng = SeededRng(8, stream="present-rows")
    cases = {"all present": [0, 2, 3, 5], "none present": [4, 1], "mixed": [0, 1, 2, 4],
             "repeated ids": [3, 1, 3, 0, 4, 1, 3, 5, 4]}
    for m in ("v", "t"):
        for case, idx in cases.items():
            idx = np.array(idx)
            coef = rng.normals(idx.size * 6).reshape(idx.size, 6)
            out = {}
            for form in ("present rows", "project then mix"):
                tape = Tape(model.store, DISC)
                emb = (model.modal_embedding(tape, m, idx) if form == "present rows"
                       else project_then_mix(tape, tables[m], m, idx))
                grads = tape.backward(probe_sum(tape, emb, coef))
                out[form] = emb.value, grads
            (got, got_grads), (ref, ref_grads) = out.values()
            assert np.allclose(got, ref, rtol=0, atol=1e-12), (m, case)
            for name in (f"proj.{m}.weight", f"proj.{m}.bias", f"fallback.{m}"):
                assert np.allclose(got_grads[name], ref_grads[name], rtol=0, atol=1e-12), \
                    (m, case, name)


def test_model_rejects_feature_table_of_wrong_shape():
    cfg = ModelConfig(d=3, visual_dim=4, textual_dim=5, noise_dim=3)
    store = init_params(cfg, 6, 2, seed=0)
    good = small_features()
    Model(cfg, store, good)
    for m, bad in (("v", replace(good["v"], present=good["v"].present[:5])),
                   ("t", replace(good["t"], present=np.ones((6, 1), dtype=bool))),
                   ("t", replace(good["t"], present=np.ones(7, dtype=bool))),
                   ("v", replace(good["v"], matrix=good["v"].matrix[:, :3]))):
        with pytest.raises(ContractError, match=f"feature table for '{m}'"):
            Model(cfg, store, {**good, m: bad})


def test_masked_model_holds_present_rows_and_never_reads_hidden_ones():
    # Hidden rows keep their values after masking; overwriting them with NaN
    # must change no byte of the representations, the losses or one
    # discriminator and one generator step.
    n = 12
    cfg = ModelConfig(d=3, visual_dim=4, textual_dim=5, noise_dim=3, gamma=4.0)
    masked = {m: apply_modality_missing(table, 0.5, seed=4)
              for m, table in small_features(n, absent_v=(0,)).items()}
    poisoned = {m: replace(table, matrix=table.matrix.copy())
                for m, table in masked.items()}
    for table in poisoned.values():
        table.matrix[~table.present] = np.nan
    batch = np.array([[0, 0, 1], [2, 1, 3], [4, 0, 5], [6, 1, 7], [8, 0, 11]])
    train_cfg = TrainConfig(k_negatives=4, batch_size=5)
    runs = []
    for features in (masked, poisoned):
        model = Model(cfg, init_params(cfg, n, 2, seed=1), features)
        for m, table in features.items():
            assert model._raw[m].shape == (table.present.sum(), table.dim)
            assert model._raw[m].dtype == np.float32
        joint, alpha = model.entity_representations()
        rng = SeededRng(5)
        negatives = sample_negatives(batch, n, 4, rng.substream("negatives"))
        noise = rng.substream("noise")
        losses = (train_step_discriminator(model, batch, negatives, train_cfg, noise),
                  train_step_generator(model, batch, train_cfg, noise))
        runs.append((joint.tobytes(), alpha.tobytes(), losses,
                     [model.store[name].tobytes() for name in model.store.names()]))
    assert all(math.isfinite(v) for v in runs[0][2][0] + (runs[0][2][1],))
    assert runs[0] == runs[1]


def test_modality_without_features_holds_no_raw_rows():
    # A projected modality with no feature table never projects a row, so
    # Model keeps (and allocates) no (N, dim) raw array for it.
    cfg = ModelConfig(d=2, visual_dim=4096, textual_dim=768, noise_dim=3,
                      precision="double")
    store = init_params(cfg, 2000, 2, seed=0)
    tracemalloc.start()
    try:
        model = Model(cfg, store, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20     # a zero (2000, 4096) float64 array is 65.5 MB
    arrays = [a for value in vars(model).values() if isinstance(value, dict)
              for a in value.values() if isinstance(a, np.ndarray)]
    assert arrays and not any(a.shape[0] == 2000 and a.ndim == 2 for a in arrays)
    idx = np.array([0, 7, 1999])
    emb = model.modal_embedding(Tape(store, DISC), "v", idx)
    assert np.array_equal(emb.value, store["fallback.v"][idx])


# --- generator --------------------------------------------------------------------

def test_generator_zero_weights_zero_output():
    model = small_model()
    for name in ("gen.v.w1", "gen.v.b1", "gen.v.w2", "gen.v.b2"):
        model.store.set(name, np.zeros_like(model.store[name]))
    tape = Tape(model.store, GEN)
    out = model.generator_output(tape, "v", np.ones((3, 6)),
                                 z=SeededRng(0).normals(3 * 3).reshape(3, 3))
    assert np.all(out.value == 0.0)


def test_generator_bias_passthrough():
    model = small_model()
    model.store.set("gen.t.w2", np.zeros_like(model.store["gen.t.w2"]))
    c = np.linspace(-1.0, 1.0, 6)
    model.store.set("gen.t.b2", c)
    tape = Tape(model.store, GEN)
    out = model.generator_output(tape, "t", np.zeros((2, 6)),
                                 z=SeededRng(1).normals(2 * 3).reshape(2, 3))
    assert np.allclose(out.value, c, atol=1e-15)


def test_generator_io_widths():
    cfg = ModelConfig(d=20, visual_dim=6, textual_dim=5, noise_dim=8)
    store = init_params(cfg, 4, 2, seed=0)
    assert store["gen.v.w1"].shape[1] == 2 * 20 + 8
    assert store["gen.v.w2"].shape[0] == 2 * 20


def test_generator_output_varies_with_noise():
    model = small_model()
    rng = SeededRng(42, stream="noise")
    tape = Tape(model.store, GEN)
    e_s = np.ones((1, 6))
    outputs = {model.generator_output(tape, "v", e_s,
                                      z=rng.normals(3).reshape(1, 3)).value.tobytes()
               for _ in range(100)}
    assert len(outputs) == 100


def test_generator_given_noise_is_deterministic():
    model = small_model()
    z = SeededRng(9).normals(2 * model.cfg.noise_dim).reshape(2, -1)
    tape = Tape(model.store, GEN)
    a = model.generator_output(tape, "v", np.ones((2, 6)), z=z)
    b = model.generator_output(tape, "v", np.ones((2, 6)), z=z)
    assert a.value.tobytes() == b.value.tobytes()


# --- synthetic triples --------------------------------------------------------------

def test_synthetic_set_size_and_patterns():
    model = small_model()
    batch = np.array([[0, 0, 1], [2, 1, 3]])
    tape = Tape(model.store, DISC)
    noise = model.draw_noise(batch, 1, ALL_PATTERNS, SeededRng(0, stream="noise"))
    scores, meta = synthetic_scores(model, tape, batch, 1, ALL_PATTERNS, noise)
    assert scores.value.shape == (2 * 3,)
    assert meta == [(0, "syn_tail"), (0, "syn_head"), (0, "syn_both")]


def test_synthetic_set_three_groups():
    model = small_model()
    batch = np.array([[0, 0, 1]])
    tape = Tape(model.store, DISC)
    noise = model.draw_noise(batch, 3, ALL_PATTERNS, SeededRng(0, stream="noise"))
    scores, meta = synthetic_scores(model, tape, batch, 3, ALL_PATTERNS, noise)
    assert scores.value.shape == (9,)
    assert [g for g, _ in meta] == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_noise_draw_order_is_canonical():
    model = small_model()
    batch = np.array([[0, 0, 1]])
    noise = model.draw_noise(batch, 2, ALL_PATTERNS, SeededRng(5, stream="noise"))
    assert list(noise.keys()) == [(0, "h", "v"), (0, "h", "t"),
                                  (0, "t", "v"), (0, "t", "t"),
                                  (1, "h", "v"), (1, "h", "t"),
                                  (1, "t", "v"), (1, "t", "t")]


def test_noise_one_draw_equals_one_draw_per_block():
    # One bulk draw, split into blocks, must reproduce one normals() call per
    # (group, side, modality) block, also when a block's size is odd.
    model = small_model()  # noise_dim 3
    for batch in (np.array([[0, 0, 1]]), np.array([[0, 0, 1], [2, 1, 3]])):
        bulk = SeededRng(5, stream="noise")
        noise = model.draw_noise(batch, 2, ALL_PATTERNS, bulk)
        per_block = SeededRng(5, stream="noise")
        for key, z in noise.items():
            ref = per_block.normals(z.size).reshape(z.shape)
            assert z.tobytes() == ref.tobytes(), key
        assert bulk.counter == per_block.counter


def test_groups_use_distinct_noise():
    model = small_model()
    batch = np.array([[0, 0, 1]])
    noise = model.draw_noise(batch, 2, ALL_PATTERNS, SeededRng(5, stream="noise"))
    assert noise[(0, "t", "v")].tobytes() != noise[(1, "t", "v")].tobytes()


def test_starred_entity_shared_within_group():
    # Within a group one h* and one t* serve all patterns, so generation
    # builds exactly one generator output per (group, side, modality) —
    # not one per pattern.
    model = small_model()
    batch = np.array([[0, 0, 1], [1, 1, 2]])
    noise = model.draw_noise(batch, 1, ALL_PATTERNS, SeededRng(7, stream="noise"))
    generated = model.generate(Tape(model.store, FROZEN), batch, noise)
    assert set(generated.keys()) == {(0, "h", "v"), (0, "h", "t"),
                                     (0, "t", "v"), (0, "t", "t")}
    assert generated[(0, "h", "v")].shape == (2, 6)


def test_zero_generator_still_builds_full_set():
    model = small_model()
    for m in ("v", "t"):
        for p in ("w1", "b1", "w2", "b2"):
            model.store.set(f"gen.{m}.{p}", np.zeros_like(model.store[f"gen.{m}.{p}"]))
    batch = np.array([[0, 0, 1]])
    tape = Tape(model.store, DISC)
    noise = model.draw_noise(batch, 2, ALL_PATTERNS, SeededRng(1, stream="noise"))
    scores, meta = synthetic_scores(model, tape, batch, 2, ALL_PATTERNS, noise)
    assert len(meta) == 6
    assert np.all(np.isfinite(scores.value))


def test_model_entity_representations_shapes():
    model = small_model()
    joint, alpha = model.entity_representations()
    assert joint.shape == (model.n_entities, 6)
    assert alpha.shape == (model.n_entities, 3)
    assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
