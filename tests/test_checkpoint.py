"""Binary checkpoint format: round trips, atomicity, and rejection paths."""

import os
import stat
import struct

import numpy as np
import pytest

from adamf import checkpoint
from adamf.checkpoint import (MAGIC, load_checkpoint, read_checkpoint,
                              save_checkpoint)
from adamf.errors import ContractError, DataError
from adamf.ioutil import atomic_write_text
from adamf.model import init_params
from adamf.training import TrainConfig, train

from conftest import make_dataset, small_model


def trained_model(seed=0):
    n = 6
    triples = [(i, 0, (i + 1) % n) for i in range(n)]
    ds = make_dataset(n, {"train": triples[:4], "valid": [triples[4]],
                          "test": [triples[5]]})
    model = small_model(n_entities=n, n_relations=1, seed=seed)
    cfg = TrainConfig(k_negatives=2, batch_size=4, epochs=2,
                      validate_every=0, seed=seed)
    train(model, ds, cfg)
    return model


def test_round_trip_restores_values_and_state(tmp_path):
    model = trained_model()
    path = str(tmp_path / "checkpoint.bin")
    save_checkpoint(model.store, path)

    fresh = small_model(n_entities=6, n_relations=1, seed=99)
    load_checkpoint(fresh.store, path)
    for name in model.store.names():
        want = np.asarray(model.store[name], dtype="<f4")
        assert fresh.store[name].astype("<f4").tobytes() == want.tobytes(), name
        m0, v0, s0 = model.store.adam_state(name)
        m1, v1, s1 = fresh.store.adam_state(name)
        assert s0 == s1
        assert np.asarray(m1, dtype="<f4").tobytes() == \
            np.asarray(m0, dtype="<f4").tobytes()
        assert np.asarray(v1, dtype="<f4").tobytes() == \
            np.asarray(v0, dtype="<f4").tobytes()


def test_save_load_save_is_byte_identical(tmp_path):
    model = trained_model()
    first = str(tmp_path / "a.bin")
    save_checkpoint(model.store, first)

    fresh = small_model(n_entities=6, n_relations=1, seed=5)
    load_checkpoint(fresh.store, first)
    second = str(tmp_path / "b.bin")
    save_checkpoint(fresh.store, second)
    with open(first, "rb") as fa, open(second, "rb") as fb:
        assert fa.read() == fb.read()


def test_fresh_moments_are_zero_and_save_as_written_zeros(tmp_path):
    # A fresh store's moments are allocated but not yet written; they must
    # read, and serialize, exactly as zero arrays that were written.
    store = small_model(precision="single").store
    save_checkpoint(store, str(tmp_path / "fresh.bin"))
    for name in store.names():
        m, v, step = store.adam_state(name)
        assert m.shape == v.shape == store[name].shape
        assert m.dtype == v.dtype == store.dtype
        assert not m.any() and not v.any() and step == 0
        store.set_adam_state(name, np.full_like(m, 0.0), np.full_like(v, 0.0), 0)
    save_checkpoint(store, str(tmp_path / "written.bin"))
    assert (tmp_path / "fresh.bin").read_bytes() == (tmp_path / "written.bin").read_bytes()


def test_read_checkpoint_raw_maps(tmp_path):
    model = trained_model()
    path = str(tmp_path / "c.bin")
    save_checkpoint(model.store, path)
    values, state = read_checkpoint(path)
    assert set(values) == set(model.store.names())
    assert values["entity.structural"].shape == (6, 6)
    assert state["entity.structural.step"].shape == ()
    assert state["entity.structural.step"] > 0


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DataError, match="magic"):
        read_checkpoint(str(path))


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "v9.bin"
    path.write_bytes(MAGIC + struct.pack("<I", 9) + struct.pack("<I", 0))
    with pytest.raises(DataError, match="version"):
        read_checkpoint(str(path))


def test_truncated_file_rejected(tmp_path):
    model = trained_model()
    path = tmp_path / "full.bin"
    save_checkpoint(model.store, str(path))
    blob = path.read_bytes()
    for cut in (2, 9, len(blob) // 2, len(blob) - 3):
        stub = tmp_path / f"cut{cut}.bin"
        stub.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            read_checkpoint(str(stub))


def test_shape_mismatch_names_the_tensor(tmp_path):
    model = trained_model()
    path = str(tmp_path / "d.bin")
    save_checkpoint(model.store, path)
    other = small_model(n_entities=9, n_relations=1)
    with pytest.raises(ContractError, match="entity.structural"):
        load_checkpoint(other.store, path)


def write_raw(path, values, state):
    """An AMF1 file holding exactly the given value and state records."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", checkpoint.VERSION, len(values)))
        for name, arr in values.items():
            checkpoint._write_record(fh, name, arr)
        fh.write(struct.pack("<I", len(state)))
        for name, arr in state.items():
            checkpoint._write_record(fh, name, arr)


@pytest.mark.parametrize("record,value", [("adam_m", np.float32(0.5)),
                                          ("adam_v", np.zeros((2, 1))),
                                          ("step", np.array([3.0]))])
def test_malformed_adam_state_rejected(tmp_path, record, value):
    # A rank-0 moment would broadcast silently in a later Adam step, and a
    # step count must be rank 0: either is refused before anything loads.
    path = str(tmp_path / "good.bin")
    save_checkpoint(trained_model().store, path)
    values, state = read_checkpoint(path)
    state[f"relation.phase.{record}"] = np.asarray(value)
    write_raw(path, values, state)

    target = small_model(n_entities=6, n_relations=1)

    def dump(store):
        return [store[n].tobytes() + b"".join(np.asarray(x).tobytes()
                                               for x in store.adam_state(n))
                for n in store.names()]

    before = dump(target.store)
    with pytest.raises(ContractError, match=f"relation.phase.{record}"):
        load_checkpoint(target.store, path)
    assert dump(target.store) == before


PHASE_STATE = ("relation.phase.adam_m", "relation.phase.adam_v", "relation.phase.step")
ONE_STEP = "'discriminator' do not all carry Adam state with one step"


@pytest.mark.parametrize("drop,put,match", [
    (("relation.phase.adam_v",), {}, "relation.phase.adam_v"),
    (("relation.phase.step",), {}, "relation.phase.step"),
    ((), {"q.adam_v": np.zeros((1, 3), np.float32)}, "q.adam_v"),
    (("relation.phase.adam_v",), {"q.adam_v": np.zeros((1, 3), np.float32)},
     "relation.phase.adam_v|q.adam_v"),
    ((), {"relation.phase.step": np.float32(1.0)}, ONE_STEP),
    (PHASE_STATE, {}, ONE_STEP)],
    ids=["no-adam_v", "no-step", "stray", "both", "steps-disagree", "group-part"])
def test_partial_adam_state_rejected(tmp_path, drop, put, match):
    # A tensor with only some of its three state records, a state record of
    # no tensor in the file, a group whose tensors disagree on the step, or
    # a group of which only some tensors carry state, used to load without
    # a word: a group has one step count.  Now each is refused before the
    # store changes, naming the record or the group.
    path = str(tmp_path / "partial.bin")
    save_checkpoint(trained_model().store, path)
    values, state = read_checkpoint(path)
    assert state["relation.phase.step"] == state["entity.structural.step"] != 1.0
    for key in drop:
        del state[key]
    state.update({key: np.asarray(arr) for key, arr in put.items()})
    write_raw(path, values, state)
    target = small_model(n_entities=6, n_relations=1)
    before = [target.store[n].tobytes() for n in target.store.names()]
    with pytest.raises(ContractError, match=match):
        load_checkpoint(target.store, path)
    assert [target.store[n].tobytes() for n in target.store.names()] == before


def test_checkpoint_without_adam_state_loads_values(tmp_path):
    path = str(tmp_path / "values.bin")
    model = trained_model()
    save_checkpoint(model.store, path)
    values, _ = read_checkpoint(path)
    write_raw(path, values, {})
    target = small_model(n_entities=6, n_relations=1)
    load_checkpoint(target.store, path)
    for name in model.store.names():
        assert target.store[name].astype("<f4").tobytes() == values[name].tobytes()
        assert target.store.adam_state(name)[2] == 0


def test_missing_tensor_rejected(tmp_path):
    model = small_model(n_entities=4, n_relations=1, modalities=("s", "v"))
    path = str(tmp_path / "e.bin")
    save_checkpoint(model.store, path)
    full = small_model(n_entities=4, n_relations=1)
    with pytest.raises(ContractError, match="missing"):
        load_checkpoint(full.store, path)


def test_unknown_tensor_rejected(tmp_path):
    cfg = small_model(n_entities=4, n_relations=1).cfg
    donor = init_params(cfg, 4, 1, seed=0)
    path = str(tmp_path / "f.bin")
    save_checkpoint(donor, path)
    slim = small_model(n_entities=4, n_relations=1, modalities=("s", "v"))
    with pytest.raises(ContractError, match="not in model"):
        load_checkpoint(slim.store, path)


def test_no_temp_litter_after_save(tmp_path):
    model = trained_model()
    save_checkpoint(model.store, str(tmp_path / "g.bin"))
    leftovers = [p.name for p in tmp_path.iterdir() if p.name != "g.bin"]
    assert leftovers == []


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    model = trained_model()
    path = tmp_path / "h.bin"
    save_checkpoint(model.store, str(path))
    before = path.read_bytes()

    real_write = checkpoint._write_record
    calls = []

    def failing_write(fh, name, arr):
        calls.append(name)
        if len(calls) == 3:
            raise OSError("simulated disk full")
        real_write(fh, name, arr * 2)

    monkeypatch.setattr(checkpoint, "_write_record", failing_write)
    with pytest.raises(OSError, match="simulated"):
        save_checkpoint(model.store, str(path))
    assert len(calls) == 3
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["h.bin"]


def test_saved_files_get_umask_permissions(tmp_path):
    model = small_model()
    old = os.umask(0o022)
    try:
        save_checkpoint(model.store, str(tmp_path / "i.bin"))
        atomic_write_text(tmp_path / "report.json", "{}\n")
    finally:
        os.umask(old)
    for name in ("i.bin", "report.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644, name
