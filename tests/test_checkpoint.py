"""Binary checkpoint format: round trips, atomicity, and rejection paths."""

import gc
import json
import os
import re
import stat
import struct
import tempfile
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from adamf import checkpoint
from adamf.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from adamf.errors import ContractError, DataError
from adamf.ioutil import atomic_write_text
from adamf.model import init_params
from adamf.params import GROUPS, ParameterStore, adam_step, block_rows
from adamf.training import TrainConfig, train

from conftest import make_dataset, small_model


def trained_model(seed=0, precision="double"):
    n = 6
    triples = [(i, 0, (i + 1) % n) for i in range(n)]
    ds = make_dataset(n, {"train": triples[:4], "valid": [triples[4]],
                          "test": [triples[5]]})
    model = small_model(n_entities=n, n_relations=1, seed=seed, precision=precision)
    cfg = TrainConfig(k_negatives=2, batch_size=4, epochs=2,
                      validate_every=0, seed=seed)
    with tempfile.TemporaryDirectory() as out:   # only the store is kept
        train(model, ds, cfg, out)
    return model


def snapshot(store):
    """Every byte the checkpoint holds of `store`: values, moments, steps."""
    return [(store.values[g].tobytes(), store.moments(g).tobytes(), store.steps[g])
            for g in GROUPS]


def rewrite_header(path, edit):
    """Apply `edit` to the JSON header of the checkpoint at `path`."""
    blob = path.read_bytes()
    (length,) = struct.unpack("<Q", blob[4:12])
    header = json.loads(blob[12:12 + length])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(raw)) + raw + blob[12 + length:])


def test_round_trip_restores_values_and_state(tmp_path):
    # A float32 run's values, moments and steps load exactly.
    model = trained_model(precision="single")
    path = str(tmp_path / "checkpoint.bin")
    save_checkpoint(model.store, path)

    fresh = small_model(n_entities=6, n_relations=1, seed=99, precision="single")
    load_checkpoint(fresh.store, path)
    assert all(model.store.steps[g] > 0 for g in GROUPS)
    assert snapshot(fresh.store) == snapshot(model.store)


def test_double_store_round_trips_bit_for_bit(tmp_path):
    model = trained_model(precision="double")
    path = str(tmp_path / "double.bin")
    save_checkpoint(model.store, path)
    fresh = small_model(n_entities=6, n_relations=1, seed=99)
    assert fresh.store.dtype == np.float64
    load_checkpoint(fresh.store, path)
    assert snapshot(fresh.store) == snapshot(model.store)


def test_single_file_widens_into_a_double_store(tmp_path):
    model = trained_model(precision="single")
    path = str(tmp_path / "single.bin")
    save_checkpoint(model.store, path)
    wide = small_model(n_entities=6, n_relations=1, seed=99)
    load_checkpoint(wide.store, path)
    for group in GROUPS:
        assert np.array_equal(wide.store.values[group], model.store.values[group])
        assert np.array_equal(wide.store.moments(group), model.store.moments(group))
        assert wide.store.steps[group] == model.store.steps[group]


def test_double_file_into_single_store_is_refused(tmp_path):
    path = str(tmp_path / "double.bin")
    save_checkpoint(trained_model(precision="double").store, path)
    narrow = small_model(n_entities=6, n_relations=1, precision="single")
    before = snapshot(narrow.store)
    with pytest.raises(ContractError, match="float64.*float32"):
        load_checkpoint(narrow.store, path)
    assert snapshot(narrow.store) == before


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


def moment_bytes(store):
    return [store.moments(g).tobytes() for g in GROUPS]


@pytest.mark.parametrize("precision", ["single", "double"], ids=["float32", "widened"])
def test_moments_read_later_are_those_loaded_after_a_save_over_the_file(tmp_path,
                                                                         precision):
    # The load's handle keeps the file it loaded: an atomic save over the
    # path (a new file) does not change the moments read on first use.
    model = trained_model(precision="single")
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(model.store, path)
    target = small_model(n_entities=6, n_relations=1, seed=99, precision=precision)
    load_checkpoint(target.store, path)
    save_checkpoint(trained_model(seed=1, precision="single").store, path)
    expected = [model.store.moments(g).astype(target.store.dtype).tobytes() for g in GROUPS]
    assert moment_bytes(target.store) == expected


@pytest.mark.parametrize("precision", ["single", "double"], ids=["float32", "widened"])
def test_load_in_small_blocks_reads_what_the_default_block_reads(tmp_path, monkeypatch,
                                                                  precision):
    # Blocks of 7 file elements split each group's values and moments into
    # many reads, the last one partial; the store loaded through them holds
    # the bytes of one loaded at the default block size, moments included.
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(trained_model(precision="single").store, path)
    loaded = []
    for block_bytes in (None, 7 * 4):
        if block_bytes is not None:
            monkeypatch.setattr("adamf.params.BLOCK_BYTES", block_bytes)
        target = small_model(n_entities=6, n_relations=1, seed=99, precision=precision)
        load_checkpoint(target.store, path)
        loaded.append(snapshot(target.store))   # reads the deferred moments here
    assert block_rows(1, 4) == 7
    assert all(target.store.values[g].size > 7 and target.store.values[g].size % 7
               for g in GROUPS)
    assert loaded[1] == loaded[0]


def test_loaded_store_steps_as_the_saved_one(tmp_path):
    # Moments are read once: Adam's updates to them are kept, not read again.
    model = trained_model()
    path = str(tmp_path / "z.bin")
    save_checkpoint(model.store, path)
    target = small_model(n_entities=6, n_relations=1, seed=99)
    load_checkpoint(target.store, path)
    for store in (model.store, target.store):
        for group in GROUPS:
            for _ in range(2):
                adam_step(store, group, np.full_like(store.values[group], 0.5), 0.1)
    assert snapshot(target.store) == snapshot(model.store)


def test_file_cut_short_after_load_fails_on_first_moments_read(tmp_path):
    model = trained_model()
    path = tmp_path / "cut.bin"
    save_checkpoint(model.store, str(path))
    target = small_model(n_entities=6, n_relations=1, seed=99)
    load_checkpoint(target.store, str(path))
    (length,) = struct.unpack("<Q", path.read_bytes()[4:12])
    first = model.store.values["discriminator"]
    os.truncate(path, 12 + length + first.nbytes + 5)    # into the first group's moments
    for g in GROUPS:
        assert np.array_equal(target.store.values[g], model.store.values[g])
        assert target.store.steps[g] == model.store.steps[g]
    for _ in range(2):      # a failed read stays pending: never zeros
        with pytest.raises(DataError, match=re.escape(str(path))):
            target.store.moments("discriminator")


def test_second_load_moments_win(tmp_path):
    first, second = (str(tmp_path / f"{name}.bin") for name in ("first", "second"))
    save_checkpoint(trained_model(seed=0).store, first)
    donor = trained_model(seed=1).store
    save_checkpoint(donor, second)
    target = small_model(n_entities=6, n_relations=1, seed=99)
    load_checkpoint(target.store, first)
    target.store.moments("discriminator")       # one group read, one pending
    load_checkpoint(target.store, second)
    assert moment_bytes(target.store) == moment_bytes(donor)


def test_extend_refuses_a_group_with_pending_moments(tmp_path):
    path = str(tmp_path / "x.bin")
    save_checkpoint(trained_model().store, path)
    target = small_model(n_entities=6, n_relations=1)
    load_checkpoint(target.store, path)
    with pytest.raises(ContractError, match="Adam state"):
        target.store.extend("generator", {"extra": np.zeros(2)})


def test_load_allocates_less_than_one_moments_buffer(tmp_path):
    def store_of(value):
        store = ParameterStore()
        store.extend("discriminator", {"w": np.full(1 << 20, value)})
        store.extend("generator", {"g": np.full(3, value)})
        return store

    source = store_of(1.5)
    source.moments("discriminator")[...] = 2.5
    path = str(tmp_path / "big.bin")
    save_checkpoint(source, path)
    target = store_of(0.0)
    tracemalloc.start()
    try:
        load_checkpoint(target, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < source.moments("discriminator").nbytes
    assert snapshot(target) == snapshot(source)


def test_dropping_a_loaded_store_closes_its_file(tmp_path):
    path = str(tmp_path / "y.bin")
    save_checkpoint(trained_model().store, path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for reads in (0, 1):        # both groups pending, then one
            target = small_model(n_entities=6, n_relations=1)
            load_checkpoint(target.store, path)
            if reads:
                target.store.moments("generator")
            del target
            gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(small_model().store, str(path))


def test_unsupported_version_rejected(tmp_path):
    # The per-tensor AMF1 format is refused by name, not read.
    path = tmp_path / "v1.bin"
    path.write_bytes(b"AMF1" + struct.pack("<II", 1, 0) + struct.pack("<I", 0))
    with pytest.raises(DataError, match="AMF1"):
        load_checkpoint(small_model().store, str(path))


def test_truncated_file_rejected(tmp_path):
    model = trained_model()
    path = tmp_path / "full.bin"
    save_checkpoint(model.store, str(path))
    blob = path.read_bytes()
    target = small_model(n_entities=6, n_relations=1)
    before = snapshot(target.store)
    stubs = {f"cut{cut}": blob[:cut] for cut in (2, 9, 40, len(blob) // 2, len(blob) - 3)}
    stubs["extra"] = blob + b"\x00"
    for name, data in stubs.items():
        stub = tmp_path / f"{name}.bin"
        stub.write_bytes(data)
        with pytest.raises(DataError):
            load_checkpoint(target.store, str(stub))
        assert snapshot(target.store) == before, name


@pytest.mark.parametrize("length", [2**63, 2**64 - 1, 10**6], ids=["2^63", "2^64-1", "1e6"])
def test_corrupt_header_length_is_a_data_error(tmp_path, length):
    path = tmp_path / "long.bin"
    save_checkpoint(small_model().store, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<Q", length) + blob[12:])
    with pytest.raises(DataError, match="header"):
        load_checkpoint(small_model().store, str(path))


@pytest.mark.parametrize("edit", [
    lambda h: h.update(dtype="<f2"),
    lambda h: h.update(dtype=">f8"),
    lambda h: h.update(dtype=["<f8"]),
    lambda h: h.pop("dtype"),
    lambda h: h["groups"].pop("generator"),
    lambda h: h["groups"]["discriminator"].update(step=-1),
    lambda h: h["groups"]["discriminator"].update(step=2.5),
    lambda h: h["groups"]["discriminator"]["params"].append("x"),
    lambda h: h["groups"]["discriminator"]["params"][0].__setitem__(1, [6, "6"]),
    lambda h: h["groups"]["generator"]["params"][0].__setitem__(0, ["gen.v.w1"]),
], ids=["dtype-f2", "dtype-big-endian", "dtype-list", "no-dtype", "no-group",
        "negative-step", "float-step", "bare-param", "string-dim", "list-name"])
def test_malformed_header_is_a_data_error(tmp_path, edit):
    path = tmp_path / "odd.bin"
    save_checkpoint(small_model().store, str(path))
    rewrite_header(path, edit)
    target = small_model(seed=3)
    before = snapshot(target.store)
    with pytest.raises(DataError, match="malformed checkpoint header"):
        load_checkpoint(target.store, str(path))
    assert snapshot(target.store) == before


def test_header_that_is_not_json_is_a_data_error(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(MAGIC + struct.pack("<Q", 3) + b"\xff{[")
    with pytest.raises(DataError, match="malformed checkpoint header"):
        load_checkpoint(small_model().store, str(path))


def test_shape_mismatch_names_the_tensor(tmp_path):
    model = trained_model()
    path = str(tmp_path / "d.bin")
    save_checkpoint(model.store, path)
    other = small_model(n_entities=9, n_relations=1)
    with pytest.raises(ContractError, match="entity.structural"):
        load_checkpoint(other.store, path)


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


@pytest.mark.parametrize("file_layout,match", [
    ({"discriminator": ("y", "x")}, "'y' is at place 0 of group 'discriminator'"),
    ({"discriminator": ("x",), "generator": ("y",)}, "'y' is at place 0 of group 'generator'"),
], ids=["reordered", "other-group"])
def test_misplaced_tensor_named(tmp_path, file_layout, match):
    def store_of(layout):
        store = ParameterStore()
        for group, names in layout.items():
            store.extend(group, {n: np.full(2, 1.0) for n in names})
        return store

    path = str(tmp_path / "m.bin")
    save_checkpoint(store_of(file_layout), path)
    target = store_of({"discriminator": ("x", "y")})
    before = snapshot(target)
    with pytest.raises(ContractError, match=match):
        load_checkpoint(target, path)
    assert snapshot(target) == before


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
    model.store.values["discriminator"] *= 2
    real_open = checkpoint.atomic_open
    writes = []

    class DiskFills:
        """Writes half of the third buffer (the first group's moments),
        then fails."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            writes.append(len(memoryview(data).cast("B")))
            if len(writes) == 3:
                self.fh.write(memoryview(data).cast("B")[:writes[-1] // 2])
                raise OSError("simulated disk full")
            return self.fh.write(data)

    @contextmanager
    def failing_open(target, mode):
        with real_open(target, mode) as fh:
            yield DiskFills(fh)

    monkeypatch.setattr(checkpoint, "atomic_open", failing_open)
    with pytest.raises(OSError, match="simulated"):
        save_checkpoint(model.store, str(path))
    assert len(writes) == 3 and writes[2] > 0
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
