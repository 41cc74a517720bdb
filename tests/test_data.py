"""Triple/feature file loading, filter index, and modality masking."""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamf.data import (apply_modality_missing, load_features, load_triples,
                        save_features, save_triples)
from adamf.errors import DataError
from adamf.rng import SeededRng

from conftest import make_dataset, random_features


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def test_minimal_dataset(tmp_path):
    train = write(tmp_path / "train.tsv", ["a\tr\tb"])
    valid = write(tmp_path / "valid.tsv", [])
    test = write(tmp_path / "test.tsv", [])
    ds = load_triples(train, valid, test)
    assert ds.vocab.n_entities == 2
    assert ds.vocab.n_relations == 1
    assert ds.train.shape == (1, 3)
    assert ds.valid.shape == (0, 3)
    assert ds.test.shape == (0, 3)


def test_vocab_first_appearance_order(tmp_path):
    train = write(tmp_path / "train.tsv", ["b\tr2\tc", "a\tr1\tb"])
    ds = load_triples(train)
    assert ds.vocab.entity_names == ["b", "c", "a"]
    assert ds.vocab.relation_names == ["r2", "r1"]


def test_round_trip(tmp_path):
    ds = make_dataset(6, {"train": [(0, 0, 1), (1, 0, 2), (3, 1, 4)],
                          "valid": [(2, 0, 3)],
                          "test": [(4, 1, 5)]}, n_relations=2)
    paths = [str(tmp_path / f"{s}.tsv") for s in ("train", "valid", "test")]
    save_triples(ds, *paths)
    back = load_triples(*paths)
    assert np.array_equal(back.train, ds.train)
    assert np.array_equal(back.valid, ds.valid)
    assert np.array_equal(back.test, ds.test)
    assert back.vocab.entity_names == ds.vocab.entity_names


def test_duplicates_dedup_with_warning(tmp_path, caplog):
    train = write(tmp_path / "train.tsv", ["a\tr\tb", "a\tr\tb", "b\tr\ta"])
    with caplog.at_level(logging.WARNING):
        ds = load_triples(train)
    assert ds.train.shape == (2, 3)
    assert any("duplicate" in rec.message for rec in caplog.records)


def test_split_overlap_rejected(tmp_path):
    train = write(tmp_path / "train.tsv", ["a\tr\tb"])
    test = write(tmp_path / "test.tsv", ["a\tr\tb"])
    with pytest.raises(DataError, match="disjoint"):
        load_triples(train, None, test)


def test_malformed_line_reports_lineno(tmp_path):
    train = write(tmp_path / "train.tsv", ["a\tr\tb", "broken line"])
    with pytest.raises(DataError, match="2"):
        load_triples(train)


def test_both_readers_name_path_and_line_of_a_short_row(tmp_path):
    # Blank lines are skipped but counted, in triple and feature files alike.
    vocab = vocab3(tmp_path)
    bad = write(tmp_path / "bad.tsv", ["a\tr\tb", "", "a\tr"])
    with pytest.raises(DataError, match=r"bad\.tsv:3: expected 3 tab-separated fields, "
                                        r"got 2"):
        load_triples(bad)
    feats = write(tmp_path / "feat.tsv", ["", "a\t1.0,2.0\tx"])
    with pytest.raises(DataError, match=r"feat\.tsv:2: expected `entity<TAB>floats`, "
                                        r"got 3 fields"):
        load_features(feats, vocab, "v", 2)


def test_byte_order_mark_is_not_part_of_the_first_name(tmp_path):
    bom = b"\xef\xbb\xbf"
    train = tmp_path / "train.tsv"
    train.write_bytes(bom + "a\tr\tb\nb\tr\ta\n".encode())
    ds = load_triples(str(train))
    assert ds.vocab.entity_names == ["a", "b"]
    feats = tmp_path / "feat.tsv"
    feats.write_bytes(bom + "a\t1.0,2.0\n".encode())
    table = load_features(str(feats), ds.vocab, "v", 2)
    assert table.present.tolist() == [True, False]
    assert table.matrix[0].tolist() == [1.0, 2.0]


def test_both_readers_refuse_an_empty_name(tmp_path):
    for line, field in (("\tr\tc", "head"), ("a\t\tb", "relation"), ("a\tr\t", "tail")):
        bad = write(tmp_path / "bad.tsv", ["a\tr\tb", line])
        with pytest.raises(DataError, match=rf"bad\.tsv:2: empty {field} name"):
            load_triples(bad)
    vocab = vocab3(tmp_path)
    feats = write(tmp_path / "feat.tsv", ["a\t1.0,2.0", "\t3.0,4.0"])
    with pytest.raises(DataError, match=r"feat\.tsv:2: empty entity name"):
        load_features(feats, vocab, "v", 2)


def test_empty_train_rejected(tmp_path):
    train = write(tmp_path / "train.tsv", [])
    with pytest.raises(DataError):
        load_triples(train)


def test_transductive_entities_admitted(tmp_path):
    train = write(tmp_path / "train.tsv", ["a\tr\tb"])
    test = write(tmp_path / "test.tsv", ["a\tr\tc"])
    ds = load_triples(train, None, test)
    assert "c" in ds.vocab.entity_index


def test_filter_index_completeness():
    rng = SeededRng(0)

    def randint(bound):
        return int(rng.randints([bound])[0])

    for trial in range(20):
        n = 5 + randint(10)
        rows = sorted({(randint(n), randint(2), randint(n)) for _ in range(15)})
        ds = make_dataset(n, {"train": rows[:-4] or rows, "valid": rows[-4:-2],
                              "test": rows[-2:]}, n_relations=2)
        all_triples = [tuple(map(int, row))
                       for arr in (ds.train, ds.valid, ds.test) for row in arr]
        for h, r, t in all_triples:
            assert t in ds.filter_tails[(h, r)]
            assert h in ds.filter_heads[(r, t)]
        # And nothing extra: every stored completion has a source triple.
        for (h, r), tails in ds.filter_tails.items():
            for t in tails:
                assert (h, r, t) in all_triples
        for (r, t), heads in ds.filter_heads.items():
            for h in heads:
                assert (h, r, t) in all_triples


def test_is_known_reads_the_filter_index():
    # Negative filtering and filtered eval must exclude one set of triples,
    # also when a split array no longer holds one the filter index does (a
    # test split replaced after the index was built).
    ds = make_dataset(4, {"train": [(0, 0, 1)], "test": [(2, 0, 3)]})
    ds = dataclasses.replace(ds, test=np.empty((0, 3), np.int64))
    triples = np.array([[0, 0, 1], [2, 0, 3], [1, 0, 2], [3, 0, 2]])
    assert ds.is_known(triples).tolist() == [True, True, False, False]


# --- features ----------------------------------------------------------------

def vocab3(tmp_path):
    train = write(tmp_path / "train.tsv", ["a\tr\tb", "b\tr\tc"])
    return load_triples(train).vocab


def test_feature_partial_coverage(tmp_path):
    vocab = vocab3(tmp_path)
    path = write(tmp_path / "feat.tsv", ["a\t1.0,2.0,3.0,4.0",
                                         "b\t5.0,6.0,7.0,8.0"])
    table = load_features(path, vocab, "v", 4)
    assert table.matrix.shape == (3, 4)
    assert table.present.tolist() == [True, True, False]
    assert table.matrix[1].tolist() == [5.0, 6.0, 7.0, 8.0]


def test_feature_full_and_empty_coverage(tmp_path):
    vocab = vocab3(tmp_path)
    full = write(tmp_path / "full.tsv", [f"{e}\t1.0,2.0" for e in "abc"])
    empty = write(tmp_path / "none.tsv", [])
    assert load_features(full, vocab, "v", 2).present.all()
    table = load_features(empty, vocab, "v", 2)
    assert not table.present.any()


def test_feature_unknown_entity_skipped(tmp_path, caplog):
    vocab = vocab3(tmp_path)
    path = write(tmp_path / "feat.tsv", ["zz\t1.0,2.0", "a\t3.0,4.0"])
    with caplog.at_level(logging.WARNING):
        table = load_features(path, vocab, "v", 2)
    assert table.present.tolist() == [True, False, False]
    assert any("not in vocab" in rec.message for rec in caplog.records)


def test_feature_wrong_width_reports_lineno(tmp_path):
    vocab = vocab3(tmp_path)
    path = write(tmp_path / "feat.tsv", ["a\t1.0,2.0,3.0"])
    with pytest.raises(DataError, match="1"):
        load_features(path, vocab, "v", 2)


def test_feature_second_row_for_an_entity_rejected(tmp_path):
    # A later row must not silently replace an earlier one.
    vocab = vocab3(tmp_path)
    path = write(tmp_path / "feat.tsv", ["a\t1.0,2.0", "b\t3.0,4.0", "a\t9.0,9.0"])
    with pytest.raises(DataError, match=r"feat\.tsv:3: second row for entity 'a'"):
        load_features(path, vocab, "v", 2)


def test_feature_nonfinite_rejected(tmp_path):
    vocab = vocab3(tmp_path)
    path = write(tmp_path / "feat.tsv", ["a\t1.0,nan"])
    with pytest.raises(DataError):
        load_features(path, vocab, "v", 2)


def test_feature_round_trip(tmp_path):
    vocab = vocab3(tmp_path)
    table = random_features(3, 4, "v", SeededRng(3), absent=(1,))
    path = str(tmp_path / "feat.tsv")
    save_features(table, vocab, path)
    back = load_features(path, vocab, "v", 4)
    assert back.present.tolist() == table.present.tolist()
    assert np.array_equal(back.matrix[back.present], table.matrix[table.present])


class DiskFull:
    """A value whose write fails, so a file is left half written."""

    def __format__(self, spec=""):
        raise OSError("simulated disk full")

    __float__ = __format__


def test_failed_write_keeps_previous_files(tmp_path):
    ds = make_dataset(6, {"train": [(0, 0, 1), (1, 0, 2), (3, 0, 4)],
                          "valid": [(2, 0, 3)], "test": [(4, 0, 5)]})
    table = random_features(6, 4, "v", SeededRng(3))
    paths = [str(tmp_path / f"{s}.tsv") for s in ("train", "valid", "test")]
    save_triples(ds, *paths)
    save_features(table, ds.vocab, str(tmp_path / "feat.tsv"))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    ds.vocab.entity_names[3] = DiskFull()   # third train line fails
    with pytest.raises(OSError, match="simulated"):
        save_triples(ds, *paths)
    broken = table.matrix.astype(object)
    broken[2, 1] = DiskFull()               # third feature row fails
    table.matrix = broken
    with pytest.raises(OSError, match="simulated"):
        save_features(table, ds.vocab, str(tmp_path / "feat.tsv"))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# --- modality masking ----------------------------------------------------------

def test_mask_ratio_zero_is_identity():
    table = random_features(10, 3, "v", SeededRng(1))
    masked = apply_modality_missing(table, 0.0, seed=5)
    assert masked.present.all()
    assert table.present.all()  # input untouched


def test_mask_shares_matrix_and_leaves_input_mask():
    table = random_features(10, 3, "v", SeededRng(5), absent=(2,))
    before = table.present.copy()
    masked = apply_modality_missing(table, 0.5, seed=3)
    assert np.shares_memory(masked.matrix, table.matrix)
    assert np.array_equal(table.present, before)
    assert not np.shares_memory(masked.present, table.present)
    assert not (masked.present & ~before).any() and (~masked.present).sum() >= 5


def test_mask_ratio_one_masks_all():
    table = random_features(10, 3, "v", SeededRng(1))
    masked = apply_modality_missing(table, 1.0, seed=5)
    assert not masked.present.any()


def test_mask_deterministic_and_exact_count():
    table = random_features(10, 3, "v", SeededRng(2))
    a = apply_modality_missing(table, 0.3, seed=7)
    b = apply_modality_missing(table, 0.3, seed=7)
    assert a.present.tolist() == b.present.tolist()
    assert int((~a.present).sum()) == 3
    assert table.present.all()


def test_mask_same_seed_shared_across_modalities():
    v = random_features(20, 3, "v", SeededRng(3))
    t = random_features(20, 5, "t", SeededRng(4))
    mv = apply_modality_missing(v, 0.4, seed=11)
    mt = apply_modality_missing(t, 0.4, seed=11)
    assert mv.present.tolist() == mt.present.tolist()


@given(st.integers(min_value=1, max_value=60),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_mask_count_is_floor(n, ratio, seed):
    table = random_features(n, 2, "v", SeededRng(n))
    masked = apply_modality_missing(table, ratio, seed=seed)
    assert int((~masked.present).sum()) == int(np.floor(ratio * n))
