"""Determinism, stream contract and distribution sanity for the seeded
generator."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamf.rng import SeededRng


def test_same_seed_same_stream():
    a = SeededRng(42)
    b = SeededRng(42)
    assert [a.next_uint64() for _ in range(64)] == [b.next_uint64() for _ in range(64)]
    assert a.uniforms(100).tolist() == b.uniforms(100).tolist()
    assert a.normals(100).tolist() == b.normals(100).tolist()


def test_different_seeds_differ():
    a, b = SeededRng(1), SeededRng(2)
    assert a.uniforms(16).tolist() != b.uniforms(16).tolist()


def test_substream_label_isolation():
    # Drawing from one substream must not perturb a sibling: the negatives
    # stream stays put however much initialization consumes.
    root1, root2 = SeededRng(7), SeededRng(7)
    init1 = root1.substream("init")
    neg1 = root1.substream("negatives")
    _ = init1.uniforms(1000)
    first = neg1.uniforms(10)

    neg2 = root2.substream("negatives")
    second = neg2.uniforms(10)
    assert first.tolist() == second.tolist()


def test_substreams_differ_from_each_other():
    root = SeededRng(7)
    a = root.substream("init").uniforms(32)
    b = root.substream("noise").uniforms(32)
    assert a.tolist() != b.tolist()


def test_nested_substream_labels():
    root1, root2 = SeededRng(3), SeededRng(3)
    a = root1.substream("init").substream("entity.structural").uniforms(8)
    b = root2.substream("init").substream("entity.structural").uniforms(8)
    assert a.tolist() == b.tolist()


def test_uniform_range_and_moments():
    u = SeededRng(11).uniforms(20000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_normal_moments():
    z = SeededRng(12).normals(20000)
    assert abs(z.mean()) < 0.03
    assert abs(z.var() - 1.0) < 0.05
    assert np.all(np.isfinite(z))


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100)
def test_randint_bounds(n, seed):
    rng = SeededRng(seed)
    draws = [rng.randint(n) for _ in range(50)]
    assert all(0 <= d < n for d in draws)


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100)
def test_permutation_is_bijection(n, seed):
    perm = SeededRng(seed).permutation(n)
    assert sorted(perm.tolist()) == list(range(n))


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50)
def test_choice_without_replacement(seed):
    rng = SeededRng(seed)
    n, k = 30, 12
    chosen = rng.choice_without_replacement(n, k)
    assert len(chosen) == k
    assert len(set(chosen.tolist())) == k
    assert all(0 <= c < n for c in chosen)


def test_randint_covers_support():
    rng = SeededRng(5)
    seen = {rng.randint(4) for _ in range(400)}
    assert seen == {0, 1, 2, 3}


# --- stream contract -----------------------------------------------------------

MASK64 = (1 << 64) - 1


def textbook_splitmix64(state: int, n: int) -> list[int]:
    """Reference SplitMix64 (Steele, Lea & Flood 2014), one draw at a time."""
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def test_golden_vector():
    # Pinned stream: a change here changes every seeded run, so make it
    # deliberately and say so in the changelog.
    rng = SeededRng(20240225, stream="golden")
    assert [rng.next_uint64() for _ in range(8)] == [
        0x77D5AD69423B644F, 0xF3474DE91AB75B6E, 0xD11F2493CC42DBC7,
        0x66715E75BE4F9CF2, 0x54F7DF0490E160C3, 0x335F9C0ED39CBECE,
        0xEFF821793C3D47A6, 0xF5278370C38E7E5A]
    assert rng.uniforms(4).tolist() == [
        0.4787890228906452, 0.40519877807384785, 0.23928554396019108,
        0.4943601847201481]
    assert rng.counter == 12


def test_stream_is_textbook_splitmix64_from_key():
    rng = SeededRng(99, stream="root/negatives")
    want = textbook_splitmix64(rng.key, 40)
    assert [rng.next_uint64() for _ in range(20)] == want[:20]
    assert (rng.uniforms(20) == [(v >> 11) * 2.0 ** -53 for v in want[20:]]).all()


@pytest.mark.parametrize("n", [0, 1, 7, 64])
def test_scalar_draws_equal_one_bulk_draw(n):
    scalar, bulk = SeededRng(4, "eq"), SeededRng(4, "eq")
    assert [scalar.uniform() for _ in range(n)] == bulk.uniforms(n).tolist()
    assert [scalar.randint(1000) for _ in range(n)] == \
        bulk.randints([1000] * n).tolist()
    assert scalar.counter == bulk.counter == 2 * n


def test_normals_pairs_and_odd_counts():
    a, b = SeededRng(8, "bm"), SeededRng(8, "bm")
    whole = a.normals(10)
    assert b.normals(5).tolist() == whole[:5].tolist()
    # an odd count consumes a whole pair: the next draw starts after it
    assert b.counter == a.counter - 4
    # Box-Muller with u1 in (0, 1]: the first draw's 53 bits plus one ulp
    u = SeededRng(8, "bm").uniforms(2)
    radius = np.sqrt(-2 * np.log(u[0] + 2.0 ** -53))
    assert whole[:2] == pytest.approx(
        [radius * np.cos(2 * np.pi * u[1]), radius * np.sin(2 * np.pi * u[1])],
        rel=1e-12)


def test_randints_per_element_bounds():
    bounds = np.array([1, 2, 3, 10, 97, 2**31 - 1, 2**40, 5] * 25)
    bulk = SeededRng(6, "bounds").randints(bounds)
    assert bulk.dtype == np.int64 and bulk.shape == bounds.shape
    assert np.all((bulk >= 0) & (bulk < bounds))
    assert np.all(bulk[bounds == 1] == 0)
    scalar = SeededRng(6, "bounds")
    assert bulk.tolist() == [scalar.randint(int(b)) for b in bounds]


def test_randints_rejects_nonpositive_bounds():
    with pytest.raises(ValueError):
        SeededRng(0).randints([3, 0])
    with pytest.raises(ValueError):
        SeededRng(0).randint(0)


def test_exact_rejection_near_two_to_the_63():
    # 2**64 mod 3*2**62 == 2**62: raw draws in [3*2**62, 2**64) are
    # rejected (a quarter of them), the accepted ones are returned as is.
    bound = 3 * 2**62
    raw_rng = SeededRng(13, "reject")
    raw = [raw_rng.next_uint64() for _ in range(400)]
    assert sum(v >= bound for v in raw[:40]) >= 5

    scalar = SeededRng(13, "reject")
    accepted = [v for v in raw if v < bound]
    got = [scalar.randint(bound) for _ in range(40)]
    assert got == accepted[:40]
    assert scalar.counter == raw.index(accepted[39]) + 1

    # bulk: one draw per slot, rejected slots refilled in slot order from the
    # following draws until none is rejected
    n = 40
    want, pos = raw[:n], n
    pending = [i for i in range(n) if want[i] >= bound]
    while pending:
        for i in pending:
            want[i], pos = raw[pos], pos + 1
        pending = [i for i in pending if want[i] >= bound]
    bulk_rng = SeededRng(13, "reject")
    bulk = bulk_rng.randints(np.array([bound] * n, dtype=np.uint64))
    assert bulk.tolist() == want
    assert bulk_rng.counter == pos


def test_every_method_runs_without_overflow_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 1, 2**63, MASK64):
            rng = SeededRng(seed, "warn").substream("child")
            rng.next_uint64()
            rng.uniform()
            rng.uniforms(1000)
            rng.normal()
            rng.normals(1001)
            rng.randint(7)
            rng.randint(3 * 2**62)
            rng.randints([5, 2**40, 1])
            rng.randints(np.array([3 * 2**62, 2**63], dtype=np.uint64))
            rng.permutation(100)
            rng.choice_without_replacement(100, 10)
