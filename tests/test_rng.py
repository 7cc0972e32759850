"""Counter-based streams: reproducibility, independence, normality."""

import numpy as np
import pytest
from scipy import stats

from oscnet.rng import _PhiloxKey, seed_stream


def test_same_key_reproduces_draws():
    a = seed_stream(123456789, 7).standard_normal(10 ** 6)
    b = seed_stream(123456789, 7).standard_normal(10 ** 6)
    assert np.array_equal(a, b)


def test_chunked_draws_match_one_shot():
    one = seed_stream(5, 1).standard_normal(10000)
    g = seed_stream(5, 1)
    chunks = np.concatenate([g.standard_normal(1234), g.standard_normal(8766)])
    assert np.array_equal(one, chunks)


def test_distinct_indices_are_independent_streams():
    a = seed_stream(42, 0).standard_normal(10 ** 4)
    b = seed_stream(42, 1).standard_normal(10 ** 4)
    assert not np.array_equal(a[:100], b[:100])
    # Same distribution: two-sample KS at a conservative level.
    _, p = stats.ks_2samp(a, b)
    assert p > 1e-3
    # And nearly uncorrelated.
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_normal_draw_mean_is_centered():
    x = seed_stream(2024, 3).standard_normal(10 ** 6)
    assert abs(x.mean()) <= 4.0 / np.sqrt(10 ** 6)
    assert x.std() == pytest.approx(1.0, abs=0.005)


def test_seed_wraps_and_index_validates():
    # 64-bit wrap-around keys are accepted; negative indices are not.
    s = seed_stream(2 ** 64 + 5, 0).standard_normal(4)
    t = seed_stream(5, 0).standard_normal(4)
    assert np.array_equal(s, t)
    with pytest.raises(ValueError):
        seed_stream(1, -1)


@pytest.mark.parametrize("seed, index", [(0, 0), (1, 4095), (2 ** 64 + 5, 0), (123456789, 2 ** 40)])
def test_stream_is_philox_keyed_by_seed_and_index(seed, index):
    # The stream is Philox(key=[seed mod 2^64, index mod 2^64]) with counter
    # 0: the same state and the same bits, however the key is handed over.
    mask = (1 << 64) - 1
    ours = seed_stream(seed, index)
    ref = np.random.Generator(np.random.Philox(key=[seed & mask, index & mask]))
    # The state dict holds small arrays (key, counter, buffer): its repr
    # shows every value.
    assert repr(ours.bit_generator.state) == repr(ref.bit_generator.state)
    assert np.array_equal(ours.standard_normal(10 ** 4), ref.standard_normal(10 ** 4))


@pytest.mark.parametrize("n_words, dtype", [(2, np.uint32), (4, np.uint32), (1, np.uint64),
                                            (4, np.uint64), (2, np.int64)])
def test_key_sequence_serves_only_a_philox_key(n_words, dtype):
    key = _PhiloxKey(3, 4)
    assert np.array_equal(key.generate_state(2, np.uint64), np.array([3, 4], dtype=np.uint64))
    with pytest.raises(ValueError):
        key.generate_state(n_words, dtype)
