import numpy as np
import numpy.testing as npt
import pytest
from numpy.random import Philox, SeedSequence
from scipy.special import ndtri

from eivbands import rng


def reference_normals(seed, path, count):
    # Independent reconstruction of the documented algorithm: Philox keyed by
    # SeedSequence(seed, spawn_key=path), top 53 bits -> open-interval
    # uniforms, inverse normal CDF.
    raw = Philox(SeedSequence(seed, spawn_key=path)).random_raw(count)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return ndtri(u)


def test_normals_match_documented_construction():
    got = rng.normals(rng.stream(7, 1, 4), 64)
    npt.assert_array_equal(got, reference_normals(7, (1, 4), 64))


def test_uniforms_open_interval():
    u = rng.uniforms(rng.stream(0, 9), 100000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_same_key_same_stream():
    a = rng.normals(rng.stream(3, 2, 5), 32)
    b = rng.normals(rng.stream(3, 2, 5), 32)
    npt.assert_array_equal(a, b)


def test_different_paths_differ():
    a = rng.normals(rng.stream(3, 2, 5), 32)
    b = rng.normals(rng.stream(3, 2, 6), 32)
    c = rng.normals(rng.stream(4, 2, 5), 32)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_chunked_reads_continue_the_stream():
    bits = rng.stream(11, 0)
    chunks = np.concatenate([rng.normals(bits, 10), rng.normals(bits, 22)])
    npt.assert_array_equal(chunks, rng.normals(rng.stream(11, 0), 32))


def test_moments_sane():
    g = rng.normals(rng.stream(123), 200000)
    assert abs(g.mean()) < 0.01
    assert abs(g.var() - 1.0) < 0.01


def test_in_place_transforms_match_the_expression_bytes():
    # the uniforms and normals are built in place; each step must be the
    # same elementwise operation as the plain expression below
    for seed, count in ((0, 1), (5, 1000), (901, 350_017)):
        raw = rng.stream(seed, 1).random_raw(count)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        got_u = rng.uniforms(rng.stream(seed, 1), count)
        got_g = rng.normals(rng.stream(seed, 1), count)
        assert got_u.dtype == got_g.dtype == np.float64
        assert got_u.tobytes() == u.tobytes()
        assert got_g.tobytes() == ndtri(u).tobytes()


class _FixedWords:
    """A bit generator stub whose raw words are given."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, count):
        assert count == len(self.words)
        return self.words.copy()


def test_extreme_raw_words_stay_inside_the_open_interval():
    # the top word's (2**53 - 1) + 0.5 rounds to 2**53, so it is clamped to
    # the largest double below 1; the bottom word maps to 2**-54
    words = [0, 2 ** 64 - 1, 2 ** 64 - 2 ** 12]
    u = rng.uniforms(_FixedWords(words), 3)
    assert u.tolist() == [2.0 ** -54, np.nextafter(1.0, 0.0), 1.0 - 2.0 ** -52]
    g = rng.normals(_FixedWords(words), 3)
    assert np.all(np.isfinite(g))
    assert g[0] < -8.0 and g[1] > g[2] > 8.0


@pytest.mark.parametrize("consumed", [0, 1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 8, 13, 24_000])
def test_skip_equals_drawing_the_words(consumed, count):
    # a stream that has used 0-3 words of its current counter block skips
    # `count` words and continues exactly where drawing them would
    bits = rng.stream(8, 2, 3)
    bits.random_raw(consumed)
    rng.skip(bits, count)
    want = rng.stream(8, 2, 3).random_raw(consumed + count + 9)[-9:]
    npt.assert_array_equal(bits.random_raw(9), want)
