import tracemalloc

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


def fixed_words(words):
    """A Philox stream whose next raw words are `words` (at most one
    counter block): its buffer holds them and none is consumed yet."""
    bits = Philox(0)
    state = bits.state
    buffer = np.zeros(4, dtype=np.uint64)
    buffer[:len(words)] = words
    state["buffer"] = buffer
    state["buffer_pos"] = 0
    bits.state = state
    return bits


def test_extreme_raw_words_stay_inside_the_open_interval():
    # the top word's (2**53 - 1) + 0.5 rounds to 2**53, so it is clamped to
    # the largest double below 1; the bottom word maps to 2**-54
    words = [0, 2 ** 64 - 1, 2 ** 64 - 2 ** 12]
    assert fixed_words(words).random_raw(3).tolist() == words
    u = rng.uniforms(fixed_words(words), 3)
    assert u.tolist() == [2.0 ** -54, np.nextafter(1.0, 0.0), 1.0 - 2.0 ** -52]
    g = rng.normals(fixed_words(words), 3)
    assert np.all(np.isfinite(g))
    assert g[0] < -8.0 and g[1] > g[2] > 8.0


@pytest.mark.parametrize("consumed", [0, 1, 2, 3])
@pytest.mark.parametrize("count", [1, 3, 5, 13, 24_001])
def test_a_draw_after_skip_is_the_formula_on_the_next_words(consumed, count):
    # the order generate uses in missing-at-random mode: normals, a skip
    # over w's words, then the missingness uniforms, on odd counts that
    # leave the stream inside a counter block
    bits = rng.stream(8, 2, 3)
    rng.normals(bits, consumed)
    rng.skip(bits, count)
    got = rng.uniforms(bits, 7)
    raw = rng.stream(8, 2, 3).random_raw(consumed + count + 7)[-7:]
    want = np.minimum(((raw >> np.uint64(11)).astype(np.float64) + 0.5)
                      * 2.0 ** -53, np.nextafter(1.0, 0.0))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("draw", [rng.uniforms, rng.normals])
def test_a_draw_peaks_at_one_float_array(draw):
    # the draw is formed in its returned array: no raw-word array and no
    # float copy beside it
    count = 51_200
    bits = rng.stream(4, 1)
    draw(bits, 1)  # first-call allocations are not the draw's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = draw(bits, count)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == (count,)
    assert peak <= 8 * count + 4096


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
