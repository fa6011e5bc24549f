import numpy as np
import numpy.testing as npt
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
