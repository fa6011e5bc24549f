"""Counter-based random streams for schedule-independent reproducibility.

Every random quantity in the package is a pure function of a user seed and a
small integer path (domain tag, replication index, draw index, ...).  Streams
are built on numpy's Philox4x64-10 counter-based generator, keyed through
``SeedSequence(seed, spawn_key=path)``.  Because each stream is keyed rather
than split from a shared sequential state, results never depend on execution
order or on how work is distributed across workers.

Uniforms take the top 53 bits k of each raw 64-bit Philox output and map them
to the open interval (0, 1) via (k + 0.5) * 2**-53.  They are formed as
``Generator.random``'s 53-bit double k * 2**-53 of the same word plus 2**-54,
which rounds to the same double, in the one float array the draw returns.
The top k = 2**53 - 1 would round to 1.0, so it is clamped to the largest
double below 1; the endpoints 0 and 1 are unreachable.  Normals apply the
inverse standard normal CDF (``scipy.special.ndtri``, a rational
approximation with absolute error below 1e-13) to those uniforms in place.
Observation i of a stream is therefore a pure function of (seed, path, i).
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import ndtri

# Domain tags keep independent uses of the same user seed on disjoint streams.
DOMAIN_MULTIPLIER = 1   # multiplier bootstrap draws
DOMAIN_REPLICATION = 2  # Monte Carlo study replications

_HALF_STEP = 2.0 ** -54  # half the spacing of the 53-bit doubles
_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest double below 1
_BLOCK_WORDS = 4  # raw words per Philox4x64 counter block


def stream(seed: int, *path: int) -> Philox:
    """Philox bit generator keyed by (seed, path), independent of all others."""
    return Philox(SeedSequence(int(seed), spawn_key=tuple(int(q) for q in path)))


def uniforms(bits: Philox, count: int) -> np.ndarray:
    """Next `count` open-interval (0, 1) uniforms from a keyed stream."""
    # k * 2**-53 + 2**-54 is the real number (k + 0.5) * 2**-53, and scaling
    # by a power of two is exact, so both round to the same double
    u = Generator(bits).random(count)
    u += _HALF_STEP
    return np.minimum(u, _BELOW_ONE, out=u)


def skip(bits: Philox, count: int) -> None:
    """Pass over the next `count` raw words of a keyed stream, as drawing
    and discarding them would: finish the current counter block, advance
    the counter past the whole blocks, then draw the rest."""
    head = min(count, _BLOCK_WORDS - bits.state["buffer_pos"])
    bits.random_raw(head, output=False)
    blocks, tail = divmod(count - head, _BLOCK_WORDS)
    if blocks:
        bits.advance(blocks)
    bits.random_raw(tail, output=False)


def normals(bits: Philox, count: int) -> np.ndarray:
    """Next `count` i.i.d. standard normals (inverse-CDF transform)."""
    u = uniforms(bits, count)
    return ndtri(u, out=u)
