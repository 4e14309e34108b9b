"""Counter-based deterministic jitter for the reach model.

The reach model perturbs every audience with a small log-normal jitter that
must be (a) identical every time the same interest *set* is queried, (b)
independent of the order in which the interests are listed, and (c) cheap to
evaluate for thousands of combinations at once.  The original implementation
hashed the sorted combination with BLAKE2b and built a fresh
:class:`numpy.random.Generator` per query, which made the per-call Generator
construction the dominant cost of large collections.

This module replaces that with a Philox-style counter construction built
from the SplitMix64 finaliser, fully vectorised over numpy ``uint64``
arrays:

1. every interest id is mixed with the model key into a 64-bit *token
   hash*; the model hashes every catalog id once, at construction, and
   reads the hashes by catalog position;
2. the seed of a combination is the wrapping **sum** of its token hashes —
   addition is commutative, so the seed depends only on the interest set,
   and the seeds of all ``1..N`` prefixes of an ordered list fall out of a
   single cumulative sum (this is what makes the prefix kernel O(N));
3. each seed is finalised through two independent SplitMix64 streams,
   both in one pass over a stacked array, into two uniforms, combined by
   Box–Muller into one standard normal draw.

The same kernel serves the scalar and the batched entry points, so a scalar
query and the corresponding element of a batched query are bit-identical.
"""

from __future__ import annotations

import numpy as np

#: SplitMix64 constants (Steele, Lea & Flood; also used by Java's
#: ``SplittableRandom``).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

#: Stream separators so that the two uniforms feeding Box–Muller come from
#: independent finalisations of the same counter.
_STREAMS = np.array([0xA5A5A5A5A5A5A5A5, 0xC3C3C3C3C3C3C3C3], dtype=np.uint64)

_TWO_PI = 2.0 * np.pi
_INV_2_53 = float(2.0**-53)


def _mix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser over a ``uint64`` array (ndim >= 1, so it wraps silently)."""
    values = (values ^ (values >> np.uint64(30))) * _MIX_1
    values = (values ^ (values >> np.uint64(27))) * _MIX_2
    return values ^ (values >> np.uint64(31))


def jitter_key(seed: int) -> np.uint64:
    """Derive the 64-bit jitter key from a model seed."""
    return _mix64(np.asarray([seed % (2**64)], dtype=np.uint64))[0]


def interest_token_hashes(interest_ids: np.ndarray, key: np.uint64) -> np.ndarray:
    """Per-interest 64-bit hashes keyed by the model's jitter key."""
    tokens = np.asarray(interest_ids, dtype=np.int64).astype(np.uint64)
    return _mix64((tokens + _GAMMA) ^ key)


def lognormal_jitter(seeds: np.ndarray, log10_sigma: float) -> np.ndarray:
    """Deterministic log-normal jitter factors ``10 ** N(0, sigma)``.

    One standard normal is derived per seed via Box–Muller over two
    SplitMix64-finalised uniforms.  Purely elementwise, so scalar and
    batched calls agree bitwise.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if log10_sigma <= 0:
        return np.ones(seeds.shape, dtype=float)
    # Both streams in one pass: row 0 feeds u1, row 1 feeds u2.
    bits = _mix64(np.bitwise_xor.outer(_STREAMS, seeds)) >> np.uint64(11)
    # 53-bit mantissas; u1 is shifted into (0, 1] so that log(u1) is finite.
    bits[0] += np.uint64(1)
    u1, u2 = bits.astype(float) * _INV_2_53
    normal = np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)
    return 10.0 ** (log10_sigma * normal)
