"""Deterministic random-number-generator plumbing.

All stochastic components of the library accept either an integer seed or a
:class:`numpy.random.Generator`.  The helpers here normalise that input and
derive independent, reproducible sub-streams keyed by arbitrary strings, so
that e.g. the panel generator and the reach model never share a stream even
when built from the same top-level seed.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

_DEFAULT_SEED = 20211102  # IMC '21 conference start date, used as a stable default.


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` maps to the library default seed (the pipeline stays fully
    reproducible unless the caller opts into a different seed), an ``int`` is
    used directly, and an existing generator is passed through unchanged.
    """
    if seed is None:
        return np.random.default_rng(_DEFAULT_SEED)
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"cannot build a random generator from {type(seed).__name__}")


def resolve_seed(seed: SeedLike, default: int) -> int:
    """An integer base seed for ``seed``, falling back to ``default``.

    A generator contributes one ``integers(0, 2**62)`` draw, so building
    from ``default_rng(s)`` equals building from the integer it draws.
    """
    if seed is None:
        return int(default)
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**62))
    return int(seed)


def stable_hash(*keys: object, bits: int = 64) -> int:
    """Hash ``keys`` into a non-negative integer, stable across processes.

    Python's built-in :func:`hash` is salted per process for strings, so it
    cannot be used to derive reproducible seeds.  This helper feeds the
    ``repr`` of every key into BLAKE2b instead.
    """
    digest = hashlib.blake2b(digest_size=bits // 8)
    for key in keys:
        digest.update(repr(key).encode("utf-8"))
        digest.update(b"\x00")
    return int.from_bytes(digest.digest(), "big")


def derive_seed(base_seed: int, *keys: object) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of keys."""
    return stable_hash(int(base_seed), *keys) % (2**63)


def derive_generator(base_seed: int, *keys: object) -> np.random.Generator:
    """Return a generator seeded from ``base_seed`` and ``keys``."""
    return np.random.default_rng(derive_seed(base_seed, *keys))
