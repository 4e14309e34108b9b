"""Tests for the RNG plumbing and the simulated clock."""

from __future__ import annotations

import numpy as np
import pytest

from repro._rng import (
    as_generator,
    derive_generator,
    derive_seed,
    stable_hash,
)
from repro.errors import ConfigurationError
from repro.simclock import SimClock


class TestAsGenerator:
    def test_none_uses_library_default_seed(self):
        first = as_generator(None).integers(0, 2**32, size=5)
        second = as_generator(None).integers(0, 2**32, size=5)
        assert np.array_equal(first, second)

    def test_int_seed_is_deterministic(self):
        assert np.array_equal(
            as_generator(42).integers(0, 100, size=10),
            as_generator(42).integers(0, 100, size=10),
        )

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert as_generator(rng) is rng

    def test_rejects_unsupported_types(self):
        with pytest.raises(TypeError):
            as_generator("not a seed")


class TestStableHash:
    def test_is_deterministic_across_calls(self):
        assert stable_hash("a", 1, (2, 3)) == stable_hash("a", 1, (2, 3))

    def test_different_keys_give_different_hashes(self):
        assert stable_hash("a") != stable_hash("b")

    def test_order_matters(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_non_negative(self):
        assert stable_hash("anything", 123) >= 0


class TestDerivedGenerators:
    def test_derive_seed_is_stable(self):
        assert derive_seed(10, "panel") == derive_seed(10, "panel")

    def test_derive_seed_differs_per_key(self):
        assert derive_seed(10, "panel") != derive_seed(10, "catalog")

    def test_derive_generator_streams_are_independent(self):
        a = derive_generator(5, "a").integers(0, 2**32, size=4)
        b = derive_generator(5, "b").integers(0, 2**32, size=4)
        assert not np.array_equal(a, b)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.advance(5.0)
        assert clock.now() == pytest.approx(15.0)

    def test_advance_hours(self):
        clock = SimClock()
        clock.advance_hours(2.0)
        assert clock.now() == pytest.approx(7200.0)
        assert clock.now_hours() == pytest.approx(2.0)

    def test_cannot_move_backwards(self):
        clock = SimClock()
        clock.advance(10.0)
        with pytest.raises(ConfigurationError):
            clock.advance(-1.0)
        with pytest.raises(ConfigurationError):
            clock.set_time(5.0)

    def test_set_time_forward(self):
        clock = SimClock()
        clock.set_time(100.0)
        assert clock.now() == pytest.approx(100.0)
