"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adsapi import apply_reporting_floor, apply_reporting_floor_matrix
from repro.adsapi.ratelimit import TokenBucket
from repro.analysis import EmpiricalCDF
from repro.core import AudienceSamples, fit_vas, nested_subsets, truncate_at_floor
from repro.core.quantiles import probability_to_percentile
from repro.delivery import pseudonymize_ip
from repro.errors import AdsApiError, InsufficientDataError, ModelError
from repro.fdvt import RiskLevel, RiskThresholds
from repro.simclock import SimClock

# Keep hypothesis deadlines generous: numpy-heavy examples vary in runtime.
COMMON_SETTINGS = settings(max_examples=60, deadline=None)


class TestReportingFloorProperties:
    @COMMON_SETTINGS
    @given(
        raw=st.floats(min_value=0.0, max_value=1e10, allow_nan=False),
        floor=st.integers(min_value=1, max_value=10_000),
    )
    def test_reported_reach_never_below_floor(self, raw, floor):
        estimate = apply_reporting_floor(raw, floor)
        assert estimate.potential_reach >= floor

    @COMMON_SETTINGS
    @given(
        raw=st.floats(min_value=0.0, max_value=1e10, allow_nan=False),
        floor=st.integers(min_value=1, max_value=10_000),
    )
    def test_reported_reach_never_understates_large_audiences(self, raw, floor):
        estimate = apply_reporting_floor(raw, floor)
        if raw >= floor:
            assert abs(estimate.potential_reach - raw) <= 0.5 + 1e-6

    @COMMON_SETTINGS
    @given(
        a=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        b=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    )
    def test_floor_preserves_ordering(self, a, b):
        low, high = sorted([a, b])
        assert (
            apply_reporting_floor(low, 20).potential_reach
            <= apply_reporting_floor(high, 20).potential_reach
        )


#: Raw matrix cells: padding (NaN), signed zeros, exact halves on both sides
#: of common floors, and arbitrary non-negative audiences.
_RAW_CELLS = st.one_of(
    st.sampled_from((float("nan"), -0.0, 0.0, 0.5, 1.5, 2.5, 19.5, 20.5, 999.5)),
    st.integers(min_value=0, max_value=3_000).map(lambda whole: whole + 0.5),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
)


class TestReportingFloorMatrixProperties:
    @COMMON_SETTINGS
    @given(
        cells=st.lists(_RAW_CELLS, min_size=1, max_size=30),
        width=st.integers(min_value=1, max_value=6),
        floor=st.one_of(
            st.sampled_from((1, 20, 1_000)), st.integers(min_value=1, max_value=10_000)
        ),
    )
    def test_cells_match_the_scalar_floor(self, cells, width, floor):
        cells += [float("nan")] * (-len(cells) % width)
        raw = np.asarray(cells, dtype=float).reshape(-1, width)
        reported = apply_reporting_floor_matrix(raw, floor)
        assert reported.shape == raw.shape
        for value, cell in zip(raw.ravel(), reported.ravel()):
            if np.isnan(value):
                assert np.isnan(cell)
            else:
                scalar = apply_reporting_floor(float(value), floor).potential_reach
                assert cell == float(scalar)

    @COMMON_SETTINGS
    @given(
        cells=st.lists(_RAW_CELLS, min_size=0, max_size=20),
        negative=st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
        at=st.integers(min_value=0, max_value=20),
    )
    def test_a_negative_cell_raises(self, cells, negative, at):
        cells.insert(at % (len(cells) + 1), negative)
        with pytest.raises(AdsApiError):
            apply_reporting_floor_matrix(np.asarray([cells]), 20)


class TestQuantileProperties:
    @COMMON_SETTINGS
    @given(
        data=st.lists(
            st.lists(
                st.floats(min_value=20.0, max_value=1e9, allow_nan=False),
                min_size=5,
                max_size=5,
            ),
            min_size=3,
            max_size=40,
        ),
        q=st.floats(min_value=1.0, max_value=99.0),
    )
    def test_vas_values_lie_within_sample_range(self, data, q):
        matrix = np.sort(np.asarray(data, dtype=float), axis=1)[:, ::-1]
        samples = AudienceSamples(matrix=matrix, floor=20)
        vas = samples.vas(q)
        assert np.nanmin(vas) >= matrix.min() - 1e-6
        assert np.nanmax(vas) <= matrix.max() + 1e-6

    @COMMON_SETTINGS
    @given(
        data=st.lists(
            st.lists(
                st.floats(min_value=20.0, max_value=1e9, allow_nan=False),
                min_size=6,
                max_size=6,
            ),
            min_size=3,
            max_size=30,
        ),
        q_low=st.floats(min_value=1.0, max_value=49.0),
        q_high=st.floats(min_value=51.0, max_value=99.0),
    )
    def test_higher_quantile_dominates_lower(self, data, q_low, q_high):
        matrix = np.asarray(data, dtype=float)
        samples = AudienceSamples(matrix=matrix, floor=20)
        low = samples.vas(q_low)
        high = samples.vas(q_high)
        assert np.all(high + 1e-9 >= low)

    @COMMON_SETTINGS
    @given(probability=st.floats(min_value=0.001, max_value=0.999))
    def test_probability_percentile_round_trip(self, probability):
        assert probability_to_percentile(probability) == pytest.approx(probability * 100)


class TestFittingProperties:
    @COMMON_SETTINGS
    @given(
        slope=st.floats(min_value=1.0, max_value=12.0),
        intercept=st.floats(min_value=2.0, max_value=9.5),
    )
    def test_exact_curves_are_recovered(self, slope, intercept):
        n = np.arange(1, 26, dtype=float)
        vas = 10.0 ** (intercept - slope * np.log10(n + 1.0))
        try:
            fit = fit_vas(np.maximum(vas, 20.0), floor=20)
        except InsufficientDataError:
            return  # The curve saturated immediately; nothing to fit.
        assert fit.cutpoint >= 0.0
        assert 0.0 <= fit.r_squared <= 1.0

    @COMMON_SETTINGS
    @given(
        values=st.lists(
            st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        floor=st.integers(min_value=1, max_value=1000),
    )
    def test_truncate_at_floor_output_is_prefix(self, values, floor):
        array = np.asarray(values, dtype=float)
        truncated = truncate_at_floor(array, floor)
        assert truncated.size <= array.size
        assert np.allclose(truncated, array[: truncated.size])
        # No value before the last kept one is at or below the floor.
        if truncated.size > 1:
            assert np.all(truncated[:-1] > floor)


class TestNestedSubsetProperties:
    @COMMON_SETTINGS
    @given(
        pool=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40, unique=True),
        data=st.data(),
    )
    def test_subsets_are_nested_and_sized(self, pool, data):
        sizes = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=len(pool)), min_size=1, max_size=6
            )
        )
        subsets = nested_subsets(pool, sizes)
        ordered_sizes = sorted(set(sizes))
        for small, large in zip(ordered_sizes, ordered_sizes[1:]):
            assert set(subsets[small]) <= set(subsets[large])
        for size in sizes:
            assert len(subsets[size]) == size
            assert set(subsets[size]) <= set(pool)


class TestCDFProperties:
    @COMMON_SETTINGS
    @given(
        samples=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        probe=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_cdf_is_bounded_and_monotone(self, samples, probe):
        cdf = EmpiricalCDF.from_samples(samples)
        value = cdf.evaluate(probe)
        assert 0.0 <= value <= 1.0
        assert cdf.evaluate(probe + 1.0) >= value

    @COMMON_SETTINGS
    @given(
        samples=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=200,
        )
    )
    def test_percentiles_are_monotone(self, samples):
        cdf = EmpiricalCDF.from_samples(samples)
        p10, p50, p90 = cdf.percentiles([10, 50, 90])
        assert p10 <= p50 <= p90


class TestRiskClassificationProperties:
    @COMMON_SETTINGS
    @given(
        audience=st.floats(min_value=0, max_value=1e10, allow_nan=False),
        red=st.integers(min_value=1, max_value=10**4),
        orange_extra=st.integers(min_value=1, max_value=10**5),
        yellow_extra=st.integers(min_value=1, max_value=10**6),
    )
    def test_larger_audiences_never_increase_risk(
        self, audience, red, orange_extra, yellow_extra
    ):
        thresholds = RiskThresholds(
            red_max=red, orange_max=red + orange_extra, yellow_max=red + orange_extra + yellow_extra
        )
        order = [RiskLevel.RED, RiskLevel.ORANGE, RiskLevel.YELLOW, RiskLevel.GREEN]
        first = order.index(thresholds.classify(audience))
        second = order.index(thresholds.classify(audience * 2 + 1))
        assert second >= first


class TestInfrastructureProperties:
    @COMMON_SETTINGS
    @given(ip=st.ip_addresses(v=4), key=st.text(min_size=1, max_size=30))
    def test_pseudonymisation_is_deterministic_and_hides_the_ip(self, ip, key):
        first = pseudonymize_ip(str(ip), key)
        second = pseudonymize_ip(str(ip), key)
        assert first == second
        assert str(ip) not in first

    @COMMON_SETTINGS
    @given(
        rate=st.floats(min_value=1.0, max_value=10_000.0),
        burst=st.integers(min_value=1, max_value=50),
        acquisitions=st.integers(min_value=1, max_value=200),
    )
    def test_token_bucket_never_exceeds_burst_without_time(self, rate, burst, acquisitions):
        clock = SimClock()
        bucket = TokenBucket(requests_per_minute=rate, burst=burst, clock=clock)
        granted = sum(1 for _ in range(acquisitions) if bucket.try_acquire())
        assert granted <= burst
