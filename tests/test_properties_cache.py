"""Property tests of the fingerprint contract over seed × panel-size grids.

The contract (:mod:`repro.config`): ``fingerprint()`` is a content address —
two configs collide exactly when they compare equal — and every documented
config transformation (``with_panel_users``, ``scaled_down``, sub-config
replacement, seed changes) moves the digest.  The stage fingerprints of
:mod:`repro.pipeline` inherit the property per stage: analysis knobs leave
the catalog/panel digests alone, build knobs move them.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import pytest

from repro import quick_config
from repro.config import ReproductionConfig, UniquenessConfig
from repro.pipeline import (
    catalog_fingerprint,
    panel_fingerprint,
    simulation_fingerprint,
)
from repro.scenarios import ScenarioSpec

SEEDS = (1, 2, 3)
PANEL_SIZES = (20, 35, 50)


def grid_config(seed: int, panel_users: int) -> ReproductionConfig:
    """One point of the seed × panel-size grid."""
    config = quick_config(factor=50).with_panel_users(panel_users)
    return replace(config, catalog=replace(config.catalog, seed=seed))


class TestFingerprintCollidesIffEqual:
    def test_over_the_seed_by_panel_size_grid(self):
        points = list(product(SEEDS, PANEL_SIZES))
        # Build every grid config twice: equal configs from independent
        # construction paths must collide, distinct ones must not.
        configs = {point: grid_config(*point) for point in points}
        rebuilt = {point: grid_config(*point) for point in points}
        for a, b in product(points, repeat=2):
            collides = configs[a].fingerprint() == rebuilt[b].fingerprint()
            assert collides == (configs[a] == rebuilt[b]), (a, b)

    def test_grid_digests_are_pairwise_distinct(self):
        digests = [grid_config(*point).fingerprint() for point in product(SEEDS, PANEL_SIZES)]
        assert len(set(digests)) == len(digests)

    def test_sub_config_seed_moves_the_digest(self):
        base = quick_config(factor=50)
        for field_name in ("catalog", "reach", "panel", "uniqueness", "experiment"):
            sub = getattr(base, field_name)
            changed = replace(base, **{field_name: replace(sub, seed=sub.seed + 1)})
            assert changed.fingerprint() != base.fingerprint(), field_name


class TestTransformationsMoveTheDigest:
    def test_with_panel_users_is_distinct_per_size(self):
        base = quick_config(factor=50)
        digests = {base.fingerprint()}
        for n_users in PANEL_SIZES:
            resized = base.with_panel_users(n_users)
            assert resized.fingerprint() not in digests or resized == base
            digests.add(resized.fingerprint())
        assert len(digests) == 1 + len(PANEL_SIZES)

    def test_with_panel_users_at_current_size_is_identity(self):
        base = quick_config(factor=50)
        unchanged = base.with_panel_users(base.panel.n_users)
        assert unchanged == base
        assert unchanged.fingerprint() == base.fingerprint()

    def test_round_trip_digest_tracks_config_equality(self):
        # Quota rounding is not a bijection, so shrinking and growing back
        # may land on different quotas — the digest must agree with
        # whatever equality says, not assume restoration.
        base = quick_config(factor=50)
        round_tripped = base.with_panel_users(35).with_panel_users(base.panel.n_users)
        assert (round_tripped.fingerprint() == base.fingerprint()) == (
            round_tripped == base
        )

    def test_scaled_down_is_distinct_per_factor(self):
        base = quick_config(factor=20)
        digests = {base.fingerprint()}
        for factor in (2, 5, 10):
            scaled = base.scaled_down(factor)
            digests.add(scaled.fingerprint())
        assert len(digests) == 4


class TestStageFingerprints:
    def test_panel_size_moves_panel_but_not_catalog(self):
        base = quick_config(factor=50)
        resized = base.with_panel_users(35)
        assert catalog_fingerprint(base) == catalog_fingerprint(resized)
        assert panel_fingerprint(base) != panel_fingerprint(resized)
        assert simulation_fingerprint(base) != simulation_fingerprint(resized)

    def test_top_level_seed_moves_every_stage(self):
        config = quick_config(factor=50)
        for fingerprint in (catalog_fingerprint, panel_fingerprint, simulation_fingerprint):
            assert fingerprint(config, 1) != fingerprint(config, 2)
            assert fingerprint(config, 1) != fingerprint(config, None)

    def test_analysis_knobs_leave_build_stages_alone(self):
        config = quick_config(factor=50)
        analysed = replace(
            config,
            uniqueness=replace(
                config.uniqueness, probabilities=(0.8,), n_bootstrap=7
            ),
        )
        assert catalog_fingerprint(config) == catalog_fingerprint(analysed)
        assert panel_fingerprint(config) == panel_fingerprint(analysed)
        assert simulation_fingerprint(config) != simulation_fingerprint(analysed)


class TestScenarioStageFingerprints:
    def spec(self, **overrides) -> ScenarioSpec:
        defaults = dict(
            name="fp", study="uniqueness", factor=50, seed=11, probabilities=(0.9,)
        )
        defaults.update(overrides)
        return ScenarioSpec(**defaults)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"strategies": ("least_popular",)},
            {"probabilities": (0.8,)},
            {"n_bootstrap": 9},
            {"countermeasures": ("interest_cap:9",)},
            {"n_targets": 2},
        ],
        ids=["strategies", "probabilities", "n_bootstrap", "countermeasures", "n_targets"],
    )
    def test_analysis_knobs_share_catalog_and_panel(self, overrides):
        base = self.spec().stage_fingerprints()
        varied = self.spec(**overrides).stage_fingerprints()
        assert varied["catalog"] == base["catalog"]
        assert varied["panel"] == base["panel"]

    @pytest.mark.parametrize(
        "overrides",
        [{"seed": 12}, {"panel_users": 30}, {"factor": 60}],
        ids=["seed", "panel_users", "factor"],
    )
    def test_build_knobs_move_the_panel_stage(self, overrides):
        base = self.spec().stage_fingerprints()
        varied = self.spec(**overrides).stage_fingerprints()
        assert varied["panel"] != base["panel"]
        assert varied["simulation"] != base["simulation"]
