"""Tests for serialisation helpers and the high-level pipeline."""

from __future__ import annotations

import json

import pytest

from repro import build_simulation, quick_config
from repro.adsapi import AdsManagerAPI
from repro.config import PlatformConfig, UniquenessConfig
from repro.core import LeastPopularSelection, UniquenessModel
from repro.errors import ReproError
from repro.io import (
    experiment_report_to_dict,
    load_catalog,
    load_panel,
    save_catalog,
    save_experiment_report,
    save_panel,
    save_uniqueness_report,
    uniqueness_report_to_dict,
)
from repro.reach import country_codes
from repro.simclock import SimClock


#: One valid catalog record, for building malformed variants.
RECORD = {"interest_id": 1, "name": "x", "topic": "People", "audience_size": 5}


class TestCatalogSerialisation:
    def test_round_trip(self, tiny_catalog, tmp_path):
        path = save_catalog(tiny_catalog, tmp_path / "catalog.json")
        rebuilt = load_catalog(path)
        assert rebuilt.to_dicts() == tiny_catalog.to_dicts()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError):
            load_catalog(tmp_path / "missing.json")

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not_interests": []}))
        with pytest.raises(ReproError):
            load_catalog(path)

    @pytest.mark.parametrize(
        "content",
        [
            "not json at all",
            json.dumps({"interests": [{**RECORD, "interest_id": "abc"}]}),
            json.dumps({"interests": [{**RECORD, "interest_id": 1.7}]}),
            json.dumps({"interests": [{**RECORD, "audience_size": 5.5}]}),
        ],
        ids=["not-json", "text-id", "fractional-id", "fractional-audience"],
    )
    def test_unreadable_catalog_is_a_malformed_file(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        with pytest.raises(ReproError, match="malformed catalog file"):
            load_catalog(path)


class TestPanelSerialisation:
    def test_round_trip(self, tiny_panel, tiny_catalog, tmp_path):
        path = save_panel(tiny_panel, tmp_path / "panel.json")
        rebuilt = load_panel(path, tiny_catalog)
        assert rebuilt.to_dicts() == tiny_panel.to_dicts()

    def test_malformed_panel_raises(self, tiny_catalog, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"wrong": 1}))
        with pytest.raises(ReproError):
            load_panel(path, tiny_catalog)

    def test_non_json_panel_is_a_malformed_file(self, tiny_catalog, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe not json")
        with pytest.raises(ReproError, match="malformed panel file"):
            load_panel(path, tiny_catalog)


class TestReportSerialisation:
    def test_uniqueness_report_round_trip_keys(self, simulation, tmp_path):
        api = AdsManagerAPI(
            simulation.reach_model, platform=PlatformConfig.legacy_2017(), clock=SimClock()
        )
        model = UniquenessModel(
            api, simulation.panel, UniquenessConfig(n_bootstrap=20, seed=1),
            locations=country_codes(),
        )
        report = model.estimate(LeastPopularSelection(), probabilities=[0.5])
        payload = uniqueness_report_to_dict(report)
        assert payload["strategy"] == "least_popular"
        assert "0.5" in payload["estimates"]
        path = save_uniqueness_report(report, tmp_path / "table1.json")
        assert json.loads(path.read_text())["n_users"] == len(simulation.panel)

    def test_experiment_report_serialisation(self, simulation, tmp_path):
        experiment = build_simulation(quick_config(factor=80)).nanotargeting_experiment()
        report = experiment.run(
            candidates=build_simulation(quick_config(factor=80)).panel.users
        )
        payload = experiment_report_to_dict(report)
        assert payload["n_campaigns"] == 21
        path = save_experiment_report(report, tmp_path / "table2.json")
        assert json.loads(path.read_text())["n_campaigns"] == 21


class TestPipeline:
    def test_build_simulation_is_deterministic(self):
        first = build_simulation(quick_config(factor=80))
        second = build_simulation(quick_config(factor=80))
        assert first.catalog.to_dicts() == second.catalog.to_dicts()
        assert first.panel.to_dicts() == second.panel.to_dicts()

    def test_seed_override_changes_the_dataset(self):
        base = build_simulation(quick_config(factor=80))
        seeded = build_simulation(quick_config(factor=80), seed=99)
        assert base.panel.to_dicts() != seeded.panel.to_dicts()

    def test_platform_split_between_apis(self, simulation):
        assert simulation.uniqueness_api.platform.reach_floor == 20
        assert not simulation.uniqueness_api.platform.allow_worldwide_location
        assert simulation.campaign_api.platform.reach_floor == 1_000
        assert simulation.campaign_api.platform.allow_worldwide_location

    def test_strategies_helper(self, simulation):
        lp, random = simulation.strategies()
        assert lp.name == "least_popular"
        assert random.name == "random"

    def test_fdvt_extension_helper(self, simulation):
        extension = simulation.fdvt_extension()
        assert extension.thresholds.red_max == 10_000
