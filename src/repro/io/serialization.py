"""Dataset (de)serialisation.

Catalogs, panels and experiment reports can be persisted as JSON so that
expensive synthetic datasets can be generated once and reused by examples
and benchmarks, and so that results can be inspected outside Python.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..catalog import InterestCatalog
from ..core.nanotargeting import ExperimentReport
from ..core.results import UniquenessReport
from ..errors import CatalogError, ReproError
from ..fdvt.panel import FDVTPanel


def _write_json(path: Path | str, payload: Any) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return path


def _read_json(path: Path | str, what: str) -> Any:
    path = Path(path)
    if not path.exists():
        raise ReproError(f"no such file: {path}")
    try:
        with path.open("r", encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ReproError(f"malformed {what} file: {path} ({exc})") from exc


# -- catalog ---------------------------------------------------------------------


def save_catalog(catalog: InterestCatalog, path: Path | str) -> Path:
    """Persist a catalog as JSON."""
    return _write_json(path, {"interests": catalog.to_dicts()})


def load_catalog(path: Path | str) -> InterestCatalog:
    """Load a catalog previously saved with :func:`save_catalog`."""
    payload = _read_json(path, "catalog")
    try:
        return InterestCatalog.from_dicts(payload["interests"])
    except (KeyError, TypeError, CatalogError) as exc:
        raise ReproError(f"malformed catalog file: {path} ({exc})") from exc


# -- panel -------------------------------------------------------------------------


def save_panel(panel: FDVTPanel, path: Path | str) -> Path:
    """Persist a panel as JSON (the catalog is saved separately)."""
    return _write_json(path, {"users": panel.to_dicts()})


def load_panel(path: Path | str, catalog: InterestCatalog) -> FDVTPanel:
    """Load a panel previously saved with :func:`save_panel`."""
    payload = _read_json(path, "panel")
    try:
        return FDVTPanel.from_dicts(payload["users"], catalog)
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed panel file: {path}") from exc


# -- reports --------------------------------------------------------------------------


def uniqueness_report_to_dict(report: UniquenessReport) -> dict:
    """Serialise a uniqueness report (Table 1 row) to a dictionary."""
    return {
        "strategy": report.strategy_name,
        "n_users": report.n_users,
        "floor": report.floor,
        "estimates": {
            f"{probability:g}": {
                "n_p": estimate.n_p,
                "ci_low": estimate.confidence_interval.low,
                "ci_high": estimate.confidence_interval.high,
                "r_squared": estimate.r_squared,
            }
            for probability, estimate in report.estimates.items()
        },
        "vas_curves": {
            f"{probability:g}": [float(v) for v in curve]
            for probability, curve in report.vas_curves.items()
        },
    }


def save_uniqueness_report(report: UniquenessReport, path: Path | str) -> Path:
    """Persist a uniqueness report as JSON."""
    return _write_json(path, uniqueness_report_to_dict(report))


def experiment_report_to_dict(report: ExperimentReport) -> dict:
    """Serialise a nanotargeting experiment report (Table 2) to a dictionary."""
    return {
        "n_campaigns": report.n_campaigns,
        "success_count": report.success_count,
        "account_suspended": report.account_suspended,
        "total_cost_eur": report.total_cost_eur(),
        "successful_cost_eur": report.successful_cost_eur(),
        "rows": report.table_rows(),
    }


def save_experiment_report(report: ExperimentReport, path: Path | str) -> Path:
    """Persist a nanotargeting experiment report as JSON."""
    return _write_json(path, experiment_report_to_dict(report))
