"""Result containers shared across the paper's studies.

Alongside the uniqueness-analysis containers (Table 1), this module holds
the result types of the scenario orchestration layer
(:mod:`repro.scenarios`): every study — uniqueness, nanotargeting, the
countermeasure workload impact, the FDVT risk reports — summarises into one
:class:`ScenarioResult` (canonical plain-scalar tables and metrics, plus
the study's raw objects), and sweeps reduce into the mergeable
:class:`ResultSet`, which conforms to the :class:`repro.exec.Sink`
protocol so per-shard scenario blocks can be drained like any other
streamed result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from ..errors import ModelError
from .bootstrap import ConfidenceInterval
from .fitting import LogLogFit


@dataclass(frozen=True, slots=True)
class NPEstimate:
    """The estimate of ``N_P`` for one probability and one strategy."""

    probability: float
    n_p: float
    confidence_interval: ConfidenceInterval
    r_squared: float
    fit: LogLogFit

    def __post_init__(self) -> None:
        if not 0.0 < self.probability < 1.0:
            raise ModelError("probability must lie in (0, 1)")
        if self.n_p < 0:
            raise ModelError("N_P must be non-negative")

    @property
    def required_interests(self) -> int:
        """Smallest whole number of interests achieving the probability."""
        return int(np.ceil(self.n_p))


@dataclass(frozen=True)
class UniquenessReport:
    """Complete output of the uniqueness analysis for one strategy."""

    strategy_name: str
    estimates: Mapping[float, NPEstimate]
    vas_curves: Mapping[float, np.ndarray]
    n_users: int
    floor: int

    def __post_init__(self) -> None:
        if not self.estimates:
            raise ModelError("a report needs at least one N_P estimate")

    def estimate_for(self, probability: float) -> NPEstimate:
        """The estimate for one probability (e.g. 0.9)."""
        try:
            return self.estimates[probability]
        except KeyError:
            raise ModelError(
                f"no estimate available for probability {probability}"
            ) from None

    @property
    def probabilities(self) -> tuple[float, ...]:
        """Probabilities covered by the report, ascending."""
        return tuple(sorted(self.estimates))

    def table_row(self) -> dict:
        """One row of Table 1 as a serialisable dictionary."""
        row: dict = {"strategy": self.strategy_name}
        for probability in self.probabilities:
            estimate = self.estimates[probability]
            key = f"P={probability:g}"
            row[key] = round(estimate.n_p, 2)
            row[f"{key} 95% CI"] = (
                round(estimate.confidence_interval.low, 2),
                round(estimate.confidence_interval.high, 2),
            )
            row[f"{key} R2"] = round(estimate.r_squared, 2)
        return row

    def summary_lines(self) -> list[str]:
        """Human-readable summary of the report."""
        lines = [
            f"strategy={self.strategy_name} users={self.n_users} floor={self.floor}"
        ]
        for probability in self.probabilities:
            estimate = self.estimates[probability]
            ci = estimate.confidence_interval
            lines.append(
                f"  N_{probability:g} = {estimate.n_p:.2f} "
                f"(95% CI [{ci.low:.2f}, {ci.high:.2f}], R2={estimate.r_squared:.2f})"
            )
        return lines


@dataclass(frozen=True)
class ScenarioResult:
    """The uniform output of one scenario run (any study).

    ``metrics`` (ordered name/value pairs), ``table`` (rows of plain
    scalars) and ``summary`` (human-readable lines) are canonical: two runs
    of the same scenario are bit-identical exactly when these compare
    equal, which is what the determinism tests and the sweep-vs-direct
    parity checks rely on.  ``raw`` carries the study's native result
    objects (e.g. a :class:`UniquenessReport` per strategy) for callers
    that need more than the canonical view; it is excluded from equality.
    """

    scenario: str
    study: str
    seed: int | None
    metrics: tuple[tuple[str, float], ...]
    table: tuple[dict, ...]
    summary: tuple[str, ...]
    raw: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.scenario:
            raise ModelError("a scenario result needs a scenario name")
        names = [name for name, _ in self.metrics]
        if len(set(names)) != len(names):
            raise ModelError("metric names must be unique")

    def metric(self, name: str) -> float:
        """The value of one named metric."""
        for metric_name, value in self.metrics:
            if metric_name == name:
                return value
        raise ModelError(f"scenario {self.scenario!r} has no metric {name!r}")

    @property
    def metrics_dict(self) -> dict[str, float]:
        """The metrics as a plain dictionary (insertion-ordered)."""
        return dict(self.metrics)

    def to_dict(self) -> dict:
        """Serialisable view (canonical fields only, ``raw`` dropped)."""
        return {
            "scenario": self.scenario,
            "study": self.study,
            "seed": self.seed,
            "metrics": dict(self.metrics),
            "table": [dict(row) for row in self.table],
            "summary": list(self.summary),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ScenarioResult":
        """Rebuild a canonical result from :meth:`to_dict` output.

        The inverse of a JSON round trip: JSON turns the tuples inside
        table rows (e.g. rounded confidence-interval pairs) into lists,
        so sequence values are recursively canonicalised back to tuples.
        Round-tripping is exact — ``ScenarioResult.from_dict(json.loads(
        json.dumps(r.to_dict())))`` compares equal to ``r`` — because the
        canonical fields only ever hold scalars, strings and (nested)
        tuples.  This is what lets a resumed sweep hydrate completed rows
        from a :class:`~repro.scenarios.manifest.RunManifest` bit-identically.
        ``raw`` is not serialised, so a hydrated result carries ``None``
        there (``raw`` is excluded from equality).
        """

        def canonical(value):
            if isinstance(value, (list, tuple)):
                return tuple(canonical(item) for item in value)
            return value

        return cls(
            scenario=payload["scenario"],
            study=payload["study"],
            seed=payload["seed"],
            metrics=tuple(
                (name, float(value)) for name, value in payload["metrics"].items()
            ),
            table=tuple(
                {key: canonical(value) for key, value in row.items()}
                for row in payload["table"]
            ),
            summary=tuple(payload["summary"]),
        )


class ResultSet:
    """An ordered, mergeable collection of :class:`ScenarioResult`\\ s.

    The reduction target of :class:`repro.scenarios.SweepRunner`: per-shard
    scenario blocks :meth:`merge` in shard order, so a sweep's result set
    lists scenarios exactly in grid order for every backend and worker
    count.  ``update`` / ``finalize`` make it a :class:`repro.exec.Sink`,
    and equality compares the ordered canonical results — the property the
    scenario determinism tests pin.
    """

    def __init__(self, results: Iterable[ScenarioResult] = ()) -> None:
        self._results: dict[str, ScenarioResult] = {}
        for result in results:
            self.add(result)

    def add(self, result: ScenarioResult) -> "ResultSet":
        """Append one scenario result (duplicate scenario names raise)."""
        if result.scenario in self._results:
            raise ModelError(f"duplicate scenario in result set: {result.scenario!r}")
        self._results[result.scenario] = result
        return self

    def merge(self, other: "ResultSet") -> "ResultSet":
        """Append another result set's scenarios after this one's (in place)."""
        for result in other:
            self.add(result)
        return self

    # -- Sink protocol -----------------------------------------------------------

    def update(self, block: "ResultSet | ScenarioResult") -> "ResultSet":
        """Absorb one streamed block (a result set or a single result)."""
        if isinstance(block, ScenarioResult):
            return self.add(block)
        return self.merge(block)

    def finalize(self) -> "ResultSet":
        """Produce the final reduced value (the set itself)."""
        return self

    # -- views -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[ScenarioResult]:
        return iter(self._results.values())

    def __contains__(self, name: str) -> bool:
        return name in self._results

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return list(self._results.items()) == list(other._results.items())

    @property
    def names(self) -> tuple[str, ...]:
        """Scenario names in insertion (grid) order."""
        return tuple(self._results)

    def get(self, name: str) -> ScenarioResult:
        """The result of one scenario by name."""
        try:
            return self._results[name]
        except KeyError:
            raise ModelError(f"no result for scenario {name!r}") from None

    def table_rows(self) -> list[dict]:
        """Every scenario's metrics as one flat table (scenario column first)."""
        return [
            {"scenario": result.scenario, "study": result.study, **dict(result.metrics)}
            for result in self
        ]

    def summary_lines(self) -> list[str]:
        """Human-readable summary of every scenario, in order."""
        lines: list[str] = []
        for result in self:
            lines.append(f"[{result.scenario}] ({result.study})")
            lines.extend(f"  {line}" for line in result.summary)
        return lines

    def to_dicts(self) -> list[dict]:
        """Serialisable view of every result, in order."""
        return [result.to_dict() for result in self]
