"""Run manifests: durable per-spec outcomes for resumable sweeps.

A :class:`RunManifest` records what happened to every
:class:`~repro.scenarios.spec.ScenarioSpec` of a sweep — completed with
its canonical :class:`~repro.core.results.ScenarioResult`, or dead-lettered
with the captured error and traceback — keyed by the spec's full content
fingerprint (:meth:`ScenarioSpec.fingerprint`).  The shape follows the
checkpoint-style stage pipelines of batch frameworks: persist per-unit
results as JSON so a rerun *skips* completed units instead of starting
over.

Resume contract
---------------
:meth:`SweepRunner.run_report <repro.scenarios.sweep.SweepRunner.run_report>`
saves the manifest incrementally (after every finished chunk), so a killed
sweep leaves a loadable manifest behind.  On resume, a recorded result is
only trusted when the stored fingerprint matches the resolved spec
bit-for-bit — edit a spec and its row reruns; leave it alone and the row
hydrates through :meth:`ScenarioResult.from_dict
<repro.core.results.ScenarioResult.from_dict>`, which restores the exact
canonical value (scalars, strings and tuples round-trip JSON losslessly).
A resumed sweep is therefore bit-identical to an undisturbed one — the
property ``tests/test_faults.py`` pins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from ..core.results import ScenarioResult
from ..errors import ConfigurationError

#: Manifest schema version (bumped on incompatible layout changes).
MANIFEST_VERSION = 1

#: The outcome states a manifest entry can record.
ENTRY_STATUSES = ("completed", "failed")


@dataclass(frozen=True)
class ManifestEntry:
    """The recorded outcome of one scenario spec."""

    scenario: str
    #: Full-spec content fingerprint (:meth:`ScenarioSpec.fingerprint`).
    fingerprint: str
    #: "completed" or "failed" (dead-lettered).
    status: str
    #: Attempts observed for this spec (>= 1; > 1 means retries fired).
    attempts: int = 1
    #: One-line error description for dead-lettered specs.
    error: str | None = None
    #: Captured traceback for dead-lettered specs.
    traceback: str | None = None
    #: Canonical result payload (``ScenarioResult.to_dict``) when completed.
    result: Mapping | None = None
    #: True when the entry was hydrated from a prior manifest, not re-run.
    resumed: bool = False

    def __post_init__(self) -> None:
        if self.status not in ENTRY_STATUSES:
            raise ConfigurationError(
                f"unknown manifest status: {self.status!r} "
                f"(expected one of {ENTRY_STATUSES})"
            )
        if self.status == "completed" and self.result is None:
            raise ConfigurationError("a completed entry needs a result payload")
        if self.status == "failed" and self.error is None:
            raise ConfigurationError("a failed entry needs an error description")

    def hydrate(self) -> ScenarioResult:
        """The canonical scenario result this entry recorded."""
        if self.result is None:
            raise ConfigurationError(
                f"scenario {self.scenario!r} dead-lettered, no result to hydrate"
            )
        return ScenarioResult.from_dict(self.result)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "traceback": self.traceback,
            "result": dict(self.result) if self.result is not None else None,
            "resumed": self.resumed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ManifestEntry":
        return cls(
            scenario=payload["scenario"],
            fingerprint=payload["fingerprint"],
            status=payload["status"],
            attempts=int(payload.get("attempts", 1)),
            error=payload.get("error"),
            traceback=payload.get("traceback"),
            result=payload.get("result"),
            resumed=bool(payload.get("resumed", False)),
        )


class RunManifest:
    """Ordered per-spec outcomes of one sweep run (insertion = grid order)."""

    def __init__(self, entries: Iterable[ManifestEntry] = ()) -> None:
        self._entries: dict[str, ManifestEntry] = {}
        for entry in entries:
            self.record(entry)

    # -- recording -----------------------------------------------------------------

    def record(self, entry: ManifestEntry) -> "RunManifest":
        """Record (or overwrite) the outcome for one scenario."""
        self._entries[entry.scenario] = entry
        return self

    # -- views ---------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ManifestEntry]:
        return iter(self._entries.values())

    def __contains__(self, scenario: str) -> bool:
        return scenario in self._entries

    def get(self, scenario: str) -> ManifestEntry:
        """The entry for one scenario by name."""
        try:
            return self._entries[scenario]
        except KeyError:
            raise ConfigurationError(
                f"no manifest entry for scenario {scenario!r}"
            ) from None

    def completed(self) -> tuple[ManifestEntry, ...]:
        """Entries that finished with a result, in order."""
        return tuple(e for e in self if e.status == "completed")

    def failures(self) -> tuple[ManifestEntry, ...]:
        """Dead-lettered entries, in order."""
        return tuple(e for e in self if e.status == "failed")

    def counts(self) -> dict[str, int]:
        """Summary counts: total / completed / failed / retried / resumed."""
        return {
            "total": len(self),
            "completed": len(self.completed()),
            "failed": len(self.failures()),
            "retried": sum(1 for e in self if e.attempts > 1),
            "resumed": sum(1 for e in self if e.resumed),
        }

    def reusable(self, fingerprint: str, scenario: str) -> ManifestEntry | None:
        """The completed entry a resumed sweep may trust, if any.

        Matching is on the *full-spec* fingerprint and the name: a spec
        edited between runs changes its fingerprint and reruns; a renamed
        spec reruns too (names key result sets, so reuse under a new name
        would fabricate a row the recorded run never produced).
        """
        entry = self._entries.get(scenario)
        if (
            entry is not None
            and entry.status == "completed"
            and entry.fingerprint == fingerprint
        ):
            return entry
        return None

    # -- persistence ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "entries": [entry.to_dict() for entry in self],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunManifest":
        """Rebuild a manifest from a :meth:`to_dict` payload.

        Other keys, such as the ``notes`` that older manifests carry, are
        ignored, so those manifests still resume.
        """
        version = payload.get("version")
        if version != MANIFEST_VERSION:
            raise ConfigurationError(
                f"unsupported manifest version: {version!r} "
                f"(expected {MANIFEST_VERSION})"
            )
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise ConfigurationError("manifest 'entries' must be a list")
        return cls(ManifestEntry.from_dict(entry) for entry in entries)

    def save(self, path: str | Path) -> Path:
        """Write the manifest as JSON (atomically: write-then-rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        tmp.replace(path)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        """Read a manifest saved by :meth:`save`."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as error:
            raise ConfigurationError(f"cannot read manifest: {error}") from error
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"manifest {path} is not valid JSON: {error}"
            ) from error
        if not isinstance(payload, Mapping):
            raise ConfigurationError("a manifest must be a JSON object")
        return cls.from_dict(payload)
