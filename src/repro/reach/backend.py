"""The reach-backend protocol.

The simulated Ads Manager API (:mod:`repro.adsapi`) does not compute
audience sizes itself; it delegates to any object implementing
:class:`ReachBackend`.  Two implementations ship with the library:

* :class:`repro.reach.StatisticalReachModel` — an analytic model at the true
  world scale (1.5B users), used for the uniqueness analysis and the
  nanotargeting experiment;
* :class:`repro.population.PopulationReachBackend` — exact counting over an
  agent-based scaled population, used for delivery simulations and for
  validating the analytic model's semantics.

Besides the scalar :meth:`~ReachBackend.audience_for`, the protocol carries
one bulk entry point, :meth:`~ReachBackend.prefix_audiences_panel` — the
AND audiences of every prefix of every row of a padded id matrix — with a
default that loops the scalar method, so any backend serves the Ads API's
bulk and batch endpoints.  The statistical model overrides it with its
vectorised kernel; callers get bit-identical results either way.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np


@runtime_checkable
class ReachBackend(Protocol):
    """Anything that can estimate the audience of an interest combination."""

    def audience_for(
        self,
        interest_ids: Sequence[int],
        locations: Sequence[str] | None = None,
        *,
        combine: str = "and",
    ) -> float:
        """Return the (unfloored) audience size of a targeting expression.

        Parameters
        ----------
        interest_ids:
            Interests defining the audience.  An empty sequence means "no
            interest filter", i.e. everyone in the selected locations.
        locations:
            Country codes restricting the audience, ``None`` or the
            worldwide sentinel meaning no restriction.
        combine:
            ``"and"`` requires users to hold every interest (the narrowing
            semantics used throughout the paper); ``"or"`` requires at least
            one.
        """
        ...  # pragma: no cover - protocol definition

    def world_size(self, locations: Sequence[str] | None = None) -> float:
        """Return the total user base for ``locations``."""
        ...  # pragma: no cover - protocol definition

    def prefix_audiences_panel(
        self,
        id_matrix: np.ndarray,
        counts: Sequence[int] | np.ndarray,
        locations: Sequence[str] | None = None,
    ) -> np.ndarray:
        """AND audiences of every prefix of every row of a padded id matrix.

        Cell ``(u, k)`` of the result must equal
        ``audience_for(id_matrix[u, :k + 1], locations)`` bit-for-bit for
        ``k < counts[u]`` and be ``NaN`` elsewhere.  This default loops the
        scalar method; vectorised backends override it with a whole-panel
        sweep.
        """
        ids = np.asarray(id_matrix, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        result = np.full(ids.shape, np.nan, dtype=float)
        for row in range(ids.shape[0]):
            prefix = tuple(int(i) for i in ids[row, : counts[row]])
            for k in range(len(prefix)):
                result[row, k] = self.audience_for(prefix[: k + 1], locations)
        return result
