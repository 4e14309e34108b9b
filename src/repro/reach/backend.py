"""The reach-backend protocol.

The simulated Ads Manager API (:mod:`repro.adsapi`) does not compute
audience sizes itself; it delegates to any object implementing
:class:`ReachBackend`.  One implementation ships with the library:
:class:`repro.reach.StatisticalReachModel`, an analytic model at the true
world scale (1.5B users), used for the uniqueness analysis, the
nanotargeting experiment and the reach service.

Besides the scalar :meth:`~ReachBackend.audience_for`, the protocol carries
one bulk entry point, :meth:`~ReachBackend.prefix_audiences_panel` — the
AND audiences of every prefix of every row of a padded id matrix — which
every backend implements itself; the protocol has no default body.
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
        ``k < counts[u]`` and be ``NaN`` elsewhere.
        """
        ...  # pragma: no cover - protocol definition
