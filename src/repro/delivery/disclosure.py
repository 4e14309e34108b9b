"""Ad-transparency disclosure ("Why am I seeing this ad?").

When a user receives an ad, Facebook lets them inspect the targeting
parameters the advertiser used.  The paper's authors captured those
disclosures (Figures 11 and 12) as the third piece of evidence that a
campaign nanotargeted them.  The disclosure here is generated from the
campaign spec itself, so it matches the configured audience exactly — which
is precisely the property the authors verified.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog import InterestCatalog
from .campaign import Campaign


@dataclass(frozen=True, slots=True)
class AdDisclosure:
    """The targeting information shown to a user who received the ad."""

    campaign_id: str
    advertiser: str
    locations: tuple[str, ...]
    interest_ids: tuple[int, ...]
    interest_names: tuple[str, ...]
    captured_at_hour: float

    def matches_spec(self, campaign: Campaign) -> bool:
        """True when the disclosure matches the campaign's configured audience."""
        return (
            self.campaign_id == campaign.campaign_id
            and set(self.interest_ids) == set(campaign.spec.interests)
            and tuple(self.locations) == tuple(campaign.spec.locations)
        )


def build_disclosure(
    campaign: Campaign,
    catalog: InterestCatalog,
    *,
    captured_at_hour: float,
    advertiser: str = "FDVT research team",
) -> AdDisclosure:
    """Build the disclosure a recipient of ``campaign``'s ad would see."""
    names = tuple(catalog.name_of(i) for i in campaign.spec.interests)
    return AdDisclosure(
        campaign_id=campaign.campaign_id,
        advertiser=advertiser,
        locations=campaign.spec.locations,
        interest_ids=campaign.spec.interests,
        interest_names=names,
        captured_at_hour=captured_at_hour,
    )
