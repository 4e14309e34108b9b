"""A lightweight interest taxonomy.

Facebook organises ad interests in a shallow taxonomy (e.g. *Food and
drink → Italian food*).  The taxonomy matters for the reproduction because
interests belonging to the same topic co-occur much more often within a
user's profile than unrelated interests, and that correlation is what keeps
the audience of an interest combination far above the independence
prediction (Section 4.2 of the paper).
"""

from __future__ import annotations

from ..errors import CatalogError

#: Top-level topics, loosely mirroring Facebook's public interest categories.
TOPICS: tuple[str, ...] = (
    "Business and industry",
    "Entertainment",
    "Family and relationships",
    "Fitness and wellness",
    "Food and drink",
    "Hobbies and activities",
    "Lifestyle and culture",
    "News and politics",
    "People",
    "Shopping and fashion",
    "Sports and outdoors",
    "Technology",
    "Travel and places",
    "Education",
    "Science",
    "Vehicles",
    "Music",
    "Movies and television",
    "Books and literature",
    "Video games",
    "Pets and animals",
    "Home and garden",
    "Health and medicine",
    "Arts and design",
)

#: Example leaf names used to build readable synthetic interest names.
_LEAF_STEMS: tuple[str, ...] = (
    "classics", "festivals", "startups", "history", "recipes", "tournaments",
    "brands", "gadgets", "destinations", "workshops", "collectibles",
    "magazines", "communities", "legends", "techniques", "styles",
    "traditions", "innovations", "icons", "essentials",
)


def round_robin_topics(n_topics: int | None = None) -> tuple[str, ...]:
    """The first ``n_topics`` topics (at least one, at most all of them)."""
    return TOPICS if n_topics is None else TOPICS[: max(1, min(n_topics, len(TOPICS)))]


def topic_for_index(index: int, n_topics: int | None = None) -> str:
    """Return the topic assigned to the ``index``-th interest.

    Interests are spread round-robin over :func:`round_robin_topics` so
    that every topic receives a comparable share of the catalog.
    """
    if index < 0:
        raise CatalogError("interest index must be non-negative")
    topics = round_robin_topics(n_topics)
    return topics[index % len(topics)]


def interest_name(index: int, topic: str) -> str:
    """Build a deterministic, human-readable name for a synthetic interest."""
    stem = _LEAF_STEMS[index % len(_LEAF_STEMS)]
    return f"{topic} {stem} #{index}"


def validate_topic(topic: str) -> str:
    """Return ``topic`` if it belongs to the taxonomy, raise otherwise."""
    if topic not in TOPICS:
        raise CatalogError(f"unknown topic: {topic!r}")
    return topic
