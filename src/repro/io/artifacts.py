"""Disk artifact codecs for the build cache's disk tier.

The cache layer (:mod:`repro.cache`) is format-agnostic: it names files
by stage fingerprint, publishes them atomically and maps every decode
failure to a miss.  *This* module owns the formats — one codec per
artifact kind, both compact columnar ``.npz`` archives:

* **Catalogs** (``.catalog.npz``) hold the
  :class:`~repro.catalog.InterestCatalog` columns — ``ids`` and
  ``audiences`` (int64), ``topic_codes`` (the catalog's small unsigned
  type, plus the topic table) — and the names as one UTF-8 byte array
  (``names_utf8``, uint8) with per-name character counts
  (``name_lengths``, int64).  UTF-8 keeps a paper-scale catalog at about
  half the size of a fixed-width ``str`` array.
* **Panels** (``.panel.npz``) hold the
  :class:`~repro.population.columnar.PanelColumns` arrays — ``user_ids``
  (int64), ``country_index`` (int16, plus the per-store code table),
  ``gender_index`` (int8), ``ages`` (int16) and the CSR ``indptr``
  (int64) / ``interest_ids`` (int32) — so a million-user panel loads in
  array-copy time instead of rebuild time.

Each archive carries a header (format version, kind tag, code table and
a SHA-256 digest over the code table and every stored array's
name/dtype/shape/bytes) as a JSON string.  Round-trips are dtype- and
content-exact — and since the cache key is a content fingerprint, a
disk-hydrated build is bit-identical to an in-memory one.  A decoded
catalog still goes through :meth:`~repro.catalog.InterestCatalog.from_columns`,
which validates every column.

Any mismatch — wrong :data:`ARTIFACT_FORMAT_VERSION`, wrong kind, digest
mismatch, missing arrays, truncated file — raises
:class:`~repro.errors.ArtifactError` (or whatever the underlying parser
raises), which the disk tier treats as a miss and rebuilds from source.
Bumping the version tag therefore invalidates every existing artifact
cleanly: old files simply stop decoding.  A catalog stored in the older
``.catalog.json`` layout is never opened at all: its extension differs,
so it misses and rebuilds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..catalog import InterestCatalog
from ..errors import ArtifactError
from ..population.columnar import PanelColumns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fdvt → exec → reach)
    from ..fdvt.panel import FDVTPanel

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "CATALOG_CODEC",
    "CatalogArtifactCodec",
    "PanelArtifactCodec",
]

#: On-disk format version, embedded in every artifact header and checked
#: on load.  Bump it whenever the serialised layout changes; every
#: artifact written under the old version then decodes as a miss.
ARTIFACT_FORMAT_VERSION = 1

#: The arrays persisted in a catalog ``.npz``, in digest order.  The
#: topic table travels in the header.
_CATALOG_ARRAYS = ("ids", "audiences", "topic_codes", "names_utf8", "name_lengths")

#: The ``PanelColumns`` arrays persisted in a panel ``.npz``, in digest
#: order.  ``country_codes`` (the code table) travels in the header.
_PANEL_ARRAYS = (
    "user_ids",
    "country_index",
    "gender_index",
    "ages",
    "indptr",
    "interest_ids",
)


def _canonical_bytes(payload: Any) -> bytes:
    """The canonical JSON encoding digests are computed over."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _arrays_digest(code_table: Sequence[str], arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over a code table and every array's name/dtype/shape/bytes."""
    digest = hashlib.sha256()
    digest.update(_canonical_bytes(list(code_table)))
    for name, array in arrays.items():
        digest.update(name.encode("utf-8"))
        digest.update(array.dtype.str.encode("utf-8"))
        digest.update(_canonical_bytes(list(array.shape)))
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _check_header(header: Any, kind: str) -> dict:
    """Validate an artifact header's version and kind tags."""
    if not isinstance(header, dict):
        raise ArtifactError("artifact header is not a mapping")
    version = header.get("format_version")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported artifact format version: {version!r} "
            f"(expected {ARTIFACT_FORMAT_VERSION})"
        )
    found = header.get("kind")
    if found != kind:
        raise ArtifactError(f"artifact kind mismatch: {found!r} != {kind!r}")
    return header


def _write_archive(path: Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` plus ``header`` (as a JSON string) to one ``.npz``."""
    with open(path, "wb") as handle:
        np.savez(
            handle, header=np.array(json.dumps(header, sort_keys=True)), **arrays
        )


def _read_archive(
    path: Path, kind: str, names: Sequence[str]
) -> tuple[dict, dict[str, np.ndarray]]:
    """The checked header and the named arrays of one ``.npz`` artifact.

    The file is opened here, not by ``np.load``, so it is closed even when
    a truncated archive makes ``np.load`` raise.
    """
    with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as data:
        try:
            header = _check_header(json.loads(str(data["header"][()])), kind)
            arrays = {name: data[name] for name in names}
        except KeyError as exc:
            raise ArtifactError(f"{kind} artifact missing entry: {exc}") from exc
    return header, arrays


class CatalogArtifactCodec:
    """Catalog ↔ columnar ``.npz`` archive (header JSON + raw arrays)."""

    kind = "catalog"
    extension = "catalog.npz"

    def encode(self, artifact: InterestCatalog, path: Path) -> None:
        names = artifact.names
        arrays = {
            "ids": artifact.ids,
            "audiences": artifact.audiences,
            "topic_codes": artifact.topic_codes,
            "names_utf8": np.frombuffer("".join(names).encode("utf-8"), np.uint8),
            "name_lengths": np.fromiter(map(len, names), np.int64, len(names)),
        }
        table = list(artifact.topic_table)
        header = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "kind": self.kind,
            "topic_table": table,
            "digest": _arrays_digest(table, arrays),
        }
        _write_archive(path, header, arrays)

    def decode(self, path: Path) -> InterestCatalog:
        header, arrays = _read_archive(path, self.kind, _CATALOG_ARRAYS)
        table = header.get("topic_table")
        if _arrays_digest(table, arrays) != header.get("digest"):
            raise ArtifactError(f"catalog artifact digest mismatch: {path}")
        text = arrays["names_utf8"].tobytes().decode("utf-8")
        lengths = arrays["name_lengths"]
        if (lengths < 0).any() or int(lengths.sum()) != len(text):
            raise ArtifactError(f"catalog artifact name lengths do not add up: {path}")
        ends = np.cumsum(lengths).tolist()
        starts = [0] + ends[:-1]
        return InterestCatalog.from_columns(
            arrays["ids"],
            arrays["audiences"],
            arrays["topic_codes"],
            table,
            [text[start:end] for start, end in zip(starts, ends)],
        )


#: The process-wide catalog codec (stateless, shared by every stage).
CATALOG_CODEC = CatalogArtifactCodec()


@dataclass(frozen=True)
class PanelArtifactCodec:
    """Panel ↔ columnar ``.npz`` archive (header JSON + raw arrays).

    Decoding needs the catalog the panel was assigned from — the panel
    fingerprint already pins the catalog stage, so binding the resolved
    catalog here is safe — and returns an
    :meth:`~repro.fdvt.panel.FDVTPanel.from_columns` view: columnar
    regardless of the layout that originally built it (the cache key is
    layout-free and both layouts hold bit-identical content).
    """

    catalog: InterestCatalog

    kind = "panel"
    extension = "panel.npz"

    def encode(self, artifact: "FDVTPanel", path: Path) -> None:
        columns = artifact.columns
        arrays = {name: getattr(columns, name) for name in _PANEL_ARRAYS}
        header = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "kind": self.kind,
            "country_codes": list(columns.country_codes),
            "digest": _arrays_digest(columns.country_codes, arrays),
        }
        _write_archive(path, header, arrays)

    def decode(self, path: Path) -> "FDVTPanel":
        from ..fdvt.panel import FDVTPanel

        header, arrays = _read_archive(path, self.kind, _PANEL_ARRAYS)
        country_codes = tuple(header["country_codes"])
        if _arrays_digest(country_codes, arrays) != header.get("digest"):
            raise ArtifactError(f"panel artifact digest mismatch: {path}")
        columns = PanelColumns(country_codes=country_codes, **arrays)
        return FDVTPanel.from_columns(columns, self.catalog)
