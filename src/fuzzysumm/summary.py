"""Concept-summary hierarchies: the lattice read as leveled summaries.

Every concept becomes a summary whose level is its intent size; children
follow the covering edges downward, so the most general summary sits at
the root and fully-described summaries are the leaves.  Hierarchies can
also be loaded straight from JSON (intents as "Attr::Label" strings,
extents as tuple->degree maps), which makes externally published summary
tables usable as query targets without re-running the pipeline.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

from .domain import read_json, str_list
from .errors import DataError, UsageError
from .lattice import ConceptSummary, Lattice, cover_edges, parse_pair

SYNTHETIC_ROOT_ID = "root"


def alpha_cut(summary: ConceptSummary, alpha: float) -> dict[str, float]:
    """The summary's extent filtered to tuples with degree >= alpha."""
    if not (0.0 <= alpha <= 1.0):
        raise UsageError(f"alpha {alpha!r} outside [0,1]")
    return {tid: deg for tid, deg in summary.extent.items() if deg >= alpha}


class SummaryHierarchy:
    """Summaries ordered by intent inclusion, rooted at the empty intent.

    ``children`` is the transitive reduction of strict intent inclusion:
    the ``covers`` pairs (child id, parent id) when the caller already holds
    them, as ``build_hierarchy`` does, otherwise ``cover_edges`` of the
    intents.  Edge lists in hierarchy JSON are not read, so they cannot
    contradict the intents.  When no empty-intent summary exists, a
    synthetic root covering every tuple at degree 1 is added above the
    parentless summaries.

    A hierarchy is immutable once ``__init__`` returns: nothing adds,
    removes or edits a summary or an edge afterwards.  Data derived from the
    whole graph can therefore be computed once per object and kept on it;
    ``sd_memo`` holds ``query.satisfaction_degrees``'s result after its
    first call.
    """

    def __init__(self, summaries: list[ConceptSummary], covers=None):
        ids = [s.id for s in summaries]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate summary ids")
        intents = [s.intent for s in summaries]
        if len(set(intents)) != len(intents):
            raise DataError("duplicate summary intents")
        if covers is None:
            covers = [(ids[child], ids[parent]) for child, parent in cover_edges(intents)]

        roots = [s for s in summaries if not s.intent]
        if len(roots) > 1:
            raise DataError("more than one empty-intent summary")
        if roots:
            root = roots[0]
        else:
            if SYNTHETIC_ROOT_ID in ids:
                raise DataError(f"cannot synthesize root: id {SYNTHETIC_ROOT_ID!r} taken")
            tuples = sorted({tid for s in summaries for tid in s.extent})
            root = ConceptSummary(SYNTHETIC_ROOT_ID, {tid: 1.0 for tid in tuples}, frozenset())
            summaries = [root] + list(summaries)

        self.summaries: dict[str, ConceptSummary] = {s.id: s for s in summaries}
        self.root = root.id
        self.children: dict[str, list[str]] = {s.id: [] for s in summaries}
        self._parents: dict[str, list[str]] = {s.id: [] for s in summaries}
        for child, parent in covers:
            self.children[parent].append(child)
            self._parents[child].append(parent)
        if not roots:
            for sid in ids:
                if not self._parents[sid]:
                    self.children[root.id].append(sid)
                    self._parents[sid].append(root.id)
        for cid in self.children:
            self.children[cid].sort()
            self._parents[cid].sort()
        self.sd_memo: Mapping[str, float] | None = None

    def __len__(self) -> int:
        return len(self.summaries)

    def summary(self, sid: str) -> ConceptSummary:
        try:
            return self.summaries[sid]
        except KeyError:
            raise UsageError(f"no summary with id {sid!r}")

    def parents(self, sid: str) -> list[str]:
        return self._parents[sid]

    def at_level(self, level: int) -> list[ConceptSummary]:
        return sorted(
            (s for s in self.summaries.values() if s.level == level), key=lambda s: s.id
        )

    def topological(self) -> list[ConceptSummary]:
        """Root-first order; safe for longest-path sweeps because every edge
        strictly grows the intent."""
        return sorted(self.summaries.values(), key=lambda s: (s.level, s.id))

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "summaries": {
                s.id: {
                    "intent": s.intent_keys(),
                    "extent": dict(sorted(s.extent.items())),
                }
                for s in self.summaries.values()
            },
            "children": {sid: list(kids) for sid, kids in self.children.items()},
        }

    @staticmethod
    def from_dict(raw: dict) -> "SummaryHierarchy":
        entries = raw.get("summaries") if isinstance(raw, dict) else None
        if not isinstance(entries, dict):
            raise DataError("hierarchy JSON must carry a 'summaries' object")
        return SummaryHierarchy([_summary_from_dict(sid, entry) for sid, entry in entries.items()])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "SummaryHierarchy":
        return SummaryHierarchy.from_dict(read_json(path))


def _summary_from_dict(sid: str, entry) -> ConceptSummary:
    if not isinstance(entry, dict):
        raise DataError(f"summary {sid!r} is not a JSON object")
    intent = str_list(entry.get("intent", []), f"summary {sid!r}: intent")
    extent = entry.get("extent", {})
    if not isinstance(extent, dict):
        raise DataError(f"summary {sid!r}: extent is not a JSON object")
    for tid, degree in extent.items():
        if isinstance(degree, bool) or not isinstance(degree, (int, float)):
            raise DataError(f"summary {sid!r}: degree {degree!r} of {tid!r} is not a number")
        if not 0.0 <= degree <= 1.0:
            raise DataError(f"summary {sid!r}: degree {degree!r} of {tid!r} outside [0,1]")
    return ConceptSummary(
        id=sid,
        extent={tid: float(degree) for tid, degree in extent.items()},
        intent=frozenset(parse_pair(key) for key in intent),
    )


def build_hierarchy(lat: Lattice) -> SummaryHierarchy:
    """Present a concept lattice as a summary hierarchy: the same nodes and
    covering edges, intent-size levels."""
    return SummaryHierarchy(lat.concepts, lat.covers)


def lattice_section(h: SummaryHierarchy) -> dict:
    """The state file's ``lattice`` section, a view of the hierarchy: each
    concept's id and intent in root-first order, the covers (child id,
    parent id), the top (maximal extent) and the bottom (maximal intent).
    The synthesized root is no concept and is left out; extents are written
    only in the hierarchy section."""
    concepts = [s for s in h.topological() if s.id != SYNTHETIC_ROOT_ID]
    return {
        "top": max(concepts, key=lambda c: (len(c.extent), -len(c.intent))).id,
        "bottom": max(concepts, key=lambda c: (len(c.intent), -len(c.extent))).id,
        "covers": [
            [c.id, parent] for c in concepts for parent in h.parents(c.id)
            if parent != SYNTHETIC_ROOT_ID
        ],
        "concepts": [{"id": c.id, "intent": c.intent_keys()} for c in concepts],
    }
