"""Empty-answer repair: find where the search died and propose label
substitutions that are guaranteed to return something.

When a query comes back empty, the hierarchy is re-graded in full and the
failure frontier is located: the shallowest summaries that show positive
evidence (label overlap with the query on some constrained attribute) yet
fail on another (violated labels, or a leaf with the attribute still
undescribed).  If nothing overlaps anywhere, the frontier falls back to
the deepest still-undecided dead ends.  Each failure node proposes a
substitution: the failed attribute's labels are replaced by the labels of
the node's highest-distance children (all ties pooled), or the node's own
labels when no child refines that attribute.  Substitutions are re-run in
the original match mode and only the ones with nonempty answers survive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UsageError
from .fsql import Condition, Query
from .query import (
    ConjunctiveProposition,
    Grade,
    RankedResult,
    SearchOutcome,
    Verdict,
    evaluate,
    grade,
)
from .summary import ConceptSummary, SummaryHierarchy


@dataclass(frozen=True)
class FailureNode:
    summary_id: str
    failed_attributes: frozenset[str]
    intent: tuple[str, ...] = ()


@dataclass(frozen=True)
class SubstitutionQuery:
    query: Query
    replaced: dict[str, tuple[str, ...]]
    distance: int
    source: str  # failure node id whose neighbourhood supplied the labels
    results: tuple[RankedResult, ...] = ()


@dataclass
class RepairReport:
    original: Query
    mode: str
    failure_nodes: list[FailureNode] = field(default_factory=list)
    substitutions: list[SubstitutionQuery] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "original_query": self.original.text or self.original.render(),
            "mode": self.mode,
            "failure_nodes": [
                {
                    "summary_id": node.summary_id,
                    "intent": list(node.intent),
                    "failed_attributes": sorted(node.failed_attributes),
                }
                for node in self.failure_nodes
            ],
            "substitutions": [
                {
                    "query": sub.query.render(),
                    "distance": sub.distance,
                    "source": sub.source,
                    "replaced": {a: list(ls) for a, ls in sorted(sub.replaced.items())},
                    "results": [r.to_dict() for r in sub.results],
                }
                for sub in self.substitutions
            ],
            "diagnostics": list(self.diagnostics),
        }


def distance(query: Query, summary: ConceptSummary) -> int:
    """Number of the query's listed labels that reappear in the summary's
    intent, summed over the constrained attributes."""
    total = 0
    for cond in query.conditions:
        total += len(set(cond.labels) & summary.labels_on(cond.attribute))
    return total


def _full_grades(h: SummaryHierarchy, prop: ConjunctiveProposition, outcome: SearchOutcome):
    grades = {}
    for sid, summary in h.summaries.items():
        corr = outcome.trace.get(sid) if outcome.mode == "strict" else None
        grades[sid] = corr if corr is not None else grade(summary, prop)
    return grades


def detect_failures(
    outcome: SearchOutcome, h: SummaryHierarchy, prop: ConjunctiveProposition
) -> list[FailureNode]:
    """Failure frontier of an empty search.

    A candidate overlaps the query on at least one constrained attribute
    and fails on at least one (violated, or pending at a leaf); the
    frontier keeps candidates with no candidate above them.  Without any
    candidate the deepest undecided dead ends are blamed instead, carrying
    their violated children's attributes.
    """
    if outcome.results:
        raise UsageError("failure detection expects an empty result list")
    grades = _full_grades(h, prop, outcome)
    leaves = {sid for sid in h.summaries if not h.children[sid]}

    def failed_attrs(sid) -> frozenset[str]:
        corr = grades[sid]
        failed = set(corr.grades_with(Grade.VIOLATED))
        if sid in leaves:
            failed |= corr.grades_with(Grade.PENDING)
        return frozenset(failed)

    def overlapping_attrs(sid) -> frozenset[str]:
        return grades[sid].grades_with(Grade.SATISFIED, Grade.PARTIAL)

    candidates = {
        sid for sid in h.summaries if overlapping_attrs(sid) and failed_attrs(sid)
    }
    order = [s.id for s in h.topological()]
    if candidates:
        # root-first: a node lies below a candidate when one of its parents
        # is a candidate or lies below one
        below = set()
        for sid in order:
            if any(p in candidates or p in below for p in h.parents(sid)):
                below.add(sid)
        return [
            FailureNode(sid, failed_attrs(sid), tuple(h.summary(sid).intent_keys()))
            for sid in sorted(candidates - below)
        ]

    # no positive evidence anywhere: blame the deepest undecided dead ends
    undecided = {sid for sid, corr in grades.items() if corr.verdict is Verdict.INDECISION}
    # leaf-first: a node has an undecided descendant when one of its
    # children is undecided or has one
    above = set()
    for sid in reversed(order):
        if any(c in undecided or c in above for c in h.children[sid]):
            above.add(sid)
    frontier = undecided - above
    nodes = []
    for sid in sorted(frontier):
        blamed = set(failed_attrs(sid))
        for child in h.children[sid]:
            blamed |= grades[child].grades_with(Grade.VIOLATED)
        nodes.append(FailureNode(sid, frozenset(blamed), tuple(h.summary(sid).intent_keys())))
    return nodes


def _vocabulary_order(schema, attr_name: str, labels) -> tuple[str, ...]:
    attr = next(a for a in schema if a.name == attr_name)
    return tuple(sorted(labels, key=lambda name: attr.label(name).order_index))


def propose_substitutions(
    query: Query,
    failures: list[FailureNode],
    h: SummaryHierarchy,
    schema,
    mode: str = "strict",
) -> tuple[list[SubstitutionQuery], list[str]]:
    """One candidate substitution per failure node, re-evaluated in the
    given mode; only nonempty ones are returned, best distance first."""
    if not failures:
        raise UsageError("no failure nodes to repair from")
    condition_attrs = {c.attribute for c in query.conditions}
    substitutions = []
    diagnostics = []
    seen_texts = set()

    for node in failures:
        summary = h.summary(node.summary_id)
        relevant = sorted(node.failed_attributes & condition_attrs)
        if not relevant:
            diagnostics.append(
                f"failure node {node.summary_id}: no constrained attribute to replace"
            )
            continue
        replaced = {}
        source_distance = distance(query, summary)
        for attr_name in relevant:
            refining = [
                h.summary(child)
                for child in h.children[node.summary_id]
                if h.summary(child).labels_on(attr_name)
            ]
            if refining:
                best = max(distance(query, child) for child in refining)
                pool = [c for c in refining if distance(query, c) == best]
                labels = frozenset().union(*(c.labels_on(attr_name) for c in pool))
                source_distance = max(source_distance, best)
            else:
                labels = summary.labels_on(attr_name)
            if not labels:
                diagnostics.append(
                    f"failure node {node.summary_id}: no alternative labels for "
                    f"{attr_name!r} anywhere"
                )
                continue
            replaced[attr_name] = _vocabulary_order(schema, attr_name, labels)
        if not replaced:
            continue

        new_conditions = []
        for cond in query.conditions:
            if cond.attribute in replaced:
                new_conditions.append(
                    Condition(cond.attribute, "FEQ", replaced[cond.attribute], cond.thold)
                )
            else:
                new_conditions.append(cond)
        candidate = Query(
            relation=query.relation,
            projection=query.projection,
            conditions=tuple(new_conditions),
            k=query.k,
            alpha_override=query.alpha_override,
        )
        text = candidate.render()
        if text in seen_texts:
            continue
        seen_texts.add(text)

        _, _, results = evaluate(h, schema, candidate, mode=mode)
        if not results:
            diagnostics.append(
                f"failure node {node.summary_id}: substitution {text!r} still empty"
            )
            continue
        substitutions.append(
            SubstitutionQuery(
                query=candidate,
                replaced=replaced,
                distance=source_distance,
                source=node.summary_id,
                results=tuple(results),
            )
        )

    substitutions.sort(key=lambda s: (-s.distance, -len(s.results), s.source))
    return substitutions, diagnostics


def repair(
    query: Query,
    h: SummaryHierarchy,
    schema,
    prop: ConjunctiveProposition,
    outcome: SearchOutcome,
) -> RepairReport:
    """Full repair pass for an empty answer: locate failures, synthesize and
    vet substitutions, report.

    When the search found summaries and only the alpha cut emptied them,
    no search failed: the report carries no failure node and no
    substitution, and its diagnostic names the cut and the largest alpha
    that keeps an answer."""
    report = RepairReport(original=query, mode=outcome.mode)
    if outcome.results:
        degrees = [d for sid in outcome.results for d in h.summary(sid).extent.values()]
        kept = (f"their highest degree, {max(degrees):g}, is the largest alpha that keeps "
                "an answer" if degrees else "they cover no tuple")
        report.diagnostics.append(
            f"alpha cut at {prop.alpha:g} emptied every summary the search found "
            f"({len(outcome.results)}); {kept}"
        )
        return report
    report.failure_nodes = detect_failures(outcome, h, prop)
    if not report.failure_nodes:
        report.diagnostics.append("no failure frontier found")
        return report
    report.substitutions, diags = propose_substitutions(
        query, report.failure_nodes, h, schema, mode=outcome.mode
    )
    report.diagnostics.extend(diags)
    return report
