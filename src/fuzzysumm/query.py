"""Query evaluation over a summary hierarchy.

A parsed query is rewritten into a conjunctive proposition (one clause of
alpha-cut label literals per constrained attribute), the hierarchy is
searched depth-first with insert/recurse/prune verdicts, reached summaries
are scored by their best root path, alpha-cut, and ranked.

Three match modes:

* ``strict``    – a summary answers only when every constrained attribute's
                  labels fall inside the clause set; descendants of an
                  answer are not reported again.
* ``tolerant``  – like strict, but any label overlap on an attribute counts
                  as satisfied.
* ``exhaustive``– full sweep; report every summary that overlaps the clause
                  set on every constrained attribute.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

from .domain import AttributeSpec
from .errors import SemanticError, UsageError
from .fsql import Condition, Query
from .summary import ConceptSummary, SummaryHierarchy, alpha_cut

MODES = ("strict", "tolerant", "exhaustive")

MUCH_OFFSET = 2  # vocabulary positions that make "much greater/less"


class Grade(Enum):
    SATISFIED = "satisfied"
    PARTIAL = "partial"
    PENDING = "pending"
    VIOLATED = "violated"


class Verdict(Enum):
    EXACT = "exact"
    INDECISION = "indecision"
    FALSE = "false"


@dataclass(frozen=True)
class Clause:
    attribute: str
    labels: frozenset[str]
    alpha: float


@dataclass(frozen=True)
class ConjunctiveProposition:
    clauses: tuple[Clause, ...]

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(c.attribute for c in self.clauses)

    @property
    def alpha(self) -> float:
        return max((c.alpha for c in self.clauses), default=0.0)


@dataclass(frozen=True)
class Correspondence:
    verdict: Verdict
    per_attribute: dict[str, Grade]

    def grades_with(self, *grades: Grade) -> frozenset[str]:
        return frozenset(a for a, g in self.per_attribute.items() if g in grades)


def resolve_comparator(cond: Condition, attr: AttributeSpec) -> frozenset[str]:
    """Effective label set of one condition.

    FEQ keeps the listed labels; the order comparators select by vocabulary
    position (most-inclusive pivot: min index for >=/>, max for <=/<); the
    "much" comparators demand a two-position gap past the listed extreme.
    """
    if cond.comparator.startswith("N"):
        raise SemanticError(f"unsupported comparator {cond.comparator}")
    if cond.comparator == "FEQ":
        return frozenset(cond.labels)
    if not attr.ordered:
        raise SemanticError(
            f"comparator {cond.comparator} needs an ordered vocabulary; "
            f"attribute {attr.name!r} is ftype {attr.ftype}"
        )
    indices = [attr.label(name).order_index for name in cond.labels]
    lo, hi = min(indices), max(indices)
    keep = {
        "FGEQ": lambda i: i >= lo,
        "FGT": lambda i: i > lo,
        "FLEQ": lambda i: i <= hi,
        "FLT": lambda i: i < hi,
        "MGT": lambda i: i >= hi + MUCH_OFFSET,
        "MLT": lambda i: i <= lo - MUCH_OFFSET,
    }[cond.comparator]
    selected = frozenset(lab.name for lab in attr.labels if keep(lab.order_index))
    if not selected and cond.comparator in ("MGT", "MLT"):
        raise SemanticError(
            f"{cond.comparator} {sorted(cond.labels)!r} selects no label of {attr.name!r}"
        )
    return selected


def default_alpha(query: Query, schema) -> float:
    """1 / (largest cluster count among the constrained attributes)."""
    if not query.conditions:
        raise UsageError("default alpha needs at least one condition")
    by_name = {a.name: a for a in schema}
    counts = []
    for cond in query.conditions:
        attr = by_name[cond.attribute]
        counts.append(attr.cluster_count or len(attr.labels))
    return 1.0 / max(counts)


def rewrite(query: Query, schema) -> ConjunctiveProposition:
    """One clause per constrained attribute: the effective label disjunction
    plus its cut level (SELECT-level override beats per-condition THOLD
    beats the cluster-count default)."""
    if not query.conditions:
        return ConjunctiveProposition(clauses=())
    by_name = {a.name: a for a in schema}
    fallback = default_alpha(query, schema)
    clauses = []
    for cond in query.conditions:
        labels = resolve_comparator(cond, by_name[cond.attribute])
        if not labels:
            raise SemanticError(
                f"condition on {cond.attribute!r} rewrites to an empty label set"
            )
        if query.alpha_override is not None:
            alpha = query.alpha_override
        elif cond.thold is not None:
            alpha = cond.thold
        else:
            alpha = fallback
        clauses.append(Clause(cond.attribute, labels, alpha))
    return ConjunctiveProposition(clauses=tuple(clauses))


def grade(summary: ConceptSummary, prop: ConjunctiveProposition, tolerant: bool = False) -> Correspondence:
    """Per-attribute match of a summary against the proposition.

    For each clause, with S the summary's labels on that attribute: no
    labels -> Pending, S inside the clause -> Satisfied, no overlap ->
    Violated, some overlap -> Partial (upgraded to Satisfied when
    tolerant).  Any violation makes the verdict False; all satisfied makes
    it Exact; anything else stays undecided.
    """
    per_attribute = {}
    for clause in prop.clauses:
        labels = summary.labels_on(clause.attribute)
        if not labels:
            result = Grade.PENDING
        elif labels <= clause.labels:
            result = Grade.SATISFIED
        elif labels & clause.labels:
            result = Grade.SATISFIED if tolerant else Grade.PARTIAL
        else:
            result = Grade.VIOLATED
        per_attribute[clause.attribute] = result

    grades = set(per_attribute.values())
    if Grade.VIOLATED in grades:
        verdict = Verdict.FALSE
    elif grades <= {Grade.SATISFIED}:
        verdict = Verdict.EXACT
    else:
        verdict = Verdict.INDECISION
    return Correspondence(verdict=verdict, per_attribute=per_attribute)


def overlaps_everywhere(summary: ConceptSummary, prop: ConjunctiveProposition) -> bool:
    """Exhaustive-mode filter: positive label overlap on every clause."""
    return all(summary.labels_on(c.attribute) & c.labels for c in prop.clauses)


@dataclass
class SearchOutcome:
    results: list  # summary ids, deterministic order
    trace: dict  # summary id -> Correspondence for every visited node
    mode: str
    pruned: set  # ids whose subtree the walk refused to enter


def search(h: SummaryHierarchy, prop: ConjunctiveProposition, mode: str = "strict") -> SearchOutcome:
    """Depth-first walk from the root.

    Strict/tolerant: an exact summary is reported and its subtree skipped,
    undecided nodes recurse, violated nodes prune; reported summaries that
    sit under another reported summary (reachable through a different
    lattice path) are dropped so only the most general answers remain.
    Exhaustive: walk everything, keep every summary passing the overlap
    filter.  Nodes are visited once regardless of how many paths reach
    them, children in id order.
    """
    if mode not in MODES:
        raise UsageError(f"unknown match mode {mode!r}")
    tolerant = mode == "tolerant"
    exhaustive = mode == "exhaustive"
    visited = set()
    results = []
    trace = {}
    pruned = set()

    def visit(sid):
        if sid in visited:
            return
        visited.add(sid)
        summary = h.summary(sid)
        corr = grade(summary, prop, tolerant=tolerant)
        trace[sid] = corr
        if exhaustive:
            if overlaps_everywhere(summary, prop):
                results.append(sid)
            for child in h.children[sid]:
                visit(child)
            return
        if corr.verdict is Verdict.EXACT:
            results.append(sid)
        elif corr.verdict is Verdict.INDECISION:
            for child in h.children[sid]:
                visit(child)
        else:
            pruned.add(sid)

    visit(h.root)
    if not exhaustive:
        results = _keep_maximal(h, results)
    return SearchOutcome(results=results, trace=trace, mode=mode, pruned=pruned)


def _keep_maximal(h: SummaryHierarchy, ids: list) -> list:
    """Drop results lying strictly below another result: one walk from the
    results' children marks everything below some result."""
    below = set()
    stack = [child for sid in ids for child in h.children[sid]]
    while stack:
        node = stack.pop()
        if node not in below:
            below.add(node)
            stack.extend(h.children[node])
    return [sid for sid in ids if sid not in below]


def edge_overlap(child: dict[str, float], parent: dict[str, float], parent_sigma: float) -> float:
    """Sigma-count Jaccard of two extents: the sum of pointwise mins over
    the sum of pointwise maxes across both extents' tuples, 0 when both are
    empty, in one pass over the child's extent.

    With degrees >= 0 and ``parent_sigma`` the sum of the parent's degrees,
    sum(min) = sum over the child of min(a, b), and
    sum(max) = parent_sigma + sum over the child of max(0, a - b)."""
    inter = excess = 0.0
    get = parent.get
    for key, a in child.items():
        b = get(key, 0.0)
        if a <= b:
            inter += a
        else:
            inter += b
            excess += a - b
    union = parent_sigma + excess
    if union == 0.0:
        return 0.0
    return inter / union


def satisfaction_degrees(h: SummaryHierarchy) -> Mapping:
    """Best root-to-summary path sum of per-edge extent overlaps, for every
    summary at once (longest path over the level-ordered DAG).

    Each edge costs one pass over the child's extent (``edge_overlap``),
    with every summary's sigma-count taken once per sweep.  The sweep runs
    once per hierarchy object, on first use; later calls return the same
    read-only mapping (hierarchies never change after construction)."""
    if h.sd_memo is not None:
        return h.sd_memo
    sigma = {sid: math.fsum(s.extent.values()) for sid, s in h.summaries.items()}
    sd = {h.root: 0.0}
    for summary in h.topological():
        if summary.id == h.root:
            continue
        best = None
        for pid in h.parents(summary.id):
            if pid not in sd:
                continue
            total = sd[pid] + edge_overlap(summary.extent, h.summaries[pid].extent, sigma[pid])
            if best is None or total > best:
                best = total
        if best is not None:
            sd[summary.id] = best
    h.sd_memo = MappingProxyType(sd)
    return h.sd_memo


@dataclass(frozen=True)
class RankedResult:
    summary_id: str
    intent: tuple[str, ...]
    sd: float
    alpha: float
    extent: dict[str, float]
    match_mode: str

    def to_dict(self) -> dict:
        return {
            "summary_id": self.summary_id,
            "intent": list(self.intent),
            "sd": self.sd,
            "alpha": self.alpha,
            "extent": dict(sorted(self.extent.items())),
            "match_mode": self.match_mode,
        }


def top_k(
    h: SummaryHierarchy,
    outcome: SearchOutcome,
    prop: ConjunctiveProposition,
    k: int | None = None,
) -> list[RankedResult]:
    """Alpha-cut the found summaries, drop the emptied ones, rank by
    satisfaction degree (ties: larger extent, then intent), keep k."""
    if k is not None and k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    sds = satisfaction_degrees(h)
    alpha = prop.alpha
    ranked = []
    for sid in outcome.results:
        summary = h.summary(sid)
        cut = alpha_cut(summary, alpha)
        if not cut:
            continue
        ranked.append(
            RankedResult(
                summary_id=sid,
                intent=tuple(summary.intent_keys()),
                sd=sds[sid],
                alpha=alpha,
                extent=cut,
                match_mode=outcome.mode,
            )
        )
    ranked.sort(key=lambda r: (-r.sd, -len(r.extent), r.intent))
    return ranked[:k] if k is not None else ranked


def evaluate(
    h: SummaryHierarchy,
    schema,
    query: Query,
    mode: str = "strict",
    k: int | None = None,
) -> tuple[ConjunctiveProposition, SearchOutcome, list[RankedResult]]:
    """parse-free pipeline tail: rewrite, search, rank."""
    prop = rewrite(query, schema)
    outcome = search(h, prop, mode=mode)
    results = top_k(h, outcome, prop, k=k if k is not None else query.k)
    return prop, outcome, results
