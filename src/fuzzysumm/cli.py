"""Command-line front end: build the summary hierarchy, query it, repair
empty answers, inspect and export artifacts.

Subcommands::

    build    --schema S (--data CSV | --context JSON | --hierarchy JSON)
             [--threshold T] [--seed N] --out STATE
    query    STATE QUERY [--mode M] [--k N] [--alpha A] [--format F]
    repl     STATE [--mode M] [--k N]
    inspect  STATE (--id ID | --level N) [--format F]
    export   STATE --what schema|context|lattice|hierarchy --out FILE

Query exit codes: 0 answers found, 2 empty but repairable (substitutions
proposed), 3 empty with no viable substitution, 1 bad input.  Results go
to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .clustering import dataset_to_context, load_dataset_csv
from .domain import load_schema, read_json, schema_from_dict, schema_to_dict
from .errors import DataError, FuzzysummError, ParseError, SemanticError, UsageError
from .fsql import Query, parse_query
from .lattice import FuzzyContext, build_lattice, enumerate_concepts
from .query import MODES, evaluate, satisfaction_degrees
from .repair import RepairReport, repair
from .summary import SummaryHierarchy, build_hierarchy, lattice_section


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@dataclasses.dataclass
class ProjectState:
    schema: tuple
    hierarchy: SummaryHierarchy
    context: FuzzyContext | None = None
    meta: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        """The state file; the ``lattice`` section is a view of the
        hierarchy, written for states built from a context and never read
        back."""
        return {
            "meta": self.meta,
            "schema": schema_to_dict(self.schema),
            "context": self.context.to_dict() if self.context else None,
            "lattice": lattice_section(self.hierarchy) if self.context else None,
            "hierarchy": self.hierarchy.to_dict(),
        }

    def save(self, path) -> None:
        """Compact JSON: without ``indent`` the C encoder writes it."""
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        Path(path).write_text(text + "\n", encoding="utf-8")

    @staticmethod
    def load(path) -> "ProjectState":
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise DataError(f"project state {path} is not a JSON object")
        missing = [key for key in ("schema", "hierarchy") if key not in raw]
        if missing:
            raise DataError(f"project state {path} lacks {', '.join(missing)}")
        return ProjectState(
            schema=schema_from_dict(raw["schema"]),
            hierarchy=SummaryHierarchy.from_dict(raw["hierarchy"]),
            context=FuzzyContext.from_dict(raw["context"]) if raw.get("context") else None,
            meta=raw.get("meta", {}),
        )


def build_state(
    schema_path,
    data_path=None,
    context_path=None,
    hierarchy_path=None,
    threshold: float = 0.5,
    seed: int = 0,
) -> ProjectState:
    """Run the pipeline from whichever artifact is supplied.

    CSV data is clustered into a context; a context is turned into a
    lattice and hierarchy; a ready-made hierarchy is loaded as-is.
    """
    supplied = [p for p in (data_path, context_path, hierarchy_path) if p]
    if len(supplied) != 1:
        raise UsageError("supply exactly one of a data CSV, a context JSON, or a hierarchy JSON")
    schema = load_schema(schema_path)

    context = None
    if data_path:
        dataset = load_dataset_csv(data_path, schema)
        context = dataset_to_context(dataset, seed=seed)
        source = str(data_path)
    elif context_path:
        context = FuzzyContext.load(context_path)
        source = str(context_path)
    else:
        source = str(hierarchy_path)

    if context is not None:
        hierarchy = build_hierarchy(build_lattice(enumerate_concepts(context, threshold)))
    else:
        hierarchy = SummaryHierarchy.load(hierarchy_path)

    meta = {"threshold": threshold, "seed": seed, "source": source}
    return ProjectState(schema=schema, hierarchy=hierarchy, context=context, meta=meta)


# -- rendering ---------------------------------------------------------------


def _fmt_extent(extent: dict) -> str:
    return "{" + ", ".join(f"{t}:{d:g}" for t, d in sorted(extent.items())) + "}"


def render_results_table(results) -> str:
    if not results:
        return "no results\n"
    lines = [f"{'#':>2}  {'summary':<10} {'sd':>8}  {'alpha':>5}  extent / intent"]
    for rank, r in enumerate(results, start=1):
        lines.append(
            f"{rank:>2}  {r.summary_id:<10} {r.sd:>8.4f}  {r.alpha:>5.2f}  "
            f"{_fmt_extent(r.extent)}  [{', '.join(r.intent)}]"
        )
    return "\n".join(lines) + "\n"


def render_repair_table(report: RepairReport) -> str:
    lines = ["query returned nothing; failure analysis:"]
    for node in report.failure_nodes:
        lines.append(
            f"  failed at {node.summary_id} on {', '.join(sorted(node.failed_attributes))}"
        )
    if report.substitutions:
        lines.append("proposed substitutions:")
        for idx, sub in enumerate(report.substitutions, start=1):
            lines.append(f"  [{idx}] (distance {sub.distance}) {sub.query.render()}")
            lines.append(
                f"      -> {len(sub.results)} result(s): "
                + ", ".join(r.summary_id for r in sub.results)
            )
    else:
        lines.append("no viable substitution found")
    for note in report.diagnostics:
        lines.append(f"  note: {note}")
    return "\n".join(lines) + "\n"


def _query_payload(query: Query, mode: str, results, report: RepairReport | None) -> dict:
    payload = {
        "query": query.text or query.render(),
        "mode": mode,
        "results": [r.to_dict() for r in results],
    }
    if report is not None:
        payload["repair"] = report.to_dict()
    return payload


def run_query(state: ProjectState, text: str, mode: str, k: int | None, alpha: float | None):
    """Parse, evaluate and (when empty) repair one query.

    Returns (exit code, payload dict, results, report).
    """
    query = parse_query(text, state.schema)
    if alpha is not None:
        query = dataclasses.replace(query, alpha_override=alpha)
    prop, outcome, results = evaluate(state.hierarchy, state.schema, query, mode=mode, k=k)
    if results:
        return 0, _query_payload(query, mode, results, None), results, None
    report = repair(query, state.hierarchy, state.schema, prop, outcome)
    code = 2 if report.substitutions else 3
    return code, _query_payload(query, mode, results, report), results, report


# -- subcommands -------------------------------------------------------------


def cmd_build(args) -> int:
    state = build_state(
        args.schema,
        data_path=args.data,
        context_path=args.context,
        hierarchy_path=args.hierarchy,
        threshold=args.threshold,
        seed=args.seed,
    )
    state.save(args.out)
    print(f"built {args.out}: {len(state.hierarchy)} summaries", file=sys.stderr)
    return 0


def cmd_query(args) -> int:
    state = ProjectState.load(args.state)
    code, payload, results, report = run_query(
        state, args.query, mode=args.mode, k=args.k, alpha=args.alpha
    )
    if args.format == "json":
        sys.stdout.write(dumps(payload))
    else:
        sys.stdout.write(render_results_table(results) if results else render_repair_table(report))
    return code


def cmd_repl(args) -> int:
    state = ProjectState.load(args.state)
    mode = args.mode
    k = args.k
    pending: list = []
    print(f"{len(state.hierarchy)} summaries loaded; \\mode, \\k, \\quit to control", file=sys.stderr)
    while True:
        sys.stdout.write("> ")
        sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        if line.startswith("\\"):
            parts = line[1:].split()
            command = parts[0].lower() if parts else ""
            if command == "quit":
                break
            if command == "mode" and len(parts) == 2 and parts[1] in MODES:
                mode = parts[1]
                print(f"mode = {mode}")
            elif command == "k" and len(parts) == 2 and parts[1].isdigit() and int(parts[1]) >= 1:
                k = int(parts[1])
                print(f"k = {k}")
            else:
                print(f"bad meta-command: {line}", file=sys.stderr)
            continue
        if line.isdigit() and pending:
            idx = int(line)
            if not (1 <= idx <= len(pending)):
                print(f"no substitution [{idx}]", file=sys.stderr)
                continue
            sub = pending[idx - 1]
            _, _, results = evaluate(state.hierarchy, state.schema, sub.query, mode=mode, k=k)
            sys.stdout.write(render_results_table(results))
            pending = []
            continue
        try:
            code, _, results, report = run_query(state, line, mode=mode, k=k, alpha=None)
        except FuzzysummError as exc:
            print(f"error: {exc}", file=sys.stderr)
            continue
        if code == 0:
            sys.stdout.write(render_results_table(results))
            pending = []
        else:
            sys.stdout.write(render_repair_table(report))
            pending = list(report.substitutions)
            if pending:
                sys.stdout.write("enter a substitution number to run it\n")
    return 0


def cmd_inspect(args) -> int:
    state = ProjectState.load(args.state)
    h = state.hierarchy
    if args.id is not None:
        chosen = [h.summary(args.id)]
    else:
        chosen = h.at_level(args.level)
        if not chosen:
            print(f"no summaries at level {args.level}", file=sys.stderr)
            return 1
    sds = satisfaction_degrees(h)
    if args.format == "json":
        payload = [
            {
                "summary_id": s.id,
                "level": s.level,
                "intent": s.intent_keys(),
                "extent": dict(sorted(s.extent.items())),
                "sd": sds[s.id],
                "children": h.children[s.id],
            }
            for s in chosen
        ]
        sys.stdout.write(dumps(payload))
    else:
        for s in chosen:
            print(f"{s.id} (level {s.level}, sd {sds[s.id]:.4f})")
            print(f"  intent: [{', '.join(s.intent_keys())}]")
            print(f"  extent: {_fmt_extent(s.extent)}")
            print(f"  children: {', '.join(h.children[s.id]) or '-'}")
    return 0


def cmd_export(args) -> int:
    artifact = ProjectState.load(args.state).to_dict()[args.what]
    if artifact is None:
        print(f"state holds no {args.what} (built from a hierarchy fixture?)", file=sys.stderr)
        return 1
    Path(args.out).write_text(dumps(artifact), encoding="utf-8")
    print(f"exported {args.what} to {args.out}", file=sys.stderr)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzysumm",
        description="fuzzy concept-summary hierarchies: build, query, repair",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="ingest data and persist the project state")
    p.add_argument("--schema", required=True, help="schema JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="dataset CSV")
    group.add_argument("--context", help="precomputed fuzzy context JSON")
    group.add_argument("--hierarchy", help="precomputed summary hierarchy JSON")
    p.add_argument("--threshold", type=float, default=0.5, help="confidence threshold T")
    p.add_argument("--seed", type=int, default=0, help="clustering seed")
    p.add_argument("--out", required=True, help="state file to write")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="evaluate one query")
    p.add_argument("state")
    p.add_argument("query")
    p.add_argument("--mode", choices=MODES, default="strict")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("repl", help="interactive query loop with inline repair")
    p.add_argument("state")
    p.add_argument("--mode", choices=MODES, default="strict")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_repl)

    p = sub.add_parser("inspect", help="pretty-print summaries")
    p.add_argument("state")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", help="summary id")
    group.add_argument("--level", type=int, help="hierarchy level")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("export", help="write one artifact as JSON")
    p.add_argument("state")
    p.add_argument("--what", choices=("schema", "context", "lattice", "hierarchy"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SemanticError) as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 1
    except FuzzysummError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
