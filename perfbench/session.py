"""The three benchmark workloads and the session every one of them runs.

Each workload is one closed-loop, single-threaded user session in one
process: set up the inputs, build project states through
``fuzzysumm.cli.main(["build", ...])``, answer a query mix warm through
``cli.run_query`` on loaded states (the REPL path), then re-run a subset
cold through ``main(["query", ...])``, which reloads the state every call.
The workloads differ in the shape of the table, which decides the layer
that dominates (see ``WORKLOADS``), and in how many builds and queries
they run.  Every workload reports every end-to-end metric, so one bound
per metric applies to all of them.

Where concept counts vary between tables, a run draws several independent
tables from its seed, so one unusual table moves a run's medians less.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import resource
import statistics
import time
from pathlib import Path

import gen
from spans import Tracer


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    tuples: int
    numeric: int  # correlated numeric columns, labels Low/Mid/High
    rho: float  # loading of every column on the shared latent
    threshold: float  # confidence threshold T of the build
    category: bool  # add the unordered label column Cat
    tables: int  # independent tables drawn from the seed
    build_in_setup: bool  # query-mix: states are built (and timed) in set-up
    min_build_rounds: int  # rounds of building every table once
    warm_queries: int
    cold_queries: int


# Why each workload was chosen, and its realized size: BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="build-wide",
            tuples=400, numeric=5, rho=0.9, threshold=0.25, category=False, tables=6,
            build_in_setup=False, min_build_rounds=1, warm_queries=60, cold_queries=4,
        ),
        Workload(
            name="build-tall",
            tuples=8000, numeric=3, rho=0.97, threshold=0.3, category=True, tables=1,
            build_in_setup=False, min_build_rounds=2, warm_queries=12, cold_queries=2,
        ),
        Workload(
            name="query-mix",
            tuples=250, numeric=5, rho=0.9, threshold=0.25, category=False, tables=6,
            build_in_setup=True, min_build_rounds=0, warm_queries=120, cold_queries=18,
        ),
    )
}


SETUP_SECONDS = 1.0
SETUP_MAX = 30


@dataclasses.dataclass
class Table:
    """One generated input and the state built from it."""

    schema: dict
    schema_path: Path
    data_path: Path
    state_path: Path
    csv_sha: str
    counts: tuple | None = None  # (concepts, edges) of its first build


@dataclasses.dataclass
class Measurements:
    setup_s: list = dataclasses.field(default_factory=list)
    build_s: list = dataclasses.field(default_factory=list)
    warm_ms: dict = dataclasses.field(default_factory=dict)  # query index -> ms, if it did not fail
    warm_codes: dict = dataclasses.field(default_factory=dict)  # query index -> exit code
    warm_busy_s: float = 0.0  # summed latency of every warm query, failed ones too
    cold_ms: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    traced_s: float = 0.0  # paired operations, trace mode only
    untraced_s: float = 0.0


class Session:
    """One run of one workload: ``run()`` returns the result object that
    the benchmark prints as its last line."""

    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path,
                 trace: bool = False):
        from fuzzysumm import cli

        self.cli = cli
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = workdir
        self.tracer = Tracer() if trace else None
        self.failures: list[str] = []  # failed output checks
        self.m = Measurements()
        self.tables: list[Table] = []
        self.samples: dict = {}  # end_to_end(), taken while the work files exist
        self._pairs = 0  # operations run both untraced and traced

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    # -- operations ----------------------------------------------------------

    def _timed(self, rid: str, name: str, fn, *args):
        """(seconds, outcome) of one operation.  In trace mode it runs twice,
        untraced and traced (as the root span of request `rid`), in turns
        first, so neither side always pays for a cold start; the untraced
        run gives the seconds, the traced one the outcome and the spans, and
        the pair feeds the tracing overhead."""
        if self.tracer is None:
            start = time.perf_counter()
            outcome = fn(*args)
            return time.perf_counter() - start, outcome
        self._pairs += 1
        for traced in (False, True) if self._pairs % 2 else (True, False):
            start = time.perf_counter()
            if traced:
                with self.tracer.installed(), self.tracer.request(rid, name) as call:
                    start = time.perf_counter()
                    outcome = call(fn, *args)
                    self.m.traced_s += time.perf_counter() - start
            else:
                fn(*args)
                untraced = time.perf_counter() - start
        self.m.untraced_s += untraced
        return untraced, outcome

    def _main(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _build(self, rid: str, table: Table) -> float:
        argv = ["build", "--schema", str(table.schema_path), "--data", str(table.data_path),
                "--threshold", repr(self.w.threshold), "--seed", "0",
                "--out", str(table.state_path)]
        self.m.attempted += 1
        elapsed, (code, _, err) = self._timed(rid, "cli.main", self._main, argv)
        if code != 0:
            self.m.failed += 1
            raise RuntimeError(f"build failed with exit {code}: {err.strip()}")
        return elapsed

    def _check_build(self, table: Table) -> None:
        """Repeated builds of one table give the same concept and edge counts."""
        raw = json.loads(table.state_path.read_text(encoding="utf-8"))
        counts = (len(raw["lattice"]["concepts"]),
                  sum(len(kids) for kids in raw["hierarchy"]["children"].values()))
        if table.counts is None:
            table.counts = counts
        self.expect(counts == table.counts,
                    f"repeated build gave (concepts, edges) {counts}, first {table.counts}")

    def _generate(self, index: int) -> Table:
        schema, csv_text = gen.make_table(self.seed, index, self.w.tuples, self.w.numeric,
                                          self.w.rho, self.w.category)
        tdir = self.dir / f"table{index}"
        tdir.mkdir(exist_ok=True)
        schema_path, data_path = gen.write_inputs(tdir, schema, csv_text)
        return Table(schema, schema_path, data_path, tdir / "state.json",
                     hashlib.sha256(csv_text.encode()).hexdigest())

    # -- phases --------------------------------------------------------------

    def setup(self) -> None:
        """Generate every table (for query-mix also build and save its
        state), then the first one again, which checks that one seed gives
        the same bytes.  Cheap set-ups go on cycling through the tables for
        up to SETUP_SECONDS, so their median rests on more samples."""
        start = time.perf_counter()
        i = 0
        while i <= self.w.tables or (
            i < SETUP_MAX and time.perf_counter() - start < SETUP_SECONDS
        ):
            index = i % self.w.tables
            t0 = time.perf_counter()
            table = self._generate(index)
            if self.w.build_in_setup:
                self.m.build_s.append(self._build(f"setup-{i}", table))
            self.m.setup_s.append(time.perf_counter() - t0)
            if index < len(self.tables):
                self.expect(table.csv_sha == self.tables[index].csv_sha,
                            f"seed {self.seed} gave two different tables {index}")
                table.counts = self.tables[index].counts
                self.tables[index] = table
            else:
                self.tables.append(table)
            if self.w.build_in_setup:
                self._check_build(table)
            i += 1

    def builds(self) -> None:
        """Rounds over all tables while they fit in --seconds, then the
        first table once more: repeated builds must agree."""
        if self.w.build_in_setup:
            return
        start = time.perf_counter()
        rounds = 0
        while rounds < self.w.min_build_rounds or (
            self.tracer is None and _fits(time.perf_counter() - start, rounds, self.seconds)
        ):
            for index, table in enumerate(self.tables):
                self.m.build_s.append(self._build(f"build-{rounds}-{index}", table))
                self._check_build(table)
            rounds += 1
            if self.tracer is not None:
                break  # each build already ran twice, untraced and traced
        self.m.build_s.append(self._build("build-repeat", self.tables[0]))
        self._check_build(self.tables[0])

    def load(self, index: int, table: Table):
        """Reload one built state (the check that it reloads) and check that
        every hierarchy edge is a strict intent inclusion."""
        # looked up at call time, so that in trace mode the wrapped load runs
        _, state = self._timed(f"load-{index}", "cli.load_state",
                               lambda path: self.cli.ProjectState.load(path), table.state_path)
        h = state.hierarchy
        bad = [(p, c) for p, kids in h.children.items() for c in kids
               if not h.summaries[p].intent < h.summaries[c].intent]
        self.expect(not bad, f"{len(bad)} hierarchy edges are not strict intent "
                             f"inclusions, e.g. {bad[:3]}")
        self.expect(len(h) == table.counts[0] + (h.root == "root"),
                    f"reloaded state has {len(h)} summaries, build had {table.counts[0]}")
        return state

    def warm(self, queries) -> list:
        """Query i runs on table i mod tables, closed loop.  One state is
        loaded at a time, as in a REPL session, so the heap the garbage
        collector walks does not grow with the number of tables.  Returns
        the payload text per query (None when it failed)."""
        payloads: list = [None] * len(queries)
        for index, table in enumerate(self.tables):
            state = self.load(index, table)
            for i in range(index, len(queries), len(self.tables)):
                text, mode = queries[i]
                self.m.attempted += 1
                elapsed, outcome = self._timed(f"query-{i}", "cli.run_query", self._query,
                                               state, text, mode)
                self.m.warm_busy_s += elapsed
                if outcome is None:
                    self.m.failed += 1
                    self.m.warm_codes[i] = "failed"
                    continue
                code, payload, results, report = outcome
                payloads[i] = self.cli.dumps(payload)
                self.m.warm_codes[i] = code
                self.m.warm_ms[i] = elapsed * 1000.0
                self._check_answer(text, code, results, report)
            del state
        self.m.digest = hashlib.sha256(
            "\n".join(_rounded(p) if p is not None else "failed" for p in payloads).encode()
        ).hexdigest()
        return payloads

    def _query(self, state, text, mode):
        """run_query's result, or None when it raised: a valid generated
        query that raises counts as a failed operation."""
        from fuzzysumm.errors import FuzzysummError

        try:
            return self.cli.run_query(state, text, mode, None, None)
        except FuzzysummError:
            return None

    def _check_answer(self, text, code, results, report) -> None:
        k = _select_k(text)
        self._check_ranked(text, results, k)
        if code == 0:
            self.expect(bool(results), f"exit 0 with no results: {text!r}")
        elif code == 2:
            self.expect(bool(report.substitutions), f"exit 2 without substitutions: {text!r}")
            for sub in report.substitutions:
                self.expect(bool(sub.results), f"empty substitution for {text!r}")
                self._check_ranked(sub.query.render(), list(sub.results), k)
        elif code == 3:
            self.expect(not report.substitutions, f"exit 3 with substitutions: {text!r}")
        else:
            self.expect(False, f"unexpected exit {code} for {text!r}")

    def _check_ranked(self, text, results, k) -> None:
        for r in results:
            self.expect(bool(r.extent) and all(d >= r.alpha for d in r.extent.values()),
                        f"result {r.summary_id} of {text!r} keeps a degree below alpha {r.alpha}")
        sds = [r.sd for r in results]
        self.expect(sds == sorted(sds, reverse=True), f"results of {text!r} not sorted by sd")
        self.expect(k is None or len(results) <= k, f"{len(results)} results exceed k={k}")

    def cold(self, queries, payloads) -> None:
        """A spread subset of the warm queries through ``main(["query"])``;
        each payload must equal the warm one."""
        step = max(1, len(queries) // self.w.cold_queries)
        for n in range(self.w.cold_queries):
            # spread over modes and condition counts, skipping the slots of
            # the anti-correlated queries, so the median is not split
            # between plain answers and repairs
            i = min(len(queries) - 1, n * step + n % 3)
            if i % gen.EMPTY_EVERY == gen.EMPTY_EVERY - 1:
                i -= 1
            text, mode = queries[i]
            table = self.tables[i % len(self.tables)]
            argv = ["query", str(table.state_path), text, "--mode", mode]
            self.m.attempted += 1
            elapsed, (code, out, _) = self._timed(f"cold-{n}", "cli.main", self._main, argv)
            if code == 1:
                self.m.failed += 1
                self.expect(payloads[i] is None, f"cold query failed but warm answered: {text!r}")
                continue
            self.m.cold_ms.append(elapsed * 1000.0)
            self.expect(code == self.m.warm_codes[i] and out == payloads[i],
                        f"cold payload differs from warm for {text!r}")

    # -- the whole run ---------------------------------------------------------

    def run(self) -> dict:
        self.setup()
        self.builds()
        queries = gen.make_queries(self.seed, self.tables[0].schema, self.w.warm_queries)
        payloads = self.warm(queries)
        self.cold(queries, payloads)
        return self.result()

    def end_to_end(self) -> dict:
        """name -> (value, unit, sample count)."""
        m = self.m
        warm = list(m.warm_ms.values())
        answers = [v for i, v in m.warm_ms.items() if m.warm_codes[i] == 0]
        repairs = [v for i, v in m.warm_ms.items() if m.warm_codes[i] in (2, 3)]
        state_bytes = sum(t.state_path.stat().st_size for t in self.tables)
        csv_bytes = sum(t.data_path.stat().st_size for t in self.tables)
        return {
            "setup_s": (statistics.median(m.setup_s), "s", len(m.setup_s)),
            "build_s": (statistics.median(m.build_s), "s", len(m.build_s)),
            "state_bytes_ratio": (state_bytes / csv_bytes, "ratio", len(self.tables)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
            "query_warm_p50_ms": (_quantile(warm, 0.5), "ms", len(warm)),
            "query_warm_p90_ms": (_quantile(warm, 0.9), "ms", len(warm)),
            "answer_p50_ms": (_quantile(answers, 0.5), "ms", len(answers)),
            "repair_p50_ms": (_quantile(repairs, 0.5), "ms", len(repairs)),
            "query_cold_p50_ms": (_quantile(m.cold_ms, 0.5), "ms", len(m.cold_ms)),
        }

    def printed_only(self) -> dict:
        """Figures printed but not bounded: both move with the seed's share
        of repaired and failing queries more than with the program's speed,
        and the error ratio must be free to reach 0."""
        m = self.m
        return {
            "queries_per_s": (len(m.warm_ms) / m.warm_busy_s, "1/s", len(m.warm_ms)),
            "error_ratio": (m.failed / m.attempted, "ratio", m.attempted),
        }

    def per_layer(self) -> dict:
        """name -> (value, unit), from the spans of the traced operations."""
        t = self.tracer
        builds = t.per_request("build-") + t.per_request("setup-")
        queries = t.per_request("query-")
        loads = t.per_request("load-") + t.per_request("cold-")
        repairs = [q for q in queries if q.get("repair.repair#calls")]

        def med(rows, key, scale=1.0):
            values = [row.get(key, 0.0) * scale for row in rows]
            return statistics.median(values) if values else 0.0

        def per_call(rows, name, key=None, scale=1.0):
            calls = sum(row.get(name + "#calls", 0) for row in rows)
            total = sum(row.get(key or name, 0.0) for row in rows) * scale
            return total / calls if calls else 0.0

        kept = sum(q.get("repair.repair#kept", 0) for q in repairs)
        failure_nodes = sum(q.get("repair.repair#failure_nodes", 0) for q in repairs)
        out = {
            "clustering.load_csv_s": (med(builds, "clustering.load_csv"), "s"),
            "clustering.context_s": (med(builds, "clustering.context"), "s"),
            "clustering.fcm_iters": (med(builds, "clustering.cluster_attribute#fcm_iters"),
                                     "count"),
            "lattice.enumerate_s": (med(builds, "lattice.enumerate"), "s"),
            "lattice.concepts": (med(builds, "lattice.enumerate#concepts"), "count"),
            "lattice.covers_s": (med(builds, "lattice.covers"), "s"),
            "lattice.covers": (med(builds, "lattice.covers#covers"), "count"),
            "summary.hierarchy_s": (med(builds, "summary.hierarchy"), "s"),
            "summary.edges": (med(builds, "summary.hierarchy#edges"), "count"),
            "summary.from_dict_s": (med(loads, "summary.from_dict"), "s"),
            "cli.save_s": (med(builds, "cli.save"), "s"),
            "cli.state_bytes": (med(builds, "cli.save#state_bytes"), "bytes"),
            "cli.load_s": (med(loads, "cli.load"), "s"),
            "fsql.parse_ms": (per_call(queries, "fsql.parse", scale=1000.0), "ms"),
            "query.search_ms": (per_call(queries, "query.search", scale=1000.0), "ms"),
            "query.visited": (per_call(queries, "query.search", "query.search#visited"), "count"),
            "query.pruned": (per_call(queries, "query.search", "query.search#pruned"), "count"),
            "query.sd_ms": (per_call(queries, "query.sd", scale=1000.0), "ms"),
            "query.sd_calls": (med(queries, "query.sd#calls"), "count"),
            "query.sd_calls_per_repair": (med(repairs, "query.sd#calls"), "count"),
            "query.rank_ms": (per_call(queries, "query.rank", "query.rank#self", 1000.0), "ms"),
            "repair.calls": (float(len(repairs)), "count"),
            "repair.detect_ms": (per_call(repairs, "repair.detect", scale=1000.0), "ms"),
            "repair.propose_ms": (per_call(repairs, "repair.propose", scale=1000.0), "ms"),
            "repair.evaluate_calls": (med(repairs, "repair.evaluate#calls"), "count"),
            "repair.kept_ratio": (kept / failure_nodes if failure_nodes else 0.0, "ratio"),
            "repair.failure_nodes": (float(failure_nodes), "count"),
            "trace.spans": (float(len(t.spans)), "count"),
            "trace.overhead_pct": (
                100.0 * (self.m.traced_s - self.m.untraced_s) / self.m.untraced_s, "%"),
        }
        layer_self = t.self_times()
        for layer in ("cli", "clustering", "lattice", "summary", "fsql", "query", "repair"):
            out[f"self.{layer}_s"] = (layer_self.get(layer, 0.0), "s")
        return out

    def result(self) -> dict:
        self.samples = self.end_to_end()
        if self.tracer is None:
            metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in self.samples.items()}
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in self.per_layer().items()}
        return {
            "correct": not self.failures,
            "attempted": self.m.attempted,
            "failed": self.m.failed,
            "metrics": metrics,
        }


def _rounded(payload_text: str) -> str:
    """Payload JSON with every float cut to 10 significant digits.  Sums in
    sigma_jaccard run in set order, which follows the per-process string
    hash seed, so the last digits of a score differ between processes."""

    def cut(value):
        if isinstance(value, float):
            return float(f"{value:.10g}")
        if isinstance(value, dict):
            return {k: cut(v) for k, v in value.items()}
        if isinstance(value, list):
            return [cut(v) for v in value]
        return value

    return json.dumps(cut(json.loads(payload_text)), sort_keys=True)


def _fits(elapsed: float, done: int, budget: float) -> bool:
    """Whether one more repetition, as long as the average so far, still
    ends within the budget."""
    return elapsed + elapsed / done <= budget


def _select_k(text: str):
    head = text.split(None, 2)
    return int(head[1]) if head[1].isdigit() else None


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]
