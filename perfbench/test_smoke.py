"""Tiny-size runs of every workload, untraced and traced.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import session  # noqa: E402

TINY = {"build-wide": 60, "build-tall": 400, "query-mix": 60}


def declared(kind: str) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"] for metric in spec[kind]}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(session.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(name, trace, tmp_path):
    workload = dataclasses.replace(
        session.WORKLOADS[name], tuples=TINY[name], warm_queries=8, cold_queries=2
    )
    run = session.Session(workload, seed=3, seconds=0.1, workdir=tmp_path, trace=trace)
    result = run.run()
    assert result["correct"], run.failures
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == declared("per_layer" if trace else "end_to_end")
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        for name in ("clustering.context_s", "lattice.enumerate_s", "lattice.covers_s",
                     "summary.hierarchy_s", "summary.from_dict_s", "cli.save_s", "cli.load_s",
                     "fsql.parse_ms", "query.search_ms", "query.sd_ms"):
            assert result["metrics"][name]["value"] > 0, name


def test_same_seed_gives_same_inputs_and_queries():
    import gen

    assert gen.make_table(5, 1, 50, 3, 0.9, True) == gen.make_table(5, 1, 50, 3, 0.9, True)
    assert gen.make_table(5, 1, 50, 3, 0.9) != gen.make_table(6, 1, 50, 3, 0.9)
    schema, _ = gen.make_table(5, 0, 50, 3, 0.9)
    assert gen.make_queries(5, schema, 12) == gen.make_queries(5, schema, 12)


def test_generated_queries_parse():
    import gen
    from fuzzysumm.domain import schema_from_dict
    from fuzzysumm.fsql import parse_query
    from fuzzysumm.query import rewrite

    for category in (False, True):
        raw, _ = gen.make_table(1, 0, 20, 3, 0.9, category)
        schema = schema_from_dict(raw)
        for text, mode in gen.make_queries(1, raw, 90):
            rewrite(parse_query(text, schema), schema)
            assert mode in gen.MODES


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
