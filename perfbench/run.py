"""fuzzysumm benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload build-wide --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
session with spans recorded around every layer boundary and reports the
per-layer metrics instead (see README.md).  The last line of stdout is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it repeat each metric with its unit and sample count.
The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: the benchmark is a
# single-threaded closed loop.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"


def import_package():
    """Put the checkout's ``src/`` first on sys.path and import fuzzysumm
    from there; exit 2 when the checkout holds no package."""
    src = ROOT / "src"
    if not (src / "fuzzysumm" / "__init__.py").is_file():
        print(f"no fuzzysumm package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import fuzzysumm

    if Path(fuzzysumm.__file__).resolve().parent != src / "fuzzysumm":
        print(f"imported fuzzysumm from {fuzzysumm.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import session

    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        s = session.Session(session.WORKLOADS[workload], seed, seconds, workdir, trace=trace)
        result = s.run()
        if s.tracer is not None:
            s.tracer.dump(WORK / f"spans-{workload}-seed{seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        count = "" if trace else f" (n={s.samples[name][2]})"
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}{count}")
    for name, (value, unit, count) in s.printed_only().items():
        print(f"{workload} {name} = {value:.6g} {unit} (n={count}; printed, not bounded)")
    m = s.m
    codes = list(m.warm_codes.values())
    concepts = "/".join(str(t.counts[0]) for t in s.tables)
    edges = "/".join(str(t.counts[1]) for t in s.tables)
    print(f"{workload} realized: {len(s.tables)} table(s) of {s.w.tuples} tuples, "
          f"{concepts} concepts, {edges} edges; {len(codes)} warm queries: "
          f"{codes.count(0)} answered, {sum(c in (2, 3) for c in codes)} repaired "
          f"({sum(c in (2, 3) for c in codes) / len(codes):.0%}), {codes.count('failed')} failed")
    print(f"{workload} payload_digest = sha256:{m.digest}")
    for failure in s.failures[:20]:
        print(f"{workload} CHECK FAILED: {failure}", file=sys.stderr)
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, so each has its own peak RSS."""
    import session

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in session.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("build-wide", "build-tall", "query-mix", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
