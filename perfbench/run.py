#!/usr/bin/env python3
"""Benchmark of revcover on the bundled proof instance.

Run from the repository root, with numpy installed and nothing else:

    python3 perfbench/run.py --workload campaign-mv --seed 1 --seconds 60 --trace 0

--workload is campaign-mv, plain-grid, or `all`, which runs both one after
the other in a seeded order in this process.
The program is imported from ./src; no install or build step is needed.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 is the
separate traced run: it alternates untraced and traced passes, replays the
checks for the stage split, sweeps the kernels, reports the per-layer
metrics and the tracing overhead, and writes its spans and self-time table
to .bench_out/. BENCHMARK.json at the repository root names every metric
and its unit; perfbench/README.md says which end-to-end metric each layer
metric should move.

Load model: closed loop, one caller; each op waits for the previous one.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 whenever that line is
printed, and 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "revcover").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _emit(metrics: dict, declared: list[dict], prefix: str) -> dict:
    """The declared metrics in declared order, with their units; a metric
    the run did not produce is a harness bug."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise KeyError(f"run produced no value for {missing}")
    return {prefix + m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "revcover" / "__init__.py").is_file():
        print("error: no revcover sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import revcover
    import spans
    from measure import WorkloadRun
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    rng = np.random.default_rng(args.seed)
    if args.workload == "all":
        names = [list(WORKLOADS)[i] for i in rng.permutation(len(WORKLOADS))]
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all")

    tracer = spans.Tracer()
    results, details = {}, {}
    for name in names:
        run = WorkloadRun(WORKLOADS[name], rng, args.seconds, tracer)
        if args.trace:
            run.traced()
        else:
            run.untraced()
        results.update(_emit(run.metrics, declared, f"{name}:" if args.workload == "all" else ""))
        details[name] = run.details()
        print(f"# {name}: {run.attempted} ops, {run.failed} failed")
        for m in declared:
            print(f"  {m['name']:<44} {run.metrics[m['name']]:>16.6g} {m['unit']:<8} "
                  f"n={run.samples[m['name']]}")

    provenance = {
        "workloads": names, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "revcover": revcover.__version__, "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(), "nproc": os.cpu_count(),
        "details": details,
    }
    if args.trace:
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans.dump(path, tracer, {"provenance": provenance})
        print(spans.format_table(spans.self_time_table(tracer.spans)))
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"provenance": provenance}))
    attempted = sum(d["attempted"] for d in details.values())
    failed = sum(d["failed"] for d in details.values())
    correct = all(d["failed"] == 0 and not d["problems"] for d in details.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
