"""Run the host benchmark over several seeds and print every metric.

Usage, from the root of a checkout::

    python3 hostbench/report.py --runs 5 --seconds 10
    python3 hostbench/report.py --runs 10 --workload churn

Each run is ``run.py`` in a fresh process with its own seed (``--seed``,
``--seed + 1``, ...).  For each workload the report prints every
end-to-end metric of ``BENCHMARK.json`` and every metric the workload
names itself (``lookup_mops``, ``update_per_s``, ``regen_s``,
``failed_frac`` ...), each as median and quartiles over the runs with
the run count, the spread (q3 - q1) / median next to the metric's
bound, the tail percentile ``batch_tail_ms`` reports and the batch
count behind it.  Model-clock counters are listed separately: for one
seed they must repeat exactly.  ``--trace`` adds one traced run per
workload and prints its per-layer self-time table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().parent / "run.py"
sys.path.insert(0, str(ROOT / "src"))

from measure import quartiles  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """One ``run.py`` process; its REPORT record plus the final result."""
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    report = next(json.loads(line[7:]) for line in lines if line.startswith("REPORT "))
    table = [line for line in lines if not line.startswith(("REPORT ", "{"))]
    return {"report": report, "result": json.loads(lines[-1]), "text": table}


def summarize(workload: str, runs: list[dict], bounds: dict[str, float]) -> list[str]:
    lines = [f"== {workload}: {len(runs)} runs, seeds "
             f"{', '.join(str(r['report']['seed']) for r in runs)}"]
    tails = sorted({r["report"]["tail"].split(" of ")[0] for r in runs})
    batches = [r["report"]["batches"] for r in runs]
    lines.append(f"   batch_tail_ms = {'/'.join(tails)} of every untraced batch; "
                 f"batches per run {min(batches)}..{max(batches)}; "
                 f"set-ups per run {runs[0]['report']['setups']}")
    correct = sum(1 for r in runs if r["result"]["correct"])
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    lines.append(f"   correct {correct}/{len(runs)}; failed {failed} of {attempted} attempted")
    lines.append(f"   {'metric':22} {'unit':9} {'median':>13} {'q1':>13} {'q3':>13} "
                 f"{'spread':>8} {'bound':>6}")
    rows: dict[str, tuple[str, list[float]]] = {}
    for r in runs:
        for name, metric in r["result"]["metrics"].items():
            rows.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
    for r in runs:
        for name, metric in r["report"]["metrics"].items():
            if name not in bounds:
                rows.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
    for name, (unit, values) in rows.items():
        q1, q2, q3 = quartiles(values)
        spread = (q3 - q1) / q2 if q2 else 0.0
        bound = f"{bounds[name]:6.2f}" if name in bounds else ""
        lines.append(f"   {name:22} {unit:9} {q2:13.6g} {q1:13.6g} {q3:13.6g} "
                     f"{spread:8.3f} {bound}")
    model: dict[str, set] = {}
    for r in runs:
        for name, value in r["report"]["model"].items():
            model.setdefault(name, set()).add((r["report"]["seed"], value))
    for name, seen in model.items():
        values = ", ".join(f"seed {s}: {v}" for s, v in sorted(seen))
        lines.append(f"   {name} (model clock): {values}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Host benchmark report over several seeds")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in names:
        runs = [run_once(workload, args.seed + i, seconds, 0, args.size)
                for i in range(args.runs)]
        print("\n".join(summarize(workload, runs, bounds)), flush=True)
        if args.trace:
            traced = run_once(workload, args.seed, seconds, 1, args.size)
            start = next(i for i, line in enumerate(traced["text"]) if "self time" in line)
            print("\n".join(traced["text"][start:]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
