"""Host benchmark of the lookup simulator: one workload, one run.

Usage, from the root of a checkout::

    python3 hostbench/run.py --workload serve_bulk --seed 1 --seconds 10 --trace 0

Workloads: ``serve_bulk``, ``serve_sharded``, ``churn``, ``regen`` (see
``workloads.py`` for what each drives and why).  ``--trace 0`` times
the workload untraced and reports the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` wraps each layer's callables and
reports the per-layer metrics, writing spans, a self-time table and a
folded-stack flamegraph file under ``hostbench/out/``.

Every time here is host wall-clock time.  The ``model.*`` counters are
modelled-clock quantities (per-stage BRAM accesses, stage-memory
writes, the figures' result series); they must repeat exactly for a
given seed, and a change that moves them changed semantics, not speed.
Each workload checks them within its run (against a reference computed
before timing, or across its passes); a mismatch makes ``correct``
false.  They, ``trace.coverage_frac`` and ``trace.overhead_frac`` are
listed among the per-layer metrics for the record: their ``better``
direction means nothing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, prefixed ``REPORT``, carries the workload's own named metrics
(``lookup_mops``, ``update_per_s``, ``regen_s``, ``failed_frac`` ...)
for ``report.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Host benchmark of the lookup simulator")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is the smoke test's")
    return parser.parse_args(argv)


def end_to_end(workload, outcome) -> tuple[dict[str, float], str]:
    """The end-to-end metric values and how ``batch_tail_ms`` was taken."""
    from measure import median, percentile_ms
    from repro.units import s_to_ms

    tail_ms = percentile_ms(outcome.batch_s, workload.tail_pct)
    beyond = sum(1 for t in outcome.batch_s if s_to_ms(t) > tail_ms)
    values = {
        "setup_s": median(outcome.setup_s),
        "ops_per_s": (median(outcome.window_rates) if outcome.window_rates
                      else outcome.ok_ops / outcome.phase_s),
        "batch_p50_ms": percentile_ms(outcome.batch_s, 50.0),
        "batch_tail_ms": tail_ms,
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    return values, f"p{workload.tail_pct:g} of {len(outcome.batch_s)} batches ({beyond} beyond it)"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"hostbench: {ROOT} is not a checkout of the repository "
              "(src/repro or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"hostbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        size=args.size,
        root=ROOT,
        out_dir=ROOT / "hostbench" / "out" / f"{args.workload}-seed{args.seed}",
    )
    outcome = workload.run(ctx)

    values, tail = end_to_end(workload, outcome)
    failed_frac = outcome.failed / outcome.attempted
    named = {name: {"value": v, "unit": u} for name, (v, u) in outcome.named.items()}
    named.update({
        "setup_s": {"value": values["setup_s"], "unit": "s"},
        "batch_p50_ms": {"value": values["batch_p50_ms"], "unit": "ms"},
        "batch_tail_ms": {"value": values["batch_tail_ms"], "unit": "ms"},
        "failed_frac": {"value": failed_frac, "unit": "fraction"},
        "peak_rss_mb": {"value": values["peak_rss_mb"], "unit": "MiB"},
    })
    correct = outcome.failed == 0 and all(outcome.checks.values())

    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"  one op = {workload.op}; one batch = {workload.batch}; "
          f"{len(outcome.batch_s)} batches timed; batch_tail_ms = {tail}; "
          f"{len(outcome.setup_s)} set-ups")
    for name, metric in named.items():
        print(f"  {name:18} {metric['value']:14.6g} {metric['unit']}")
    for name, value in outcome.model.items():
        print(f"  {name:18} {value:14d} (model clock)")
    failing = [name for name, ok in outcome.checks.items() if not ok]
    print(f"  checks: {len(outcome.checks) - len(failing)}/{len(outcome.checks)} passed"
          + (f"; FAILED: {', '.join(failing)}" if failing else ""))
    for line in outcome.table:
        print("  " + line)
    print("REPORT " + json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "tail": tail,
        "batches": len(outcome.batch_s),
        "setups": len(outcome.setup_s),
        "metrics": named,
        "model": outcome.model,
        "checks": outcome.checks,
    }))

    if args.trace:
        layer_values = {**outcome.model, **outcome.layers}
        metrics = {
            m["name"]: {"value": float(layer_values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
