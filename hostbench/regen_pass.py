"""One cold regeneration pass in a fresh process, then a warm pass.

Run by the ``regen`` workload (never by hand): a fresh interpreter is
the only cold start, because the experiment modules memoise scenario
evaluations in-process.  Writes one JSON document to ``--out``.

``setup_s`` covers importing the experiment registry and expanding
every spec into runs; ``regen_s`` is the wall time of
``ExperimentEngine(jobs=1).run_specs`` into the empty cache directory;
``warm_s`` is the same call again, answered from that cache.
"""

from __future__ import annotations

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from layers import Tracer, format_table, layer_table, root_seconds, write_artifacts  # noqa: E402
from measure import self_peak_rss_mib  # noqa: E402


def digest(records) -> str:
    """sha256 over every run's name and exact result series."""
    h = hashlib.sha256()
    for record in records:
        h.update(record.request.name.encode())
        result = record.result
        if result is None:
            h.update(b"<none>")
            continue
        h.update(np.asarray(result.x_values, dtype=float).tobytes())
        for series in result.series:
            h.update(series.label.encode())
            h.update(np.asarray(series.values, dtype=float).tobytes())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spec", action="append", default=[])
    parser.add_argument("--trace-dir")
    args = parser.parse_args()

    from repro.experiments.cache import ResultCache
    from repro.experiments.engine import ExperimentEngine
    from repro.reporting.registry import all_specs

    registry = all_specs()
    specs = [registry[s] for s in args.spec] if args.spec else list(registry.values())
    engine = ExperimentEngine(cache=ResultCache(args.cache_dir), jobs=1)
    n_runs = len(engine.expand(specs))
    doc: dict = {"setup_s": perf_counter() - _STARTED, "runs": n_runs}
    tracer = None
    if args.trace_dir:
        tracer = Tracer()
        tracer.install()
    start = perf_counter()
    cold = engine.run_specs(specs)
    doc["regen_s"] = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    start = perf_counter()
    warm = engine.run_specs(specs)
    doc["warm_s"] = perf_counter() - start
    doc["digest"] = digest(cold)
    doc["warm_digest"] = digest(warm)
    doc["warm_hits"] = sum(1 for r in warm if r.cache_hit)
    doc["warm_ok"] = sum(1 for r in warm if r.status == "ok")
    doc["records"] = [
        {
            "name": r.request.name,
            "status": r.status,
            "wall_s": r.wall_time_s,
            "tags": sorted(registry[r.experiment_id].tags),
        }
        for r in cold
    ]
    doc["peak_rss_mb"] = self_peak_rss_mib()
    if tracer is not None:
        table = layer_table(tracer.spans, "steady")
        doc["layers"] = table
        doc["root_s"] = root_seconds(tracer.spans, "steady")
        doc["spans"] = len(tracer.spans)
        doc["table"] = ["self time per cold pass (regen)"] + format_table(table, 1, "pass")
        write_artifacts(tracer, Path(args.trace_dir), doc["table"])
    Path(args.out).write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    main()
