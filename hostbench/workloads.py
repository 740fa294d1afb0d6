"""The four host workloads, their inputs and their answer checks.

Each workload is a closed loop driven from one process through the
program's public entry points.  Its inputs are generated here from the
run's seed and handed to the program; its answers are checked against
references computed before the timed phase.  The reason each workload
exists is its ``why`` below, next to its definition.

Units of work, used by the end-to-end metrics and by the per-layer
metrics of the traced run:

===============  ===========================  ===============================
workload         one operation (``ops_per_s``) one batch (``batch_*_ms``)
===============  ===========================  ===============================
serve_bulk       a lookup                     ~100k pairs served by VS, then VM
serve_sharded    a lookup                     a ~10k-pair ``serve`` call
churn            an update (plus its batch)   the lookup batch after an update
regen            an experiment run            a cold pass over every run
===============  ===========================  ===============================

Every workload reports every end-to-end metric, so they carry generic
names; the workload-level names are printed beside them: ``lookup_mops``
is ``ops_per_s`` / 1e6 on the serve workloads, ``update_per_s`` is
``ops_per_s`` on churn and ``regen_s`` is ``batch_p50_ms`` / 1e3 on
regen.  ``failed_frac`` (0 when the program is right) is the run's
``failed`` / ``attempted``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from layers import Tracer, format_table, layer_table, root_seconds, write_artifacts
from measure import process_peak_rss_mib, self_peak_rss_mib
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.iplookup.updates import UpdateKind, synthesize_churn
from repro.serve.frontend import ShardedLookupService
from repro.serve.service import LookupService
from repro.units import s_to_ms
from repro.virt.manager import VirtualRouterManager
from repro.virt.schemes import Scheme

HERE = Path(__file__).resolve().parent

#: structural overlap of the synthetic virtual-network tables
SHARED_FRACTION = 0.5

#: Zipf exponent of destination popularity over a table's prefixes.
#: An assumption, not a measurement: no traffic trace backs it, and the
#: gain of a walk change (multi-bit strides, jump tables) depends on it.
ZIPF_S = 1.1

#: share of destinations drawn uniformly from the whole address space
#: (unrouted space); an assumption like ``ZIPF_S``
UNIFORM_SHARE = 0.1

#: linear-scan oracle chunk (lanes × prefixes int64 scores stay ~20 MB)
ORACLE_CHUNK = 128

#: churn rounds after which ``model.memory_writes`` is read (a run
#: makes at least this many, so the counter repeats for a seed)
MODEL_ROUNDS = 64

#: batches per caller in each untraced/traced phase of a traced sharded run
SHARDED_PHASE = 12

#: ``ops_per_s`` is the median rate over consecutive windows of this
#: much timed work, so a burst of interference from other tenants of
#: the host moves one window, not the run's figure
WINDOW_S = 1.0


@dataclass(frozen=True)
class Size:
    """Input sizes of one workload (``full`` is the benchmark, ``tiny``
    the smoke test)."""

    k: int = 4
    setup_reps: int = 3
    prefixes: int = 20_000
    batch: int = 100_000
    pool: int = 8
    min_batches: int = 4
    oracle_lanes: int = 256
    shards: int = 2
    callers: int = 2
    stream: int = 8192
    check_every: int = 4
    check_lanes: int = 32
    specs: tuple[str, ...] = ()


#: ``setup_s`` is the median of ``setup_reps`` set-ups (more where one
#: is cheap and noisy; regen's set-ups are its cold passes).
#: ``min_batches`` extends a slow run until it holds that many untraced
#: batches, so at least ten lie beyond ``Workload.tail_pct``
SIZES: dict[str, dict[str, Size]] = {
    "full": {
        "serve_bulk": Size(min_batches=200),
        "serve_sharded": Size(setup_reps=15, prefixes=2_000, batch=10_000, pool=16,
                              min_batches=200),
        "churn": Size(batch=1_000, pool=16, min_batches=1_000),
        "regen": Size(min_batches=3),
    },
    "tiny": {
        "serve_bulk": Size(prefixes=400, batch=2_000, pool=2, oracle_lanes=64),
        "serve_sharded": Size(setup_reps=15, prefixes=300, batch=1_000, pool=2),
        "churn": Size(prefixes=400, batch=100, pool=2, stream=256),
        "regen": Size(min_batches=1, specs=("table3", "trie_stats", "fig8")),
    },
}


@dataclass
class Context:
    """One benchmark run's settings."""

    seed: int
    seconds: float
    trace: bool
    size: str
    root: Path
    out_dir: Path


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    batch_s: list[float] = field(default_factory=list)
    window_rates: list[float] = field(default_factory=list)
    ok_ops: int = 0
    attempted: int = 0
    failed: int = 0
    phase_s: float = 0.0
    peak_rss_mb: float = 0.0
    checks: dict[str, bool] = field(default_factory=dict)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    model: dict[str, int] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    table: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        """Record a check; a check that fails once stays failed."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)


class Windows:
    """Operation rates over consecutive ``WINDOW_S`` windows of timed work."""

    def __init__(self, rates: list[float]) -> None:
        self.rates = rates
        self.ops = 0
        self.seconds = 0.0

    def add(self, ops: int, seconds: float) -> None:
        self.ops += ops
        self.seconds += seconds
        if self.seconds >= WINDOW_S:
            self.rates.append(self.ops / self.seconds)
            self.ops, self.seconds = 0, 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str
    batch: str
    #: the percentile ``batch_tail_ms`` reports, over every untraced batch
    tail_pct: float
    run: Callable[[Context], Outcome]


# -- inputs ------------------------------------------------------------------


def synthetic_tables(size: Size, seed: int):
    config = replace(SyntheticTableConfig(), n_prefixes=size.prefixes, seed=seed)
    return generate_virtual_tables(size.k, SHARED_FRACTION, config)


def _popularity(rng: np.random.Generator, table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prefix values, host masks and Zipf weights in a random rank order."""
    prefixes = table.prefixes()
    order = rng.permutation(len(prefixes))
    values = np.array([prefixes[i].value for i in order], dtype=np.uint64)
    host = np.array([(1 << (32 - prefixes[i].length)) - 1 for i in order], dtype=np.uint64)
    weights = 1.0 / np.arange(1, len(prefixes) + 1, dtype=float) ** ZIPF_S
    return values, host, weights / weights.sum()


def zipf_addresses(rng: np.random.Generator, popularity, n: int) -> np.ndarray:
    """Destinations inside popular prefixes, plus a uniform share."""
    values, host, weights = popularity
    picks = rng.choice(len(values), size=n, p=weights)
    noise = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
    addresses = values[picks] | (noise & host[picks])
    uniform = rng.random(n) < UNIFORM_SHARE
    addresses[uniform] = rng.integers(0, 1 << 32, size=int(uniform.sum()), dtype=np.uint64)
    return addresses.astype(np.uint32)


def zipf_batch(rng, popularities, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` (address, vnid) pairs, VNs uniform, destinations Zipf per VN."""
    vnids = rng.integers(0, len(popularities), size=n).astype(np.int64)
    addresses = np.empty(n, dtype=np.uint32)
    for vn, popularity in enumerate(popularities):
        lanes = np.flatnonzero(vnids == vn)
        addresses[lanes] = zipf_addresses(rng, popularity, len(lanes))
    return addresses, vnids


def uniform_batch(rng, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    addresses = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    return addresses, rng.integers(0, k, size=n).astype(np.int64)


def oracle(tables, addresses: np.ndarray, vnids: np.ndarray) -> np.ndarray:
    """Linear-scan LPM answers (``RoutingTable.lookup_linear_batch``)."""
    answers = np.empty(len(addresses), dtype=np.int64)
    for vn, table in enumerate(tables):
        lanes = np.flatnonzero(vnids == vn)
        for start in range(0, len(lanes), ORACLE_CHUNK):
            chunk = lanes[start : start + ORACLE_CHUNK]
            answers[chunk] = table.lookup_linear_batch(addresses[chunk])
    return answers


def stage_accesses(trace) -> int:
    """Modelled-clock per-stage memory accesses of one served batch."""
    return int(np.asarray(trace.stage_accesses()).sum())


def report_exception(where: str) -> None:
    print(f"hostbench: {where} raised:\n{traceback.format_exc()}", file=sys.stderr)


def timed_setups(out: Outcome, reps: int, tracer: Tracer | None, build: Callable):
    """Run ``build`` (construct the program object and take its first
    answer) ``reps`` times into ``out.setup_s``; keep the last object.

    The previous object is released first so the peak memory is one
    set-up's.  A traced run traces the last set-up, for the
    construction layers.
    """
    built = None
    for rep in range(reps):
        built = None
        gc.collect()
        traced = tracer is not None and rep == reps - 1
        if traced:
            tracer.phase = "setup"
            tracer.install()
        start = perf_counter()
        built = build()
        out.setup_s.append(perf_counter() - start)
        if traced:
            tracer.uninstall()
            tracer.phase = "steady"
    return built


# -- traced-run bookkeeping --------------------------------------------------

#: (layer, time metric, calls metric, construction layer?)
LAYER_METRICS: tuple[tuple[str, str, str, bool], ...] = (
    ("serve.validate", "serve.validate_ms", "serve.validate_calls", False),
    ("virt.partition", "virt.partition_ms", "virt.partition_calls", False),
    ("iplookup.walk", "iplookup.walk_ms", "iplookup.walk_calls", False),
    ("virt.merged_walk", "virt.merged_walk_ms", "virt.merged_walk_calls", False),
    ("iplookup.account", "iplookup.account_ms", "iplookup.account_calls", False),
    ("serve.service", "serve.service_self_ms", "serve.service_calls", False),
    ("serve.frontend", "serve.frontend_self_ms", "serve.frontend_calls", False),
    ("serve.dispatch_wait", "serve.dispatch_wait_ms", "serve.dispatch_calls", False),
    ("serve.roundtrip", "serve.roundtrip_ms", "serve.roundtrip_calls", False),
    ("virt.manager.update", "virt.manager.update_ms", "virt.manager.update_calls", False),
    ("iplookup.freeze", "iplookup.freeze_ms", "iplookup.freeze_calls", False),
    ("iplookup.build", "iplookup.build_s", "iplookup.build_calls", True),
    ("iplookup.stats", "iplookup.stats_s", "iplookup.stats_calls", True),
    ("virt.merge", "virt.merge_s", "virt.merge_calls", True),
    ("iplookup.synth", "iplookup.synth_s", "iplookup.synth_calls", True),
    ("core.estimator", "core.estimator_s", "core.estimator_calls", True),
    ("experiments.engine", "experiments.engine_self_s", "experiments.engine_calls", True),
)


def layer_metrics(
    steady: dict[str, dict[str, float]],
    steady_units: int,
    setup: dict[str, dict[str, float]] | None,
) -> dict[str, float]:
    """Per-unit layer metrics from the traced phase tables.

    ``_ms`` metrics are self milliseconds per unit of steady work (a
    batch, a churn round, a cold pass).  Construction layers (``_s``)
    are seconds per set-up when the workload traced one, else per unit
    of steady work.
    """
    metrics: dict[str, float] = {}
    for layer, time_name, calls_name, construction in LAYER_METRICS:
        if construction and setup is not None:
            row, per = setup[layer], 1
        else:
            row, per = steady[layer], max(steady_units, 1)
        seconds = row["self_s"] / per
        metrics[time_name] = seconds if construction else s_to_ms(seconds)
        metrics[calls_name] = row["calls"] / per
    metrics["serve.roundtrip_failures"] = steady["serve.roundtrip"]["failures"]
    metrics["virt.manager.update_failures"] = steady["virt.manager.update"]["failures"]
    return metrics


def finish_trace(
    out: Outcome,
    tracer: Tracer,
    ctx: Context,
    name: str,
    units: int,
    unit: str,
    traced_s: float,
    untraced_s: float,
    traced_setup: bool,
) -> None:
    """Per-layer metrics, overhead and artefacts of a traced run.

    ``traced_s``/``untraced_s`` are mean times of one unit of work with
    and without the wrappers installed, taken interleaved in this run.
    """
    steady = layer_table(tracer.spans, "steady")
    setup = layer_table(tracer.spans, "setup") if traced_setup else None
    out.layers.update(layer_metrics(steady, units, setup))
    out.layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    covered = root_seconds(tracer.spans, "steady") / max(units, 1)
    out.layers["trace.coverage_frac"] = covered / untraced_s - 1.0
    out.layers["trace.spans"] = len(tracer.spans)
    out.table = [f"self time per {unit} over {units} traced units of work ({name})"]
    out.table += format_table(steady, max(units, 1), unit)
    if setup is not None:
        out.table += ["", "self time per set-up (one traced set-up)"]
        out.table += format_table(setup, 1, "setup")
    write_artifacts(tracer, ctx.out_dir, out.table)


# -- serve_bulk ----------------------------------------------------------------


def serve_bulk(ctx: Context) -> Outcome:
    """One VS and one VM ``LookupService`` over the same tables.

    Why: the walk and the partition do most of the work, over walk
    arrays larger than a 2 MiB L2 (the four VS tries' frozen arrays
    take ~12 MiB); no frontend, freeze, trie build or engine runs, so
    this is the control workload.  The walk is ~60 % (VS) and ~90 %
    (VM) of a batch: a walk twice as fast lifts ``ops_per_s`` by at
    most ~1.4x / ~1.8x here, much less on serve_sharded and almost
    nothing on churn.  NV is left out: its host path is VS's.  The
    destination mix (``ZIPF_S``, ``UNIFORM_SHARE``) is assumed, not
    measured, so a walk change whose gain depends on it should not be
    judged on this workload alone.
    """
    size = SIZES[ctx.size]["serve_bulk"]
    rng = np.random.default_rng([ctx.seed, 1])
    tables = synthetic_tables(size, ctx.seed)
    popularities = [_popularity(rng, table) for table in tables]
    batches = [zipf_batch(rng, popularities, size.batch) for _ in range(size.pool)]
    out = Outcome()
    tracer = Tracer() if ctx.trace else None

    def build() -> tuple[LookupService, LookupService]:
        vs = LookupService(tables, Scheme.VS)
        vs.serve(*batches[0])
        vm = LookupService(tables, Scheme.VM)
        vm.serve(*batches[0])
        return vs, vm

    services = timed_setups(out, size.setup_reps, tracer, build)

    # references, computed once before timing: VS == VM on every lane,
    # and both against the linear-scan oracle on a fixed sample
    refs, ref_accesses = [], []
    for addresses, vnids in batches:
        vs_answers, vs_trace = services[0].serve(addresses, vnids)
        vm_answers, vm_trace = services[1].serve(addresses, vnids)
        out.check("vs_equals_vm", np.array_equal(vs_answers, vm_answers))
        lanes = rng.choice(len(addresses), size=min(size.oracle_lanes, len(addresses)),
                           replace=False)
        expected = oracle(tables, addresses[lanes], vnids[lanes])
        out.check("oracle_sample", np.array_equal(vs_answers[lanes], expected))
        refs.append(vs_answers)
        ref_accesses.append((stage_accesses(vs_trace), stage_accesses(vm_trace)))
    out.model["model.stage_accesses"] = sum(a + b for a, b in ref_accesses)

    # one timed batch is a pair: the same pairs through VS, then VM
    times = {False: [], True: []}
    windows = Windows(out.window_rates)
    i = 0
    timed = pair = 0.0
    while timed < ctx.seconds or len(out.batch_s) < size.min_batches or i % 2:
        which, slot = i % 2, (i // 2) % size.pool
        addresses, vnids = batches[slot]
        traced = tracer is not None and (i // 2) % 2 == 1
        if tracer is not None:
            tracer.switch(traced, i)
        start = perf_counter()
        try:
            answers, trace = services[which].serve(addresses, vnids)
        except Exception:
            report_exception("LookupService.serve")
            answers = trace = None
        elapsed = perf_counter() - start
        timed += elapsed
        pair = elapsed if which == 0 else pair + elapsed
        if which == 1:
            times[traced].append(pair)
            if not traced:
                out.batch_s.append(pair)
        n = len(addresses)
        wrong = n if answers is None else int(np.count_nonzero(answers != refs[slot]))
        out.attempted += n
        out.failed += wrong
        out.ok_ops += n - wrong
        if not traced:
            windows.add(n - wrong, elapsed)
        if trace is not None:
            out.check("model_repeats", stage_accesses(trace) == ref_accesses[slot][which])
        i += 1
    if tracer is not None and tracer.installed:
        tracer.uninstall()
    out.phase_s = timed
    out.peak_rss_mb = self_peak_rss_mib()
    out.named["lookup_mops"] = (out.ok_ops / timed / 1e6, "10^6/s")
    if tracer is not None:
        finish_trace(out, tracer, ctx, "serve_bulk", len(times[True]), "pair",
                     float(np.mean(times[True])), float(np.mean(times[False])), True)
    return out


# -- serve_sharded -------------------------------------------------------------


def shard_service_totals(snapshots) -> tuple[float, int]:
    """Sum and count of the shards' own batch-latency histograms."""
    total, count = 0.0, 0
    for snapshot in snapshots:
        if snapshot.shard == "frontend":
            continue
        for family in snapshot.families:
            if family.name == "repro_serve_batch_latency_seconds":
                for sample in family.samples:
                    total += sample.sum or 0.0
                    count += sample.count or 0
    return total, count


def serve_sharded(ctx: Context) -> Outcome:
    """``ShardedLookupService``, process transport, 2 shards, 2 callers.

    Why: at 10k-pair batches the tier's own work (frontend partition
    and admission, dispatch queue, executor hop and pickling, the
    shard's second partition and queue-model draw, reassembly) is most
    of a batch, so a cut to frontend self or round-trip time shows
    here and not on serve_bulk.  Two callers that each await their
    reply keep the dispatch queues occupied (a closed loop), so queue
    wait is measurable; as a queue fills, ``serve.dispatch_wait_ms``
    and ``batch_tail_ms`` rise before ``ops_per_s`` stops rising.
    Shard metrics stay on, as shipped.
    """
    size = SIZES[ctx.size]["serve_sharded"]
    rng = np.random.default_rng([ctx.seed, 2])
    tables = synthetic_tables(size, ctx.seed)
    batches = [uniform_batch(rng, size.k, size.batch) for _ in range(size.pool)]
    out = Outcome()

    # single-process answers and model counters are the reference
    single = LookupService(tables, Scheme.VS)
    refs, ref_accesses = [], []
    for addresses, vnids in batches:
        answers, trace = single.serve(addresses, vnids)
        refs.append(answers)
        ref_accesses.append(stage_accesses(trace))
    out.check("oracle_sample", np.array_equal(
        refs[0][: size.oracle_lanes],
        oracle(tables, batches[0][0][: size.oracle_lanes], batches[0][1][: size.oracle_lanes]),
    ))
    out.model["model.stage_accesses"] = sum(ref_accesses)
    del single
    asyncio.run(_serve_sharded(ctx, size, tables, batches, refs, ref_accesses, out))
    return out


async def _serve_sharded(ctx, size, tables, batches, refs, ref_accesses, out) -> None:
    tracer = Tracer() if ctx.trace else None
    if tracer is not None:
        tracer.prepare()

    async def boot() -> ShardedLookupService:
        start = perf_counter()
        booted = ShardedLookupService(tables, Scheme.VS, n_shards=size.shards,
                                      transport="process")
        try:
            await booted.start()
            await booted.serve(*batches[0])
        except BaseException:
            await booted.stop()
            raise
        out.setup_s.append(perf_counter() - start)
        return booted

    # one set-up before the timed phase and the rest after it: on a
    # shared host, shard boots in the first seconds of a process read up
    # to twice as slow in some runs, which moved the median of back-to-
    # back set-ups by half from run to run
    service = await boot()
    try:
        counters = {"shed": 0}
        completions: list[tuple[float, int]] = []

        async def caller(cid: int, count: int | None, deadline: float | None) -> None:
            j = 0
            while count is None or j < count:
                if deadline is not None and perf_counter() >= deadline and (
                    len(out.batch_s) >= size.min_batches
                ):
                    break
                slot = (cid + size.callers * j) % size.pool
                addresses, vnids = batches[slot]
                start = perf_counter()
                try:
                    answers, trace = await service.serve(addresses, vnids)
                except Exception:
                    report_exception("ShardedLookupService.serve")
                    answers = trace = None
                end = perf_counter()
                out.batch_s.append(end - start)
                n = len(addresses)
                wrong = n if answers is None else int(np.count_nonzero(answers != refs[slot]))
                completions.append((end, n - wrong))
                out.attempted += n
                out.failed += wrong
                out.ok_ops += n - wrong
                if trace is not None:
                    counters["shed"] += trace.n_shed
                    out.check("model_matches_single_process",
                              stage_accesses(trace) == ref_accesses[slot])
                j += 1

        async def drive(count: int | None, deadline: float | None) -> float:
            start = perf_counter()
            await asyncio.gather(*(caller(c, count, deadline) for c in range(size.callers)))
            return perf_counter() - start

        if tracer is None:
            begin = perf_counter()
            out.phase_s = await drive(None, begin + ctx.seconds)
            per_window = np.zeros(int(out.phase_s // WINDOW_S))
            for end, ok in completions:
                slot = int((end - begin) // WINDOW_S)
                if slot < len(per_window):
                    per_window[slot] += ok
            out.window_rates += [float(ok) / WINDOW_S for ok in per_window]
        else:
            # interleaved untraced/traced phases; the shards' own service
            # time is scraped around each traced phase
            walls = {False: 0.0, True: 0.0}
            batches_in = {False: 0, True: 0}
            shard_sum, shard_count = 0.0, 0
            deadline = perf_counter() + ctx.seconds
            while perf_counter() < deadline or not batches_in[True]:
                walls[False] += await drive(SHARDED_PHASE, None)
                batches_in[False] += SHARDED_PHASE * size.callers
                before = shard_service_totals(await service.scrape())
                tracer.install(sharded_service=service)
                walls[True] += await drive(SHARDED_PHASE, None)
                tracer.uninstall()
                after = shard_service_totals(await service.scrape())
                batches_in[True] += SHARDED_PHASE * size.callers
                shard_sum += after[0] - before[0]
                shard_count += after[1] - before[1]
            out.phase_s = walls[False] + walls[True]
        pids = [h.process.pid for h in service.shards if h.process is not None]
        out.peak_rss_mb = self_peak_rss_mib() + sum(process_peak_rss_mib(p) for p in pids)
    finally:
        await service.stop()
    for _ in range(size.setup_reps - 1):
        await (await boot()).stop()
    out.layers["serve.shed_lookups"] = counters["shed"]
    out.named["lookup_mops"] = (out.ok_ops / out.phase_s / 1e6, "10^6/s")
    if tracer is not None:
        units = batches_in[True]
        finish_trace(out, tracer, ctx, "serve_sharded", units, "batch",
                     walls[True] / units, walls[False] / batches_in[False], False)
        out.layers["serve.shard_service_ms"] = s_to_ms(shard_sum / units)
        out.layers["serve.shard_service_calls"] = shard_count / units
        out.layers["serve.transport_ms"] = (
            out.layers["serve.roundtrip_ms"] - out.layers["serve.shard_service_ms"]
        )


# -- churn ---------------------------------------------------------------------


def churn(ctx: Context) -> Outcome:
    """``VirtualRouterManager``: round ``r`` applies one
    ``synthesize_churn`` update to VN ``r mod K``, then answers a 1k
    batch on that VN's trie.

    Why: the only workload that writes and reads the same trie.  Each
    update drops the ``FrozenWalk``, so the next batch pays a full
    re-freeze (``freezes_per_update x freeze_ms`` is about the round
    time); removing it should raise ``ops_per_s`` and lower
    ``batch_p50_ms``, and any walk slowdown it costs shows on
    serve_bulk.  VM churn is left out: each update rebuilds the whole
    merged trie, which would cap a run at a handful of rounds.
    """
    size = SIZES[ctx.size]["churn"]
    rng = np.random.default_rng([ctx.seed, 3])
    tables = synthetic_tables(size, ctx.seed)
    streams = [
        synthesize_churn(table, size.stream, seed=ctx.seed * size.k + vn)
        for vn, table in enumerate(tables)
    ]
    pools = []
    for table in tables:
        popularity = _popularity(rng, table)
        pools.append([zipf_addresses(rng, popularity, size.batch) for _ in range(size.pool)])
    out = Outcome()
    tracer = Tracer() if ctx.trace else None

    # reference model counter: the first MODEL_ROUNDS updates replayed,
    # untimed, on a manager of its own
    reference = VirtualRouterManager(tables)
    for r in range(MODEL_ROUNDS):
        _apply(reference, r % size.k, streams[r % size.k][r // size.k])
    ref_writes = _memory_writes(reference, size.k)
    del reference

    def build() -> VirtualRouterManager:
        manager = VirtualRouterManager(tables)
        manager.trie(0).lookup_batch(pools[0][0])
        return manager

    manager = timed_setups(out, size.setup_reps, tracer, build)

    updates_ok = 0
    round_times = {False: [], True: []}
    windows = Windows(out.window_rates)
    r = 0
    timed = 0.0
    min_rounds = max(size.min_batches, MODEL_ROUNDS)
    while (timed < ctx.seconds or r < min_rounds) and r < size.k * size.stream:
        vn = r % size.k
        update = streams[vn][r // size.k]
        addresses = pools[vn][(r // size.k) % size.pool]
        traced = tracer is not None and (r // size.k) % 2 == 1
        if tracer is not None:
            tracer.switch(traced, r)
        start = perf_counter()
        try:
            _apply(manager, vn, update)
            update_failed = 0
        except Exception:
            report_exception("VirtualRouterManager update")
            update_failed = 1
        middle = perf_counter()
        try:
            answers = manager.trie(vn).lookup_batch(addresses)
        except Exception:
            report_exception("UnibitTrie.lookup_batch")
            answers = None
        end = perf_counter()
        timed += end - start
        round_times[traced].append(end - start)
        if not traced:
            out.batch_s.append(end - middle)
        n = len(addresses)
        out.attempted += 1 + n
        updates_ok += 1 - update_failed
        if not traced:
            windows.add(1 - update_failed, end - start)
        wrong = n if answers is None else 0
        if answers is not None and r % size.check_every == 0:
            lanes = rng.choice(n, size=min(size.check_lanes, n), replace=False)
            live = oracle([manager.table(vn)], addresses[lanes], np.zeros(len(lanes), np.int64))
            wrong = int(np.count_nonzero(answers[lanes] != live))
        out.failed += update_failed + wrong
        r += 1
        if r == MODEL_ROUNDS:
            out.model["model.memory_writes"] = _memory_writes(manager, size.k)
            out.check("model_repeats", out.model["model.memory_writes"] == ref_writes)
    if tracer is not None and tracer.installed:
        tracer.uninstall()
    if timed < ctx.seconds:
        print(f"hostbench: churn stream exhausted after {r} rounds", file=sys.stderr)
    out.check("verify_consistency", manager.verify_consistency(samples=256, seed=ctx.seed))
    out.ok_ops = updates_ok
    out.phase_s = timed
    out.peak_rss_mb = self_peak_rss_mib()
    out.named["update_per_s"] = (updates_ok / timed, "1/s")
    if tracer is not None:
        units = len(round_times[True])
        finish_trace(out, tracer, ctx, "churn", units, "round",
                     float(np.mean(round_times[True])), float(np.mean(round_times[False])),
                     True)
        out.layers["iplookup.freezes_per_update"] = out.layers["iplookup.freeze_calls"]
    return out


def _apply(manager: VirtualRouterManager, vn: int, update) -> None:
    if update.kind is UpdateKind.ANNOUNCE:
        manager.announce(vn, update.prefix, update.next_hop)
    else:
        manager.withdraw(vn, update.prefix)


def _memory_writes(manager: VirtualRouterManager, k: int) -> int:
    return sum(manager.update_stats(vn).memory_writes for vn in range(k))


# -- regen ---------------------------------------------------------------------

#: spec tags ``experiments.wall_s.<tag>`` is reported for
REGEN_TAGS = ("ablation", "extras", "figures", "governor", "graded", "paper", "real-rib",
              "tables")


def _regen_pass(ctx: Context, size: Size, *, trace: bool = False) -> dict:
    """One fresh-process pass of ``regen_pass.py`` (cold caches)."""
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="regen-", dir=ctx.out_dir))
    command = [sys.executable, str(HERE / "regen_pass.py"),
               "--cache-dir", str(work / "cache"), "--out", str(work / "pass.json")]
    if trace:
        command += ["--trace-dir", str(ctx.out_dir)]
    for spec in size.specs:
        command += ["--spec", spec]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx.root / "src")
    try:
        subprocess.run(command, cwd=ctx.root, env=env, stdout=sys.stderr, check=True,
                       timeout=170)
        return json.loads((work / "pass.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def regen(ctx: Context) -> Outcome:
    """Every registered experiment through ``ExperimentEngine(jobs=1)``
    into a fresh cache, then a warm pass over it.

    Why: the figures are the repo's output, and this is the only
    workload where trie construction (insert, ``stats``, ``leaf_push``,
    ``merge_tries``, ``generate_table``) and the analytical models
    dominate rather than the walk; it is also the only one with the
    result cache on its path, so a cache-key change must keep
    ``experiments.cache_hit_ratio`` at 1.0 without moving ``regen_s``.
    """
    size = SIZES[ctx.size]["regen"]
    out = Outcome()
    # at least ``min_batches`` cold passes, and another one only when it
    # should still end within --seconds
    passes = []
    started = perf_counter()
    while True:
        begun = perf_counter()
        passes.append(_regen_pass(ctx, size))
        now = perf_counter()
        if ctx.trace or (
            len(passes) >= size.min_batches and (now - started) + (now - begun) > ctx.seconds
        ):
            break
    traced = _regen_pass(ctx, size, trace=True) if ctx.trace else None
    out.setup_s += [p["setup_s"] for p in passes]

    digests = {p["digest"] for p in passes} | ({traced["digest"]} if traced else set())
    out.check("digest_repeats", len(digests) == 1)
    for p in passes + ([traced] if traced else []):
        out.check("warm_digest_equals_cold", p["warm_digest"] == p["digest"])
        out.check("warm_pass_all_cached", p["warm_hits"] == p["runs"])
    for p in passes:
        ok = sum(1 for run in p["records"] if run["status"] == "ok")
        out.attempted += 2 * p["runs"]
        out.failed += (p["runs"] - ok) + (p["runs"] - p["warm_ok"])
        out.ok_ops += ok
        out.phase_s += p["regen_s"]
        out.batch_s.append(p["regen_s"])
        out.window_rates.append(ok / p["regen_s"])
    out.peak_rss_mb = max(p["peak_rss_mb"] for p in passes)
    first = passes[0]
    out.model["model.regen_digest"] = int(first["digest"][:12], 16)
    out.named["regen_s"] = (out.phase_s / len(passes), "s")
    if traced is not None:
        out.layers.update(layer_metrics(traced["layers"], 1, None))
        out.layers["trace.overhead_frac"] = traced["regen_s"] / first["regen_s"] - 1.0
        out.layers["trace.coverage_frac"] = traced["root_s"] / first["regen_s"] - 1.0
        out.layers["trace.spans"] = traced["spans"]
        out.table = traced["table"]
        runs = traced["records"]
        for tag in REGEN_TAGS:
            out.layers[f"experiments.wall_s.{tag}"] = sum(
                run["wall_s"] for run in runs if tag in run["tags"])
        out.layers["experiments.cache_hit_ratio"] = traced["warm_hits"] / traced["runs"]
        out.layers["experiments.warm_pass_s"] = traced["warm_s"]
    return out


#: ``tail_pct`` is the highest percentile with ten or more batches
#: beyond it where that proved steady on a shared 2-vCPU host, p99 on
#: churn.  The serve workloads report p95: serve_bulk's ~1800 pairs
#: allow p99, but it moved by 12-21 % between seeds against 3-6 % for
#: p95; serve_sharded's ~10k batches allow p99.9, which moved by ~25 %,
#: and its p99 moved by 4-8 % in a normal period of the host but by
#: 22-76 % in a slow one (p95: 11 %).  regen times three or so cold
#: passes, too few for a tail: its p50 is its ``batch_p50_ms``.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serve_bulk",
            "VS and VM LookupService on ~100k-pair batches over 4x20k-prefix tables: "
            "walk and partition dominate; Zipf(1.1) + 10 % uniform destinations are an "
            "assumed mix, not a measured one",
            "lookup", "100k pairs served by VS, then by VM", 95.0, serve_bulk,
        ),
        Workload(
            "serve_sharded",
            "2-shard process-transport ShardedLookupService, 2 concurrent callers, "
            "10k-pair batches over 4x2k-prefix tables: the tier's own overhead dominates",
            "lookup", "10k-pair serve call", 95.0, serve_sharded,
        ),
        Workload(
            "churn",
            "VirtualRouterManager over 4x20k-prefix tables: one update then a 1k lookup "
            "batch (assumed Zipf destinations) on that VN's trie per round, so every "
            "batch pays the re-freeze",
            "update", "1k lookup batch after an update", 99.0, churn,
        ),
        Workload(
            "regen",
            "every registered experiment through ExperimentEngine(jobs=1) into a fresh "
            "cache, then a warm pass: trie construction and the models dominate",
            "experiment run", "cold pass of every run", 50.0, regen,
        ),
    )
}
