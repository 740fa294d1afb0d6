"""Small measurement helpers shared by the workloads and the report."""

from __future__ import annotations

import resource
import statistics

import numpy as np

from repro.units import s_to_ms

def percentile_ms(samples_s: list[float], pct: float) -> float:
    """Percentile of second-valued samples, in milliseconds."""
    return s_to_ms(float(np.percentile(np.asarray(samples_s, dtype=float), pct)))


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def self_peak_rss_mib() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mib(pid: int) -> float:
    """Peak resident memory of a live process, from ``/proc``; 0 if unknown."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return 0.0
    return 0.0

