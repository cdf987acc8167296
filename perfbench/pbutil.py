"""Shared helpers of the benchmark: percentiles, host block, memory,
mp hygiene census and the modelled-time fingerprint."""

from __future__ import annotations

import os
import platform
import resource
import sys

import numpy as np

#: SimStats counters that make up a modelled-time fingerprint.  A
#: wall-clock-only change must leave every one of them identical.
FINGERPRINT_KEYS = ("makespan_ns", "messages", "bytes_on_wire",
                    "l1_misses", "fabric_queued_ns", "mbx_stalls")


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation), NaN when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_block() -> dict:
    """What the numbers were measured on."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def new_fingerprint() -> dict:
    return {k: 0 for k in FINGERPRINT_KEYS}


def add_stats(fp: dict, stats, makespan_ns: float) -> None:
    """Fold one run's SimStats and makespan into a fingerprint."""
    fp["makespan_ns"] += makespan_ns
    fp["messages"] += stats.messages
    fp["bytes_on_wire"] += stats.bytes_on_wire
    fp["l1_misses"] += stats.l1_misses
    fp["fabric_queued_ns"] += stats.fabric_queued_ns
    fp["mbx_stalls"] += stats.mbx_stalls


def fingerprint_diff(got: dict, want: dict | None) -> list[str]:
    """Keys whose value differs from the recorded fingerprint (exact)."""
    if want is None:
        return ["<no recorded fingerprint>"]
    keys = sorted(set(got) | set(want))
    return [k for k in keys if got.get(k) != want.get(k)]


# -- mp hygiene ---------------------------------------------------------------

SHM_DIR = "/dev/shm"


def shm_segments() -> set[str]:
    """xbgas shared-memory segments currently present."""
    try:
        return {f for f in os.listdir(SHM_DIR) if f.startswith("xbgas-")}
    except FileNotFoundError:
        return set()


def spawned_workers() -> set[int]:
    """PIDs of live multiprocessing children of this process that look
    like PE workers (named ``xbgas-pe*`` by the mp backend)."""
    import multiprocessing as mp

    return {p.pid for p in mp.active_children()
            if (p.name or "").startswith("xbgas-pe")}
