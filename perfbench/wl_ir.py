"""ir-sweep: the schedule IR passes and the evaluator, no backend.

One op takes one call shape through five stages with the compile
caches cold: ``compile_*``, ``lint_schedule``, ``lower_to_mailbox``,
``evaluate_schedule(collect_data=False)`` and ``evaluate_schedule``
with data.  The data-mode outputs are then compared with a numpy
reference.  A pass runs every shape of the deck once, in a seeded
order; a run makes at least one pass and starts another only if it
fits the run's time at the last pass's pace.
"""

from __future__ import annotations

import gc
import sys
import time

import numpy as np

from repro.collectives.allreduce import compile_allreduce
from repro.collectives.extra import compile_allgather_pat
from repro.collectives.reduce_scatter import compile_reduce_scatter
from repro.collectives.schedule import lint_schedule, lower_to_mailbox
from repro.collectives.schedule.evaluate import evaluate_schedule

import pbutil

FAMILIES = ("doubling", "ring", "dual-pipelined", "allgather-pat",
            "reduce_scatter-pat")
PES = (64, 128, 256)
SIZES = (64, 64 * 1024)
TINY_PES = (4, 8)
TINY_SIZES = (64, 1024)
#: Ring lowering is quadratic; at 256 PEs it alone would take ~8 s.
RING_MAX_PES = 128
ITEMSIZE = 8


def deck(tiny: bool = False) -> list[tuple[str, int, int]]:
    """Every (family, n_pes, bytes) shape of one pass."""
    pes, sizes = (TINY_PES, TINY_SIZES) if tiny else (PES, SIZES)
    return [(fam, n, size) for fam in FAMILIES for n in pes for size in sizes
            if not (fam == "ring" and n > RING_MAX_PES)]


def block_elems(n: int, size: int) -> int:
    """Per-rank block of the gather-type families: a 64 B block at the
    small size, a 64 KiB vector split over the ranks at the large one
    (a 64 KiB block per rank would need N x 64 KiB per rank)."""
    return size // ITEMSIZE if size <= 64 else size // ITEMSIZE // n


def compile_shape(fam: str, n: int, size: int):
    if fam in ("doubling", "ring", "dual-pipelined"):
        return compile_allreduce(n, size // ITEMSIZE, 1, ITEMSIZE, "sum",
                                 algorithm=fam)
    b = block_elems(n, size)
    counts = (b,) * n
    disps = tuple(i * b for i in range(n))
    if fam == "allgather-pat":
        return compile_allgather_pat(n, counts, disps, b * n, ITEMSIZE)
    return compile_reduce_scatter(n, counts, disps, b * n, ITEMSIZE, "sum",
                                  algorithm="pat")


def make_case(fam: str, n: int, size: int, rng) -> tuple[dict, list]:
    """Seeded inputs and the numpy reference output of every rank."""
    if fam in ("doubling", "ring", "dual-pipelined"):
        src = rng.integers(0, 1 << 20, (n, size // ITEMSIZE), dtype=np.int64)
        total = src.sum(axis=0)
        return {"src": src}, [total] * n
    b = block_elems(n, size)
    if fam == "allgather-pat":
        src = rng.integers(0, 1 << 20, (n, b), dtype=np.int64)
        return {"src": src}, [src.reshape(-1)] * n
    src = rng.integers(0, 1 << 20, (n, b * n), dtype=np.int64)
    total = src.sum(axis=0)
    return {"src": src}, [total[r * b:(r + 1) * b] for r in range(n)]


def _cache_clearers() -> list:
    """``cache_clear`` of every lru cache in the collectives package."""
    out = []
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro.collectives"):
            continue
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                out.append(obj.cache_clear)
    return out


class IrSweep:
    def __init__(self, tracer, tiny: bool = False):
        self.tracer = tracer
        self.shapes = deck(tiny)
        self.clearers = _cache_clearers()
        # Warm-up: one tiny op through every stage.
        self.one_op(("doubling", 4, 64), None, None, op_id=-1)

    def close(self) -> None:
        pass

    def one_op(self, shape, inputs, want, op_id):
        """Run one shape through the five stages.  Returns
        ``(wall_s, ok, cost_eval, data_eval)``."""
        tr = self.tracer
        fam, n, size = shape
        for clear in self.clearers:
            clear()
        # Start every op from the same heap state: the previous op's
        # schedules are garbage now, and a collection due inside the
        # next op would charge it for them.
        gc.collect()
        t0 = time.perf_counter()
        with tr.span("op." + fam, op=op_id):
            with tr.span("compile"):
                sched = compile_shape(fam, n, size)
            with tr.span("lint"):
                issues = lint_schedule(sched)
            with tr.span("mailbox.lower"):
                lowered = lower_to_mailbox(sched)
            with tr.span("evaluate.cost"):
                cost = evaluate_schedule(sched, collect_data=False)
            with tr.span("evaluate.data"):
                data = evaluate_schedule(sched, inputs=inputs)
            wall = time.perf_counter() - t0
        ok = not issues and lowered.n_pes == n
        if want is not None:
            with tr.span("check", op=op_id):
                ok = ok and cost.elapsed_ns == data.elapsed_ns and all(
                    np.array_equal(data.buffer("dest", r), want[r])
                    for r in range(n))
        return wall, ok, cost, data

    def run(self, seed: int, seconds: float) -> dict:
        rng = np.random.default_rng(seed)
        shapes = self.shapes
        cases = {s: make_case(*s, rng) for s in shapes}
        lat, errors = [], 0
        moved = 0
        op_id = 0
        # evaluate.data.x_cost compares the data plane with cost-only
        # evaluation at the largest PE count and payload (256 x 64 KiB).
        big = (max(s[1] for s in shapes), max(s[2] for s in shapes))
        big_ops = set()
        passes = 0
        t0 = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            for k in rng.permutation(len(shapes)):
                shape = shapes[k]
                inputs, want = cases[shape]
                wall, ok, cost, data = self.one_op(shape, inputs, want, op_id)
                if shape[1:] == big:
                    big_ops.add(op_id)
                op_id += 1
                lat.append(wall)
                errors += not ok
                if passes == 0:
                    st = data.stats
                    moved += st.bytes_put + st.bytes_got + st.bytes_sent
                # Drop this op's arenas before the next op allocates.
                del cost, data
            passes += 1
            now = time.perf_counter()
            # Whole passes only, and none that would overrun the run.
            if now - t0 + (now - t_pass) > seconds:
                break
        elapsed = now - t0
        return {"latencies_s": lat, "attempted": len(lat), "failed": errors,
                "elapsed_s": elapsed, "detail": {"passes": passes},
                "layers": self.layers(passes, moved, big_ops)}

    def fingerprint(self) -> dict:
        """Modelled-time counters of one cost-only pass over the deck."""
        fp = pbutil.new_fingerprint()
        for shape in self.shapes:
            ev = evaluate_schedule(compile_shape(*shape), collect_data=False)
            pbutil.add_stats(fp, ev.stats, ev.elapsed_ns)
        return fp

    def leaks(self) -> list:
        return []

    def layers(self, passes: int, moved: int, big_ops: set) -> dict:
        """Per-pass layer totals from the trace (traced run only)."""
        if not self.tracer.enabled:
            return {}
        self_s = self.tracer.self_times()
        per: dict[str, float] = {}
        big = {"evaluate.cost": 0.0, "evaluate.data": 0.0}
        for sp in self.tracer.spans:
            if sp.op is None or sp.op < 0:
                continue
            per[sp.name] = per.get(sp.name, 0.0) + self_s[sp.sid] / passes
            if sp.op in big_ops and sp.name in big:
                big[sp.name] += self_s[sp.sid]
        compile_s = per["compile"]
        out = {
            "compile.s": compile_s,
            "lint.s": per["lint"],
            "mailbox.lower_s": per["mailbox.lower"],
            "evaluate.cost_s": per["evaluate.cost"],
            "evaluate.data_s": per["evaluate.data"],
            "evaluate.bytes": moved,
        }
        out["lint.x_compile"] = out["lint.s"] / compile_s
        out["mailbox.lower.x_compile"] = out["mailbox.lower_s"] / compile_s
        out["evaluate.data.x_cost"] = (big["evaluate.data"]
                                       / big["evaluate.cost"])
        return out
