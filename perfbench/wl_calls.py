"""sim-calls and vec-calls: collective calls in a closed loop on a backend.

The run executes *blocks*: one ``session.run`` whose SPMD body issues a
seeded sequence of ops, one after the other (a closed loop: each op
starts when the previous one returned).  Rank 0 times every op; every
rank checks its own output against a numpy reference computed from the
op's inputs before the block started.

A block of 80 ops holds, in seeded order: 48 allreduces of 64 B, 10
broadcasts of 4 KiB from a seeded root, 6 PAT allgathers and 10 PAT
reduce_scatters of 64 B blocks, one 64 KiB allreduce, one
``ctx.superstep()`` burst of 16 64 B allreduces and four scalar phases
(16 random remote amo/put/get per PE on a 4096-word table).  On sim
the second of every four blocks runs on ``transport="mailbox"``; blocks
that cannot run scalar phases (mailbox, vec) issue 64 B allreduces in
their place.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import repro.xbrtime as xbr
from repro.collectives.allreduce import compile_allreduce
from repro.collectives.broadcast import compile_broadcast
from repro.collectives.extra import compile_allgather_pat
from repro.collectives.reduce_scatter import compile_reduce_scatter
from repro.collectives.schedule.evaluate import evaluate_schedule

import pbutil
from pbtrace import OFF

TABLE_WORDS = 4096
AMO_WORDS = (0, 1024)
PUT_WORDS = (1024, 3072)
GET_WORDS = (3072, 4096)
SCALAR_ACCESSES = 16
BURST = 16
BIG = 8192          # 64 KiB of int64
BCAST = 512         # 4 KiB of int64
SMALL = 8           # 64 B of int64
MAILBOX_EVERY = 4

#: (kind, count) of one block, before the seeded shuffle.
#: The shares keep p50 and p90 inside dense bands of the latency
#: distribution, not at a boundary between op kinds, where the
#: percentile would jump with host noise.  On vec the kinds barely
#: overlap (bc4k < ar64 < ag < rs < burst < ar64k): p50 falls among the
#: 64 B allreduces and p90 mid-way through the reduce_scatters.  On sim
#: p90 falls among the mailbox-block ops and scalar phases; the slow
#: kinds (64 KiB, bursts, each block's first op) stay under 5%.
MIX = (("ar64", 48), ("bc4k", 10), ("ag", 6), ("rs", 10), ("ar64k", 1),
       ("burst", 1), ("scalar", 4))

#: op kind -> per-layer metric stem (collective.size)
LABELS = {"ar64": "allreduce.64B", "ar64k": "allreduce.64KiB",
          "bc4k": "broadcast.4KiB", "ag": "allgather.64B",
          "rs": "reduce_scatter.64B"}


def _readonly_value(pe: int, word: int) -> int:
    return (pe * 1_000_003 + word * 7919) % (1 << 40)


def block_kinds(rng, scalar: bool) -> list[str]:
    """The seeded op order of one block (scalar phases need <= 8 PEs)."""
    kinds = [k for k, c in MIX for _ in range(c)]
    if not scalar:
        kinds = ["ar64" if k == "scalar" else k for k in kinds]
    return [kinds[i] for i in rng.permutation(len(kinds))]


class Block:
    """One block's ops, inputs and reference outputs (same on all PEs)."""

    def __init__(self, rng, n: int, kinds: list[str]):
        self.kinds = kinds
        self.inputs: list = []
        self.want: list = []
        self.arg: list = []
        # Expected table state (AMO counters and put slots) per PE.
        amo = np.zeros((n, AMO_WORDS[1] - AMO_WORDS[0]), dtype=np.uint64)
        put = np.zeros((n, PUT_WORDS[1] - PUT_WORDS[0]), dtype=np.int64)
        for kind in self.kinds:
            arg = None
            if kind in ("ar64", "ar64k"):
                k = SMALL if kind == "ar64" else BIG
                src = rng.integers(0, 1 << 20, (n, k), dtype=np.int64)
                want = [src.sum(axis=0)] * n
            elif kind == "bc4k":
                arg = int(rng.integers(n))
                src = rng.integers(0, 1 << 20, (n, BCAST), dtype=np.int64)
                want = [src[arg]] * n
            elif kind == "ag":
                src = rng.integers(0, 1 << 20, (n, SMALL), dtype=np.int64)
                want = [src.reshape(-1)] * n
            elif kind == "rs":
                src = rng.integers(0, 1 << 20, (n, SMALL * n), dtype=np.int64)
                tot = src.sum(axis=0)
                want = [tot[r * SMALL:(r + 1) * SMALL] for r in range(n)]
            elif kind == "burst":
                src = rng.integers(0, 1 << 20, (BURST, n, SMALL),
                                   dtype=np.int64)
                want = src.sum(axis=1)
            else:  # scalar
                src = None
                arg = self._scalar_plan(rng, n, amo, put)
                want = (amo.copy(), put.copy())
            self.inputs.append(src)
            self.want.append(want)
            self.arg.append(arg)

    @staticmethod
    def _scalar_plan(rng, n, amo, put) -> list:
        """Per-PE access lists; updates the expected table in place.

        Puts go to slots owned by the writer (word = base + 8*j + me,
        at most 8 PEs), so the final table does not depend on the
        interleaving; AMO adds commute; gets read words nobody writes.
        """
        plan = []
        for me in range(n):
            acc = []
            for _ in range(SCALAR_ACCESSES):
                kind = ("amo", "put", "get")[int(rng.integers(3))]
                pe = int(rng.integers(n))
                if kind == "amo":
                    w = int(rng.integers(*AMO_WORDS))
                    v = int(rng.integers(1, 1 << 16))
                    amo[pe, w - AMO_WORDS[0]] += np.uint64(v)
                elif kind == "put":
                    j = int(rng.integers((PUT_WORDS[1] - PUT_WORDS[0]) // 8))
                    w = PUT_WORDS[0] + 8 * j + me
                    v = int(rng.integers(1, 1 << 40))
                    put[pe, w - PUT_WORDS[0]] = v
                else:
                    w = int(rng.integers(*GET_WORDS))
                    v = _readonly_value(pe, w)
                acc.append((kind, pe, w, v))
            plan.append(acc)
        return plan


def block_body(ctx, block: Block, tracer, times: list, first: int,
               run_span=None):
    """The SPMD program of one block.  Rank 0 appends each op's wall
    seconds to ``times``; returns ``(ok flags, modelled clock)``."""
    ctx.init()
    me, n = ctx.my_pe(), ctx.num_pes()
    width = max(BIG, SMALL * n, BCAST)
    table = ctx.malloc(TABLE_WORDS * 8)
    src = ctx.malloc(width * 8)
    dst = ctx.malloc(width * 8)
    bsrc = ctx.malloc(BURST * SMALL * 8)
    bdst = ctx.malloc(BURST * SMALL * 8)
    word = ctx.private_malloc(16)
    tv = ctx.view(table, "long", TABLE_WORDS)
    tv[:] = 0
    tv[GET_WORDS[0]:GET_WORDS[1]] = [
        _readonly_value(me, w) for w in range(*GET_WORDS)]
    sv = ctx.view(src, "long", width)
    dv = ctx.view(dst, "long", width)
    bsv = ctx.view(bsrc, "long", BURST * SMALL)
    bdv = ctx.view(bdst, "long", BURST * SMALL)
    wv = ctx.view(word, "long", 1)
    tr = tracer if me == 0 else OFF
    got = []
    ok = []
    ctx.barrier()
    for i, kind in enumerate(block.kinds):
        inp, arg = block.inputs[i], block.arg[i]
        if kind == "burst":
            bsv[:] = inp[:, me, :].reshape(-1)
        elif inp is not None:
            sv[:inp.shape[1]] = inp[me]
        t0 = time.perf_counter()
        with tr.span("op." + kind, op=first + i, parent=run_span):
            if kind in ("ar64", "ar64k"):
                with tr.span("collective"):
                    ctx.allreduce(dst, src, inp.shape[1], 1, "sum", "long")
            elif kind == "bc4k":
                with tr.span("collective"):
                    ctx.broadcast(dst, src, BCAST, 1, arg, "long")
            elif kind == "ag":
                with tr.span("collective"):
                    ctx.allgather(dst, src, [SMALL] * n,
                                  [SMALL * r for r in range(n)], SMALL * n,
                                  "long", algorithm="pat")
            elif kind == "rs":
                with tr.span("collective"):
                    ctx.reduce_scatter(dst, src, [SMALL] * n,
                                       [SMALL * r for r in range(n)],
                                       SMALL * n, "sum", "long",
                                       algorithm="pat")
            elif kind == "burst":
                with tr.span("superstep"), ctx.superstep():
                    for j in range(BURST):
                        ctx.allreduce(bdst + 8 * SMALL * j,
                                      bsrc + 8 * SMALL * j, SMALL, 1, "sum",
                                      "long")
            else:
                got = _scalar(ctx, tr, arg[me], table, word, wv)
        dt = time.perf_counter() - t0
        if me == 0:
            times.append(dt)
        ok.append(_check(block, i, me, dv, bdv, tv, got))
        if kind == "scalar":
            # The next scalar phase must not write this table before
            # every PE has checked it.
            ctx.barrier()
    clock = ctx.time_ns
    ctx.close()
    return ok, clock


def _scalar(ctx, tr, accesses, table, word, wv) -> list:
    """One PE's remote accesses; returns the values its gets read."""
    got = []
    for kind, pe, w, v in accesses:
        addr = table + 8 * w
        if kind == "amo":
            with tr.span("amo"):
                ctx.amo(addr, v, pe, "add")
        elif kind == "put":
            wv[0] = v
            with tr.span("put"):
                ctx.put(addr, word, 1, 1, pe, "long")
        else:
            with tr.span("get"):
                ctx.get(word, addr, 1, 1, pe, "long")
            got.append(int(wv[0]))
    with tr.span("barrier"):
        ctx.barrier()
    return got


def _check(block: Block, i: int, me: int, dv, bdv, tv, got) -> bool:
    """This PE's output of op ``i`` against the numpy reference."""
    kind, want = block.kinds[i], block.want[i]
    if kind in ("ar64", "ar64k", "bc4k", "ag", "rs"):
        return bool(np.array_equal(dv[:len(want[me])], want[me]))
    if kind == "burst":
        return bool(np.array_equal(bdv.reshape(BURST, SMALL), want))
    amo, put = want
    reads = [v for k, _, _, v in block.arg[i][me] if k == "get"]
    return (got == reads
            and np.array_equal(tv[AMO_WORDS[0]:AMO_WORDS[1]].view(np.uint64),
                               amo[me])
            and np.array_equal(tv[PUT_WORDS[0]:PUT_WORDS[1]], put[me]))


class Calls:
    """sim-calls (8 PEs, sim + mailbox share) or vec-calls (64 PEs)."""

    def __init__(self, tracer, backend: str, tiny: bool = False):
        self.tracer = tracer
        self.backend = backend
        self.n = (4 if backend == "sim" else 8) if tiny else \
            (8 if backend == "sim" else 64)
        t0 = time.perf_counter()
        with tracer.span(f"{backend}.session_open"):
            self.session = xbr.init(backend, n_pes=self.n)
            self.mailbox = xbr.init(backend, n_pes=self.n,
                                    transport="mailbox") \
                if backend == "sim" else None
        self.open_s = time.perf_counter() - t0
        # Warm-up: the first call compiles (cache miss).
        warm = Block(np.random.default_rng(0), self.n, ["ar64"])
        with tracer.span("runtime.first_call"):
            times, ok, _, _ = self.run_block(warm, self.session, -1)
        if not all(ok):
            raise RuntimeError("warm-up call produced wrong output")
        self.first_call_ms = times[0] * 1e3

    def close(self) -> None:
        self.session.close()
        if self.mailbox is not None:
            self.mailbox.close()

    def _take_stats(self, session):
        """The last run's SimStats; drops the session's reference to the
        finished machine/world so it is freed before the next run."""
        if self.backend == "sim":
            stats, session.last_machine = session.last_machine.stats, None
        else:
            stats, session.last_world = session.last_world.stats, None
        return stats

    def run_block(self, block: Block, session, first: int, tracer=None):
        tracer = self.tracer if tracer is None else tracer
        times: list = []
        with tracer.span("session.run") as run_span:
            args = [(block, tracer, times, first, run_span)] * self.n
            res = session.run(block_body, args)
        ok = [all(r[0][i] for r in res) for i in range(len(block.kinds))]
        makespan = max(r[1] for r in res)
        return times, ok, makespan, self._take_stats(session)

    def run(self, seed: int, seconds: float, interleave: bool = False) -> dict:
        """Run blocks for ``seconds``.  With ``interleave``, groups of
        ``MAILBOX_EVERY`` blocks alternate between untraced and traced,
        so the tracing overhead is measured under the same host load;
        the per-layer metrics then come from the traced groups."""
        rng = np.random.default_rng(seed)
        lat, errors = [], 0
        # Latency, kind and transport of every op of the traced blocks.
        traced_lat, traced_kinds, traced_tps = [], [], []
        mode_ops, mode_wall = [0, 0], [0.0, 0.0]
        sim_wall, sim_msgs = 0.0, 0
        b = 0
        t0 = time.perf_counter()
        while True:
            mbx = self.mailbox is not None and b % MAILBOX_EVERY == 1
            traced = not interleave or (b // MAILBOX_EVERY) % 2 == 1
            block = Block(rng, self.n, block_kinds(
                rng, scalar=self.backend == "sim" and not mbx))
            session = self.mailbox if mbx else self.session
            tb = time.perf_counter()
            try:
                times, ok, _, stats = self.run_block(
                    block, session, len(lat), self.tracer if traced else OFF)
            except Exception as exc:  # a failed block fails all its ops
                print(f"block {b} failed: {exc!r}")
                times, ok, stats = [float("nan")] * len(block.kinds), \
                    [False] * len(block.kinds), None
            wall = time.perf_counter() - tb
            if not mbx and stats is not None:
                sim_wall += wall
                sim_msgs += stats.messages
            # Free the finished run's world now (it holds reference
            # cycles), so memory does not pile up across blocks.
            gc.collect()
            lat.extend(times)
            if traced:
                traced_lat.extend(times)
                traced_kinds.extend(block.kinds)
                traced_tps.extend(["mailbox" if mbx else "onesided"]
                                  * len(ok))
            mode_ops[traced] += ok.count(True)
            mode_wall[traced] += wall
            errors += ok.count(False)
            b += 1
            # A short run still holds a mailbox block, and an
            # interleaved one a traced and an untraced group.
            if b >= (2 * MAILBOX_EVERY if interleave else 2) \
                    and time.perf_counter() - t0 >= seconds:
                break
        elapsed = time.perf_counter() - t0
        out = {"latencies_s": [x for x in lat if x == x],
               "attempted": len(lat), "failed": errors,
               "elapsed_s": elapsed, "detail": {"blocks": b}}
        if interleave:
            out["mode_rates"] = tuple(o / w for o, w in zip(mode_ops,
                                                            mode_wall))
        out["layers"] = self.layers(traced_lat, traced_kinds, traced_tps,
                                    sim_wall / max(sim_msgs, 1))
        return out

    def leaks(self) -> list:
        return []

    def fingerprint(self) -> dict:
        """Modelled-time counters of fixed-seed blocks (seed-independent)."""
        fp = pbutil.new_fingerprint()
        rng = np.random.default_rng(20190805)
        sessions = [self.session] + ([self.mailbox] if self.mailbox else [])
        for session in sessions:
            block = Block(rng, self.n, block_kinds(
                rng, scalar=session is self.session and self.backend == "sim"))
            _, ok, makespan, stats = self.run_block(block, session, -10**6,
                                                    OFF)
            if not all(ok):
                raise RuntimeError("fingerprint block produced wrong output")
            pbutil.add_stats(fp, stats, makespan)
        return fp

    # -- traced run -------------------------------------------------------------

    def layers(self, lat, kinds, transports, host_s_per_msg) -> dict:
        if not self.tracer.enabled:
            return {}
        be = self.backend
        lat = np.asarray(lat) * 1e3
        kinds = np.asarray(kinds)
        tps = np.asarray(transports)
        one = tps == "onesided"
        out = {f"{be}.session_open_s": self.open_s,
               f"{be}.runtime.first_call_ms": self.first_call_ms}
        for kind, stem in LABELS.items():
            out[f"{be}.{stem}.ms_p50"] = pbutil.pct(
                lat[one & (kinds == kind)], 50)
        burst = pbutil.pct(lat[one & (kinds == "burst")], 50)
        if be == "sim":
            out["superstep.burst16_ms_p50"] = burst
            out["superstep.x_eager"] = burst / (
                BURST * out["sim.allreduce.64B.ms_p50"])
            for kind, stem in LABELS.items():
                out[f"mailbox.{stem}.ms_p50"] = pbutil.pct(
                    lat[~one & (kinds == kind)], 50)
            for acc in ("amo", "put", "get"):
                out[f"sim.{acc}_us_p50"] = 1e6 * pbutil.pct(
                    [sp.dur for sp in self.tracer.spans if sp.name == acc],
                    50)
            out["sim.host_us_per_msg"] = host_s_per_msg * 1e6
        else:
            out["vec.superstep.burst16_ms_p50"] = burst
            out["vec.rendezvous_ms_p50"] = self._rendezvous_ms(lat, kinds)
        return out

    def _standalone_schedules(self) -> dict:
        n = self.n
        disps = tuple(SMALL * r for r in range(n))
        return {
            "ar64": compile_allreduce(n, SMALL, 1, 8, "sum"),
            "ar64k": compile_allreduce(n, BIG, 1, 8, "sum"),
            "bc4k": compile_broadcast(n, 0, BCAST, 1, 8),
            "ag": compile_allgather_pat(n, (SMALL,) * n, disps, SMALL * n, 8),
            "rs": compile_reduce_scatter(n, (SMALL,) * n, disps, SMALL * n,
                                         8, "sum", algorithm="pat"),
        }

    def _rendezvous_ms(self, lat, kinds) -> float:
        """p50 over vec calls of (call - standalone evaluate_schedule of
        the same schedule), in ms."""
        scheds = self._standalone_schedules()
        excess = []
        for kind, sched in scheds.items():
            evals = []
            for _ in range(5):
                with self.tracer.span("evaluate.standalone", op=-2):
                    t = time.perf_counter()
                    evaluate_schedule(sched)
                    evals.append(time.perf_counter() - t)
            base = 1e3 * float(np.median(evals))
            excess.extend(lat[kinds == kind] - base)
        return pbutil.pct(excess, 50)
