"""serve-mp: an open loop of seeded Poisson arrivals into a 2-PE
``ServePool(backend="mp")``.

The run draws ``RATE * seconds`` jobs (at least four of each kind) with
arrival times uniform over the run (a Poisson process conditioned on
its count), so every seed gives a different mix of the same size.  Each job is submitted when it
is due whether or not earlier jobs finished; its latency is measured
from the due time, so a stall shows in every job queued behind it.  Job
digests are compared with digests of numpy reference outputs.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.errors import QueueFullError
from repro.serve import JobSpec, ServePool, payload_values
from repro.types import typeinfo

import pbutil

#: Offered load, jobs/s.  On a 2-core host p90 stays under 4 ms up to
#: about 600 jobs/s; this sits well below saturation.
RATE = 200
POOL_PES = 2
KINDS = ("allreduce", "broadcast", "scan", "allgather", "barrier")
NELEMS = (8, 64, 512)
TENANTS = 4


def make_jobs(rng, count: int, seconds: float) -> list[tuple[float, JobSpec]]:
    """``count`` jobs due over ``seconds``; every kind gets an equal
    share (so each is measured), in seeded order."""
    due = np.sort(rng.uniform(0.0, seconds, count))
    kinds = rng.permutation([KINDS[i % len(KINDS)] for i in range(count)])
    jobs = []
    for i in range(count):
        n = int(rng.integers(1, POOL_PES + 1))
        jobs.append((float(due[i]), JobSpec(
            tenant=f"t{int(rng.integers(TENANTS))}",
            collective=str(kinds[i]),
            n_pes=n, nelems=NELEMS[int(rng.integers(len(NELEMS)))],
            root=int(rng.integers(n)), seed=int(rng.integers(1 << 30)))))
    return jobs


def reference_digest(spec: JobSpec) -> str:
    """The job digest computed from numpy reference outputs: per member
    SHA-256 of its destination buffer, folded in group order."""
    n, k = spec.n_pes, spec.nelems
    dt = typeinfo(spec.dtype).dtype
    pay = [payload_values(spec.seed, m, k, spec.dtype) for m in range(n)]
    members = []
    for m in range(n):
        if spec.collective == "allreduce":
            out = np.sum(pay, axis=0, dtype=dt)
        elif spec.collective == "broadcast":
            out = pay[spec.root]
        elif spec.collective == "scan":
            out = np.sum(pay[:m + 1], axis=0, dtype=dt)
        elif spec.collective == "allgather":
            out = np.concatenate(pay)
        else:  # barrier: the job copies its own payload
            out = pay[m]
        members.append(hashlib.sha256(
            np.ascontiguousarray(out, dtype=dt).tobytes()).hexdigest())
    return hashlib.sha256(",".join(members).encode()).hexdigest()


class Serve:
    def __init__(self, tracer, tiny: bool = False):
        self.tracer = tracer
        self.tiny = tiny
        self.shm_before = pbutil.shm_segments()
        t0 = time.perf_counter()
        with tracer.span("mp.pool_open"):
            self.pool = ServePool(n_pes=POOL_PES, backend="mp")
        self.open_s = time.perf_counter() - t0
        # Warm-up: one job of every kind at full width.
        for kind in KINDS:
            self.pool.submit(JobSpec(tenant="warm", collective=kind,
                                     n_pes=POOL_PES, nelems=8))
        for res in self.pool.drain(timeout_s=60):
            if not res.ok or res.digest != reference_digest(res.spec):
                raise RuntimeError(f"warm-up job failed: {res}")

    def close(self) -> None:
        self.pool.close()

    def fingerprint(self) -> None:
        """mp runs in wall-clock time only: there is no modelled time."""
        return None

    def leaks(self) -> list[str]:
        """Segments or workers left behind once the pool is closed."""
        out = sorted(pbutil.shm_segments() - self.shm_before)
        out += [f"worker pid {p}" for p in sorted(pbutil.spawned_workers())]
        return out

    def run(self, seed: int, seconds: float) -> dict:
        rng = np.random.default_rng(seed)
        rate = RATE // 4 if self.tiny else RATE
        jobs = make_jobs(rng, max(4 * len(KINDS), int(rate * seconds)),
                         seconds)
        pool, tr = self.pool, self.tracer
        results = {}
        sub_at, sub_span, submit_s, backlog = {}, {}, [], []
        rejected = 0

        def collect():
            for res in pool.poll():
                results[res.job_id] = res

        t0 = time.perf_counter()
        for k, (due, spec) in enumerate(jobs):
            while True:
                wait = t0 + due - time.perf_counter()
                if wait <= 0:
                    break
                pool.pump(min(wait, 0.002))
                collect()
            s0 = time.perf_counter()
            with tr.span("serve.submit", op=k) as sp:
                try:
                    jid = pool.submit(spec)
                except QueueFullError:
                    jid = None
            s1 = time.perf_counter()
            if jid is None:
                rejected += 1
                continue
            sub_at[jid] = (k, s0, s1)
            sub_span[jid] = sp
            submit_s.append(s1 - s0)
            backlog.append(pool.pending)
            collect()
        for res in pool.drain(timeout_s=120):
            results[res.job_id] = res
        elapsed = time.perf_counter() - t0

        lat, late, qwait, service = [], [], [], {}
        failed = rejected
        for jid, (k, s0, s1) in sub_at.items():
            res = results[jid]
            due = t0 + jobs[k][0]
            good = res.ok and res.digest == reference_digest(res.spec)
            failed += not good
            lat.append(s0 - due + res.latency_s)
            late.append(s0 - due)
            qwait.append(res.queue_wait_s)
            service.setdefault(res.spec.collective, []).append(res.service_s)
            if tr.enabled:
                self._trace_job(k, due, s0, s1, sub_span[jid], res)
        out = {"latencies_s": lat, "attempted": len(jobs), "failed": failed,
               "elapsed_s": elapsed, "layers": {},
               "detail": {"rate_per_s": rate, "rejected": rejected,
                          "gen_late_ms_p90": 1e3 * pbutil.pct(late, 90)}}
        if tr.enabled:
            sub_us = 1e6 * pbutil.pct(submit_s, 50)
            out["layers"] = {
                "mp.pool_open_s": self.open_s,
                "serve.submit_us_p50": sub_us,
                "serve.queue_wait_ms_p90": 1e3 * pbutil.pct(qwait, 90),
                "serve.gen_late_ms_p90": 1e3 * pbutil.pct(late, 90),
                "serve.backlog_max": max(backlog, default=0),
            }
            for kind in KINDS:
                out["layers"][f"serve.{kind}.service_ms_p50"] = \
                    1e3 * pbutil.pct(service.get(kind, []), 50)
        return out

    def _trace_job(self, k, due, s0, s1, submit_span, res) -> None:
        """Op span from due time to completion, with the submit call and
        the job's queue wait and service as children."""
        tr = self.tracer
        end = s0 + res.latency_s
        dispatch = s0 + res.queue_wait_s
        op = tr.add(f"op.{res.spec.collective}", due, max(end, s1), op=k)
        submit_span.parent = op.sid
        if dispatch > s1:
            tr.add("serve.queue", s1, dispatch, op=k, parent=op)
        tr.add("serve.service", max(dispatch, s1), max(end, s1), op=k,
               parent=op)
