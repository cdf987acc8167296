"""The batch evaluator's fast path: lane plans, slice data plane and
batched network pricing.

* **Pricing** — :meth:`LiteNetwork.send_batch` / :meth:`fetch_batch`
  return the same floats and leave the same counters (including
  ``fabric_queued_ns``) as one scalar call per message and as the
  stateful :class:`~repro.machine.network.Network`.
* **Data plane** — the basic-slice gather/scatter writes the same bytes
  as the fancy-index and byte-level paths, checked against a per-lane,
  per-element loop over uniform and per-lane addresses, unaligned
  bytes, strides 1–3, item sizes 1/4/8 and duplicate gather rows.
* **Plans** — one schedule object evaluated under two different address
  bindings is correct both times (a vec team, the non-symmetric dest of
  PAT reduce_scatter), and a plan goes away with its schedule.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.backends import get_backend
from repro.collectives.allreduce import compile_allreduce
from repro.collectives.reduce_scatter import compile_reduce_scatter
from repro.collectives.schedule import evaluate as ev
from repro.collectives.schedule.evaluate import (
    CostModel,
    LiteNetwork,
    evaluate_group,
    evaluate_schedule,
    world_round_cost_ns,
)
from repro.collectives.teams import Team
from repro.errors import SimulationError
from repro.machine.network import Network
from repro.params import MachineConfig, mpi_transport
from repro.sim.trace import SimStats

from ..conftest import small_config

I64 = np.dtype(np.int64)


# -- batched pricing ----------------------------------------------------------


def _message_batches(n_pes: int, seed: int) -> list:
    """``(kind, nbytes, [(t, src, dst), ...])`` batches with bursts on
    shared links, buses and fabric channels so queueing happens, at
    non-round times so a reordered float sum shows in the last bits."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(48):
        kind = ("send", "fetch")[int(rng.integers(2))]
        nbytes = int(rng.choice([0, 8, 64, 4096, 20000]))
        t0 = float(rng.random() * 2000)
        msgs = []
        for _ in range(int(rng.integers(1, 17))):
            src = int(rng.integers(n_pes))
            dst = int(rng.integers(n_pes - 1))
            dst += dst >= src
            msgs.append((t0 + float(rng.random() * 20), src, dst))
        out.append((kind, nbytes, msgs))
    return out


@pytest.mark.parametrize("transport", ["xbgas", "mpi"])
@pytest.mark.parametrize("topology", ["fully-connected", "ring"])
def test_batched_pricing_matches_scalar_and_network(transport, topology):
    kw = {"transport": mpi_transport()} if transport == "mpi" else {}
    cfg = small_config(12, cores_per_node=3, topology=topology, **kw)
    batched, scalar = LiteNetwork(cfg), LiteNetwork(cfg)
    real = Network(cfg, SimStats())
    for kind, nbytes, msgs in _message_batches(cfg.n_pes, seed=7):
        ts = [m[0] for m in msgs]
        srcs = [m[1] for m in msgs]
        dsts = [m[2] for m in msgs]
        if kind == "send":
            free, delivered = batched.send_batch(ts, srcs, dsts, nbytes)
            for i, (t, s, d) in enumerate(msgs):
                assert scalar.send(t, s, d, nbytes) == (free[i], delivered[i])
                r = real.send(t, s, d, nbytes)
                assert (r.t_source_free, r.t_delivered) == \
                    (free[i], delivered[i])
        else:
            done = batched.fetch_batch(ts, srcs, dsts, nbytes)
            for i, (t, s, d) in enumerate(msgs):
                assert scalar.fetch(t, s, d, nbytes) == done[i]
                assert real.fetch(t, s, d, nbytes).t_complete == done[i]
    assert batched.stats.fabric_queued_ns > 0
    for net in (scalar, real):
        assert net.stats.messages == batched.stats.messages
        assert net.stats.bytes_on_wire == batched.stats.bytes_on_wire
        assert net.stats.fabric_queued_ns == batched.stats.fabric_queued_ns
        assert net.quiescence_time() == batched.quiescence_time()
    assert scalar._link_free == batched._link_free
    assert scalar._bus_free == batched._bus_free
    assert scalar._fabric_free == batched._fabric_free


# -- slice data plane ---------------------------------------------------------


def _loop_gather(mem, rows, addrs, nelems, stride, itemsize):
    out = np.zeros((len(rows), nelems * itemsize), dtype=np.uint8)
    for i, (r, a) in enumerate(zip(rows, addrs)):
        for j in range(nelems):
            at = a + j * stride * itemsize
            out[i, j * itemsize:(j + 1) * itemsize] = mem[r, at:at + itemsize]
    return out


def _loop_scatter(mem, rows, addrs, nelems, stride, itemsize, raw):
    for i, (r, a) in enumerate(zip(rows, addrs)):
        for j in range(nelems):
            at = a + j * stride * itemsize
            mem[r, at:at + itemsize] = raw[i, j * itemsize:(j + 1) * itemsize]


_CASES = [
    pytest.param(addr, per_lane, rows, stride, itemsize,
                 id=f"a{addr}-{'lanes' if per_lane else 'shared'}-"
                    f"r{''.join(map(str, rows))}-s{stride}-b{itemsize}")
    for itemsize in (1, 4, 8)
    for stride in (1, 2, 3)
    for addr in (64, 67)           # element-aligned / unaligned bytes
    for per_lane in (False, True)
    for rows in ((0, 1, 2, 3), (1, 3, 4), (2, 2, 0, 5))  # run / gaps / dups
]


@pytest.mark.parametrize("addr,per_lane,rows,stride,itemsize", _CASES)
def test_slice_and_general_paths_write_identical_bytes(addr, per_lane, rows,
                                                       stride, itemsize):
    dtype = np.dtype(f"uint{8 * itemsize}")
    nelems = 5
    rng = np.random.default_rng(addr * 31 + stride * 7 + itemsize)
    base = rng.integers(0, 256, (6, 256), dtype=np.uint8)
    mview = base.view(dtype)
    rows_arr = np.asarray(rows, dtype=np.int64)
    lane_addrs = (addr + 8 * np.arange(len(rows)) if per_lane
                  else np.full(len(rows), addr)).astype(np.int64)
    run = slice(rows[0], rows[-1] + 1) if rows == (0, 1, 2, 3) else None
    shared = None if per_lane else addr
    want = _loop_gather(base, rows, lane_addrs, nelems, stride, itemsize)

    # Every gather form: slice (shared address, with and without a row
    # run), fancy element index and byte-level index.
    forms = [(lane_addrs, None, mview), (lane_addrs, None, None)]
    if shared is not None:
        forms += [(shared, run, mview), (shared, None, mview)]
    for at, rr, mv in forms:
        got = ev._gather(base, mv, rows_arr, rr, at, nelems, stride, dtype)
        assert np.ascontiguousarray(got).view(np.uint8).tobytes() == \
            want.tobytes()

    if len(set(rows)) < len(rows):
        return  # duplicate scatter rows are a write hazard, not a case
    raw = rng.integers(0, 256, want.shape, dtype=np.uint8)
    vals = raw.view(dtype)
    expect = base.copy()
    _loop_scatter(expect, rows, lane_addrs, nelems, stride, itemsize, raw)
    for at, rr, mv_on in forms:
        mem = base.copy()
        mv = mem.view(dtype) if mv_on is not None else None
        ev._scatter(mem, mv, rows_arr, rr, at, nelems, stride, dtype, vals)
        assert mem.tobytes() == expect.tobytes()


# -- one schedule, two address bindings ---------------------------------------


def _evaluate_bound(sched, addrs, mem, config):
    n = sched.n_pes
    ranks = np.arange(n, dtype=np.int64)
    stats = SimStats()
    return evaluate_group(
        mem, ranks, ranks, addrs, sched, I64, np.zeros(n),
        LiteNetwork(config, stats), world_round_cost_ns(config),
        CostModel(config, n, mem.shape[1]), stats,
    )


def test_pat_reduce_scatter_non_symmetric_dest_two_bindings():
    n, block = 6, 3
    counts = (block,) * n
    disps = tuple(r * block for r in range(n))
    sched = compile_reduce_scatter(n, counts, disps, n * block, 8, "sum",
                                   algorithm="pat")
    config = MachineConfig(n_pes=n)
    rng = np.random.default_rng(3)
    payload = rng.integers(-1000, 1000, (n, n * block), dtype=np.int64)
    total = payload.sum(axis=0)
    width = 8192
    results = []
    for binding in range(2):
        mem = np.zeros((n, width), dtype=np.uint8)
        addrs = []
        for r in range(n):
            # Per-rank private dest (never symmetric), and a src that
            # moves between the two bindings.
            src = 1024 + 512 * binding
            dest = 4096 + 64 * r + 1024 * binding
            m = {"src": src, "dest": dest}
            off = 6144
            for buf in sched.buffers:
                if buf.kind != "user" and buf.held_by(r):
                    m[buf.name] = off
                    off += (buf.nbytes_on(r) + 63) & ~63
            addrs.append(m)
            mem[r, src:src + 8 * n * block] = payload[r].view(np.uint8)
        end = _evaluate_bound(sched, addrs, mem, config)
        for r in range(n):
            d = addrs[r]["dest"]
            got = mem[r, d:d + 8 * block].view(np.int64)
            assert np.array_equal(got, total[r * block:(r + 1) * block]), \
                f"binding {binding} rank {r}"
        results.append(end)
    # Same schedule, fresh machine: identical modelled time both times.
    assert np.array_equal(results[0], results[1])


def _team_twice(ctx):
    """The same team allreduce schedule under two buffer bindings."""
    ctx.init()
    me, n = ctx.my_pe(), ctx.num_pes()
    members = tuple(range(1, n, 2))
    nelems = 6
    bufs = [(ctx.malloc(8 * nelems), ctx.malloc(8 * nelems))
            for _ in range(2)]
    for k, (src, dest) in enumerate(bufs):
        ctx.view(src, I64, nelems)[:] = np.arange(nelems) * (me + 1) + 100 * k
        ctx.view(dest, I64, nelems)[:] = -1
    ctx.barrier()
    if me in members:
        team = Team(ctx, members)
        for src, dest in bufs:
            team.reduce_all(dest, src, nelems, 1, "sum", I64)
    ctx.barrier()
    out = [ctx.view(dest, I64, nelems).copy() for _, dest in bufs]
    ctx.close()
    return out


def test_vec_team_same_schedule_two_bindings():
    n, nelems = 8, 6
    members = range(1, n, 2)
    res = get_backend("vec").run(_team_twice, config=small_config(n))
    for k in range(2):
        want = sum(np.arange(nelems) * (m + 1) + 100 * k for m in members)
        for r in range(n):
            got = res[r][k]
            if r in members:
                assert np.array_equal(got, want), f"binding {k} rank {r}"
            else:
                assert (got == -1).all()


# -- plan lifetime ------------------------------------------------------------


def test_plan_is_reused_and_released_with_its_schedule():
    # A schedule object no compile cache holds.
    sched = dataclasses.replace(compile_allreduce(4, 8, 1, 8, "sum"),
                                algorithm="doubling-copy")
    evaluate_schedule(sched)
    plan = ev._plan_of(sched)
    evaluate_schedule(sched, collect_data=False)
    assert ev._plan_of(sched) is plan
    released = weakref.ref(plan)
    del sched, plan
    gc.collect()
    assert released() is None


# -- standalone inputs --------------------------------------------------------


def test_oversized_input_is_rejected_not_spilled():
    sched = compile_allreduce(4, 8, 1, 8, "sum")
    src = np.arange(32, dtype=np.int64).reshape(4, 8)
    with pytest.raises(SimulationError, match="buffer slot"):
        evaluate_schedule(sched, inputs={
            "src": src, "dest": np.ones((4, 16), dtype=np.int64)})
    ok = evaluate_schedule(sched, inputs={"src": src})
    for r in range(4):
        assert np.array_equal(ok.buffer("src", r), src[r])
        assert np.array_equal(ok.buffer("dest", r), src.sum(axis=0))


def test_unbound_buffer_a_step_uses_is_rejected():
    sched = compile_allreduce(4, 8, 1, 8, "sum")
    config = MachineConfig(n_pes=4)
    layout = {buf.name: 64 * (i + 1) for i, buf in enumerate(sched.buffers)}
    addrs = [dict(layout) for _ in range(4)]
    del addrs[2]["dest"]
    mem = np.zeros((4, 4096), dtype=np.uint8)
    with pytest.raises(SimulationError, match="rank 2: buffer 'dest'"):
        _evaluate_bound(sched, addrs, mem, config)
