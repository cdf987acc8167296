"""Vectorized schedule evaluator: run a compiled :class:`~.ir.Schedule`
over *all* ranks at once with numpy batch operations.

The simulator (:mod:`repro.sim.engine`) interprets one rank per green
thread and costs every memory access through the stateful cache/TLB
models — exact, but linear in PEs *and* in per-rank work, which caps it
around a few hundred PEs.  This module evaluates the same IR as data
parallel batches over a dense per-rank memory matrix, producing both
the collective *outputs* and per-rank *makespans* for 1k-64k PEs in
milliseconds:

* **Data** is exact: every Put/Get/Copy/Reduce/Fill/Send/Recv of a
  barrier segment is grouped by ``(segment, step index, kind, shape)``
  and applied as one gather/scatter over the rank axis — a basic column
  slice when every lane shares one element-aligned address, a fancy or
  byte-level index otherwise.  The grouping, the run order and the
  mailbox message matching depend on the schedule alone, so they form
  a *lane plan* built once per :class:`~.ir.Schedule` object and kept
  while it lives; a call only binds buffer addresses.
  Mailbox-lowered schedules batch too: sends deposit their payloads
  into per-(src, dst) FIFOs (costed through the same LogGP network
  plus the postoffice routing charge), recvs take them in FIFO order,
  with tags verified when the plan is built.
  Gathers materialise before scatters land, so the result is the
  sequentially-consistent value for every schedule the linter accepts
  (no intra-segment write hazards).  The conformance suite asserts the
  outputs byte-identical against the simulator and the multiprocessing
  backend.
* **Time** is modelled: per-lane costs mirror the transfer engine's
  formulas (loop overhead, OLB lookup, LogGP network with injection
  links / fabric channels / node buses) but replace the stateful
  cache/TLB walk with a closed form (:class:`CostModel`) using
  page-granular warmth.  Makespans therefore *track* the simulator's
  ``ns`` within a pinned tolerance rather than matching it exactly.

Entry points:

* :func:`evaluate_schedule` — standalone: lay out a compact arena,
  seed the inputs, evaluate, return a :class:`ScheduleEvaluation`.
  This is the 1k-64k PE path (no threads, no topology graph).
* :func:`evaluate_group` — the shared core, also driven by the ``vec``
  backend's rendezvous hook (:mod:`repro.backends.vec`) so schedules
  compose with the full runtime (teams, nested collectives, raw ops).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from math import ceil, log2
from typing import Mapping, Sequence

import numpy as np

from ...errors import SimulationError
from ...params import MachineConfig
from ...sim.trace import SimStats
from ..ops import apply_op, identity_of
from .ir import Schedule, step_span_bytes

__all__ = [
    "CostModel",
    "LiteNetwork",
    "ScheduleEvaluation",
    "evaluate_group",
    "evaluate_schedule",
    "world_round_cost_ns",
]

#: xBGAS OLB lookup cost charged per remote operation (matches the
#: simulator's :class:`~repro.isa.olb.ObjectLookasideBuffer` default).
OLB_LOOKUP_NS = 2.0

#: Mirrors of the fabric/bus constants in :mod:`repro.machine.network`.
_FABRIC_NS_PER_MSG = 45.0
_FABRIC_CHANNELS = 2
_HOP_LATENCY_FACTOR = 0.15
_NODE_BUS_NS_PER_MSG = 16.0

#: Transfer-loop instruction constants (see :mod:`repro.runtime.transfer`).
_LOOP_INSTRS = 5
_LOOP_OVERHEAD_INSTRS = 3
_SETUP_INSTRS = 12

#: Largest node count for which a non-analytic topology graph is built.
_MAX_TOPOLOGY_NODES = 4096


class LiteNetwork:
    """The :class:`~repro.machine.network.Network` cost formulas without
    fault injection and — for the fully-connected default — without
    building a topology graph, so 64k-PE machines cost nothing to set
    up.  Same per-message arithmetic: injection links, two fabric
    channels, per-node buses, quiescence horizon.

    The formulas live in the batched :meth:`send_batch` /
    :meth:`fetch_batch`, which price a lane group's messages in order in
    one loop; the scalar :meth:`send` / :meth:`fetch` (the vec backend's
    raw put/get/amo) are one-message batches.
    """

    def __init__(self, config: MachineConfig, stats: SimStats | None = None):
        self.cfg = config
        self.tp = config.transport
        self.stats = stats if stats is not None else SimStats()
        n_nodes = config.n_nodes
        if config.topology == "fully-connected":
            self._topology = None  # analytic: 1 hop between distinct nodes
        else:
            if n_nodes > _MAX_TOPOLOGY_NODES:
                raise SimulationError(
                    f"topology {config.topology!r} with {n_nodes} nodes is too "
                    f"large to build (limit {_MAX_TOPOLOGY_NODES}); use "
                    "topology='fully-connected' for large-PE evaluation"
                )
            from ...machine.topology import build_topology

            self._topology = build_topology(config.topology, n_nodes)
        self._node = [config.node_of(pe) for pe in range(config.n_pes)]
        self._link_free = [0.0] * n_nodes
        self._bus_free = [0.0] * n_nodes
        self._fabric_free = [0.0] * _FABRIC_CHANNELS
        self.max_delivery = 0.0

    # -- helpers (same formulas as Network) --------------------------------

    def node_of(self, pe: int) -> int:
        return self.cfg.node_of(pe)

    def _wire_latency(self, src_node: int, dst_node: int) -> float:
        if self._topology is None:
            hops = 0 if src_node == dst_node else 1
        else:
            hops = self._topology.hops(src_node, dst_node)
        return self.tp.latency_ns * (1.0 + _HOP_LATENCY_FACTOR * max(0, hops - 1))

    def _cross_fabric(self, t_ready: float, occ: float) -> float:
        free = self._fabric_free
        ch = 0 if free[0] <= free[1] else 1
        t_enter = t_ready if t_ready > free[ch] else free[ch]
        free[ch] = t_enter + occ
        if t_enter > t_ready:
            self.stats.fabric_queued_ns += t_enter - t_ready
        return t_enter

    def _cross_bus(self, node: int, t_ready: float, occ: float) -> float:
        free = self._bus_free[node]
        t_enter = t_ready if t_ready > free else free
        self._bus_free[node] = t_enter + occ
        if t_enter > t_ready:
            self.stats.fabric_queued_ns += t_enter - t_ready
        return t_enter

    def _occupancy(self, nbytes: int) -> tuple[float, float]:
        """Fabric and node-bus occupancy of one ``nbytes`` message."""
        return (_FABRIC_NS_PER_MSG + nbytes * self.cfg.fabric_gap_ns_per_byte,
                _NODE_BUS_NS_PER_MSG + nbytes * self.tp.intra_gap_ns_per_byte)

    def _handshake_ns(self, nbytes: int) -> float:
        tp = self.tp
        if tp.handshake_ns and nbytes > tp.eager_threshold:
            return tp.handshake_ns
        return 0.0

    def _sender_ns(self, nbytes: int) -> float:
        """Sender CPU cost of one message leaving its node."""
        tp = self.tp
        ns = tp.o_send + tp.kernel_ns + nbytes * tp.copy_ns_per_byte
        handshake = self._handshake_ns(nbytes)
        if handshake:
            ns += handshake
        return ns

    # -- one-way messages (put, send) --------------------------------------

    def send_batch(self, t_now: Sequence[float], src_pes: Sequence[int],
                   dst_pes: Sequence[int],
                   nbytes: int) -> tuple[list[float], list[float]]:
        """Cost one-way ``nbytes`` payloads in the given order; returns
        the per-message ``t_source_free`` and ``t_delivered`` lists."""
        tp = self.tp
        stats = self.stats
        n = len(t_now)
        stats.messages += n
        stats.bytes_on_wire += nbytes * n
        node = self._node
        link = self._link_free
        cross_bus, cross_fabric = self._cross_bus, self._cross_fabric
        fab_occ, bus_occ = self._occupancy(nbytes)
        o_send, kernel_ns = tp.o_send, tp.kernel_ns
        copy_ns = nbytes * tp.copy_ns_per_byte
        handshake = self._handshake_ns(nbytes)
        sender_ns = self._sender_ns(nbytes)
        intra_lat, intra_gap = (tp.intra_latency_ns,
                                nbytes * tp.intra_gap_ns_per_byte)
        inj, gap = nbytes * tp.inj_ns_per_byte, nbytes * tp.gap_ns_per_byte
        recv_ns = tp.o_recv + copy_ns if tp.two_sided else None
        # Analytic topology: every inter-node message crosses one hop.
        wire = self._wire_latency(0, 1) if self._topology is None else None
        max_del = self.max_delivery
        free_out: list[float] = []
        del_out: list[float] = []
        for t, sp, dp in zip(t_now, src_pes, dst_pes):
            sn, dn = node[sp], node[dp]
            if sn == dn:
                t_ready = t + o_send + kernel_ns + copy_ns
                if handshake:
                    t_ready += handshake
                t_enter = cross_bus(sn, t_ready, bus_occ)
                t_del = t_enter + intra_lat + intra_gap
            else:
                t_ready = t + sender_ns
                lf = link[sn]
                t_inj = (lf if lf > t_ready else t_ready) + inj
                link[sn] = t_inj
                t_enter = cross_fabric(t_inj, fab_occ)
                t_del = (t_enter + (wire if wire is not None
                                    else self._wire_latency(sn, dn))
                         + gap)
            if recv_ns is not None:
                t_del += recv_ns
            if t_del > max_del:
                max_del = t_del
            free_out.append(t_enter if t_enter > t_ready else t_ready)
            del_out.append(t_del)
        self.max_delivery = max_del
        return free_out, del_out

    def send(self, t_now: float, src_pe: int, dst_pe: int,
             nbytes: int) -> tuple[float, float]:
        """Cost a one-way payload; returns ``(t_source_free, t_delivered)``."""
        free, delivered = self.send_batch((t_now,), (src_pe,), (dst_pe,),
                                          nbytes)
        return free[0], delivered[0]

    # -- round trips (get) -------------------------------------------------

    def fetch_batch(self, t_now: Sequence[float], src_pes: Sequence[int],
                    dst_pes: Sequence[int], nbytes: int) -> list[float]:
        """Cost one-sided ``nbytes`` reads in the given order; returns
        the per-read ``t_complete`` list."""
        tp = self.tp
        stats = self.stats
        n = len(t_now)
        stats.messages += 2 * n
        stats.bytes_on_wire += (nbytes + 16) * n
        node = self._node
        link = self._link_free
        cross_bus, cross_fabric = self._cross_bus, self._cross_fabric
        req_fab_occ, req_bus_occ = self._occupancy(16)
        fab_occ, bus_occ = self._occupancy(nbytes)
        o_send, kernel_ns = tp.o_send, tp.kernel_ns
        req_ns = self._sender_ns(16)
        req_inj = 16 * tp.inj_ns_per_byte
        intra_lat = tp.intra_latency_ns
        intra_gap = nbytes * tp.intra_gap_ns_per_byte
        inj, gap = nbytes * tp.inj_ns_per_byte, nbytes * tp.gap_ns_per_byte
        two_sided = tp.two_sided
        serve_ns = tp.o_recv + kernel_ns
        copy_ns = nbytes * tp.copy_ns_per_byte
        wire = self._wire_latency(0, 1) if self._topology is None else None
        max_del = self.max_delivery
        out: list[float] = []
        for t, sp, dp in zip(t_now, src_pes, dst_pes):
            sn, dn = node[sp], node[dp]
            if sn == dn:
                t_ready = t + o_send + kernel_ns
                t_req = cross_bus(sn, t_ready, req_bus_occ)
                t_arrive = t_req + intra_lat
                if two_sided:
                    t_arrive += serve_ns
                t_rsp = cross_bus(sn, t_arrive, bus_occ)
                t_done = t_rsp + intra_lat + intra_gap
            else:
                t_ready = t + req_ns
                lf = link[sn]
                t_req = (lf if lf > t_ready else t_ready) + req_inj
                link[sn] = t_req
                t_enter = cross_fabric(t_req, req_fab_occ)
                t_arrive = t_enter + (wire if wire is not None
                                      else self._wire_latency(sn, dn))
                if two_sided:
                    t_arrive += serve_ns
                lf = link[dn]
                t_rsp = (lf if lf > t_arrive else t_arrive) + inj
                link[dn] = t_rsp
                t_enter2 = cross_fabric(t_rsp, fab_occ)
                t_done = (t_enter2 + (wire if wire is not None
                                      else self._wire_latency(dn, sn))
                          + gap)
            if two_sided:
                t_done += copy_ns
            if t_done > max_del:
                max_del = t_done
            out.append(t_done)
        self.max_delivery = max_del
        return out

    def fetch(self, t_now: float, src_pe: int, dst_pe: int,
              nbytes: int) -> float:
        """Cost a one-sided read; returns ``t_complete``."""
        return self.fetch_batch((t_now,), (src_pe,), (dst_pe,), nbytes)[0]

    # -- mailbox support ---------------------------------------------------

    def route_hops(self, src_node: int, dst_node: int) -> int:
        """Node hop count for the mailbox postoffice routing charge."""
        if src_node == dst_node:
            return 0
        if self._topology is None:
            return 1
        return self._topology.hops(src_node, dst_node)

    # -- barrier support ---------------------------------------------------

    def quiescence_time(self) -> float:
        return self.max_delivery

    def note_delivery(self, t: float) -> None:
        if t > self.max_delivery:
            self.max_delivery = t


class CostModel:
    """Closed-form memory cost with page-granular warmth tracking.

    The simulator walks a stateful L1/L2/TLB per access; that walk is
    the single hottest loop and is inherently sequential.  Here each
    (rank, 4 KiB page) pair carries one "touched" bit: the first access
    whose span starts on an untouched page is costed cold (DRAM stream
    + TLB walks), later accesses are costed by where the span fits in
    the cache hierarchy.  All formulas vectorise over a lane's address
    array, so a 4096-lane stage costs one numpy expression; ``addrs``
    may also be one Python int every lane shares, which keeps the span
    arithmetic scalar.
    """

    def __init__(self, config: MachineConfig, n_rows: int, mem_bytes: int):
        self.cfg = config
        m = config.mem
        self._line_bytes = m.l1.line_bytes
        self._line_shift = m.l1.line_bytes.bit_length() - 1
        self._page_shift = m.tlb.page_bytes.bit_length() - 1
        self._l1_ns = m.l1.hit_ns
        self._l2_ns = m.l2.hit_ns
        self._dram_ns = m.dram_ns
        self._stream_ns = m.dram_stream_ns
        self._walk_ns = m.tlb.walk_ns
        self._l1_bytes = m.l1.size_bytes
        self._l2_bytes = m.l2.size_bytes
        n_pages = -(-mem_bytes // m.tlb.page_bytes)
        self._touched = np.zeros((n_rows, max(n_pages, 1)), dtype=bool)
        self._loop_ns_cache: dict[int, float] = {}

    def loop_overhead_ns(self, nelems: int) -> float:
        """Same memoized formula as the transfer engine (section 3.3)."""
        ns = self._loop_ns_cache.get(nelems)
        if ns is not None:
            return ns
        if nelems <= 0:
            ns = 0.0
        else:
            cfg = self.cfg
            if nelems > cfg.unroll_threshold:
                per_elem = (_LOOP_INSTRS - _LOOP_OVERHEAD_INSTRS) + (
                    _LOOP_OVERHEAD_INSTRS / cfg.unroll_factor
                )
            else:
                per_elem = float(_LOOP_INSTRS)
            ns = (_SETUP_INSTRS + per_elem * nelems) * cfg.cycle_ns
        self._loop_ns_cache[nelems] = ns
        return ns

    def _mark(self, rows: np.ndarray, first_page, pages) -> None:
        """Set the touched bit of every page each lane's span covers."""
        touched = self._touched
        touched[rows, first_page] = True
        if np.ndim(pages) == 0:  # one span shared by every lane
            for k in range(1, pages):
                touched[rows, first_page + k] = True
            return
        for k in range(1, int(pages.max())):
            m = pages > k
            touched[rows[m], first_page[m] + k] = True

    def range_ns(self, rows: np.ndarray, addrs, span: int,
                 use_tlb: bool = True) -> np.ndarray:
        """Per-lane ns for a dense sweep of ``span`` bytes at ``addrs``."""
        if span <= 0:
            return np.zeros(len(rows))
        last = addrs + (span - 1)
        lines = (last >> self._line_shift) - (addrs >> self._line_shift) + 1
        first_page = addrs >> self._page_shift
        pages = (last >> self._page_shift) - first_page + 1
        warm = self._touched[rows, first_page]
        cold = lines * (self._l1_ns + self._l2_ns + self._stream_ns)
        if use_tlb:
            cold = cold + pages * self._walk_ns
        if span <= self._l1_bytes:
            warm_per_line = self._l1_ns
        elif span <= self._l2_bytes:
            warm_per_line = self._l1_ns + self._l2_ns
        else:
            warm_per_line = self._l1_ns + self._l2_ns + self._stream_ns
        ns = np.where(warm, lines * warm_per_line, cold)
        self._mark(rows, first_page, pages)
        return ns

    def strided_ns(self, rows: np.ndarray, addrs, nelems: int,
                   elem_bytes: int, stride: int,
                   use_tlb: bool = True) -> np.ndarray:
        """Per-lane ns for a strided access (put/get side cost)."""
        if nelems <= 0:
            return np.zeros(len(rows))
        step = elem_bytes * max(stride, 1)
        span = (nelems - 1) * step + elem_bytes
        if step <= self._line_bytes:
            return self.range_ns(rows, addrs, span, use_tlb)
        # Sparse: one line (and, cold, one DRAM access) per element.
        last = addrs + (span - 1)
        first_page = addrs >> self._page_shift
        pages = (last >> self._page_shift) - first_page + 1
        warm = self._touched[rows, first_page]
        cold = nelems * (self._l1_ns + self._l2_ns + self._dram_ns)
        if use_tlb:
            cold = cold + pages * self._walk_ns
        ns = np.where(warm, nelems * self._l1_ns, cold)
        self._mark(rows, first_page, pages)
        return ns

    def strided_ns_one(self, row: int, addr: int, nelems: int,
                       elem_bytes: int, stride: int,
                       use_tlb: bool = True) -> float:
        """Scalar convenience for the vec backend's raw put/get/amo."""
        return float(self.strided_ns(
            np.array([row]), np.array([addr]), nelems, elem_bytes, stride,
            use_tlb,
        )[0])


def world_round_cost_ns(config: MachineConfig) -> float:
    """One dissemination-barrier round over the full world (the same
    formula as :meth:`~repro.runtime.barrier.BarrierController.round_cost_ns`)."""
    tp = config.transport
    lat = tp.intra_latency_ns if config.n_nodes <= 1 else tp.latency_ns
    return tp.o_send + tp.kernel_ns + lat + 8 * tp.gap_ns_per_byte


# -- batched data movement ----------------------------------------------------


def _columns(mview, addr, nelems: int, stride: int, itemsize: int):
    """The element column slice for one address shared by every lane,
    or ``None`` when the slice path does not apply (per-lane addresses,
    no typed view of memory, a misaligned or out-of-range span)."""
    if mview is None or not isinstance(addr, int) or addr % itemsize:
        return None
    c0 = addr // itemsize
    stop = c0 + (nelems - 1) * stride + 1
    if c0 < 0 or stop > mview.shape[1]:
        return None
    return slice(c0, stop, stride)


def _gather(mem, mview, rows, run, addrs, nelems: int, stride: int,
            dtype: np.dtype) -> np.ndarray:
    """Materialise ``(len(rows), nelems)`` strided values.

    ``rows`` is the lanes' row array and ``run`` the same rows as a
    slice when they are contiguous (else ``None``).  ``addrs`` is a
    per-lane int64 array, or one Python int shared by every lane: a
    shared element-aligned address gathers through a basic column
    slice — a *view* of ``mem`` when ``run`` is given — and everything
    else through the fancy element or byte-level index (a copy).
    """
    b = dtype.itemsize
    cols = _columns(mview, addrs, nelems, stride, b)
    if cols is not None:
        return mview[rows if run is None else run, cols]
    if isinstance(addrs, int):
        addrs = np.full(len(rows), addrs, dtype=np.int64)
    if mview is not None and not np.any(addrs % b):
        idx = ((addrs // b)[:, None]
               + np.arange(nelems, dtype=np.int64)[None, :] * stride)
        return mview[rows[:, None], idx]
    step = b * stride
    bidx = (addrs[:, None, None]
            + np.arange(nelems, dtype=np.int64)[None, :, None] * step
            + np.arange(b, dtype=np.int64)[None, None, :])
    raw = mem[rows[:, None, None], bidx]
    return np.ascontiguousarray(raw).reshape(len(rows), nelems * b).view(dtype)


def _scatter(mem, mview, rows, run, addrs, nelems: int, stride: int,
             dtype: np.dtype, vals: np.ndarray) -> None:
    """Write ``(len(rows), nelems)`` values at strided addresses (same
    ``rows``/``run``/``addrs`` conventions as :func:`_gather`)."""
    b = dtype.itemsize
    cols = _columns(mview, addrs, nelems, stride, b)
    if cols is not None:
        mview[rows if run is None else run, cols] = vals
        return
    if isinstance(addrs, int):
        addrs = np.full(len(rows), addrs, dtype=np.int64)
    if mview is not None and not np.any(addrs % b):
        idx = ((addrs // b)[:, None]
               + np.arange(nelems, dtype=np.int64)[None, :] * stride)
        mview[rows[:, None], idx] = vals
        return
    step = b * stride
    bidx = (addrs[:, None, None]
            + np.arange(nelems, dtype=np.int64)[None, :, None] * step
            + np.arange(b, dtype=np.int64)[None, None, :])
    mem[rows[:, None, None], bidx] = (
        np.ascontiguousarray(vals).view(np.uint8).reshape(len(rows), nelems, b)
    )


# -- lane plans ---------------------------------------------------------------


def _run_start(idx: np.ndarray) -> int | None:
    """``idx[0]`` when ``idx`` is one ascending run of integers."""
    lo = int(idx[0])
    if int(idx[-1]) - lo != len(idx) - 1:
        return None
    if len(idx) > 2 and not bool((np.diff(idx) == 1).all()):
        return None
    return lo


class _Operand:
    """One buffer operand of a lane group: per-lane buffer index (into
    the plan's buffer names) and byte offset."""

    __slots__ = ("buf", "off", "shared")

    def __init__(self, cols: np.ndarray):
        self.buf = cols[:, 0]
        self.off = cols[:, 1]
        #: ``(buffer index, offset)`` when every lane names the same one.
        self.shared = None
        if len(cols) == 1 or bool((cols == cols[0]).all()):
            self.shared = (int(cols[0, 0]), int(cols[0, 1]))

    def resolve(self, bases: np.ndarray, first: list, uniform: list,
                g: np.ndarray):
        """The lanes' absolute addresses: one Python int when every lane
        has the same, else a per-lane int64 array."""
        sh = self.shared
        if sh is not None and uniform[sh[0]]:
            return first[sh[0]] + sh[1]
        return bases[g, self.buf] + self.off


class _Lanes:
    """One lane group: the step at one ``(segment, step index, kind,
    shape)`` key of every group rank that has it, as int64 arrays."""

    __slots__ = ("kind", "nelems", "stride", "extra", "g", "g_run", "peer",
                 "peer_run", "dst", "src", "send_id", "sources")

    def __init__(self, key: tuple, lanes: list):
        self.kind, self.nelems, self.stride = key[2], key[3], key[4]
        self.extra = key[5:]
        a = np.fromiter(chain.from_iterable(lanes), np.int64,
                        6 * len(lanes)).reshape(len(lanes), 6)
        self.g = a[:, 0]
        self.g_run = _run_start(self.g)
        first = lanes[0]
        self.dst = _Operand(a[:, 1:3]) if first[1] >= 0 else None
        self.src = _Operand(a[:, 3:5]) if first[3] >= 0 else None
        self.peer = self.peer_run = None
        if first[5] >= 0:
            self.peer = a[:, 5]
            self.peer_run = _run_start(self.peer)
            if self.kind != "recv" and np.any(self.peer == self.g):
                raise AssertionError(  # pragma: no cover - compiler bug guard
                    f"{self.kind} to self in schedule")
        #: send groups: slot of their payloads; recv groups: where each
        #: lane's message comes from, ``(send slot, lanes, send lanes)``.
        self.send_id = -1
        self.sources: tuple = ()


class _Plan:
    """Everything :func:`evaluate_group` derives from the schedule alone:
    the lane groups of every barrier segment in dataflow run order, the
    buffer names their operands index and the number of send groups."""

    __slots__ = ("n_ranks", "names", "segments", "n_sends", "_needs",
                 "__weakref__")

    def __init__(self, n_ranks: int, names: tuple, segments: list,
                 n_sends: int):
        self.n_ranks = n_ranks
        self.names = names
        self.segments = segments
        self.n_sends = n_sends
        self._needs = None

    def needs(self) -> np.ndarray:
        """``(n_ranks, n_buffers)``: which ranks' steps use which buffers."""
        if self._needs is None:
            needs = np.zeros((self.n_ranks, len(self.names)), dtype=bool)
            for run in self.segments:
                for grp in run:
                    for opnd in (grp.dst, grp.src):
                        if opnd is not None:
                            needs[grp.g, opnd.buf] = True
            self._needs = needs
        return self._needs

    def bind(self, sched: Schedule, addrs_per_rank: Sequence[Mapping[str, int]]):
        """Resolve the ``(K, n_buffers)`` base-address matrix; returns it
        with its first row (Python ints) and per-buffer "same address on
        every rank" flags."""
        names = self.names
        first_map = addrs_per_rank[0]
        K = len(addrs_per_rank)
        if all(m is first_map for m in addrs_per_rank):
            row = np.array([first_map.get(n, -1) for n in names],
                           dtype=np.int64)
            bases = np.broadcast_to(row, (K, len(names)))
            uniform = [True] * len(names)
        else:
            bases = np.array([[m.get(n, -1) for n in names]
                              for m in addrs_per_rank],
                             dtype=np.int64).reshape(K, len(names))
            uniform = (bases == bases[0]).all(axis=0).tolist()
        unbound = bases < 0
        if unbound.any():  # fine unless a step of that rank uses it
            missing = self.needs() & unbound
            if missing.any():
                g, i = (int(x) for x in np.argwhere(missing)[0])
                raise SimulationError(
                    f"schedule {sched.collective}:{sched.algorithm} rank "
                    f"{g}: buffer {names[i]!r} has no address"
                )
        return bases, bases[0].tolist(), uniform


def _collect_lanes(sched: Schedule, ix: Mapping[str, int]) -> tuple[dict, int]:
    """Flatten every rank's program into ``(segment, idx, kind, shape)``
    keyed lanes ``(rank, dst buffer, dst offset, src buffer, src offset,
    peer)`` — buffers as ``ix`` indices, ``-1`` where a step has no such
    operand.  A *segment* is the run of steps between two barriers; the
    linter guarantees every rank agrees on the barrier count, which this
    re-checks (it is the property batch evaluation rests on)."""
    groups: dict[tuple, list] = {}
    n_barriers = -1
    for g in range(sched.n_pes):
        seg = 0
        idx = 0
        for step in sched.program(g).all_steps():
            kind = step.kind
            if kind == "barrier":
                seg += 1
                idx = 0
                continue
            if kind == "put" or kind == "get":
                key = (seg, idx, kind, step.nelems, step.stride)
                lane = (g, ix[step.dst], step.dst_off, ix[step.src],
                        step.src_off, step.peer)
            elif kind == "copy":
                key = (seg, idx, kind, step.nelems, step.stride,
                       step.charged, step.skip_noop)
                lane = (g, ix[step.dst], step.dst_off, ix[step.src],
                        step.src_off, -1)
            elif kind == "reduce":
                key = (seg, idx, kind, step.nelems, step.stride,
                       step.charge_elems)
                lane = (g, ix[step.acc], step.acc_off, ix[step.operand],
                        step.operand_off, -1)
            elif kind == "fill":
                key = (seg, idx, kind, step.nelems, step.stride)
                lane = (g, ix[step.dst], step.dst_off, -1, 0, -1)
            elif kind == "send":
                key = (seg, idx, kind, step.nelems, step.stride, step.tag)
                lane = (g, -1, 0, ix[step.src], step.src_off, step.peer)
            elif kind == "recv":
                key = (seg, idx, kind, step.nelems, step.stride, step.tag)
                lane = (g, ix[step.dst], step.dst_off, -1, 0, step.peer)
            else:  # pragma: no cover - compiler bug guard
                raise AssertionError(f"unknown step kind {kind!r}")
            groups.setdefault(key, []).append(lane)
            idx += 1
        if n_barriers < 0:
            n_barriers = seg
        elif seg != n_barriers:
            raise SimulationError(
                f"schedule {sched.collective}:{sched.algorithm} rank {g} has "
                f"{seg} barriers, rank 0 has {n_barriers} — cannot batch"
            )
    return groups, n_barriers


def _match_recv(sched: Schedule, seg: int, key: tuple, lanes: list,
                pending: dict) -> tuple:
    """Pop each recv lane's message off its (src, dst) FIFO and check
    it; returns the group's ``sources``."""
    tag, nelems = key[5], key[3]
    by_send: dict[int, tuple[list, list]] = {}
    for i, lane in enumerate(lanes):
        mtag, melems, sid, slane = pending[(lane[5], lane[0])].popleft()
        if mtag != tag or melems != nelems:
            raise SimulationError(
                f"schedule {sched.collective}:{sched.algorithm} "
                f"rank {lane[0]} segment {seg}: recv(tag={tag},"
                f" nelems={nelems}) mismatches the pair-FIFO head "
                f"(tag={mtag}, nelems={melems})"
            )
        sel, src = by_send.setdefault(sid, ([], []))
        sel.append(i)
        src.append(slane)
    return tuple((sid, np.array(sel, dtype=np.int64),
                  np.array(src, dtype=np.int64))
                 for sid, (sel, src) in by_send.items())


def _build_plan(sched: Schedule) -> _Plan:
    names = tuple(buf.name for buf in sched.buffers)
    groups, n_barriers = _collect_lanes(
        sched, {name: i for i, name in enumerate(names)})
    order = sorted(groups)
    cursor = 0
    segments: list[list[_Lanes]] = []
    # Mailbox messages in flight, structurally: (src, dst) group-rank
    # pair -> FIFO of (tag, nelems, send slot, send lane).  Persists
    # across segments (hoisted get-requests are matched one barrier
    # later).
    pending: dict[tuple[int, int], deque] = {}
    n_sends = 0

    def admit(seg: int, key: tuple) -> None:
        """Append ``key``'s lane group to the run order of ``seg``."""
        nonlocal n_sends
        lanes = groups[key]
        grp = _Lanes(key, lanes)
        if key[2] == "send":
            grp.send_id = n_sends
            n_sends += 1
            for i, l in enumerate(lanes):
                pending.setdefault((l[0], l[5]), deque()).append(
                    (key[5], key[3], grp.send_id, i))
        elif key[2] == "recv":
            grp.sources = _match_recv(sched, seg, key, lanes, pending)
        segments[seg].append(grp)

    for seg in range(n_barriers + 1):
        segments.append([])
        seg_keys = []
        while cursor < len(order) and order[cursor][0] == seg:
            seg_keys.append(order[cursor])
            cursor += 1
        # Order the segment's groups for dataflow: each rank's groups
        # run in its program (step-index) order — cross-rank hazards
        # are forbidden by the linter, but same-rank write-then-read
        # within a segment (get-into-scratch feeding a reduce, recv
        # feeding a reduce) is real sequencing.  A recv group
        # additionally waits until every lane's (src, dst) FIFO holds
        # its message, which may be deposited by a send group at a
        # *higher* step index on another rank; the fixpoint scan below
        # resolves those forward dependencies exactly as the concurrent
        # per-PE machine does.
        by_rank: dict[int, list] = {}
        for key in seg_keys:
            for lane in groups[key]:
                by_rank.setdefault(lane[0], []).append(key)
        ptr = dict.fromkeys(by_rank, 0)
        remaining = seg_keys
        while remaining:
            deferred: list = []
            for key in remaining:
                lanes = groups[key]
                ready = all(by_rank[l[0]][ptr[l[0]]] == key for l in lanes)
                if ready and key[2] == "recv":
                    ready = all(pending.get((l[5], l[0])) for l in lanes)
                if not ready:
                    deferred.append(key)
                    continue
                admit(seg, key)
                for l in lanes:
                    ptr[l[0]] += 1
            if len(deferred) == len(remaining):
                raise SimulationError(
                    f"schedule {sched.collective}:{sched.algorithm} "
                    f"segment {seg}: groups {deferred} cannot make "
                    "progress — a recv waits on a send that never "
                    "deposits (batch-evaluation deadlock)"
                )
            remaining = deferred
    return _Plan(sched.n_pes, names, segments, n_sends)


def _plan_of(sched: Schedule) -> _Plan:
    """The schedule's lane plan, built on its first evaluation and kept
    on the (frozen) schedule object itself, as ``functools.cached_property``
    does: it lives and dies with the schedule (compiled schedules are
    ``lru_cache``d upstream)."""
    plan = sched.__dict__.get("_lane_plan")
    if plan is None:
        plan = sched.__dict__["_lane_plan"] = _build_plan(sched)
    return plan


# -- the core evaluator -------------------------------------------------------


def _lane_rows(rows: np.ndarray, row0: int | None, idx: np.ndarray,
               start: int | None):
    """Rows of the lanes ``idx`` and, when they are one contiguous run
    of memory rows, the same rows as a slice."""
    if row0 is None or start is None:
        return rows[idx], None
    lo = row0 + start
    return rows[idx], slice(lo, lo + len(idx))


def evaluate_group(
    mem: np.ndarray | None,
    rows: np.ndarray,
    world_pes: np.ndarray,
    addrs_per_rank: Sequence[Mapping[str, int]],
    sched: Schedule,
    dtype: np.dtype,
    start: np.ndarray,
    net,
    round_cost_ns: float,
    cost: CostModel,
    stats: SimStats,
) -> np.ndarray:
    """Evaluate ``sched`` for one participant group in a single pass.

    ``mem`` is the dense ``(total_rows, width)`` uint8 matrix (``None``
    skips data movement — makespans only); ``rows[g]`` is group rank
    ``g``'s row, ``world_pes[g]`` its PE id for network/node purposes,
    ``addrs_per_rank[g]`` its buffer-name → absolute-address map and
    ``start[g]`` its entry clock.  Returns the per-group-rank exit
    clocks; ``net``/``cost``/``stats`` are shared, so successive calls
    compose (nested collectives, warm caches, quiescence).

    The schedule's lane plan is built on its first evaluation and
    reused while the schedule lives; a call only binds the buffer
    addresses and runs the planned lane groups.
    """
    K = len(rows)
    if K != sched.n_pes:
        raise SimulationError(
            f"schedule {sched.collective}:{sched.algorithm} has "
            f"{sched.n_pes} ranks, evaluated over {K}"
        )
    plan = _plan_of(sched)
    rows = np.asarray(rows, dtype=np.int64)
    world = np.asarray(world_pes, dtype=np.int64)
    t = np.asarray(start, dtype=np.float64).copy()
    b = dtype.itemsize
    data = mem is not None
    mview = None
    if data and mem.shape[1] % b == 0:
        mview = mem.view(dtype)
    # Group ranks on consecutive memory rows: a lane run is a row slice.
    row0 = int(rows[0]) if K == 1 or bool((np.diff(rows) == 1).all()) \
        else None
    bases, first, uniform = plan.bind(sched, addrs_per_rank)
    cycle_ns = cost.cfg.cycle_ns
    rounds = ceil(log2(K)) if K > 1 else 0
    mbx = cost.cfg.mailbox
    # Per send group: (per-lane t_avail, payload rows or None).
    sent: list = [None] * plan.n_sends
    last_seg = len(plan.segments) - 1
    for seg, run in enumerate(plan.segments):
        for grp in run:
            kind, e, s, g = grp.kind, grp.nelems, grp.stride, grp.g
            L = len(g)
            if kind == "put" or kind == "get":
                if kind == "put":
                    stats.puts += L
                else:
                    stats.gets += L
                if e == 0:
                    continue
                nbytes = e * b
                g_rows, g_run = _lane_rows(rows, row0, g, grp.g_run)
                p_rows, p_run = _lane_rows(rows, row0, grp.peer, grp.peer_run)
                dst = grp.dst.resolve(bases, first, uniform, g)
                src = grp.src.resolve(bases, first, uniform, g)
                tg = t[g] + cost.loop_overhead_ns(e)
                if kind == "put":
                    stats.bytes_put += nbytes * L
                    stats.remote_puts += L
                    tg += cost.strided_ns(g_rows, src, e, b, s, use_tlb=True)
                    tg += OLB_LOOKUP_NS
                    wcost = cost.strided_ns(p_rows, dst, e, b, s,
                                            use_tlb=False)
                    order = np.lexsort((g, tg))
                    free, delivered = net.send_batch(
                        tg[order].tolist(), world[g[order]].tolist(),
                        world[grp.peer[order]].tolist(), nbytes)
                    tg[order] = np.maximum(tg[order], free)
                    net.note_delivery(float(
                        (np.asarray(delivered) + wcost[order]).max()))
                    t[g] = tg
                    if data:
                        vals = _gather(mem, mview, g_rows, g_run, src,
                                       e, s, dtype)
                        _scatter(mem, mview, p_rows, p_run, dst, e, s,
                                 dtype, vals)
                else:
                    stats.bytes_got += nbytes * L
                    stats.remote_gets += L
                    tg += OLB_LOOKUP_NS
                    rcost = cost.strided_ns(p_rows, src, e, b, s,
                                            use_tlb=False)
                    order = np.lexsort((g, tg))
                    done = net.fetch_batch(
                        tg[order].tolist(), world[g[order]].tolist(),
                        world[grp.peer[order]].tolist(), nbytes)
                    tg[order] = np.maximum(tg[order],
                                           np.asarray(done) + rcost[order])
                    tg += cost.strided_ns(g_rows, dst, e, b, s, use_tlb=True)
                    t[g] = tg
                    if data:
                        vals = _gather(mem, mview, p_rows, p_run, src,
                                       e, s, dtype)
                        _scatter(mem, mview, g_rows, g_run, dst, e, s,
                                 dtype, vals)
            elif kind == "copy":
                charged, skip_noop = grp.extra
                g_rows, g_run = _lane_rows(rows, row0, g, grp.g_run)
                dst = grp.dst.resolve(bases, first, uniform, g)
                src = grp.src.resolve(bases, first, uniform, g)
                if charged and skip_noop:
                    if e == 0:
                        continue  # the executor's local_copy guard
                    keep = np.not_equal(dst, src)
                    if not keep.all():
                        if keep.ndim == 0:
                            continue  # every lane copies onto itself
                        g = g[keep]
                        dst = np.broadcast_to(dst, keep.shape)[keep]
                        src = np.broadcast_to(src, keep.shape)[keep]
                        g_rows, g_run = rows[g], None
                L = len(g)
                if L == 0:
                    continue
                if charged:
                    # Costs like a put-to-self in the transfer engine.
                    stats.puts += L
                    if e == 0:
                        continue
                    stats.bytes_put += e * b * L
                    tg = t[g] + cost.loop_overhead_ns(e)
                    tg += cost.strided_ns(g_rows, src, e, b, s, use_tlb=True)
                    tg += cost.strided_ns(g_rows, dst, e, b, s, use_tlb=True)
                    t[g] = tg
                if e and data:
                    vals = _gather(mem, mview, g_rows, g_run, src, e, s,
                                   dtype)
                    _scatter(mem, mview, g_rows, g_run, dst, e, s, dtype,
                             vals)
            elif kind == "reduce":
                t[g] += grp.extra[0] * 2.0 * cycle_ns
                if e and data:
                    g_rows, g_run = _lane_rows(rows, row0, g, grp.g_run)
                    acc = grp.dst.resolve(bases, first, uniform, g)
                    opd = grp.src.resolve(bases, first, uniform, g)
                    opd_vals = _gather(mem, mview, g_rows, g_run, opd, e,
                                       s, dtype)
                    cols = None if g_run is None else \
                        _columns(mview, acc, e, s, b)
                    if cols is not None:  # reduce in place
                        apply_op(sched.op, mview[g_run, cols], opd_vals)
                    else:
                        acc_vals = _gather(mem, mview, g_rows, g_run, acc,
                                           e, s, dtype)
                        apply_op(sched.op, acc_vals, opd_vals)
                        _scatter(mem, mview, g_rows, g_run, acc, e, s,
                                 dtype, acc_vals)
            elif kind == "fill":
                g_rows, g_run = _lane_rows(rows, row0, g, grp.g_run)
                dst = grp.dst.resolve(bases, first, uniform, g)
                t[g] += cost.range_ns(g_rows, dst, step_span_bytes(e, s, b),
                                      use_tlb=True)
                if e and data:
                    vals = np.full((L, e), identity_of(sched.op, dtype),
                                   dtype=dtype)
                    _scatter(mem, mview, g_rows, g_run, dst, e, s, dtype,
                             vals)
            elif kind == "send":
                nbytes = e * b
                stats.sends += L
                stats.bytes_sent += nbytes * L
                tg = t[g]
                vals = None
                if e:
                    g_rows, g_run = _lane_rows(rows, row0, g, grp.g_run)
                    src = grp.src.resolve(bases, first, uniform, g)
                    tg = tg + cost.loop_overhead_ns(e)
                    tg += cost.strided_ns(g_rows, src, e, b, s, use_tlb=True)
                    if data:
                        vals = _gather(mem, mview, g_rows, g_run, src, e,
                                       s, dtype)
                        if np.may_share_memory(vals, mem):
                            vals = vals.copy()  # the payload outlives mem
                order = np.lexsort((g, tg))
                src_pes = world[g[order]].tolist()
                dst_pes = world[grp.peer[order]].tolist()
                free, delivered = net.send_batch(
                    tg[order].tolist(), src_pes, dst_pes,
                    nbytes + mbx.header_bytes)
                tg[order] = np.maximum(tg[order], free)
                node_of, hops = net.node_of, net.route_hops
                avail = np.empty(L)
                avail[order] = [
                    d + mbx.route_ns_per_hop * hops(node_of(sp), node_of(dp))
                    for d, sp, dp in zip(delivered, src_pes, dst_pes)]
                net.note_delivery(float(avail.max()))
                sent[grp.send_id] = (avail, vals)
                t[g] = tg
            else:  # recv
                stats.recvs += L
                avail = np.empty(L)
                vals = np.empty((L, e), dtype=dtype) if e and data else None
                for sid, sel, lanes in grp.sources:
                    s_avail, s_vals = sent[sid]
                    avail[sel] = s_avail[lanes]
                    if vals is not None:
                        vals[sel] = s_vals[lanes]
                tg = np.maximum(t[g], avail) + mbx.match_ns
                if e:
                    g_rows, g_run = _lane_rows(rows, row0, g, grp.g_run)
                    dst = grp.dst.resolve(bases, first, uniform, g)
                    tg = tg + cost.loop_overhead_ns(e)
                    tg += cost.strided_ns(g_rows, dst, e, b, s, use_tlb=True)
                    if data:
                        _scatter(mem, mview, g_rows, g_run, dst, e, s,
                                 dtype, vals)
                t[g] = tg
        if seg < last_seg:
            stats.barriers += 1
            if K == 1:
                t += round_cost_ns
            else:
                release = max(float(t.max()), net.quiescence_time())
                t[:] = release + rounds * round_cost_ns
    return t


# -- standalone entry ---------------------------------------------------------


def _align64(n: int) -> int:
    return (n + 63) & ~63


@dataclass
class ScheduleEvaluation:
    """Outputs, makespans and counters of one evaluated schedule."""

    schedule: Schedule
    config: MachineConfig
    dtype: np.dtype
    makespans: np.ndarray  # per-rank exit clock, raw model ns
    stats: SimStats
    _mem: np.ndarray | None
    _layout: dict

    @property
    def elapsed_ns(self) -> float:
        """Makespan of the whole collective (max over ranks)."""
        return float(self.makespans.max())

    def buffer(self, name: str, rank: int) -> np.ndarray:
        """The bytes of ``name`` on ``rank``, viewed as the evaluation
        dtype when the extent divides evenly (uint8 otherwise)."""
        if self._mem is None:
            raise SimulationError(
                "evaluate_schedule(collect_data=False) keeps no buffer data"
            )
        base = self._layout[name]
        nb = self.schedule.buffer(name).nbytes_on(rank)
        raw = self._mem[rank, base:base + nb]
        if nb % self.dtype.itemsize == 0:
            return raw.view(self.dtype)
        return raw


def _default_dtype(itemsize: int) -> np.dtype:
    try:
        return np.dtype(f"int{8 * itemsize}")
    except TypeError:
        return np.dtype(np.uint8)


def evaluate_schedule(
    sched: Schedule,
    config: MachineConfig | None = None,
    *,
    dtype: np.dtype | str | None = None,
    inputs: Mapping[str, Sequence] | None = None,
    collect_data: bool = True,
) -> ScheduleEvaluation:
    """Evaluate a compiled schedule for *all* its ranks at once.

    Lays out a compact arena — one 64-byte-aligned slot per schedule
    buffer, identical offsets on every rank (the symmetric-address
    property by construction) — seeds ``inputs`` (mapping buffer name to
    one array per rank, or a 2-D ``(n_pes, k)`` array), evaluates, and
    returns the per-rank outputs and makespans.  ``collect_data=False``
    skips all data movement (cost sweeps at large payloads keep no
    arena).  Rank clocks start at 0, so ``elapsed_ns`` is directly the
    modelled makespan of the collective including its entry barrier.
    """
    n = sched.n_pes
    if config is None:
        config = MachineConfig(n_pes=n)
    elif config.n_pes != n:
        config = config.with_(n_pes=n)
    dt = np.dtype(dtype) if dtype is not None else _default_dtype(sched.itemsize)
    layout: dict[str, int] = {}
    slots: dict[str, int] = {}
    offset = 0
    for buf in sched.buffers:
        layout[buf.name] = offset
        slots[buf.name] = _align64(max(max(buf.nbytes_on(r)
                                           for r in range(n)), 1))
        offset += slots[buf.name]
    width = max(_align64(offset), 64)
    mem = np.zeros((n, width), dtype=np.uint8) if collect_data else None
    if inputs:
        if mem is None:
            raise SimulationError("inputs require collect_data=True")
        for name, per_rank in inputs.items():
            base, slot = layout[name], slots[name]
            if isinstance(per_rank, np.ndarray) and per_rank.ndim == 2:
                per_rank = list(per_rank)
            for r, row in enumerate(per_rank):
                rb = np.ascontiguousarray(row).reshape(-1).view(np.uint8)
                if rb.size > slot:
                    raise SimulationError(
                        f"input {name!r} rank {r}: {rb.size} bytes exceed "
                        f"the {slot}-byte buffer slot"
                    )
                mem[r, base:base + rb.size] = rb
    stats = SimStats()
    net = LiteNetwork(config, stats)
    cost = CostModel(config, n, width)
    addrs = [layout] * n
    ranks = np.arange(n, dtype=np.int64)
    makespans = evaluate_group(
        mem, ranks, ranks, addrs, sched, dt, np.zeros(n), net,
        world_round_cost_ns(config), cost, stats,
    )
    return ScheduleEvaluation(
        schedule=sched, config=config, dtype=dt, makespans=makespans,
        stats=stats, _mem=mem, _layout=layout,
    )
