"""Vectorized backend: compiled schedules evaluated as numpy batches.

The third execution substrate (``"vec"``).  It keeps the simulator's
cooperative engine for program control flow — init/close, mallocs, raw
one-sided transfers, barriers, teams — but intercepts every *compiled
schedule* through the ``schedule_evaluator`` hook of
:func:`~repro.collectives.schedule.executor.execute_schedule`: the
first ``n-1`` participants of a collective park at a rendezvous, the
last arrival evaluates the whole schedule for every rank at once with
:func:`~repro.collectives.schedule.evaluate.evaluate_group`, then
resumes each peer at its modelled completion time.  Data movement is
exact (byte-identical to the simulator and the multiprocessing backend
— the three-way conformance suite proves it); time is the closed-form
LogGP/cache model of :mod:`repro.collectives.schedule.evaluate`, so
``time_ns`` values *track* the simulator rather than matching it
exactly.

Per-PE memory is one row of a dense ``(n_pes, bytes_per_pe)`` uint8
matrix — the symmetric-address property (paper Figure 2) holds by
construction, and a batched stage touches all rows in one
gather/scatter (a column slice of the matrix when the stage's buffer
address is the same on every PE).  Raw ``put``/``get``/``amo`` outside schedules run
per-call against the same closed-form cost model, so mixed programs
(schedule collectives + hand-rolled rings + AMO counters) stay
supported.

Session PE counts are capped (threads are per-PE); for 1k-64k PE cost
sweeps use :func:`~repro.collectives.schedule.evaluate.evaluate_schedule`
directly — no engine, no threads.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..collectives.schedule.evaluate import (
    OLB_LOOKUP_NS,
    CostModel,
    LiteNetwork,
    evaluate_group,
)
from ..errors import (
    AddressError,
    CollectiveArgumentError,
    RuntimeStateError,
    SimulationError,
)
from ..isa.cpu import amo_apply
from ..params import MachineConfig
from ..runtime.barrier import BarrierController
from ..runtime.collective_api import CollectiveAPI, resolve_dtype
from ..runtime.context import CODE_REGION_BYTES
from ..runtime.symmetric_heap import (
    FreeListAllocator,
    ScratchStack,
    SymmetricHeap,
)
from ..runtime.transfer import TransferHandle
from ..sim.engine import Engine, PEProcess
from .base import Backend, BackendSession, resolve_config
from .mp import _NO_SPANS, MASK64

__all__ = ["VecBackend", "VecSession", "VecContext", "VecWorld"]

#: Sessions run one engine thread per PE; beyond this, use the
#: standalone evaluator (``evaluate_schedule``) which needs neither.
MAX_SESSION_PES = 1024

#: Modelled setup costs, identical to the simulator runtime.
_INIT_NS = 200.0
_MALLOC_NS = 50.0
_FREE_NS = 30.0


class _Rendezvous:
    """One in-progress schedule rendezvous (keyed by participant set)."""

    __slots__ = ("sched", "dtype", "addrs", "clocks", "count")

    def __init__(self, sched, dtype, n: int):
        self.sched = sched
        self.dtype = dtype
        self.addrs: list[dict | None] = [None] * n
        self.clocks = np.zeros(n)
        self.count = 0


class VecWorld:
    """Shared state of one vec run: the memory matrix, the engine and
    the (closed-form) network, cost and barrier models.

    Duck-types the slice of :class:`~repro.runtime.context.Machine` that
    :class:`~repro.runtime.barrier.BarrierController` reads — ``config``,
    ``engine``, ``network``, ``faults``, ``stats``.
    """

    def __init__(self, config: MachineConfig):
        self.config = config
        self.engine = Engine(config.n_pes)
        self.stats = self.engine.stats
        self.network = LiteNetwork(config, self.stats)
        self.faults = None
        self.barriers = BarrierController(self)
        self.mem = np.zeros((config.n_pes, config.memory_bytes_per_pe),
                            dtype=np.uint8)
        self.cost = CostModel(config, config.n_pes,
                              config.memory_bytes_per_pe)
        #: participants tuple -> in-progress schedule rendezvous
        self.rendezvous: dict[tuple[int, ...], _Rendezvous] = {}


class VecContext(CollectiveAPI):
    """Per-PE context over one :class:`VecWorld` row.

    The protocol surface mirrors :class:`~repro.backends.mp.MPContext`
    (same layout arithmetic, same guard messages) but time is modelled:
    raw transfers charge the transfer engine's formulas with closed-form
    memory costs, and ``time_ns`` reads the engine clock.
    """

    backend_name = "vec"

    def __init__(self, world: VecWorld, pe: PEProcess):
        self.world = world
        self.pe = pe
        self.rank = pe.rank
        self.config = world.config
        self.world_group = tuple(range(world.config.n_pes))
        self._mem_bytes = world.config.memory_bytes_per_pe
        # Same layout arithmetic as Machine.__init__ (Figure 2).
        heap_base = (world.config.memory_bytes_per_pe
                     - world.config.symmetric_heap_bytes)
        scratch = world.config.collective_scratch_bytes
        self._heap_base = heap_base
        self._scratch = ScratchStack(heap_base, scratch)
        self._heap = SymmetricHeap(
            heap_base + scratch,
            world.config.symmetric_heap_bytes - scratch,
            world.config.n_pes,
        )
        self._private = FreeListAllocator(
            CODE_REGION_BYTES, heap_base - CODE_REGION_BYTES
        )
        self._heap_calls = 0
        self._pending: dict[int, TransferHandle] = {}
        self._active = False
        self._closed = False

    # -- protocol accessors ------------------------------------------------

    @property
    def spans(self):
        return _NO_SPANS

    def count_collective(self, stats_key: str) -> None:
        self.world.stats.collective_calls[stats_key] += 1

    def executing_rank(self) -> int | None:
        try:
            return self.world.engine.current.rank
        except SimulationError:
            return None

    # -- lifecycle ---------------------------------------------------------

    def init(self) -> None:
        """``xbrtime_init``: bring the runtime up; synchronises all PEs."""
        if self._active:
            raise RuntimeStateError(f"PE {self.rank}: init() called twice")
        if self._closed:
            raise RuntimeStateError(f"PE {self.rank}: init() after close()")
        self._active = True
        self.pe.advance(_INIT_NS)
        self.world.barriers.barrier(self.rank)

    def close(self) -> None:
        """``xbrtime_close``: tear the runtime down; synchronises all PEs."""
        self._require_active()
        self.world.barriers.barrier(self.rank)
        self._active = False
        self._closed = True

    def _require_active(self) -> None:
        if not self._active:
            raise RuntimeStateError(
                f"PE {self.rank}: runtime used outside init()/close()"
            )

    # -- identity ----------------------------------------------------------

    def my_pe(self) -> int:
        """``xbrtime_mype``."""
        self._require_active()
        return self.rank

    def num_pes(self) -> int:
        """``xbrtime_num_pes``."""
        self._require_active()
        return self.config.n_pes

    def failed_pes(self) -> frozenset[int]:
        """Fault injection does not exist here: nobody is ever dead."""
        return frozenset()

    def live_pes(self) -> tuple[int, ...]:
        return self.world_group

    @property
    def time_ns(self) -> float:
        """Modelled nanoseconds on this PE's clock."""
        return self.pe.clock * self.config.time_dilation

    # -- memory management -------------------------------------------------

    def malloc(self, nbytes: int, align: int = 16) -> int:
        """Collective symmetric allocation (same address on every PE)."""
        self._require_active()
        self.pe.advance(_MALLOC_NS)
        idx = self._heap_calls
        self._heap_calls += 1
        return self._heap.collective_malloc(idx, nbytes, align)

    def free(self, addr: int) -> None:
        """Collective symmetric free."""
        self._require_active()
        self.pe.advance(_FREE_NS)
        idx = self._heap_calls
        self._heap_calls += 1
        self._heap.collective_free(idx, addr)

    def scratch_alloc(self, nbytes: int, align: int = 16) -> int:
        self._require_active()
        return self._scratch.alloc(nbytes, align)

    def scratch_free(self, addr: int) -> None:
        self._require_active()
        self._scratch.free(addr)

    def private_malloc(self, nbytes: int, align: int = 16) -> int:
        self._require_active()
        return self._private.alloc(nbytes, align)

    def private_free(self, addr: int) -> None:
        self._require_active()
        self._private.free(addr)

    def is_symmetric(self, addr: int) -> bool:
        return addr >= self._heap_base

    def _segment_view(self, pe: int, addr: int, dtype: np.dtype,
                      count: int, stride: int) -> np.ndarray:
        """:meth:`repro.isa.memory.Memory.view` over PE ``pe``'s row."""
        if count < 0:
            raise AddressError("count must be non-negative")
        if stride < 1:
            raise AddressError(f"stride must be >= 1, got {stride}")
        if count == 0:
            return np.empty(0, dtype=dtype)
        span = ((count - 1) * stride + 1) * dtype.itemsize
        if addr < 0 or addr + span > self._mem_bytes:
            raise AddressError(
                f"access [{addr:#x}, {addr + span:#x}) outside memory "
                f"of {self._mem_bytes:#x} bytes"
            )
        dense = self.world.mem[pe, addr : addr + span].view(dtype)
        return dense[::stride]

    def view(self, addr: int, dtype: str | np.dtype, count: int,
             stride: int = 1) -> np.ndarray:
        """A numpy view of local memory (aliases this PE's row)."""
        return self._segment_view(self.rank, addr, resolve_dtype(dtype),
                                  count, stride)

    def view_on(self, pe: int, addr: int, dtype: str | np.dtype, count: int,
                stride: int = 1) -> np.ndarray:
        """A view of another PE's row — tests/verification only."""
        return self._segment_view(pe, addr, resolve_dtype(dtype), count,
                                  stride)

    # -- time charging -----------------------------------------------------

    def compute(self, ns: float) -> None:
        """Add modelled compute time to this PE's clock."""
        self.pe.advance(ns)

    def _range_ns(self, row: int, addr: int, nbytes: int,
                  use_tlb: bool = True) -> float:
        cost = self.world.cost
        return float(cost.range_ns(np.array([row]), np.array([addr]),
                                   nbytes, use_tlb)[0])

    def charge_access(self, addr: int, nbytes: int = 8,
                      write: bool = False) -> float:
        ns = self._range_ns(self.rank, addr, nbytes)
        self.pe.advance(ns)
        return ns

    def charge_stream(self, addr: int, nbytes: int,
                      write: bool = False) -> float:
        ns = self._range_ns(self.rank, addr, nbytes)
        self.pe.advance(ns)
        return ns

    # -- synchronisation ---------------------------------------------------

    def barrier(self) -> None:
        """``xbrtime_barrier`` over the modelled dissemination barrier."""
        self._require_active()
        self.world.barriers.barrier(self.rank)

    def barrier_team(self, members: Sequence[int]) -> None:
        self._require_active()
        self.world.barriers.barrier(self.rank, tuple(members))

    # -- one-sided communication -------------------------------------------

    def _check_args(self, nelems: int, stride: int, target: int) -> None:
        if nelems < 0:
            raise CollectiveArgumentError(f"nelems must be >= 0, got {nelems}")
        if stride < 1:
            raise CollectiveArgumentError(f"stride must be >= 1, got {stride}")
        if not 0 <= target < self.config.n_pes:
            raise CollectiveArgumentError(
                f"pe {target} out of range [0, {self.config.n_pes})"
            )

    def _strided_ns(self, row: int, addr: int, nelems: int, elem_bytes: int,
                    stride: int, use_tlb: bool = True) -> float:
        return self.world.cost.strided_ns_one(row, addr, nelems, elem_bytes,
                                              stride, use_tlb)

    def put(self, dest: int, src: int, nelems: int, stride: int, pe: int,
            dtype: str | np.dtype = "long") -> None:
        """``xbrtime_TYPE_put``: blocks until the source is reusable."""
        self._require_active()
        self._check_args(nelems, stride, pe)
        stats = self.world.stats
        stats.puts += 1
        if nelems == 0:
            return
        dt = resolve_dtype(dtype)
        nbytes = nelems * dt.itemsize
        stats.bytes_put += nbytes
        sview = self._segment_view(self.rank, src, dt, nelems, stride)
        dview = self._segment_view(pe, dest, dt, nelems, stride)
        self.world.engine.checkpoint()
        me = self.pe
        me.advance(self.world.cost.loop_overhead_ns(nelems))
        me.advance(self._strided_ns(self.rank, src, nelems, dt.itemsize,
                                    stride))
        if pe == self.rank:
            me.advance(self._strided_ns(self.rank, dest, nelems, dt.itemsize,
                                        stride))
            dview[:] = sview.copy()
            return
        stats.remote_puts += 1
        me.advance(OLB_LOOKUP_NS)
        t_free, t_delivered = self.world.network.send(me.clock, self.rank,
                                                      pe, nbytes)
        me.advance_to(t_free)
        wcost = self._strided_ns(pe, dest, nelems, dt.itemsize, stride,
                                 use_tlb=False)
        self.world.network.note_delivery(t_delivered + wcost)
        dview[:] = sview

    def get(self, dest: int, src: int, nelems: int, stride: int, pe: int,
            dtype: str | np.dtype = "long") -> None:
        """``xbrtime_TYPE_get``: blocks until the data has landed."""
        self._require_active()
        self._check_args(nelems, stride, pe)
        stats = self.world.stats
        stats.gets += 1
        if nelems == 0:
            return
        dt = resolve_dtype(dtype)
        nbytes = nelems * dt.itemsize
        stats.bytes_got += nbytes
        sview = self._segment_view(pe, src, dt, nelems, stride)
        dview = self._segment_view(self.rank, dest, dt, nelems, stride)
        self.world.engine.checkpoint()
        me = self.pe
        me.advance(self.world.cost.loop_overhead_ns(nelems))
        if pe == self.rank:
            me.advance(self._strided_ns(self.rank, src, nelems, dt.itemsize,
                                        stride))
            me.advance(self._strided_ns(self.rank, dest, nelems, dt.itemsize,
                                        stride))
            dview[:] = sview.copy()
            return
        stats.remote_gets += 1
        me.advance(OLB_LOOKUP_NS)
        rcost = self._strided_ns(pe, src, nelems, dt.itemsize, stride,
                                 use_tlb=False)
        t_done = self.world.network.fetch(me.clock, self.rank, pe, nbytes)
        me.advance_to(t_done + rcost)
        me.advance(self._strided_ns(self.rank, dest, nelems, dt.itemsize,
                                    stride))
        dview[:] = sview

    def put_nb(self, dest: int, src: int, nelems: int, stride: int, pe: int,
               dtype: str | np.dtype = "long") -> TransferHandle:
        """Non-blocking put: returns once the source is reusable."""
        self._require_active()
        self._check_args(nelems, stride, pe)
        stats = self.world.stats
        stats.puts += 1
        me = self.pe
        if nelems == 0:
            return TransferHandle("put", 0, me.clock, done=True)
        dt = resolve_dtype(dtype)
        nbytes = nelems * dt.itemsize
        stats.bytes_put += nbytes
        sview = self._segment_view(self.rank, src, dt, nelems, stride)
        dview = self._segment_view(pe, dest, dt, nelems, stride)
        self.world.engine.checkpoint()
        me.advance(self.world.cost.loop_overhead_ns(nelems))
        me.advance(self._strided_ns(self.rank, src, nelems, dt.itemsize,
                                    stride))
        if pe == self.rank:
            me.advance(self._strided_ns(self.rank, dest, nelems, dt.itemsize,
                                        stride))
            dview[:] = sview.copy()
            return TransferHandle("put", nbytes, me.clock, done=True)
        stats.remote_puts += 1
        me.advance(OLB_LOOKUP_NS)
        t_free, t_delivered = self.world.network.send(me.clock, self.rank,
                                                      pe, nbytes)
        me.advance_to(t_free)
        wcost = self._strided_ns(pe, dest, nelems, dt.itemsize, stride,
                                 use_tlb=False)
        done_at = t_delivered + wcost
        self.world.network.note_delivery(done_at)
        dview[:] = sview  # eager data, delayed completion time
        handle = TransferHandle("put", nbytes, done_at)
        self._pending[id(handle)] = handle
        return handle

    def get_nb(self, dest: int, src: int, nelems: int, stride: int, pe: int,
               dtype: str | np.dtype = "long") -> TransferHandle:
        """Non-blocking get: data lands when the handle completes."""
        self._require_active()
        self._check_args(nelems, stride, pe)
        stats = self.world.stats
        stats.gets += 1
        me = self.pe
        if nelems == 0:
            return TransferHandle("get", 0, me.clock, done=True)
        dt = resolve_dtype(dtype)
        nbytes = nelems * dt.itemsize
        stats.bytes_got += nbytes
        sview = self._segment_view(pe, src, dt, nelems, stride)
        dview = self._segment_view(self.rank, dest, dt, nelems, stride)
        self.world.engine.checkpoint()
        me.advance(self.world.cost.loop_overhead_ns(nelems))
        if pe == self.rank:
            me.advance(self._strided_ns(self.rank, src, nelems, dt.itemsize,
                                        stride))
            me.advance(self._strided_ns(self.rank, dest, nelems, dt.itemsize,
                                        stride))
            dview[:] = sview.copy()
            return TransferHandle("get", nbytes, me.clock, done=True)
        stats.remote_gets += 1
        me.advance(OLB_LOOKUP_NS)
        rcost = self._strided_ns(pe, src, nelems, dt.itemsize, stride,
                                 use_tlb=False)
        t_done = self.world.network.fetch(me.clock, self.rank, pe, nbytes)
        wcost = self._strided_ns(self.rank, dest, nelems, dt.itemsize, stride)
        dview[:] = sview  # eager data, delayed completion time
        handle = TransferHandle("get", nbytes, t_done + rcost + wcost)
        self._pending[id(handle)] = handle
        return handle

    def amo(self, addr: int, value: int, pe: int, op: str = "add",
            dtype: str | np.dtype = "uint64") -> int:
        """Remote fetch-and-op (sequenced by the deterministic engine)."""
        self._require_active()
        self._check_args(1, 1, pe)
        dt = resolve_dtype(dtype)
        if dt.itemsize != 8 or dt.kind not in "iu":
            raise CollectiveArgumentError(
                f"AMOs operate on 64-bit integer types, not {dt}"
            )
        if addr < 0 or addr + 8 > self._mem_bytes:
            raise AddressError(
                f"access [{addr:#x}, {addr + 8:#x}) outside memory "
                f"of {self._mem_bytes:#x} bytes"
            )
        self.world.stats.amos += 1
        self.world.engine.checkpoint()
        me = self.pe
        if pe != self.rank:
            me.advance(OLB_LOOKUP_NS)
            rcost = self._strided_ns(pe, addr, 1, 8, 1, use_tlb=False)
            t_done = self.world.network.fetch(me.clock, self.rank, pe, 8)
            me.advance_to(t_done + rcost)
        else:
            me.advance(self._range_ns(self.rank, addr, 8))
        cell = self.world.mem[pe, addr : addr + 8]
        old = int.from_bytes(cell.tobytes(), "little")
        new = amo_apply(op, old, int(value) & MASK64)
        cell[:] = np.frombuffer(new.to_bytes(8, "little"), dtype=np.uint8)
        if dt.kind == "i" and old >> 63:
            return old - (1 << 64)
        return old

    def wait(self, handle: TransferHandle) -> None:
        """Block until one non-blocking transfer has completed."""
        self._require_active()
        if not handle.done:
            self.pe.advance_to(handle.complete_at)
            handle.done = True
        self._pending.pop(id(handle), None)

    def quiet(self) -> None:
        """Block until every outstanding transfer has completed."""
        self._require_active()
        while self._pending:
            _, handle = self._pending.popitem()
            if not handle.done:
                self.pe.advance_to(handle.complete_at)
                handle.done = True

    # -- the batched schedule hook -----------------------------------------

    def schedule_evaluator(self, sched, members: tuple[int, ...], me: int,
                           bindings: dict, dtype: np.dtype) -> None:
        """Rendezvous-and-batch execution of one compiled schedule.

        Called by :func:`~.executor.execute_schedule` in place of the
        step interpreter.  Every participant allocates its scratch and
        private buffers (same declaration order and LIFO release as the
        executor) and parks; the last arrival evaluates the whole group
        with one :func:`evaluate_group` call and resumes each peer at
        its modelled exit clock.
        """
        world = self.world
        engine = world.engine
        engine.checkpoint()
        addrs = dict(bindings)
        allocated: list[tuple[str, int]] = []
        try:
            for buf in sched.buffers:
                if buf.kind == "user" or not buf.held_by(me):
                    continue
                nb = buf.nbytes_on(me)
                if buf.kind == "scratch":
                    addr = self.scratch_alloc(nb)
                else:
                    addr = self.private_malloc(nb)
                addrs[buf.name] = addr
                allocated.append((buf.kind, addr))
            key = tuple(members)
            rec = world.rendezvous.get(key)
            if rec is None:
                rec = world.rendezvous[key] = _Rendezvous(
                    sched, dtype, len(members))
            elif rec.sched is not sched or rec.dtype != dtype:
                raise SimulationError(
                    f"PE {self.rank}: mismatched collective on group "
                    f"{key} ({sched.collective}:{sched.algorithm} vs "
                    f"{rec.sched.collective}:{rec.sched.algorithm})"
                )
            rec.addrs[me] = addrs
            rec.clocks[me] = self.pe.clock
            rec.count += 1
            if rec.count < len(members):
                engine.suspend()  # resumed by the last arrival, below
            else:
                # Pop *before* resuming: peers may immediately enter the
                # next schedule on the same member set.
                del world.rendezvous[key]
                rows = np.asarray(members, dtype=np.int64)
                end = evaluate_group(
                    world.mem, rows, rows, rec.addrs, sched, dtype,
                    rec.clocks, world.network,
                    world.barriers.round_cost_ns(tuple(sorted(members))),
                    world.cost, world.stats,
                )
                for g, rank in enumerate(members):
                    if rank != self.rank:
                        engine.resume(rank, at_time=float(end[g]))
                self.pe.advance_to(float(end[me]))
        finally:
            for kind, addr in reversed(allocated):
                if kind == "scratch":
                    self.scratch_free(addr)
                else:
                    self.private_free(addr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VecContext(pe={self.rank}/{self.config.n_pes})"


class VecSession(BackendSession):
    """Runs each program on a fresh :class:`VecWorld`."""

    def __init__(self, config: MachineConfig):
        if config.n_pes > MAX_SESSION_PES:
            raise RuntimeStateError(
                f"vec sessions cap at {MAX_SESSION_PES} PEs (one engine "
                f"thread each); evaluate_schedule() handles "
                f"{config.n_pes} PEs without a session"
            )
        self.config = config
        #: The world of the most recent ``run`` (None before the first).
        self.last_world: VecWorld | None = None
        self._closed = False

    def run(self, fn: Callable[..., Any],
            args_per_pe: Sequence[tuple] | None = None) -> list[Any]:
        if self._closed:
            raise RuntimeError("session is closed")
        world = VecWorld(self.config)
        self.last_world = world

        def wrapper(pe: PEProcess, *extra: Any) -> Any:
            ctx = VecContext(world, pe)
            pe.context = ctx
            return fn(ctx, *extra)

        return world.engine.run(wrapper, args_per_pe)

    def close(self) -> None:
        self._closed = True  # nothing OS-level to release


class VecBackend(Backend):
    """The vectorized batch evaluator (``backend="vec"``)."""

    name = "vec"

    def session(self, config: MachineConfig | None = None, *,
                n_pes: int | None = None, **opts: Any) -> VecSession:
        return VecSession(resolve_config(config, n_pes), **opts)


# Install the per-TYPENAME call surface (Table 1) — same wrappers as the
# simulator and multiprocessing contexts.
from ..runtime import typed as _typed  # noqa: E402

_typed.install_typed_api(VecContext)
