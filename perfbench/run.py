#!/usr/bin/env python3
"""Wall-clock benchmark of the xBGAS collectives reproduction.

    python3 perfbench/run.py --workload ir-sweep --seed 1 --seconds 10 --trace 0

Run from the repository root.  Workloads (see perfbench/README.md):
``ir-sweep``, ``sim-calls``, ``vec-calls``, ``serve-mp``.

``--trace 0`` measures the end-to-end metrics with tracing off and
prints them as the last stdout line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
runs the named workload both untraced and traced (the difference is the
tracing overhead), plus a short traced pass of every
other workload, and prints every per-layer metric; it writes the spans
as a Chrome trace under ``.perfbench/``.  A wrong output, a leaked mp
segment or worker, or a failed op makes the result ``correct: false``
and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("ir-sweep", "sim-calls", "vec-calls", "serve-mp")
#: Fresh-process set-ups per run; setup_s is their median.
SETUP_PROBES = 5
#: In a traced run, the other workloads run this share of --seconds.
SIDE_SHARE = 0.1
#: Workloads whose traced run alternates untraced and traced groups of
#: blocks (the others run an untraced half, then a traced half).
INTERLEAVED = ("sim-calls", "vec-calls")


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _steady_memory() -> bool:
    """Make peak RSS count the memory the program holds, not allocator
    or kernel history; applies to this process and the mp workers it
    forks.  Returns whether both settings took.

    * Transparent huge pages off: numpy advises huge pages for large
      arrays, so whether a run's peak counted 2 MiB pages depended on
      what the kernel could supply (+-15% between runs, ~1 GiB for the
      64-PE vec world instead of ~120 MiB).
    * A fixed malloc mmap threshold: glibc otherwise raises it after
      large frees, and later large arrays then stay in the heap after
      they are freed, so the peak depended on the order of the ops.
    """
    if not sys.platform.startswith("linux"):
        return False
    import ctypes

    pr_set_thp_disable, m_mmap_threshold = 41, -3
    try:
        libc = ctypes.CDLL(None, use_errno=True)
    except OSError:
        return False
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    thp = libc.prctl(pr_set_thp_disable, 1, 0, 0, 0) == 0
    return thp and libc.mallopt(m_mmap_threshold, 128 * 1024) == 1


def _stop_helper_processes(timeout_s: float = 10.0) -> None:
    """Stop the helper processes ``multiprocessing`` starts on demand and
    wait for each to end, so nothing the benchmark started outlives it.

    The mp backend's shared memory starts a resource-tracker process,
    and a ``forkserver`` start method a fork server; both would only
    exit once this process had exited.  Worker children still alive are
    terminated, then killed, and reaped.
    """
    import multiprocessing as mp
    import signal
    from multiprocessing import forkserver, resource_tracker

    for child in mp.active_children():
        child.join(timeout_s)
        if child.is_alive():
            child.terminate()
            child.join(timeout_s)
        if child.is_alive():
            child.kill()
            child.join()
    helpers = ((resource_tracker._resource_tracker, "_fd", "_pid"),
               (forkserver._forkserver, "_forkserver_alive_fd",
                "_forkserver_pid"))
    for helper, fd_attr, pid_attr in helpers:
        fd, pid = getattr(helper, fd_attr, None), getattr(helper, pid_attr,
                                                            None)
        if fd is None or pid is None:
            continue
        os.close(fd)  # end of its input: the helper exits on its own
        setattr(helper, fd_attr, None)
        setattr(helper, pid_attr, None)
        deadline = time.monotonic() + timeout_s
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)


def _import_paths() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        _die(f"no program source at {src}/repro; run from a repository "
             "checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def make_workload(name: str, tracer, tiny: bool = False):
    """Import the program and set the workload up (sessions, warm-up)."""
    if name == "ir-sweep":
        from wl_ir import IrSweep
        return IrSweep(tracer, tiny=tiny)
    if name in ("sim-calls", "vec-calls"):
        from wl_calls import Calls
        return Calls(tracer, name.split("-")[0], tiny=tiny)
    if name == "serve-mp":
        from wl_serve import Serve
        return Serve(tracer, tiny=tiny)
    raise ValueError(name)


def run_workload(name: str, seed: int, seconds: float, tracer,
                 tiny: bool = False, **run_kw) -> dict:
    """Set up, run, fingerprint and close one workload."""
    wl = make_workload(name, tracer, tiny)
    try:
        out = wl.run(seed, seconds, **run_kw)
        out["fingerprint"] = wl.fingerprint()
    finally:
        wl.close()
    out["leaks"] = wl.leaks()
    return out


def setup_probe(name: str, tiny: bool) -> None:
    """Child-process mode: set up, report when ready, tear down."""
    from pbtrace import OFF

    wl = make_workload(name, OFF, tiny)
    ready = time.monotonic()
    wl.close()
    print(json.dumps({"ready": ready, "leaks": wl.leaks()}), flush=True)


def measure_setup(name: str, tiny: bool) -> tuple[list[float], list[str]]:
    """Set-up seconds of fresh processes: from spawn until the first op
    could run (``time.monotonic`` is one clock for all processes)."""
    times, leaks = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", name]
    if tiny:
        cmd.append("--tiny")
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe of {name} failed "
                               f"(exit {proc.returncode})")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(report["ready"] - t0)
        leaks += report["leaks"]
    return times, leaks


def _load_fingerprints() -> dict:
    with open(os.path.join(HERE, "fingerprints.json")) as fh:
        return json.load(fh)


def end_to_end(res: dict) -> dict:
    import pbutil

    lat_ms = [x * 1e3 for x in res["latencies_s"]]
    ok = res["attempted"] - res["failed"]
    return {
        "ops_per_s": (ok / res["elapsed_s"], "1/s"),
        "op_ms_p50": (pbutil.pct(lat_ms, 50), "ms"),
        "op_ms_p90": (pbutil.pct(lat_ms, 90), "ms"),
        "ok_rate": (ok / res["attempted"], "fraction"),
        "peak_rss_mb": (pbutil.peak_rss_mb(), "MiB"),
    }


def _print_table(title: str, rows: dict) -> None:
    print(f"-- {title}")
    for name, (value, unit) in rows.items():
        print(f"   {name:<40} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest shapes (smoke tests)")
    ap.add_argument("--setup-probe", choices=WORKLOADS,
                    help=argparse.SUPPRESS)
    ap.add_argument("--record-fingerprints", action="store_true",
                    help="write perfbench/fingerprints.json from this host")
    args = ap.parse_args(argv)
    args.steady_memory = _steady_memory()
    _import_paths()
    try:
        return _dispatch(ap, args)
    finally:
        _stop_helper_processes()


def _dispatch(ap, args) -> int:
    if args.setup_probe:
        setup_probe(args.setup_probe, args.tiny)
        return 0
    if args.record_fingerprints:
        return record_fingerprints()
    if args.workload is None:
        ap.error("--workload is required")
    if args.trace:
        return traced(args)
    return untraced(args)


def record_fingerprints() -> int:
    from pbtrace import OFF

    fps = {}
    for name in WORKLOADS:
        wl = make_workload(name, OFF)
        try:
            fps[name] = wl.fingerprint()
        finally:
            wl.close()
    with open(os.path.join(HERE, "fingerprints.json"), "w") as fh:
        json.dump(fps, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(fps, indent=1, sort_keys=True))
    return 0


def _model_check(name: str, fp, tiny: bool) -> dict:
    import pbutil

    if fp is None:
        return {"fingerprint": None, "model_changed": False,
                "note": "no modelled time on this backend"}
    if tiny:
        return {"fingerprint": fp, "model_changed": False,
                "note": "tiny shapes have no recorded fingerprint"}
    diff = pbutil.fingerprint_diff(fp, _load_fingerprints().get(name))
    return {"fingerprint": fp, "model_changed": bool(diff),
            "changed_keys": diff}


def _record(args, res: dict, extra: dict) -> dict:
    import pbutil

    rec = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
           "host": dict(pbutil.host_block(),
                         steady_memory=args.steady_memory),
           "attempted": res["attempted"],
           "failed": res["failed"], "leaks": res["leaks"],
           "detail": res.get("detail", {})}
    rec.update(extra)
    return rec


def _emit(args, rec: dict, correct: bool, attempted: int, failed: int,
          metrics: dict) -> int:
    empty = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if empty:
        raise RuntimeError(f"no samples for {empty}; run longer")
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    rec["metrics"] = metrics
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(rec, fh, indent=1, default=str)
    if rec.get("model_changed"):
        print(f"MODEL CHANGED: {rec['workload']} fingerprint differs in "
              f"{rec.get('changed_keys')}")
    print(json.dumps({"record": rec}, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def untraced(args) -> int:
    from pbtrace import OFF

    res = run_workload(args.workload, args.seed, args.seconds, OFF,
                       args.tiny)
    probes, probe_leaks = measure_setup(args.workload, args.tiny)
    res["leaks"] += probe_leaks
    rows = end_to_end(res)
    rows["setup_s"] = (statistics.median(probes), "s")
    failed = res["failed"] + len(res["leaks"])
    _print_table(f"{args.workload} seed={args.seed} end-to-end", rows)
    model = _model_check(args.workload, res["fingerprint"], args.tiny)
    rec = _record(args, res, dict(model, setup_probes_s=probes))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in rows.items()}
    return _emit(args, rec, failed == 0, res["attempted"], failed, metrics)


def traced(args) -> int:
    from pbtrace import OFF, Tracer, write_chrome

    tracers = {args.workload: Tracer()}
    if args.workload in INTERLEAVED:
        main = run_workload(args.workload, args.seed, args.seconds,
                            tracers[args.workload], args.tiny,
                            interleave=True)
        untraced_rate, traced_rate = main["mode_rates"]
        failed = main["failed"] + len(main["leaks"])
        attempted = main["attempted"]
    else:
        half = args.seconds / 2
        base = run_workload(args.workload, args.seed, half, OFF, args.tiny)
        main = run_workload(args.workload, args.seed, half,
                            tracers[args.workload], args.tiny)
        failed = base["failed"] + main["failed"] + len(base["leaks"]) \
            + len(main["leaks"])
        attempted = base["attempted"] + main["attempted"]
        untraced_rate = end_to_end(base)["ops_per_s"][0]
        traced_rate = end_to_end(main)["ops_per_s"][0]
    layers = dict(main["layers"])
    layers["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) \
        / untraced_rate
    side = {}
    for other in WORKLOADS:
        if other == args.workload:
            continue
        tracers[other] = Tracer()
        res = run_workload(other, args.seed, args.seconds * SIDE_SHARE,
                           tracers[other], args.tiny)
        failed += res["failed"] + len(res["leaks"])
        attempted += res["attempted"]
        layers.update(res["layers"])
        side[other] = {"attempted": res["attempted"],
                       "failed": res["failed"], "leaks": res["leaks"]}
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR,
                              f"trace-{args.workload}-s{args.seed}.json")
    write_chrome(trace_path, tracers)
    self_s = {name: tr.layer_self_s() for name, tr in tracers.items()}
    print("-- layer self time (s, whole traced run of each workload)")
    for name, per in self_s.items():
        for layer, secs in sorted(per.items(), key=lambda kv: -kv[1]):
            print(f"   {name:<10} {layer:<29} {secs:>12.6f}")
    rows = {k: (v, layer_unit(k)) for k, v in sorted(layers.items())}
    _print_table(f"{args.workload} seed={args.seed} per-layer", rows)
    model = _model_check(args.workload, main["fingerprint"], args.tiny)
    rec = _record(args, main, dict(model, layer_self_s=self_s,
                                   trace_file=trace_path, side_runs=side,
                                   untraced_ops_per_s=untraced_rate,
                                   traced_ops_per_s=traced_rate))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in rows.items()}
    return _emit(args, rec, failed == 0, attempted, failed, metrics)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    words = set(re.split(r"[._]", name))
    if "x" in words:
        return "ratio"
    for word, unit in (("pct", "%"), ("bytes", "B"), ("backlog", "count"),
                       ("us", "us"), ("ms", "ms")):
        if word in words:
            return unit
    return "s"


if __name__ == "__main__":
    sys.exit(main())
