"""Tests of the benchmark itself (not collected by the tier-1 suite).

    python -m pytest perfbench/tests -q

Smoke runs use ``--tiny`` shapes so the whole file finishes in about a
minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import pbtrace  # noqa: E402
import run as runner  # noqa: E402

WORKLOADS = runner.WORKLOADS

#: Layers whose spans the traced run must record, per workload.
LAYER_SPANS = {
    "ir-sweep": {"compile", "lint", "mailbox.lower", "evaluate.cost",
                 "evaluate.data"},
    "sim-calls": {"sim.session_open", "runtime.first_call", "session.run",
                  "collective", "superstep", "amo", "put", "get"},
    "vec-calls": {"vec.session_open", "runtime.first_call", "session.run",
                  "collective", "superstep", "evaluate.standalone"},
    "serve-mp": {"mp.pool_open", "serve.submit", "serve.service"},
}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert record["seed"] == 3 and record["host"]["nproc"] >= 1
    assert record["leaks"] == []


def test_traced_run_reports_every_layer_with_nested_spans():
    proc = _bench("--workload", "sim-calls", "--seed", "5", "--seconds", "1",
                  "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert set(result["metrics"]) == set(units)
    for name, m in result["metrics"].items():
        assert np.isfinite(m["value"]) and m["unit"] == units[name], name
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    with open(record["trace_file"]) as fh:
        trace = json.load(fh)
    procs = {e["pid"]: e["args"]["name"] for e in trace["traceEvents"]
             if e["ph"] == "M"}
    assert set(procs.values()) == set(WORKLOADS)
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    for pid, workload in procs.items():
        mine = {e["args"]["id"]: e for e in spans if e["pid"] == pid}
        assert LAYER_SPANS[workload] <= {e["name"] for e in mine.values()}
        for e in mine.values():
            assert e["dur"] >= 0
            parent = e["args"]["parent"]
            if parent is None:
                continue
            p = mine[parent]
            eps = 1.0  # us: float rounding of the exported timestamps
            assert p["ts"] - eps <= e["ts"]
            assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + eps
            # an op's spans share its id; a backend run spans many ops
            assert p["args"]["op"] in (None, e["args"]["op"])
        # layer calls sit under an op span
        for e in mine.values():
            if e["name"] in ("compile", "collective", "serve.service"):
                assert mine[e["args"]["parent"]]["name"].startswith("op.")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_fit_in_op_wall_time(workload):
    tracer = pbtrace.Tracer()
    res = runner.run_workload(workload, 7, 0.5, tracer, tiny=True)
    assert res["failed"] == 0 and not res["leaks"]
    self_s = tracer.self_times()
    kids = tracer.children()
    ops = [sp for sp in tracer.spans if sp.name.startswith("op.")]
    assert ops
    for op in ops:
        total, stack = 0.0, [op]
        while stack:
            sp = stack.pop()
            total += self_s[sp.sid]
            stack.extend(kids.get(sp.sid, ()))
        assert total <= op.dur * (1 + 1e-9) + 1e-9, op.name


def test_seed_changes_the_mix_but_not_its_size():
    import wl_calls
    import wl_ir
    import wl_serve

    a = wl_calls.block_kinds(np.random.default_rng(1), scalar=True)
    b = wl_calls.block_kinds(np.random.default_rng(2), scalar=True)
    assert a != b and sorted(a) == sorted(b)
    ja = wl_serve.make_jobs(np.random.default_rng(1), 50, 1.0)
    jb = wl_serve.make_jobs(np.random.default_rng(2), 50, 1.0)
    assert len(ja) == len(jb) and ja != jb
    shapes = wl_ir.deck()
    pa = np.random.default_rng(1).permutation(len(shapes))
    pb = np.random.default_rng(2).permutation(len(shapes))
    assert not np.array_equal(pa, pb)


def test_wrong_outputs_are_caught():
    import wl_calls
    import wl_ir

    ir = wl_ir.IrSweep(pbtrace.OFF, tiny=True)
    shape = ir.shapes[0]
    inputs, want = wl_ir.make_case(*shape, np.random.default_rng(0))
    assert ir.one_op(shape, inputs, want, 0)[1]
    bad = [w.copy() for w in want]
    bad[-1][0] += 1
    assert not ir.one_op(shape, inputs, bad, 0)[1]

    calls = wl_calls.Calls(pbtrace.OFF, "sim", tiny=True)
    try:
        rng = np.random.default_rng(0)
        block = wl_calls.Block(rng, calls.n,
                               wl_calls.block_kinds(rng, scalar=True))
        assert all(calls.run_block(block, calls.session, 0)[1])
        i = block.kinds.index("scalar")
        amo, put = block.want[i]
        amo[0, 0] += np.uint64(1)
        ok = calls.run_block(block, calls.session, 0)[1]
        assert not ok[i] and ok.count(False) == 1
    finally:
        calls.close()


def test_serve_reference_digest_matches_the_pool():
    from repro.serve import JobSpec, ServePool

    import wl_serve

    specs = [JobSpec(tenant="t", collective=k, n_pes=n, nelems=9, root=n - 1,
                     seed=11) for k in wl_serve.KINDS for n in (1, 2)]
    with ServePool(n_pes=2, backend="sim") as pool:
        for spec in specs:
            pool.submit(spec)
        results = pool.drain(timeout_s=60)
    assert len(results) == len(specs)
    for res in results:
        assert res.ok and res.digest == wl_serve.reference_digest(res.spec)


def _session_members(sid: int) -> list[int]:
    """PIDs of live or unreaped processes in session ``sid`` (Linux)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_no_process_outlives_a_run():
    # A traced run also makes a serve-mp pass, which starts mp workers
    # and the shared-memory resource tracker.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "sim-calls", "--seed", "2", "--seconds", "1", "--trace", "1",
         "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, out + err
    assert _session_members(proc.pid) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ir-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
