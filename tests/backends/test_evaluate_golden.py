"""Golden model digests for the batch evaluator.

Every builtin registry schedule at 1–16 PEs is evaluated by
:func:`~repro.collectives.schedule.evaluate.evaluate_schedule` four
ways — one-sided and :func:`lower_to_mailbox`-lowered, each with data
and cost-only — and the per-rank makespans, every
:class:`~repro.sim.trace.SimStats` field and (with data) the whole
arena are folded into one digest per ``(family, n_pes)``.  The digests
in ``data/evaluate_golden.json`` pin the modelled time bit for bit: a
wall-clock optimisation of the evaluator must leave every one of them
unchanged.  A change that alters the model on purpose re-records them
with ``PYTHONPATH=src python -m tests.backends.test_evaluate_golden``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.collectives.schedule.evaluate import evaluate_schedule
from repro.collectives.schedule.mailbox import lower_to_mailbox
from repro.collectives.schedule.registry import (
    BUILTIN_ALGORITHMS,
    builtin_schedules,
)

GOLDEN = Path(__file__).parent / "data" / "evaluate_golden.json"
PE_COUNTS = tuple(range(1, 17))


def _inputs(sched) -> dict:
    """Rank-distinct bytes in every user buffer (deterministic)."""
    out = {}
    for buf in sched.buffers:
        if buf.kind != "user":
            continue
        out[buf.name] = [
            ((np.arange(buf.nbytes_on(r), dtype=np.int64) * 7 + r * 13 + 1)
             % 251).astype(np.uint8)
            for r in range(sched.n_pes)
        ]
    return out


def _fold(h, ev) -> None:
    h.update(np.ascontiguousarray(ev.makespans, dtype=np.float64).tobytes())
    for f in dataclasses.fields(ev.stats):
        v = getattr(ev.stats, f.name)
        if isinstance(v, dict):
            v = sorted(v.items())
        elif isinstance(v, float):
            v = v.hex()
        h.update(f"{f.name}={v!r};".encode())
    if ev._mem is not None:
        h.update(ev._mem.tobytes())


def _family_digests(collective: str, algorithm: str) -> dict[str, str]:
    hashes: dict[str, object] = defaultdict(hashlib.sha256)
    prefix = f"{collective}:{algorithm} "
    for label, sched in builtin_schedules(PE_COUNTS):
        if not label.startswith(prefix):
            continue
        key = f"{collective}:{algorithm} n_pes={sched.n_pes}"
        h = hashes[key]
        h.update(label.encode())
        for variant in (sched, lower_to_mailbox(sched)):
            _fold(h, evaluate_schedule(variant, inputs=_inputs(variant)))
            _fold(h, evaluate_schedule(variant, collect_data=False))
    return {k: h.hexdigest()[:16] for k, h in hashes.items()}


def all_digests() -> dict[str, str]:
    out: dict[str, str] = {}
    for collective, algorithm in BUILTIN_ALGORITHMS:
        out.update(_family_digests(collective, algorithm))
    return out


@pytest.mark.parametrize("collective,algorithm", BUILTIN_ALGORITHMS,
                         ids=[f"{c}:{a}" for c, a in BUILTIN_ALGORITHMS])
def test_model_digest_unchanged(collective, algorithm):
    golden = json.loads(GOLDEN.read_text())
    got = _family_digests(collective, algorithm)
    expect = {k: v for k, v in golden.items()
              if k.startswith(f"{collective}:{algorithm} ")}
    assert got.keys() == expect.keys()
    changed = sorted(k for k in got if got[k] != expect[k])
    assert not changed, f"modelled time or outputs changed: {changed}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(all_digests(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
