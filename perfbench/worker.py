"""One workload in its own process: set up, warm up, then time one round.

Started by ``run.py``; prints one JSON object as its last line. Modes:

* ``setup`` — stop right before the first timed operation and report
  ``setup_s``, the time since ``--spawned`` (a ``time.monotonic()`` reading
  the parent took just before starting this process);
* ``measure`` — time one round of the operation list, closed loop, so that
  every run times the same operations whatever the program's speed;
* ``trace`` — one plain round, then the same round under the tracer; report
  the per-layer metrics and the tracing overhead (traced minus plain wall).

Outputs are checked after the round, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

import check
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: the 90th percentile is reported only from this many operations on, so
#: that ten samples lie beyond it
MIN_OPS = 100


class Raised:
    """An exception an operation raised, kept as its output."""

    def __init__(self, exc: BaseException):
        self.exc = exc


def run_round(ops, tracer=None):
    """Run every operation once; return (wall seconds, latencies, outputs)."""
    lats, outs = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                tracer.op = i
                with tracer.span("op"):
                    out = op.run()
        except Exception as exc:  # an operation that raises has failed; keep going
            out = Raised(exc)
        lats.append(time.perf_counter() - t0)
        outs.append(out)
    return time.perf_counter() - start, lats, outs


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: list[str] = []

    def judge(self, op, out) -> None:
        if isinstance(out, Raised):
            status, reason = check.FAILED, f"raised {out.exc!r}"
        else:
            try:
                status, reason = op.check(out)
            except Exception as exc:  # malformed output the checker cannot read
                status, reason = check.WRONG, f"checker raised {exc!r}"
        self.attempted += 1
        if status == check.FAILED:
            self.failed += 1
        elif status == check.WRONG:
            self.wrong += 1
        if status != check.OK and len(self.reasons) < 20:
            self.reasons.append(f"{status} {op.label}: {reason}")

    def judge_round(self, ops, outs) -> None:
        for op, out in zip(ops, outs):
            self.judge(op, out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import freespec

    if not os.path.abspath(freespec.__file__).startswith(os.path.join(SRC, "")):
        print(f"freespec was imported from {freespec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workloads.build(args.workload, args.seed, workdir, smoke=args.smoke)
        run_round(ops[:1])  # warm-up; the round checks this operation too
        result = {"setup_s": time.monotonic() - args.spawned}
        if args.mode == "measure":
            result.update(_measure(ops))
        elif args.mode == "trace":
            result.update(_trace(freespec, ops, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measure(ops) -> dict:
    wall, lats, outs = run_round(ops)
    # read before the checks, which are not the program's memory
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally = Tally()
    tally.judge_round(ops, outs)
    ms = 1e3 * np.asarray(lats)
    out = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "reasons": tally.reasons,
        "ops_per_s": len(lats) / wall,
        "latency_p50_ms": float(np.percentile(ms, 50)),
        "peak_rss_mb": peak_kib / 1024,
    }
    if len(lats) >= MIN_OPS:
        out["latency_p90_ms"] = float(np.percentile(ms, 90))
    return out


def _trace(freespec, ops, args) -> dict:
    tally = Tally()
    plain_wall, _, outs = run_round(ops)
    tally.judge_round(ops, outs)
    tracer = Tracer()
    tracer.install(freespec)
    try:
        traced_wall, _, outs = run_round(ops, tracer)
    finally:
        tracer.uninstall()
    tally.judge_round(ops, outs)
    tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = traced_wall - plain_wall
    return {"attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
            "reasons": tally.reasons, "layers": layers}


if __name__ == "__main__":
    sys.exit(main())
