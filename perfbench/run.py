"""Benchmark of freespec's verdicts: four seeded workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload classify|oracle|hull|drop|all]
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Each workload runs in its own process with BLAS pinned to one thread, driven
closed loop by a single caller once through a fixed, seeded list of
operations (see ``workloads.py``); each list takes about 25 s on the
reference host, whatever ``--seconds`` says. The command prints the metrics
by name and unit and, as its last line, one JSON object ``{"correct",
"attempted", "failed", "metrics"}``. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run. See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("classify", "oracle", "hull", "drop")
DEFAULT_SEED = 0
#: set-up is measured in this many extra processes before the measured run
#: and as many after it, so that the reported median (of these and the
#: measured run's own set-up) samples the host across the whole run
SETUP_RUNS_EACH_SIDE = 3
#: each workload's processes end within this many seconds
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, mode: str, smoke: bool, deadline: float) -> dict:
    # one BLAS thread, and a fixed glibc mmap threshold: large temporaries
    # are then always mapped and unmapped, so the peak resident size does not
    # depend on the order in which earlier operations grew the heap
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", MALLOC_MMAP_THRESHOLD_="131072",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker ({mode}) ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, trace: bool, smoke: bool, deadline: float) -> dict:
    """Run one workload; return its result object (the benchmark's last line)."""
    if trace:
        res = _worker(workload, seed, "trace", smoke, deadline)
        metrics = {name: {"value": value, "unit": unit}
                   for (name, unit), value in _layer_values(res["layers"])}
    else:
        def setup():
            return _worker(workload, seed, "setup", smoke, deadline)["setup_s"]

        setups = [setup() for _ in range(SETUP_RUNS_EACH_SIDE)]
        res = _worker(workload, seed, "measure", smoke, deadline)
        setups += [res["setup_s"]] + [setup() for _ in range(SETUP_RUNS_EACH_SIDE)]
        res["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in END_TO_END if name in res}
    for reason in res["reasons"]:
        print(f"  {workload}: {reason}", file=sys.stderr)
    return {"correct": res["wrong"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def _layer_values(layers: dict):
    for name, unit in LAYER_METRICS + (("trace.overhead_s", "s"),):
        value = layers[name]
        yield (name, unit), (int(value) if unit == "count" else value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="accepted for the benchmark interface and recorded with the "
                         "results; a run always times its fixed list once")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short operation lists, for the tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "freespec", "__init__.py")):
        print(f"error: no freespec sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, bool(args.trace), args.smoke,
                               time.monotonic() + DEADLINE_S)
            results[name] = res
            print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
                  f"correct {res['correct']}")
            for metric, m in res["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "result": final}) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
