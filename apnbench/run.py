"""apnlab benchmark: run one workload and print its metrics as JSON.

Usage, from the root of an apnlab checkout:

    python3 apnbench/run.py --workload apn-and-lemmas --seed 1 --seconds 10 --trace 0

The library is imported from the checkout's ``src`` (no install needed).
Set-up is timed in fresh interpreters, ``SETUP_SAMPLES`` times, and reported
as the median.  The last of them is the worker: it goes on to run whole
rounds of the workload for up to ``--seconds`` (at least one round, and one
round when traced), and its peak resident set is read from its own rusage
through ``os.wait4``.  ``wall_s`` is the time of one round, taken as the sum
over its operations of each operation's median time across the rounds, so a
slow spell of the machine that covers a few operations of one round is not
counted.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; a record of the run (the
machine, every operation's outcome and time) and, when traced, the raw spans
are written under ``.apnbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from spans import PER_LAYER
from workloads import WORKLOADS

#: End-to-end metrics: name -> unit.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
SETUP_SAMPLES = 5
#: Whole-run limit; a run that cannot finish in it is killed and fails.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _spawn(cmd: list[str], env: dict, deadline: float) -> tuple[float, str, int]:
    """Run one worker; return (seconds to READY, the rest of stdout, maxrss KiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read().decode()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        killer.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != b"READY":
        raise BenchError(f"worker {' '.join(cmd[1:])} exited {proc.returncode}")
    return ready_s, rest, usage.ru_maxrss


def round_seconds(outcomes: list[dict]) -> float:
    """One round's time: the sum of each operation's median over the rounds."""
    per_op: dict[str, list[float]] = {}
    for o in outcomes:
        per_op.setdefault(o["op"], []).append(o["seconds"])
    return sum(statistics.median(v) for v in per_op.values())


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "apnlab", "__init__.py")):
        print(f"no apnlab sources under {src}; run from an apnlab checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".apnbench")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(out_dir, stem + ".spans.jsonl")
    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
    }

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    worker = [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_s = [_spawn(worker + ["--setup-only"], env, deadline)[0]
                   for _ in range(SETUP_SAMPLES - 1)]
        ready_s, out, maxrss_kib = _spawn(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--spans-out", spans_path],
            env, deadline)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    setup_s.append(ready_s)
    doc = json.loads(out.strip().splitlines()[-1])

    outcomes = doc["outcomes"]
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                   for k, v in doc["layers"].items()}
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": round_seconds(outcomes),
            "peak_rss_mib": maxrss_kib / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result = {
        "correct": not any(o["status"] == "wrong" for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o["status"] == "failed" for o in outcomes),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": {**machine, **doc["meta"]},
        "setup_s": setup_s, "round_s": doc["round_s"], "outcomes": outcomes,
        "result": result,
    }
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record["machine"]), file=sys.stderr)
    for o in outcomes:
        if o["status"] != "ok":
            print(f"{o['status']}: {o['op']}: {o.get('detail', '')}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
