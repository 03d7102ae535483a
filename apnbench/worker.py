"""One benchmark process: set a workload up, then run whole rounds of it.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It prints ``READY`` once set-up is done (the parent times set-up
up to that line) and, unless ``--setup-only``, one JSON line with the
round times, the operation outcomes and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import apnlab

    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(apnlab.__file__), src]) != src:
        sys.exit(f"apnlab imported from {apnlab.__file__}, not from {src}")

    from workloads import WORKLOADS, KnownFault

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    state = workload.setup(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    expected = workload.expect(state)

    round_s: list[float] = []
    outcomes: list[dict] = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for name, op in workload.ops(state, expected):
            o0 = time.perf_counter()
            try:
                msg = op()
                status = "ok" if msg is None else "wrong"
            except KnownFault as exc:
                status, msg = "failed", str(exc)
            except Exception as exc:  # an operation the program could not do
                status, msg = "failed", f"{type(exc).__name__}: {exc}"
            outcomes.append({"op": name, "status": status,
                             "seconds": time.perf_counter() - o0,
                             **({"detail": msg} if msg else {})})
        round_s.append(time.perf_counter() - t0)
        # A traced run traces one round.  Untraced runs repeat whole rounds
        # while another one, at the mean round time so far, still ends within
        # the run length, so a run lasts at most one round or --seconds.
        elapsed = time.perf_counter() - t_start
        if tracer is not None or elapsed + elapsed / len(round_s) > args.seconds:
            break

    doc = {"round_s": round_s, "outcomes": outcomes, "meta": _meta()}
    if tracer is not None:
        from spans import layer_metrics

        tracer.uninstall()
        doc["layers"] = layer_metrics(tracer.spans, round_s[0])
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(doc), flush=True)
    return 0


def _meta() -> dict:
    import numpy

    from apnlab.bitlinalg import GF2Basis

    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    return {
        "numpy": numpy.__version__,
        "numba_importable": numba_ok,
        "gf2basis_backend": GF2Basis(64).backend,
    }


if __name__ == "__main__":
    sys.exit(main())
