"""One run of one workload, in the fresh interpreter it was started as.

    PYTHONPATH=src python3 bench/worker.py --workload kgroups_table --seed 1
        [--run 0] [--small] [--setup-only] [--trace FILE]

The cases run in the order fixed by the seed and the run's index, and are
timed one by one, with a speed probe (``speed.py``) before the first case
and after each case; the reference checks run after the last case, outside
every timed interval.  Prints one JSON object: when the first case was
ready and the host speed then, the per-case times and probes, the answers,
every failed case with the layer it failed in, the peak RSS and the state
of ktrunc's caches at the first case.  With ``--trace`` the calls into
every layer are traced, the per-layer figures are added to the object and
the full trace is written to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import sys
import time
from contextlib import nullcontext

import numpy as np
from ktrunc import cycbar, witt

from speed import probe
from tracer import Tracer
from workloads import WORKLOADS

# Probes right after the first case is ready; their median is the host
# speed the set-up time is scaled by.
SETUP_PROBES = 5

# The lru caches the tracer reports misses for, by span name.
TRACED_CACHES = {
    "cycbar.integer_complex": cycbar._integer_complex,
    "cycbar.integral_connes_scalar": cycbar._integral_connes_scalar,
}


def cache_state() -> dict[str, int]:
    """Entries and lookups so far in every cache ktrunc keeps."""
    state = {name: info.hits + info.misses + info.currsize
             for name, info in (
                 ("cycbar._integer_complex",
                  cycbar._integer_complex.cache_info()),
                 ("cycbar._integral_connes_scalar",
                  cycbar._integral_connes_scalar.cache_info()),
                 ("witt._divisors", witt._divisors.cache_info()))}
    state["witt.TruncationSet._cache"] = len(witt.TruncationSet._cache)
    return state


def ktrunc_globals() -> dict[tuple[str, str], object]:
    """Every global of every loaded ktrunc module, by (module, name)."""
    return {(name, binding): value
            for name, mod in list(sys.modules.items())
            if name == "ktrunc" or name.startswith("ktrunc.")
            for binding, value in vars(mod).items()}


def changed_globals(before: dict, after: dict) -> list[str]:
    """The globals bound to another object, added or removed."""
    missing = object()
    return sorted(f"{mod}.{binding}" for mod, binding in before.keys() | after
                  if before.get((mod, binding), missing)
                  is not after.get((mod, binding), missing))


def raising_layer(exc: BaseException) -> str:
    """The ktrunc module of the innermost frame the exception passed."""
    layer = "bench"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("ktrunc."):
            layer = module.split(".", 1)[1]
        tb = tb.tb_next
    return layer


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def run(name: str, seed: int, small: bool, setup_only: bool,
        trace_path: str | None, index: int = 0) -> dict:
    workload = WORKLOADS[name]
    cases = list(workload.small if small else workload.full)
    random.Random(f"{seed}/{index}").shuffle(cases)
    cold = cache_state()
    if any(cold.values()):
        raise SystemExit(f"caches are not empty at the first case: {cold}")
    tracer = Tracer() if trace_path else None
    if tracer:
        untraced = ktrunc_globals()
        tracer.install()
    out = {"workload": name, "seed": seed, "ready": time.monotonic(),
           "cold": cold}
    probes = [probe() for _ in range(SETUP_PROBES)]
    out["setup_probe"] = sorted(probes)[SETUP_PROBES // 2]
    if setup_only:
        return out

    ids = [workload.case_id(case) for case in cases]
    latencies, answers, errors = {}, {}, []
    probes = probes[-1:]  # the last set-up probe is the one before case 0
    for case, cid in zip(cases, ids):
        root = tracer.root(cid, "case") if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with root:
                answers[cid] = workload.run(case)
        except Exception as exc:
            errors.append({"case": cid, "layer": raising_layer(exc),
                           "error": repr(exc)})
        latencies[cid] = time.perf_counter() - t0
        probes.append(probe())
    out["wall_s"] = sum(latencies.values())
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024)

    for case, cid in zip(cases, ids):
        if cid not in answers:
            continue
        root = tracer.root(cid, "check") if tracer else nullcontext()
        try:
            with root:
                mismatch = workload.check(case, answers[cid])
        except Exception as exc:
            mismatch = raising_layer(exc), f"reference check raised {exc!r}"
        if mismatch:
            errors.append({"case": cid, "layer": mismatch[0],
                           "error": mismatch[1]})

    out.update(latencies=latencies, probes=probes, answers=answers,
               errors=errors)
    if tracer:
        tracer.uninstall()
        out["not_restored"] = changed_globals(untraced, ktrunc_globals())
        out["metrics"] = tracer.metrics(
            {span: fn.cache_info() for span, fn in TRACED_CACHES.items()})
        with open(trace_path, "w") as fh:
            json.dump({"workload": name, "seed": seed,
                       "environment": environment(),
                       "wall_s": out["wall_s"], "latencies": latencies,
                       "metrics": out["metrics"], **tracer.dump()}, fh)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run", type=int, default=0,
                        help="index of the run; with the seed it fixes the "
                             "case order")
    parser.add_argument("--small", action="store_true",
                        help="the reduced grid the benchmark's tests use")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop when the first case is ready")
    parser.add_argument("--trace", metavar="FILE",
                        help="trace the layers and write the trace here")
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.small, args.setup_only,
              args.trace, args.run)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
