"""The ktrunc benchmark.

    python3 bench/run.py --workload hh_pages --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Every timed run of the workload is a fresh
interpreter (``bench/worker.py``), so ktrunc's caches start cold as they do
for a command-line user; runs repeat, one at a time, until ``--seconds`` is
spent and at least ``MIN_RUNS`` have been made.  Every answer is checked against an independent route.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` one more
run is traced and the metrics are the per-layer ones, and the full trace is
written to ``bench/out/``.  The lines before it give every end-to-end
metric by name and unit, including ``error_rate`` and the percentile behind
``case_tail_ms``.  Any failed case is named on standard error, with its
layer, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
# Launches that stop at the first case, for more set-up samples per run.
SETUP_LAUNCHES = 10
# Timed runs made even past --seconds: on hh_pages the tail depends on the
# case order, and a per-case median over two orders still spreads by about
# the bound across seeds.
MIN_RUNS = 3
TAIL_BEYOND = 10
PROBE_WINDOW = 3
# Every run must end within 180 s; the children share this deadline.
DEADLINE_S = 170


class RunFailed(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    # one single-threaded process: no BLAS thread pool at numpy import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Run the worker once; adds ``setup_s``, launch to first case ready."""
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {' '.join(args)} passed the deadline")
    if proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(args)} exited with "
                        f"{proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - launched
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least
    TAIL_BEYOND values beyond it: the (TAIL_BEYOND + 1)-th largest value."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return 100 * rank / len(ordered), ordered[rank - 1]


def scaled_latencies(run: dict) -> dict[str, float]:
    """Case times at reference speed.  Probe i ran just before case i; each
    case is scaled by the median of the PROBE_WINDOW probes before it and
    the PROBE_WINDOW after it."""
    probes = run["probes"]
    return {cid: raw * REFERENCE_S / statistics.median(
                probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW])
            for i, (cid, raw) in enumerate(run["latencies"].items())}


def end_to_end(runs: list[dict], setup: list[dict]) -> dict[str, float]:
    """The end-to-end metrics at reference speed: medians over the runs,
    and for the case latencies per case first, then over the cases."""
    scaled = [scaled_latencies(run) for run in runs]
    per_case = {cid: statistics.median(run[cid] for run in scaled)
                for cid in scaled[0]}
    q, tail_s = tail(list(per_case.values()))
    return {
        "wall_s": statistics.median(sum(run.values()) for run in scaled),
        "case_p50_ms": 1000 * statistics.median(per_case.values()),
        "case_tail_ms": 1000 * tail_s,
        "case_tail_percentile": q,
        "cases": len(per_case),
        "setup_s": statistics.median(
            c["setup_s"] * REFERENCE_S / c["setup_probe"] for c in setup),
        "probe_ms": 1000 * statistics.median(
            p for run in runs for p in run["probes"]),
        "setup_probe_ms": 1000 * statistics.median(
            c["setup_probe"] for c in setup),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ktrunc" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("run from the root of a ktrunc checkout: src/ktrunc and "
              "BENCHMARK.json are needed", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        # untimed: the first launch writes the bytecode caches, once per
        # checkout, as a first command-line call would
        spawn(base + ["--setup-only"], env, deadline)
        setup = [spawn(base + ["--setup-only"], env, deadline)
                 for _ in range(SETUP_LAUNCHES)]
        runs: list[dict] = []
        started = time.monotonic()
        while True:
            # each run takes its own case order from the seed, so that the
            # per-case medians are less tied to one order
            runs.append(spawn(base + ["--run", str(len(runs))], env,
                              deadline))
            spent = time.monotonic() - started
            if (len(runs) >= MIN_RUNS
                    and spent * (len(runs) + 1) / len(runs) > args.seconds):
                break
        traced = None
        if args.trace:
            trace_path = (HERE / "out"
                          / f"trace-{args.workload}-seed{args.seed}.json")
            trace_path.parent.mkdir(exist_ok=True)
            traced = spawn(base + ["--trace", str(trace_path)], env, deadline)
    except RunFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    done = runs + ([traced] if traced else [])
    attempted = sum(len(run["latencies"]) for run in done)
    failed = sum(len(run["errors"]) for run in done)
    for run in done:
        for err in run["errors"]:
            print(f"{args.workload} (seed {args.seed}): case {err['case']} "
                  f"failed in layer {err['layer']}: {err['error']}",
                  file=sys.stderr)

    e2e = end_to_end(runs, setup + runs)
    e2e["error_rate"] = failed / attempted
    print(f"{args.workload} seed {args.seed}: {len(runs)} fresh-process "
          f"runs of {e2e['cases']} cases, {len(setup)} set-up launches; "
          f"times at reference speed {1000 * REFERENCE_S:g} ms; speed probe "
          f"median {e2e['probe_ms']:.4g} ms between cases, "
          f"{e2e['setup_probe_ms']:.4g} ms at set-up")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["error_rate"] = "ratio"
    for name, unit in units.items():
        note = (f" (p{e2e['case_tail_percentile']:.1f} of {e2e['cases']} "
                f"per-case medians)" if name == "case_tail_ms" else "")
        print(f"  {name} = {e2e[name]:.6g} {unit}{note}")

    if traced:
        values = dict(traced["metrics"], trace_overhead=sum(
            scaled_latencies(traced).values()) / e2e["wall_s"])
        wanted = spec["per_layer"]
        print(f"  traced run: raw time in cases {traced['wall_s']:.6g} s, "
              f"trace written to {trace_path.relative_to(ROOT)}")
        if traced["not_restored"]:
            print(f"{args.workload}: after the traced run these ktrunc "
                  f"globals differ from before it: "
                  f"{', '.join(traced['not_restored'])}", file=sys.stderr)
        correct = failed == 0 and not traced["not_restored"]
    else:
        values, wanted = e2e, spec["end_to_end"]
        correct = failed == 0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
