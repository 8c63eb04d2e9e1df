"""Tests of the benchmark itself: tracer coverage, cold start, seeded order.

    python -m pytest bench/tests -q

Each worker run here is a fresh interpreter on the reduced grid of its
workload, as the benchmark's timed runs are on the full grid.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench_run
import speed
import worker
from tracer import SPANS, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPAN_NAMES = [name for name, *_ in SPANS]


def run_worker(workload, seed, *extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--small", *extra],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: untraced seed 1, traced seed 1, traced seed 2."""
    out = {}
    tmp = tmp_path_factory.mktemp("traces")
    for name in WORKLOADS:
        out[name] = (run_worker(name, 1),
                     run_worker(name, 1, "--trace", str(tmp / f"{name}-1")),
                     run_worker(name, 2, "--trace", str(tmp / f"{name}-2")))
    return out


def test_tracer_patches_every_direct_import():
    import ktrunc.cli  # noqa: F401  (its module bindings are patched too)
    from ktrunc import cycbar, ssengine, tcassemble, wittsplit

    originals = {(mod.__name__, attr): getattr(mod, attr) for mod, attr in (
        (ssengine, "reduced_homology"), (cycbar, "smith_normal_form"),
        (cycbar, "integer_solve"), (tcassemble, "kernel_invariants"),
        (tcassemble, "closed_form"), (wittsplit, "_add_coords"))}
    tracer = Tracer()
    tracer.install()
    try:
        patched = {(mod.__name__, binding)
                   for mod, binding, _ in tracer.bindings}
        assert set(originals) <= patched
        for (module, attr), fn in originals.items():
            assert getattr(sys.modules[module], attr) is not fn
    finally:
        tracer.uninstall()
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_calls_exactly_the_predicted_spans(runs, name):
    plain, traced, _ = runs[name]
    assert plain["errors"] == [] and traced["errors"] == []
    assert traced["answers"] == plain["answers"]
    assert traced["not_restored"] == []
    calls = {span: traced["metrics"][f"{span}.calls"] for span in SPAN_NAMES}
    expected = WORKLOADS[name].spans
    assert {span for span, n in calls.items() if n > 0} == expected
    assert all(traced["metrics"][f"{layer}.raised"] == 0
               for layer in {span.split(".")[0] for span in SPAN_NAMES})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_caches_are_cold_at_the_first_case(runs, name):
    for run in runs[name]:
        assert set(run["cold"]) == {
            "cycbar._integer_complex", "cycbar._integral_connes_scalar",
            "witt._divisors", "witt.TruncationSet._cache"}
        assert not any(run["cold"].values())


def test_worker_refuses_warm_caches():
    from ktrunc import witt
    witt._divisors(12)
    with pytest.raises(SystemExit, match="witt._divisors"):
        worker.run("witt_enum", 1, small=True, setup_only=True,
                   trace_path=None)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_only_the_order(runs, name):
    _, first, second = runs[name]
    assert list(first["latencies"]) != list(second["latencies"])
    assert first["answers"] == second["answers"]
    counts = [{k: v for k, v in run["metrics"].items()
               if not k.endswith("self_s")} for run in (first, second)]
    assert counts[0] == counts[1]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert bench_run.tail(list(range(336))) == (pytest.approx(97.02, abs=0.01),
                                                325)
    assert bench_run.tail(list(range(92, 0, -1))) == (
        pytest.approx(89.13, abs=0.01), 82)


def test_restore_check_sees_a_binding_left_patched():
    from ktrunc import tcassemble

    before = worker.ktrunc_globals()
    tracer = Tracer()
    tracer.install()
    try:
        left = worker.changed_globals(before, worker.ktrunc_globals())
        assert "ktrunc.tcassemble.kernel_invariants" in left
        assert len(left) == len(tracer.bindings)
    finally:
        tracer.uninstall()
    assert worker.changed_globals(before, worker.ktrunc_globals()) == []
    tcassemble.extra_binding = None
    try:
        assert worker.changed_globals(before, worker.ktrunc_globals()) == [
            "ktrunc.tcassemble.extra_binding"]
    finally:
        del tcassemble.extra_binding


def test_case_times_are_scaled_by_the_probes_around_them():
    run = {"latencies": {"a": 0.010, "b": 0.010, "c": 0.020},
           "probes": [0.004, 0.004, 0.004, 0.008]}
    unit = speed.REFERENCE_S / 0.004  # scale factor where the probes read 4 ms
    scaled = bench_run.scaled_latencies(run)
    assert scaled == pytest.approx({"a": 0.010 * unit, "b": 0.010 * unit,
                                    "c": 0.020 * unit})


def test_probe_allocates_no_arrays():
    import tracemalloc

    speed.probe()
    tracemalloc.start()
    try:
        speed.probe()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "hh_pages",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
