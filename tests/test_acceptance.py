"""Acceptance gate: the eight headline reproducibility criteria.

The checks live in ``ktrunc.checks``, shared with ``ktrunc verify``.  Each
test prints exactly one PASS/FAIL line (visible even under captured
output) with the check count and elapsed time, then asserts.  Every test
pins its grid size, so a shared grid cannot shrink unnoticed; criteria
with stated budgets also assert the wall-clock limit.
"""

import random
import time

from ktrunc import checks
from ktrunc.wittsplit import SplitParams, brute_force_quotient


def report(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")


def test_criterion_1_homology_closed_form(capsys):
    start = time.monotonic()
    triples, failures = checks.homology_ranks()
    elapsed = time.monotonic() - start
    ok = not failures and triples == 150 and elapsed < 60
    report(
        capsys, 1,
        ok,
        f"bar homology matches the closed-form ranks and the small complex on "
        f"{triples} triples in {elapsed:.1f}s (limit 60s), "
        f"{len(failures)} failures",
    )
    assert not failures, failures[:5]
    assert triples == 150
    assert elapsed < 60


def test_criterion_2_connes_scalar(capsys):
    start = time.monotonic()
    triples, failures = checks.connes_scalars()
    elapsed = time.monotonic() - start
    ok = not failures and triples == 150
    report(
        capsys, 2,
        ok,
        f"induced Connes scalar is +-m mod p (zero iff p | m) off the "
        f"diagonal and zero on it, {triples} triples in "
        f"{elapsed:.1f}s, {len(failures)} failures",
    )
    assert not failures, failures[:5]
    assert triples == 150


def test_criterion_3_witt_identities(capsys):
    start = time.monotonic()
    rng = random.Random(0)
    pairs, ghost_failures = checks.ghost_homomorphism(rng)
    fv, fv_failures = checks.frobenius_verschiebung(rng)
    square, square_failures = checks.typical_square(rng)
    failures = ghost_failures + fv_failures + square_failures
    sizes = (pairs, fv, square)
    elapsed = time.monotonic() - start
    ok = not failures and sizes == (200, 100, 105)
    report(
        capsys, 3,
        ok,
        f"ghost homomorphism ({pairs} pairs), F_d V_d = d ({fv} checks, "
        f"d <= 4), typical projection square ({square} inputs): "
        f"{sum(sizes)} checks in {elapsed:.1f}s, {len(failures)} failures",
    )
    assert not ghost_failures, ghost_failures[:5]
    assert not fv_failures, fv_failures[:5]
    assert not square_failures, square_failures[:5]
    assert sizes == (200, 100, 105)


def test_criterion_4_order_identity(capsys):
    start = time.monotonic()
    triples, failures = checks.order_identity()
    elapsed = time.monotonic() - start
    ok = not failures and triples == 320
    report(
        capsys, 4,
        ok,
        f"sum of h-exponents is r(e-1) on all {triples} triples with "
        f"p <= 7, e <= 8, r <= 10, in {elapsed:.1f}s, "
        f"{len(failures)} failures",
    )
    assert not failures, failures[:5]
    assert triples == 320


def test_criterion_5_brute_force_splitting(capsys):
    start = time.monotonic()
    points, failures = checks.brute_force_splitting(1 << 16)
    named_ok = (
        brute_force_quotient(SplitParams(2, 2, 2)).factors == (2, 2)
        and brute_force_quotient(SplitParams(2, 2, 3)).factors == (2, 8)
    )
    elapsed = time.monotonic() - start
    ok = not failures and points == 85 and named_ok and elapsed < 120
    report(
        capsys, 5,
        ok,
        f"enumerated invariant factors match the closed form on all "
        f"{points} points with p^(re) <= 2^16, named examples "
        f"{'ok' if named_ok else 'WRONG'}, in {elapsed:.1f}s (limit 120s), "
        f"{len(failures)} failures",
    )
    assert not failures, failures[:5]
    assert points == 85
    assert named_ok
    assert elapsed < 120


def test_criterion_6_spectral_engine(capsys):
    start = time.monotonic()
    pairs, failures = checks.spectral_survivors()
    elapsed = time.monotonic() - start
    ok = not failures and pairs == 4032
    report(
        capsys, 6,
        ok,
        f"E-infinity survivor counts equal the closed forms and even "
        f"degrees are empty: {pairs} (page, degree) pairs in {elapsed:.1f}s, "
        f"{len(failures)} failures",
    )
    assert not failures, failures[:5]
    assert pairs == 4032


def test_criterion_7_equalizer_robustness(capsys):
    start = time.monotonic()
    towers, unit_failures = checks.equalizer_units(random.Random(0))
    truncations, depth_failures = checks.equalizer_depths()
    failures = unit_failures + depth_failures
    elapsed = time.monotonic() - start
    ok = not failures and (towers, truncations) == (1660, 415)
    report(
        capsys, 7,
        ok,
        f"kernel invariants unchanged under {towers} random unit "
        f"assignments (20 per tower) and {truncations} truncation depths "
        f"s+u+2 .. s+u+6, in {elapsed:.1f}s, {len(failures)} failures",
    )
    assert not unit_failures, unit_failures[:5]
    assert not depth_failures, depth_failures[:5]
    assert (towers, truncations) == (1660, 415)


def test_criterion_8_three_route_agreement(capsys):
    start = time.monotonic()
    cases = checks.route_agreement(checks.route_grid())
    failures = [case for case in cases if not case.passed]
    brute_ran = sum(case.brute_ran for case in cases)
    elapsed = time.monotonic() - start
    ok = (not failures and (len(cases), brute_ran) == (48, 28)
          and elapsed < 300)
    report(
        capsys, 8,
        ok,
        f"routes A/B/C agree on {len(cases)} (p, e, r) cases (A ran on "
        f"{brute_ran}, skipped above the enumeration bound) in degree "
        f"2r-1 (even-degree vanishing is an input of group_in_degree), in "
        f"{elapsed:.1f}s (limit 300s), {len(failures)} failures",
    )
    assert not failures, failures[:5]
    assert (len(cases), brute_ran) == (48, 28)
    assert elapsed < 300
