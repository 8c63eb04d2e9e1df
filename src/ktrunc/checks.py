"""The verification checks, each defined once.

``ktrunc verify`` and the acceptance tests both run these.  Every check
takes its grid (and the ``random.Random`` it draws from, when it draws)
and returns the number of cases it ran and the failing cases; where both
callers use the same grid it is the default.  The callers add only
wording and, in the tests, wall-clock budgets and pinned grid sizes.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import cycbar, ssengine, tcassemble, witt, wittsplit
from .exactalg import p_valuation

Outcome = tuple[int, list[tuple]]

PAGE_DEGREES = range(-10, 11)
SQUARE_CASES = ((2, 12, 1), (2, 12, 3), (2, 2, 1), (2, 6, 5),
                (3, 3, 1), (3, 9, 2), (3, 6, 1))
ORDER_GRID = [(p, e, r) for p in (2, 3, 5, 7) for e in range(1, 9)
              for r in range(1, 11)]
HOMOLOGY_GRID = [(p, e, m) for p in (2, 3, 5) for e in range(2, 7)
                 for m in range(1, 11)]
PAGE_GRID = [(p, e, m, mode) for p in (2, 3) for e in (2, 3, 4, 6)
             for m in range(1, 13) for mode in ("tate", "hfp")]
EQUALIZER_GRID = [(p, e, r, m) for p in (2, 3) for e in (2, 3, 4, 6)
                  for r in (1, 2, 3) for m in range(1, min(r * e, 7) + 1)
                  if m % p]


def _random_vector(rng: random.Random, ts: witt.TruncationSet,
                   size: int) -> witt.WittVector:
    return witt.WittVector(
        ts, tuple(rng.randrange(-size, size + 1) for _ in range(len(ts))))


def ghost_homomorphism(rng: random.Random, pairs: int = 200) -> Outcome:
    """The ghost map takes Witt sums and products on W_8(Z) to
    componentwise sums and products, on random pairs."""
    ts = witt.TruncationSet.big(8)
    failures = []
    for _ in range(pairs):
        a, b = _random_vector(rng, ts, 9), _random_vector(rng, ts, 9)
        ga, gb = witt.ghost(a), witt.ghost(b)
        if (witt.ghost(witt.witt_add(a, b))
                != tuple(x + y for x, y in zip(ga, gb))
                or witt.ghost(witt.witt_mul(a, b))
                != tuple(x * y for x, y in zip(ga, gb))):
            failures.append((a.coords, b.coords))
    return pairs, failures


def frobenius_verschiebung(rng: random.Random, degrees=range(1, 5),
                           per_degree: int = 25) -> Outcome:
    """F_d V_d is multiplication by d on W_6(Z)."""
    ts = witt.TruncationSet.big(6)
    failures = []
    for d in degrees:
        for _ in range(per_degree):
            a = _random_vector(rng, ts, 9)
            if witt.restrict(witt.frobenius(d, witt.verschiebung(d, a)),
                             ts) != witt.witt_scalar(d, a):
                failures.append((d, a.coords))
    return len(degrees) * per_degree, failures


def typical_square(rng: random.Random, cases=SQUARE_CASES,
                   per_case: int = 15) -> Outcome:
    """The p-typical part of V_e(a) at weight e'd equals e' V_{p^u} of
    the p-typical part of a at weight d, where e = p^u e'."""
    ts = witt.TruncationSet.big(6)
    failures = []
    for p, e, d in cases:
        u = p_valuation(e, p)
        e_prime = e // p ** u
        for _ in range(per_case):
            a = _random_vector(rng, ts, 6)
            lhs = witt.typical_part(e_prime * d, p, witt.verschiebung(e, a))
            rhs = witt.witt_scalar(
                e_prime, witt.verschiebung(p ** u, witt.typical_part(d, p, a)))
            shared = witt.TruncationSet(
                set(lhs.truncation.elements) & set(rhs.truncation.elements))
            if witt.restrict(lhs, shared) != witt.restrict(rhs, shared):
                failures.append((p, e, d, a.coords))
    return len(cases) * per_case, failures


def order_identity(grid=ORDER_GRID) -> Outcome:
    """The h-exponents over the weights m' <= re prime to p sum to
    r(e-1), on (p, e, r) triples."""
    failures = []
    for p, e, r in grid:
        total = sum(wittsplit.h_function(p, r, e, m)
                    for m in range(1, r * e + 1) if m % p)
        if total != r * (e - 1):
            failures.append((p, e, r, total))
    return len(grid), failures


def brute_force_splitting(bound: int, primes=(2, 3, 5, 7),
                          exponents=range(1, 9),
                          rs=range(1, 11)) -> Outcome:
    """The enumerated Witt quotient (route A) equals the closed form
    (route B) at every (p, e, r) of the grid with p^(re) <= bound."""
    grid = [(p, e, r) for p in primes for e in exponents for r in rs
            if p ** (r * e) <= bound]
    failures = []
    for p, e, r in grid:
        params = wittsplit.SplitParams(p, r, e)
        got = wittsplit.brute_force_quotient(params, bound)
        if got != wittsplit.predicted_quotient(params):
            failures.append((p, e, r, got.factors))
    return len(grid), failures


def homology_ranks(grid=HOMOLOGY_GRID) -> Outcome:
    """Bar-complex homology ranks equal the closed form and the small
    complex, on (p, e, m) triples."""
    failures = []
    for p, e, m in grid:
        ranks = cycbar.reduced_homology(cycbar.generate_complex(e, m, p)).ranks
        want = cycbar.predicted_homology(e, m, p)
        small = cycbar.small_complex_hh(e, m, p)
        if not ranks == want == small:
            failures.append((p, e, m, ranks, want, small))
    return len(grid), failures


def connes_scalars(grid=HOMOLOGY_GRID) -> Outcome:
    """The induced Connes scalar is +-m (over Z, and so +-m mod p, zero
    iff p | m) when e does not divide m, and zero or undefined when it
    does, on (p, e, m) triples."""
    failures = []
    for p, e, m in grid:
        summary = cycbar.reduced_homology(cycbar.generate_complex(e, m, p))
        if m % e:
            good = (summary.connes_scalar in (m % p, -m % p)
                    and summary.connes_scalar_int in (m, -m)
                    and (summary.connes_scalar == 0) == (m % p == 0))
        else:
            good = summary.connes_scalar in (0, None)
        if not good:
            failures.append((p, e, m, summary.connes_scalar,
                             summary.connes_scalar_int))
    return len(grid), failures


def spectral_survivors(grid=PAGE_GRID, degrees=PAGE_DEGREES) -> Outcome:
    """On each (p, e, m, mode) page, the E-infinity survivors in every
    total degree number zero in even degrees and the closed-form tower
    length in odd ones; one case per (page, degree) pair."""
    failures = []
    total = 0
    for p, e, m, mode in grid:
        page = ssengine.build_e2(e, m, p, mode)
        survivors = ssengine.run_to_einfty(
            page, ssengine.standard_patterns(page), degrees)
        for t in degrees:
            if t % 2 == 0:
                want = 0
            else:
                tower = ssengine.closed_form(p, e, m, (t - 1) // 2)
                want = (tower.tp_length if mode == "tate"
                        else tower.tcminus_length)
            total += 1
            if len(survivors[t]) != want:
                failures.append((p, e, m, mode, t, len(survivors[t]), want))
    return total, failures


def _random_unit(rng: random.Random, p: int) -> int:
    while True:
        unit = rng.randrange(1, p ** 8)
        if unit % p:
            return unit


def _kernel_matches_h(p: int, e: int, r: int, m: int, **model) -> bool:
    # tc_weight_group compares the kernel with the h-function group itself
    # and raises instead of returning a different group.
    try:
        tcassemble.tc_weight_group(p, e, r, m, **model)
    except tcassemble.RouteDisagreementError:
        return False
    return True


def equalizer_units(rng: random.Random, grid=EQUALIZER_GRID,
                    draws: int = 20) -> Outcome:
    """The equalizer kernel of each (p, e, r, m') tower equals the
    h-function group under random units scaling phi, one case per
    draw."""
    failures = []
    for p, e, r, m in grid:
        depth = len(tcassemble.build_equalizer_model(p, e, r, m)
                    .source_lengths) - 1
        for _ in range(draws):
            units = tuple(_random_unit(rng, p) for _ in range(depth + 1))
            if not _kernel_matches_h(p, e, r, m, units=units):
                failures.append((p, e, r, m, units))
    return len(grid) * draws, failures


def equalizer_depths(grid=EQUALIZER_GRID, extra=range(2, 7)) -> Outcome:
    """The equalizer kernel of each (p, e, r, m') tower equals the
    h-function group when truncated at depth s + u + k for each k in
    extra."""
    failures = []
    for p, e, r, m in grid:
        base = wittsplit.s_function(p, r * e, m) + p_valuation(e, p)
        for k in extra:
            if not _kernel_matches_h(p, e, r, m, depth=base + k):
                failures.append((p, e, r, m, base + k))
    return len(grid) * len(extra), failures


def route_grid(p: int | None = None, e: int | None = None,
               rmax: int | None = None) -> list[tuple[int, int, int]]:
    """(p, e, r) with r <= rmax (default 6), p in {2, 3} and e in
    {2, 3, 4, 6} unless a single value is given."""
    return [(q, f, r) for q in ((p,) if p else (2, 3))
            for f in ((e,) if e else (2, 3, 4, 6))
            for r in range(1, (rmax or 6) + 1)]


class RouteCase(NamedTuple):
    p: int
    e: int
    r: int
    passed: bool
    brute_ran: bool
    detail: str


def route_agreement(grid, enum_bound: int = 1 << 16) -> list[RouteCase]:
    """Routes A, B and C agree in degree 2r-1 and degree 2r is trivial,
    per (p, e, r).  Route A is skipped above enum_bound elements.  Each
    case is returned, failing or not, since callers report every one."""
    cases = []
    for p, e, r in grid:
        try:
            report = tcassemble.cross_check(p, e, r, enum_bound)
        except tcassemble.RouteDisagreementError as exc:
            cases.append(RouteCase(p, e, r, False, False, str(exc)))
            continue
        ran = report.brute is not None
        detail = (f"A={report.brute if ran else 'skipped'} "
                  f"B={report.predicted} C={report.assembled}")
        passed = report.passed
        if not tcassemble.group_in_degree(p, e, 2 * r).is_trivial():
            passed = False
            detail += ", even degree nontrivial"
        cases.append(RouteCase(p, e, r, passed, ran, detail))
    return cases
