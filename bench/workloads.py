"""The benchmark's workloads: their grids, one case per user query, and the
independent route each answer is checked against.

Each workload follows a command-line path users run today:

* ``kgroups_table`` is ``ktrunc kgroups`` / ``scripts/k_table.py``: route C
  (``tcassemble.group_in_degree``), checked against route B.  Its time is
  ``exactalg`` SNF on many tiny equalizer matrices; it never touches
  ``cycbar`` or ``witt``.
* ``hh_pages`` is ``ktrunc hh`` plus ``--dump-page`` for both modes: the bar
  complex, its homology and both spectral sequences, checked against the
  closed-form ranks, the small complex and the closed-form tower lengths.
  It makes few, large ``exactalg`` calls (``fp_rref``, ``integer_solve``).
* ``witt_enum`` is route A (``verify --suite split``): brute-force Witt
  enumeration, checked against route B.  Its time is the ``witt`` ghost map
  and its inverse; ``exactalg`` and ``cycbar`` stay idle.

Case functions look every ktrunc function up through its module at call
time, so the tracer's patched bindings are the ones called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ktrunc import cycbar, ssengine, tcassemble, wittsplit

PAGE_DEGREES = range(-10, 11)

Case = tuple[int, int, int]
# A failed check names the layer whose answer disagreed and what differed.
Mismatch = tuple[str, str]


@dataclass(frozen=True)
class Workload:
    name: str
    key: str  # name of the third case coordinate: "r" or "m"
    full: tuple[Case, ...]
    small: tuple[Case, ...]
    run: Callable[[Case], object]
    check: Callable[[Case, object], Mismatch | None]
    # The traced spans this workload calls, its checks included; every
    # other span is predicted to see zero calls.
    spans: frozenset[str]

    def case_id(self, case: Case) -> str:
        p, e, x = case
        return f"p={p},e={e},{self.key}={x}"


# -- kgroups_table ----------------------------------------------------------

def _kgroups_run(case: Case) -> list[int]:
    p, e, r = case
    return list(tcassemble.group_in_degree(p, e, 2 * r - 1).factors)


def _kgroups_check(case: Case, answer) -> Mismatch | None:
    p, e, r = case
    want = list(wittsplit.predicted_quotient(
        wittsplit.SplitParams(p, r, e)).factors)
    if answer != want:
        return "tcassemble", f"route C gives {answer}, route B gives {want}"
    return None


# -- hh_pages ---------------------------------------------------------------

def _hh_run(case: Case) -> dict:
    p, e, m = case
    summary = cycbar.reduced_homology(cycbar.generate_complex(e, m, p))
    survivors = {}
    for mode in ("tate", "hfp"):
        page = ssengine.build_e2(e, m, p, mode)
        pages = ssengine.run_to_einfty(
            page, ssengine.standard_patterns(page), PAGE_DEGREES)
        survivors[mode] = [len(pages[t]) for t in PAGE_DEGREES]
    return {"ranks": {str(n): k for n, k in sorted(summary.ranks.items())},
            "scalar": summary.connes_scalar,
            "scalar_int": summary.connes_scalar_int,
            "survivors": survivors}


def _hh_check(case: Case, answer) -> Mismatch | None:
    p, e, m = case
    ranks = {int(n): k for n, k in answer["ranks"].items()}
    want = cycbar.predicted_homology(e, m, p)
    small = cycbar.small_complex_hh(e, m, p)
    if not ranks == want == small:
        return "cycbar", (f"bar ranks {ranks}, closed form {want}, small "
                          f"complex {small}")
    scalar, scalar_int = answer["scalar"], answer["scalar_int"]
    if m % e:
        if scalar_int not in (m, -m) or scalar not in (m % p, -m % p):
            return "cycbar", (f"Connes scalar {scalar} (integral "
                              f"{scalar_int}), expected +-{m}")
    elif scalar not in (None, 0):
        return "cycbar", f"Connes scalar {scalar} on an e | m page"
    for mode, counts in answer["survivors"].items():
        for t, count in zip(PAGE_DEGREES, counts):
            if t % 2 == 0:
                expected = 0
            else:
                tower = ssengine.closed_form(p, e, m, (t - 1) // 2)
                expected = (tower.tp_length if mode == "tate"
                            else tower.tcminus_length)
            if count != expected:
                return "ssengine", (f"{mode} survivors in degree {t}: "
                                    f"{count}, closed form {expected}")
    return None


# -- witt_enum --------------------------------------------------------------

def _witt_run(case: Case) -> list[int]:
    p, e, r = case
    return list(wittsplit.brute_force_quotient(
        wittsplit.SplitParams(p, r, e)).factors)


def _witt_check(case: Case, answer) -> Mismatch | None:
    p, e, r = case
    want = list(wittsplit.predicted_quotient(
        wittsplit.SplitParams(p, r, e)).factors)
    if answer != want:
        return "wittsplit", f"route A gives {answer}, route B gives {want}"
    return None


def _witt_grid(primes, es, rs, bound) -> tuple[Case, ...]:
    return tuple((p, e, r) for p in primes for e in es for r in rs
                 if p ** (r * e) <= bound)


WORKLOADS = {w.name: w for w in (
    Workload(
        "kgroups_table", "r",
        full=tuple((p, e, r) for p in (2, 3, 5) for e in range(2, 9)
                   for r in range(1, 17)),
        small=tuple((p, e, r) for p in (2, 3) for e in (2, 3)
                    for r in (1, 2, 3)),
        run=_kgroups_run, check=_kgroups_check,
        spans=frozenset({
            "exactalg.smith_normal_form", "exactalg.kernel_invariants",
            "ssengine.closed_form", "tcassemble.group_in_degree",
            "tcassemble.tc_weight_group", "tcassemble.build_equalizer_model",
            "tcassemble.equalizer_kernel", "wittsplit.predicted_quotient"})),
    Workload(
        "hh_pages", "m",
        full=tuple((p, e, m) for p in (2, 3) for e in (2, 3, 4)
                   for m in range(1, 13))
        + tuple((p, 5, m) for p in (2, 3) for m in range(1, 11)),
        small=tuple((p, e, m) for p in (2, 3) for e in (2, 3)
                    for m in range(1, 5)),
        run=_hh_run, check=_hh_check,
        spans=frozenset({
            "exactalg.smith_normal_form", "exactalg.integer_solve",
            "exactalg.integer_kernel_basis", "exactalg.fp_rref",
            "cycbar.weight_words", "cycbar.entries_matrix",
            "cycbar.integer_complex", "cycbar.generate_complex",
            "cycbar.reduced_homology", "cycbar.integral_connes_scalar",
            "ssengine.build_e2", "ssengine.run_to_einfty",
            "ssengine.closed_form"})),
    Workload(
        "witt_enum", "r",
        full=_witt_grid((2, 3, 5, 7), range(1, 9), range(1, 11), 1 << 14),
        small=_witt_grid((2, 3), (1, 2), (1, 2, 3), 1 << 6),
        run=_witt_run, check=_witt_check,
        spans=frozenset({
            "witt.add_coords", "witt.ghost", "witt.from_ghost",
            "wittsplit.mul_p_map", "wittsplit.brute_force_quotient",
            "wittsplit.predicted_quotient"})),
)}
