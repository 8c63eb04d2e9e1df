"""Command-line surface: K-group tables, homology inspection, spectral
sequence page dumps, and named verification suites.

Exit status: 0 success, 1 verification failure or standard output closed
before it was written, 2 usage error.  All randomness is seeded, so
identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import checks, cycbar, ssengine, tcassemble, wittsplit
from .checks import PAGE_DEGREES
from .exactalg import P_LIMIT, PRIME_TEST_LIMIT, is_prime

# Bound on f times the sum of r*e over the degrees 2r-1 that kgroups prints:
# the number of weights it computes, each repeated f times in the output.
# verify bounds the sum of r*e over its routes grid by the same number.
# It bounds size: route C builds towers once per weight class, at most
# 2 log_p(re) + 2 classes a degree, so what grows with the bound is
# building and printing the factors.  At the bound, on 2 shared Intel Xeon
# x86_64 CPUs with Python 3.11, --format json takes 0.20-0.23 s for --p 2
# --e 2 --rmax 1023 (1,023 degrees), the slowest shape measured, and
# 0.08-0.14 s for --p 2 --e 1048576 --r 1, --e 1000003 --r 1, --e 131072
# --r 8, --e 16384 --r 64, --e 1000 --r 1000 and --e 2 --r 524288 and for
# --p 3 --e 531441 --r 1, of which about 0.05 s is interpreter start-up.
# Memory stays under 35 MB.
KGROUPS_BUDGET = 1 << 20

# The verify flags that only some suites read, by the suites (besides all)
# that read them, and the values --seed and --enum-bound take when not
# given.  Any other suite exits 2 when given one of these flags.
VERIFY_SCOPES = {"p": ("routes",), "e": ("routes",), "rmax": ("routes",),
                 "seed": ("witt", "equalizer"),
                 "enum_bound": ("split", "routes")}
DEFAULT_SEED = 0
DEFAULT_ENUM_BOUND = 1 << 16
# The split suite enumerates quotients of at most min(--enum-bound, this)
# elements, so a larger --enum-bound runs the same grid.
SPLIT_ENUM_BOUND = 1 << 14


def run_kgroups(cfg: argparse.Namespace) -> str:
    degrees = ([2 * cfg.r - 1] if cfg.r is not None
               else list(range(1, 2 * cfg.rmax)))
    rows = [(d, tcassemble.group_in_degree(cfg.p, cfg.e, d, cfg.f))
            for d in degrees]
    if cfg.fmt == "json":
        payload = {
            "p": cfg.p, "e": cfg.e, "f": cfg.f,
            "groups": [{"degree": d, "factors": list(g.factors)}
                       for d, g in rows]}
        return json.dumps(payload)
    width = max(len(str(g)) for _, g in rows)
    lines = [f"relative K-groups  p={cfg.p} e={cfg.e} f={cfg.f}"]
    for d, g in rows:
        lines.append(f"K_{d}".ljust(7) + str(g).ljust(width + 2)
                     + f"order {g.order()}")
    return "\n".join(lines)


def _hh_weight(cfg: argparse.Namespace, m: int):
    """Homology of weight m, its predicted ranks and the optional page dump."""
    summary = cycbar.reduced_homology(cycbar.generate_complex(cfg.e, m, cfg.p))
    expected = cycbar.predicted_homology(cfg.e, m, cfg.p)
    classes = None
    if cfg.dump_page:
        page = ssengine.build_e2(cfg.e, m, cfg.p, cfg.dump_page)
        classes = ssengine.dump_page(page, ssengine.standard_patterns(page),
                                     PAGE_DEGREES)
    return summary, expected, classes


def _ranks_json(ranks: dict[int, int]) -> dict[str, int]:
    return {str(k): v for k, v in sorted(ranks.items())}


def _hh_weights(cfg: argparse.Namespace) -> range:
    return (range(cfg.m, cfg.m + 1) if cfg.m is not None
            else range(1, cfg.mmax + 1))


def run_hh(cfg: argparse.Namespace) -> str:
    ms = _hh_weights(cfg)
    weights = [(m, *_hh_weight(cfg, m)) for m in ms]
    if cfg.fmt == "json":
        entries = []
        for m, summary, expected, classes in weights:
            entry = {"m": m, "ranks": _ranks_json(summary.ranks),
                     "connes": summary.connes_scalar}
            if summary.ranks != expected:
                entry["expected"] = _ranks_json(expected)
            if classes is not None:
                entry["page"] = {"mode": cfg.dump_page, "classes": classes}
            entries.append(entry)
        return json.dumps({"p": cfg.p, "e": cfg.e, "homology": entries})
    lines = []
    for m, summary, expected, classes in weights:
        if not summary.ranks:
            text = "all zero"
        else:
            parts = [f"deg {n}: {summary.ranks[n]}"
                     for n in sorted(summary.ranks)]
            if summary.connes_scalar is not None:
                parts.append(f"B = {summary.connes_scalar}")
            text = ", ".join(parts)
        if summary.ranks != expected:
            text += f"  MISMATCH: expected ranks {expected}"
        lines.append(text if len(ms) == 1 else f"m={m}: {text}")
        if classes is not None:
            lines.append(f"page e={cfg.e} m={m} p={cfg.p} mode={cfg.dump_page}")
            lines.extend("  " + ln for ln in classes)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verification suites

Check = tuple[str, bool, str]


def _check(name: str, outcome: checks.Outcome, what: str) -> Check:
    total, bad = outcome
    return (name, not bad,
            f"{total} {what}" + (f", failures at {bad[:5]}" if bad else ""))


def _counted(name: str, outcome: checks.Outcome, what: str) -> Check:
    total, bad = outcome
    return name, not bad, f"{total} {what}, {len(bad)} failures"


def _suite_witt(rng: random.Random) -> list[Check]:
    return [
        _counted("ghost map is a ring homomorphism on W_8(Z)",
                 checks.ghost_homomorphism(rng), "random pairs"),
        _counted("F_d after V_d is multiplication by d",
                 checks.frobenius_verschiebung(rng), "checks (d <= 4)"),
        _counted("typical projection of V_e matches e'V_{p^u} of the "
                 "typical projection", checks.typical_square(rng), "checks"),
    ]


def _suite_split(enum_bound: int) -> list[Check]:
    bound = min(enum_bound, SPLIT_ENUM_BOUND)
    return [
        _check("h-function exponents sum to r(e-1)",
               checks.order_identity(), "parameter triples"),
        _check("enumerated Witt quotients match the closed form",
               checks.brute_force_splitting(bound, (2, 3, 5), range(2, 7),
                                            range(1, 7)),
               f"quotients up to {bound} elements"),
    ]


def _suite_homology() -> list[Check]:
    total, rank_bad = checks.homology_ranks()
    _, scalar_bad = checks.connes_scalars()
    bad = list(dict.fromkeys(f[:3] for f in rank_bad + scalar_bad))
    return [_check("bar homology = small complex = closed form, with the "
                   "expected Connes scalar", (total, bad), "(p,e,m) triples")]


def _suite_equalizer(rng: random.Random) -> list[Check]:
    return [
        _check("equalizer kernels are unit-independent",
               checks.equalizer_units(rng), "randomized towers"),
        _check("equalizer kernels are truncation-stable",
               checks.equalizer_depths(), "depth choices"),
    ]


def _suite_routes(cfg: argparse.Namespace, enum_bound: int) -> list[Check]:
    grid = checks.route_grid(cfg.p, cfg.e, cfg.rmax)
    return [(f"routes (p={c.p}, e={c.e}, r={c.r})", c.passed, c.detail)
            for c in checks.route_agreement(grid, enum_bound)]


def run_verify(cfg: argparse.Namespace) -> tuple[str, bool]:
    rng = random.Random(DEFAULT_SEED if cfg.seed is None else cfg.seed)
    enum_bound = (DEFAULT_ENUM_BOUND if cfg.enum_bound is None
                  else cfg.enum_bound)
    results: list[Check] = []
    if cfg.suite in ("all", "witt"):
        results += _suite_witt(rng)
    if cfg.suite in ("all", "split"):
        results += _suite_split(enum_bound)
    if cfg.suite in ("all", "homology"):
        results += _suite_homology()
    if cfg.suite in ("all", "ss"):
        results.append(_check(
            "E-infinity survivor counts match the closed forms",
            checks.spectral_survivors(), "(page, degree) pairs"))
    if cfg.suite in ("all", "equalizer"):
        results += _suite_equalizer(rng)
    if cfg.suite in ("all", "routes"):
        results += _suite_routes(cfg, enum_bound)
    passed = sum(ok for _, ok, _ in results)
    if cfg.fmt == "json":
        text = json.dumps({
            "checks": [{"name": name, "passed": ok, "detail": detail}
                       for name, ok, detail in results],
            "passed": passed, "total": len(results)})
    else:
        lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
                 for name, ok, detail in results]
        lines.append(f"{passed}/{len(results)} checks passed")
        text = "\n".join(lines)
    return text, passed == len(results)


# ---------------------------------------------------------------------------

def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="ktrunc",
        description="Exact relative K-groups of truncated polynomial rings")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, need_p=True, need_e=True):
        sp.add_argument("--p", type=int, required=need_p,
                        help="characteristic, a prime below "
                             f"{PRIME_TEST_LIMIT:,}")
        sp.add_argument("--e", type=int, required=need_e,
                        help="truncation exponent")
        sp.add_argument("--format", dest="fmt", choices=("table", "json"),
                        default="table")

    sp = sub.add_parser(
        "kgroups", help="relative K-groups in a degree range",
        description="Relative K-groups in a degree range.  The input is "
        "checked against a size budget before anything is computed: f "
        "times the sum of r*e over the printed degrees 2r-1 is at most "
        f"{KGROUPS_BUDGET:,} (--e 1000 --r 1000 fits).  An input past it "
        "exits 2.")
    common(sp)
    sp.add_argument("--f", type=int, default=1,
                    help="residue degree of the coefficient field")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=int, help="single degree 2r-1")
    group.add_argument("--rmax", type=int,
                       help="all degrees 1 .. 2*rmax-1")

    sp = sub.add_parser(
        "hh", help="weight-graded bar homology",
        description="Weight-graded bar homology.  Every weight is checked "
        "against a size budget before anything is built: a weight of at "
        f"most {cycbar.WEIGHT_BUDGET}, at most {cycbar.WORD_BUDGET:,} "
        "words in its complex (every weight up to 14 fits, for every e), "
        "and, when e does not divide m, at most "
        f"{cycbar.SCALAR_DEGREE_BUDGET:,} words in each of the four "
        "degrees around the integral Connes scalar.  A weight past it "
        "exits 2 before any weight is computed, and so does a --p above "
        f"{P_LIMIT:,}, the largest modulus of the mod-p ranks.")
    common(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int, help="single weight")
    group.add_argument("--mmax", type=int, help="weights 1 .. mmax")
    sp.add_argument("--dump-page", dest="dump_page",
                    choices=("tate", "hfp"),
                    help="also dump the spectral sequence page")

    sp = sub.add_parser(
        "verify", help="run named verification suites",
        description="Named verification suites.  The routes suite is "
        "checked against a size budget before anything is computed: the "
        "sum of r*e over its (p, e, r) grid is at most "
        f"{KGROUPS_BUDGET:,} (--e 3 --rmax 590 fits).  An input past it "
        "exits 2.  --p, --e and --rmax scope the routes suite, --seed the "
        "witt and equalizer suites, and --enum-bound the split and routes "
        "suites, alone or within all; any other suite does not read them, "
        "and given one of them it exits 2.")
    common(sp, need_p=False, need_e=False)
    sp.add_argument("--seed", type=int,
                    help=f"random seed of the witt and equalizer suites "
                         f"(default {DEFAULT_SEED})")
    sp.add_argument("--enum-bound", dest="enum_bound", type=int,
                    help="element cap for brute-force enumeration in the "
                         "split and routes suites (default "
                         f"{DEFAULT_ENUM_BOUND}, at most "
                         f"{wittsplit.ENUM_CAP}; the split suite reads it "
                         f"only up to {SPLIT_ENUM_BOUND}, so a larger bound "
                         "runs its same grid)")
    sp.add_argument("--suite", default="all",
                    choices=("all", "witt", "split", "homology", "ss",
                             "equalizer", "routes"))
    sp.add_argument("--rmax", type=int, help="scope for the routes suite")
    return parser, sub.choices


def _validate(parser: argparse.ArgumentParser,
              cfg: argparse.Namespace) -> None:
    """Usage errors argparse cannot express, reported by the subcommand's
    parser; a flag the subcommand does not define reads as None."""
    if cfg.command == "verify" and cfg.suite != "all":
        for name, suites in VERIFY_SCOPES.items():
            if getattr(cfg, name) is not None and cfg.suite not in suites:
                plural = "s" if len(suites) > 1 else ""
                parser.error(f"--{name.replace('_', '-')} scopes the "
                             f"{' and '.join(suites)} suite{plural} only, "
                             f"and --suite {cfg.suite} does not read it")
    if cfg.p is not None and cfg.p >= PRIME_TEST_LIMIT:
        parser.error(f"--p must be below {PRIME_TEST_LIMIT:,}, where "
                     f"primality is decided exactly, got {cfg.p}")
    if cfg.p is not None and not is_prime(cfg.p):
        parser.error(f"--p must be prime, got {cfg.p}")
    for name in ("e", "f", "r", "rmax", "m", "mmax", "enum_bound"):
        value = getattr(cfg, name, None)
        if value is not None and value < 1:
            parser.error(f"--{name.replace('_', '-')} must be positive")
    if (getattr(cfg, "enum_bound", None) or 0) > wittsplit.ENUM_CAP:
        parser.error(f"--enum-bound must be at most {wittsplit.ENUM_CAP}")
    if cfg.command == "hh" and cfg.e is not None and cfg.e < 2:
        parser.error("--e must be at least 2 for homology")
    if cfg.command == "hh" and cfg.p > P_LIMIT:
        parser.error(f"--p must be at most {P_LIMIT:,} for homology, "
                     f"got {cfg.p}")
    if cfg.command == "hh":
        for m in _hh_weights(cfg):
            try:
                cycbar.check_size_budget(cfg.e, m)
            except cycbar.ComplexTooLargeError as exc:
                parser.error(str(exc))
    if cfg.command == "kgroups":
        r = cfg.r or cfg.rmax
        if cfg.fmt == "table":
            # the top order p^(f*r*(e-1)) is printed in decimal; 2^4 > 10,
            # so an exponent of 4 * limit or more is too long without
            # building it
            k = cfg.f * r * (cfg.e - 1)
            # the limit arrived in Python 3.10.7; before it there is none
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and (k >= 4 * limit or cfg.p ** k >= 10 ** limit):
                parser.error(f"--format table prints the order "
                             f"{cfg.p}^{k}, which has more than {limit} "
                             f"digits; use --format json")
        size = cfg.f * cfg.e * (r if cfg.r is not None else r * (r + 1) // 2)
        if size > KGROUPS_BUDGET:
            parser.error(f"f times the sum of r*e over the printed degrees "
                         f"is {size:,}, past the size budget of "
                         f"{KGROUPS_BUDGET:,}")
    if cfg.command == "verify" and cfg.suite in ("all", "routes"):
        # the grid in closed form, each (p, e) once: --rmax may be huge
        rmax = cfg.rmax or checks.ROUTE_RMAX
        size = (sum(e for _, e, _ in checks.route_grid(cfg.p, cfg.e, 1))
                * rmax * (rmax + 1) // 2)
        if size > KGROUPS_BUDGET:
            parser.error(f"the sum of r*e over the routes grid is {size:,}, "
                         f"past the size budget of {KGROUPS_BUDGET:,}")


def main(argv=None) -> int:
    parser, commands = _build_parser()
    cfg = parser.parse_args(argv)
    _validate(commands[cfg.command], cfg)
    if cfg.command == "kgroups":
        text, passed = run_kgroups(cfg), True
    elif cfg.command == "hh":
        text, passed = run_hh(cfg), True
    else:
        text, passed = run_verify(cfg)
    if not write_stdout(text):
        return 1
    return 0 if passed else 1


def write_stdout(text: str) -> bool:
    """Print text and flush; False if the reader closed the pipe early
    (`| head`).  As the note on SIGPIPE in the Python docs recommends,
    stdout then points at devnull, so the flush at exit does not raise
    again and the caller can exit 1 quietly."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
