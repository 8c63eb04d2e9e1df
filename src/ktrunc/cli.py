"""Command-line surface: K-group tables, homology inspection, spectral
sequence page dumps, and named verification suites.

Exit status: 0 success, 1 verification failure, 2 usage error.  All
randomness is seeded, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from . import checks, cycbar, ssengine, tcassemble
from .checks import PAGE_DEGREES
from .exactalg import is_prime


@dataclass
class RunConfig:
    command: str
    p: int | None = None
    e: int | None = None
    f: int = 1
    r: int | None = None
    rmax: int | None = None
    m: int | None = None
    mmax: int | None = None
    fmt: str = "table"
    seed: int = 0
    enum_bound: int = 1 << 16
    suite: str = "all"
    dump_page: str | None = None


def run_kgroups(cfg: RunConfig) -> str:
    degrees = ([2 * cfg.r - 1] if cfg.r is not None
               else list(range(1, 2 * cfg.rmax)))
    rows = [(d, tcassemble.group_in_degree(cfg.p, cfg.e, d, cfg.f))
            for d in degrees]
    if cfg.fmt == "json":
        payload = {
            "p": cfg.p, "e": cfg.e, "f": cfg.f,
            "groups": [{"degree": d, "factors": list(g.expanded_factors())}
                       for d, g in rows]}
        return json.dumps(payload)
    width = max(len(str(g)) for _, g in rows)
    lines = [f"relative K-groups  p={cfg.p} e={cfg.e} f={cfg.f}"]
    for d, g in rows:
        lines.append(f"K_{d}".ljust(7) + str(g).ljust(width + 2)
                     + f"order {g.order()}")
    return "\n".join(lines)


def _hh_weight(cfg: RunConfig, m: int):
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


def run_hh(cfg: RunConfig) -> str:
    ms = [cfg.m] if cfg.m is not None else list(range(1, cfg.mmax + 1))
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
    bound = min(enum_bound, 1 << 14)
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


def _suite_routes(cfg: RunConfig) -> list[Check]:
    grid = checks.route_grid(cfg.p, cfg.e, cfg.rmax)
    return [(f"routes (p={c.p}, e={c.e}, r={c.r})", c.passed, c.detail)
            for c in checks.route_agreement(grid, cfg.enum_bound)]


def run_verify(cfg: RunConfig) -> tuple[str, bool]:
    rng = random.Random(cfg.seed)
    results: list[Check] = []
    if cfg.suite in ("all", "witt"):
        results += _suite_witt(rng)
    if cfg.suite in ("all", "split"):
        results += _suite_split(cfg.enum_bound)
    if cfg.suite in ("all", "homology"):
        results += _suite_homology()
    if cfg.suite in ("all", "ss"):
        results.append(_check(
            "E-infinity survivor counts match the closed forms",
            checks.spectral_survivors(), "(page, degree) pairs"))
    if cfg.suite in ("all", "equalizer"):
        results += _suite_equalizer(rng)
    if cfg.suite in ("all", "routes"):
        results += _suite_routes(cfg)
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktrunc",
        description="Exact relative K-groups of truncated polynomial rings")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, need_p=True, need_e=True):
        sp.add_argument("--p", type=int, required=need_p,
                        help="characteristic (prime)")
        sp.add_argument("--e", type=int, required=need_e,
                        help="truncation exponent")
        sp.add_argument("--format", dest="fmt", choices=("table", "json"),
                        default="table")

    sp = sub.add_parser("kgroups", help="relative K-groups in a degree range")
    common(sp)
    sp.add_argument("--f", type=int, default=1,
                    help="residue degree of the coefficient field")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=int, help="single degree 2r-1")
    group.add_argument("--rmax", type=int,
                       help="all degrees 1 .. 2*rmax-1")

    sp = sub.add_parser("hh", help="weight-graded bar homology")
    common(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int, help="single weight")
    group.add_argument("--mmax", type=int, help="weights 1 .. mmax")
    sp.add_argument("--dump-page", dest="dump_page",
                    choices=("tate", "hfp"),
                    help="also dump the spectral sequence page")

    sp = sub.add_parser("verify", help="run named verification suites")
    common(sp, need_p=False, need_e=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--enum-bound", dest="enum_bound", type=int,
                    default=1 << 16,
                    help="element cap for brute-force enumeration")
    sp.add_argument("--suite", default="all",
                    choices=("all", "witt", "split", "homology", "ss",
                             "equalizer", "routes"))
    sp.add_argument("--rmax", type=int, help="scope for the routes suite")
    return parser


def _validate(parser: argparse.ArgumentParser, cfg: RunConfig) -> None:
    if cfg.p is not None and not is_prime(cfg.p):
        parser.error(f"--p must be prime, got {cfg.p}")
    for name in ("e", "f", "r", "rmax", "m", "mmax"):
        value = getattr(cfg, name)
        if value is not None and value < 1:
            parser.error(f"--{name} must be positive")
    if cfg.command == "hh" and cfg.e is not None and cfg.e < 2:
        parser.error("--e must be at least 2 for homology")
    if cfg.enum_bound < 1:
        parser.error("--enum-bound must be positive")


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    cfg = RunConfig(**{k: v for k, v in vars(ns).items()})
    _validate(parser, cfg)
    if cfg.command == "kgroups":
        print(run_kgroups(cfg))
        return 0
    if cfg.command == "hh":
        print(run_hh(cfg))
        return 0
    text, passed = run_verify(cfg)
    print(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
