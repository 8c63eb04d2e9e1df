#!/usr/bin/env python3
"""Tabulate relative K-groups of k[x]/(x^e) over a (p, e) grid.

Writes one block per characteristic with a row per odd degree and a
column per truncation exponent.  Orders grow fast; keep rmax modest.

    python scripts/k_table.py --primes 2 3 --emax 4 --rmax 3
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ktrunc.cli import write_stdout
from ktrunc.exactalg import PRIME_TEST_LIMIT, is_prime
from ktrunc.tcassemble import group_in_degree


def render_block(p: int, emax: int, rmax: int, f: int) -> str:
    cells = {}
    for e in range(2, emax + 1):
        for r in range(1, rmax + 1):
            cells[(e, r)] = str(group_in_degree(p, e, 2 * r - 1, f))
    widths = {
        e: max(len(f"e={e}"), *(len(cells[(e, r)]) for r in range(1, rmax + 1)))
        for e in range(2, emax + 1)
    }
    header = "degree".ljust(8) + "  ".join(
        f"e={e}".ljust(widths[e]) for e in range(2, emax + 1)
    )
    lines = [f"p = {p}, residue degree f = {f}", header, "-" * len(header)]
    for r in range(1, rmax + 1):
        row = f"K_{2 * r - 1}".ljust(8) + "  ".join(
            cells[(e, r)].ljust(widths[e]) for e in range(2, emax + 1)
        )
        lines.append(row)
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--primes", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--emax", type=int, default=4)
    parser.add_argument("--rmax", type=int, default=3)
    parser.add_argument("--f", type=int, default=1,
                        help="residue degree of the coefficient field")
    args = parser.parse_args()
    if args.emax < 2 or args.rmax < 1 or args.f < 1:
        parser.error("need emax >= 2, rmax >= 1, f >= 1")
    for p in args.primes:
        if p >= PRIME_TEST_LIMIT or not is_prime(p):
            parser.error(f"{p} is not a prime below {PRIME_TEST_LIMIT:,}")
    blocks = [render_block(p, args.emax, args.rmax, args.f)
              for p in args.primes]
    # exit 1 quietly if the reader closes the pipe early, as ktrunc does
    return 0 if write_stdout("\n\n".join(blocks)) else 1


if __name__ == "__main__":
    sys.exit(main())
