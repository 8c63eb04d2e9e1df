#!/usr/bin/env python3
"""Tabulate the integral Connes scalar lambda on every weight class `hh` admits.

`hh` admits (e, m) when cycbar.check_size_budget passes.  For e >= m + 1 no
face reaches x^e, so the complex, and lambda, equal those at e = m + 1: the
admitted classes are the pairs with 2 <= e <= m + 1, and lambda is defined
on those with e not dividing m.  Rows are printed as CSV, `e,m,lambda`.

    python scripts/lambda_table.py > tests/data/lambda_table.csv
    python scripts/lambda_table.py --check

--check recomputes every row and compares it with tests/data/lambda_table.csv;
it exits 1 naming the first pair that differs.
"""

import argparse
import csv
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ktrunc import cycbar

TABLE = ROOT / "tests" / "data" / "lambda_table.csv"


def scalar_pairs() -> list[tuple[int, int]]:
    """(e, m) of every admitted class with e not dividing m, e ascending
    then m ascending.

    The words of weight m with letters below e are among those with
    letters below e + 1, and appending the letter 1 (or raising a last
    letter below e - 1) maps the words of weight m one-to-one into those
    of weight m + 1.  So the word count grows with e and with m, and each
    loop stops at the first count past the budget."""
    pairs = []
    e = 2
    while sum(cycbar.words_per_degree(e, e - 1)) <= cycbar.WORD_BUDGET:
        for m in range(max(1, e - 1), cycbar.WEIGHT_BUDGET + 1):
            if sum(cycbar.words_per_degree(e, m)) > cycbar.WORD_BUDGET:
                break
            try:
                cycbar.check_size_budget(e, m)
            except cycbar.ComplexTooLargeError:
                continue
            if m % e:
                pairs.append((e, m))
        e += 1
    return pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {TABLE.relative_to(ROOT)}")
    args = parser.parse_args()
    start = time.perf_counter()
    pairs = scalar_pairs()
    if not args.check:
        print("e,m,lambda")
        for e, m in pairs:
            print(f"{e},{m},{cycbar._integral_connes_scalar(e, m)}")
        return 0
    with TABLE.open(newline="") as f:
        table = [(int(r["e"]), int(r["m"]), int(r["lambda"]))
                 for r in csv.DictReader(f)]
    if [(e, m) for e, m, _ in table] != pairs:
        first = next(((row[:2], pair) for row, pair in zip(table, pairs)
                      if row[:2] != pair), None)
        print(f"the table lists {len(table)} pairs, the budget admits "
              f"{len(pairs)}; first difference (table, budget): {first}")
        return 1
    for e, m, want in table:
        got = cycbar._integral_connes_scalar(e, m)
        if got != want:
            print(f"(e, m) = ({e}, {m}): lambda = {got}, the table says "
                  f"{want}")
            return 1
    print(f"all {len(table)} rows match "
          f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
