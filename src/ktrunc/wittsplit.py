"""The quotient W_re(F_p) / V_e(W_r(F_p)) of big Witt vectors, two ways.

Closed form: the big Witt ring splits into p-typical pieces indexed by the
integers m' prime to p, the piece at m' having length s(p, re, m').  Writing
e = p^u * e', the Verschiebung V_e hits the m'-piece only when e' | m', and
there its image is the Verschiebung V_{p^u} of a p-typical piece, so each
m' contributes a cyclic group Z/p^h with

    h(p, r, e, m') = s(p, re, m')          if e' does not divide m',
                     min(u, s(p, re, m'))  otherwise.

Brute force: enumerate the full quotient group and read off its invariant
factors from order statistics, using no structure theory at all.  Each
element of W_re(F_p) is an integer code, its coordinates read as base-p
digits, and the multiply-by-p map is an array of codes memoized per (p, re),
so every enumeration step is one numpy gather.  numpy is imported only
where route A enumerates, so route B and the CLI paths that need only
h_function, s_function and ENUM_CAP never load it.  Coordinate k of a Witt
sum depends only on the coordinates at the divisors D(k) of k, so
restriction to D(k) is a ring map and coordinate k of p*x is coordinate k
of p*(x restricted to D(k)).  The map is therefore assembled digit by digit
from one table per (p, k), memoized and shared by every map with that p,
of coordinate k of p*y over all p^tau(k) vectors y on D(k).  A table is
built by double-and-add over the bits of p, each Witt addition made once
per block of MUL_P_BLOCK codes on int64 columns (one per coordinate)
through the same ghost map and inverse as a single vector; a worst-case
bound on every intermediate, which covers each D(k), is checked against
int64 before the build.  Enumerations are capped at ENUM_CAP elements.  The
two routes are compared in the test suite over an exhaustive grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .exactalg import GroupStructure, is_prime, p_valuation
from .witt import TruncationSet, _add_coords, _divisors

if TYPE_CHECKING:
    import numpy as np


# Largest group brute_force_quotient enumerates, whatever its enum_bound;
# its codes fit in int32.  At the cap, `verify --suite routes --enum-bound
# 1048576` takes, in one fresh process (2 shared Intel Xeon x86_64 CPUs,
# Python 3.11.7; wall time and VmHWM, 3 runs): 0.85-0.97 s and 49 MB at
# (p, e, rmax) = (1021, 2, 1), 0.29-0.38 s and 48 MB at (31, 1, 4),
# 0.28-0.29 s and 42 MB at (7, 7, 1), 0.48 s and 46 MB at (2, 4, 5).
ENUM_CAP = 1 << 20
# Bound on memoized multiply-by-p maps, one per (p, re): the test suite asks
# for 37 and the witt_enum benchmark grid for 30.
MUL_P_CACHE_SIZE = 64
# Bound on memoized coordinate tables, one per (p, k) and shared by every
# map at that p: the test suite builds 51, `verify --suite all` 32 and the
# witt_enum benchmark grid 32.  A table holds p^tau(k) int32 entries, which
# within ENUM_CAP is at most 29,791 for k > 2 (p = 31, k = 4) and p^2 at
# k = 2, so a full cache holds at most 162 MiB: the k = 2 tables of the 64
# largest primes below 1024, next to the maps of re = 2 they serve.
COORDINATE_TABLE_CACHE_SIZE = 64
# Codes per block of columns in _by_blocks; bounds the memory of a build.
MUL_P_BLOCK = 1 << 12
# _mul_p_map builds only when _addition_bound stays below this, so no int64
# intermediate overflows.
INT64_LIMIT = 1 << 62


class EnumerationBoundError(ValueError):
    """The brute-force enumeration would exceed the configured bound."""


class Int64BoundError(OverflowError):
    """A column build of the multiply-by-p map could overflow int64."""


@dataclass(frozen=True)
class SplitParams:
    """Parameters (p, r, e) of the quotient W_re(F_p) / V_e(W_r(F_p)),
    checked on construction: p prime, r and e positive."""

    p: int
    r: int
    e: int

    def __post_init__(self):
        _split_e(self.p, self.r, self.e)


def _split_e(p: int, r: int, e: int) -> tuple[int, int]:
    """(u, e') with e = p^u e' and p prime to e', once (p, r, e) are
    checked to be parameters of a quotient."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if r < 1 or e < 1:
        raise ValueError("r and e must be positive")
    u = p_valuation(e, p)
    return u, e // p ** u


def s_function(p: int, bound: int, d: int) -> int:
    """Number of v >= 0 with p^v * d <= bound; the p-typical length at d."""
    if d > bound:
        return 0
    s, x = 0, d
    while x <= bound:
        s += 1
        x *= p
    return s


def h_function(p: int, r: int, e: int, m_prime: int) -> int:
    """Exponent of the cyclic summand Z/p^h at weight m' (p prime to m')."""
    if m_prime % p == 0:
        raise ValueError("m' must be prime to p")
    u, e_prime = _split_e(p, r, e)
    s = s_function(p, r * e, m_prime)
    if m_prime % e_prime == 0:
        return min(u, s)
    return s


def predicted_quotient(params: SplitParams) -> GroupStructure:
    """The closed-form answer, assembled over all weights m' <= re."""
    p, r, e = params.p, params.r, params.e
    exps = [h_function(p, r, e, m) for m in range(1, r * e + 1) if m % p]
    return GroupStructure(p, exps)


def _digits(codes: np.ndarray, p: int, n: int) -> tuple[np.ndarray, ...]:
    """Columns of the n base-p digits of codes, most significant first."""
    return tuple(codes // p ** (n - 1 - i) % p for i in range(n))


def _code(digits, p: int):
    """The codes whose base-p digits, most significant first, are digits;
    the inverse of _digits."""
    code = 0
    for c in digits:
        code = code * p + c
    return code


def _addition_bound(p: int, ts: TruncationSet) -> int:
    """Worst-case |integer| in one _add_coords on coordinates in [0, p).

    Follows ts._ghost_terms by the triangle inequality: each ghost
    component of the sum is at most twice sum d * (p-1)^(n/d), and each
    inversion step at most that plus sum d * |a_d|^(n/d) over the bounds on
    the coordinates a_d already inverted, which also bounds its partial
    sums, terms and quotient.
    """
    top = p - 1
    peak = 0
    coords: list[int] = []
    for terms in ts._ghost_terms:
        acc = 2 * sum(d * top ** e for _, d, e in terms)
        for pos, d, e in terms[:-1]:
            acc += d * coords[pos] ** e
        coords.append(acc // terms[-1][1])
        peak = max(peak, acc)
    return peak


def _by_blocks(p: int, n: int, entries) -> np.ndarray:
    """The read-only int32 array of entries(x) over all p^n codes in order,
    where x holds the int64 digit columns (_digits) of one block of
    MUL_P_BLOCK codes."""
    import numpy as np

    total = p ** n
    out = np.empty(total, dtype=np.int32)
    for start in range(0, total, MUL_P_BLOCK):
        codes = np.arange(start, min(start + MUL_P_BLOCK, total),
                          dtype=np.int64)
        out[start:start + len(codes)] = entries(_digits(codes, p, n))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=COORDINATE_TABLE_CACHE_SIZE)
def _coordinate_table(p: int, k: int) -> np.ndarray:
    """Coordinate k of p*y for every y in W_D(F_p), D the divisors of k, as
    a read-only int32 array indexed by code(y).

    p*y is made by double-and-add over the bits of p, floor(log2 p) +
    popcount(p) - 1 calls of _add_coords per block of MUL_P_BLOCK codes,
    each on two operands reduced into [0, p).  Builds without a bound
    check: _mul_p_map checks one that covers every D.
    """
    ts = TruncationSet(_divisors(k))

    def times_p(y):
        acc = y
        for bit in bin(p)[3:]:  # the bits of p after the leading one
            acc = _add_coords(ts, acc, acc, p)
            if bit == "1":
                acc = _add_coords(ts, acc, y, p)
        return acc[-1]  # k is the largest of D

    return _by_blocks(p, len(ts), times_p)


@lru_cache(maxsize=MUL_P_CACHE_SIZE)
def _mul_p_map(p: int, ts: TruncationSet) -> np.ndarray:
    """x -> p*x on all of W_S(F_p) as a read-only int32 array of codes.

    Entry code(x) is code(p*x), where code(x) reads the coordinates of x as
    base-p digits, first coordinate most significant (the order of
    itertools.product(range(p), repeat=len(ts))).  Coordinate k of a Witt
    sum depends only on the coordinates at the divisors of k, so restricting
    to the divisor-closed set D(k) of them is a ring map and
    (p*x)_k = (p*(x|D(k)))_k.  Each digit of code(p*x) is therefore a
    lookup in _coordinate_table(p, k), indexed by the digits of x at D(k).
    Raises Int64BoundError, before any table is built, if
    _addition_bound(p, ts) reaches INT64_LIMIT; the bound for D(k) is at
    most that, since each row of it reads only the divisors of that row.
    """
    n = len(ts)
    bound = _addition_bound(p, ts)
    if bound >= INT64_LIMIT:
        raise Int64BoundError(
            f"adding in W_{n}(F_{p}) can reach {bound}, past int64")
    tables = [(_coordinate_table(p, k),
               [ts.position(d) for d in _divisors(k)]) for k in ts]
    return _by_blocks(p, n, lambda x: _code(
        (table[_code([x[i] for i in at], p)] for table, at in tables), p))


def brute_force_quotient(params: SplitParams,
                         enum_bound: int = 1 << 16) -> GroupStructure:
    """Invariant factors of W_re(F_p) / V_e(W_r(F_p)) by direct enumeration.

    The image of V_e is written down coordinatewise (V_e places coordinate
    n at coordinate e*n), so no Witt arithmetic enters its construction; it
    is kept as a boolean mask over element codes.  Every element of
    W_re(F_p) is then pushed through multiplication by p, one gather through
    the memoized code array of _mul_p_map per step, until it lands in the
    image; the count of elements absorbed by step i determines the number
    of cyclic factors of each order.  The bound is min(enum_bound, ENUM_CAP).
    """
    import numpy as np

    p, r, e = params.p, params.r, params.e
    bound = min(enum_bound, ENUM_CAP)
    total = 1
    for _ in range(r * e):  # p^(re), built only up to the bound
        total *= p
        if total > bound:
            raise EnumerationBoundError(f"|W_{r * e}(F_{p})| = {p}^{r * e} "
                                        f"exceeds enum_bound = {bound}")
    ts = TruncationSet.big(r * e)

    # Coordinate (i+1)e-1 of V_e(y) is y_i, every other one is 0, so the
    # code of V_e(y) is sum of y_i p^(e(r-1-i)): y's digits read in base
    # p^e.  The codes over all of W_r(F_p) are built one digit at a time,
    # and at e = 1 they are arange(p^r).
    image = np.zeros(1, dtype=np.int64)
    for _ in range(r):
        image = np.add.outer(image * p ** e, np.arange(p)).ravel()
    in_image = np.zeros(total, dtype=bool)
    in_image[image] = True
    image_order = int(np.count_nonzero(in_image))
    if total % image_order:
        raise AssertionError("image order must divide group order")

    mul_p = _mul_p_map(p, ts)
    states = np.arange(total)
    quotient_order = total // image_order

    # c_i = log_p #{cosets killed by p^i}; its increments count, for each i,
    # the cyclic factors of order at least p^i.
    counts = [0]  # c_0 = 0 since only the zero coset is killed by p^0 = 1
    while p ** counts[-1] != quotient_order:
        states = mul_p[states]
        absorbed = int(np.count_nonzero(in_image[states]))
        if absorbed % image_order:
            raise AssertionError("absorbed count must be a union of cosets")
        ci = _exact_log(absorbed // image_order, p)
        if ci < counts[-1]:
            raise AssertionError("order statistics must be nondecreasing")
        if ci == counts[-1]:
            raise AssertionError(
                "order statistics stalled before exhausting the quotient")
        counts.append(ci)

    at_least = [counts[i] - counts[i - 1] for i in range(1, len(counts))]
    exps = []
    for i, n in enumerate(at_least):
        n_next = at_least[i + 1] if i + 1 < len(at_least) else 0
        exps.extend([i + 1] * (n - n_next))
    return GroupStructure(p, exps)


def _exact_log(n: int, p: int) -> int:
    k = p_valuation(n, p)
    if n != p ** k:
        raise AssertionError(f"{n} is not a power of {p}")
    return k
