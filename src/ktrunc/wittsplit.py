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
h_function, s_function and ENUM_CAP never load it.  The map is built from p-1
Witt additions, each made once per block of MUL_P_BLOCK codes on int64
columns (one per coordinate) through the same ghost map and inverse as a
single vector; a worst-case bound on every intermediate is checked against
int64 before the build.  Enumerations are capped at ENUM_CAP elements.  The
two routes are compared in the test suite over an exhaustive grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from .exactalg import GroupStructure, is_prime, p_valuation
from .witt import TruncationSet, _add_coords

if TYPE_CHECKING:
    import numpy as np


# Largest group brute_force_quotient enumerates, whatever its enum_bound;
# its codes fit in int32.
ENUM_CAP = 1 << 20
# Bound on memoized multiply-by-p maps, one per (p, re): the test suite asks
# for 35 and the witt_enum benchmark grid for 30.
MUL_P_CACHE_SIZE = 64
# Codes per block of columns in _mul_p_map; bounds the memory of a build.
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
    """Parameters (p, r, e) of the quotient W_re(F_p) / V_e(W_r(F_p)).

    u and e_prime are the p-adic valuation and prime-to-p part of e.
    """

    p: int
    r: int
    e: int
    u: int = field(init=False)
    e_prime: int = field(init=False)

    def __post_init__(self):
        u, e_prime = _split_e(self.p, self.r, self.e)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "e_prime", e_prime)


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


@lru_cache(maxsize=MUL_P_CACHE_SIZE)
def _mul_p_map(p: int, ts: TruncationSet) -> np.ndarray:
    """x -> p*x on all of W_S(F_p) as a read-only int32 array of codes.

    Entry code(x) is code(p*x), where code(x) reads the coordinates of x as
    base-p digits, first coordinate most significant (the order of
    itertools.product(range(p), repeat=len(ts))).  p*x is the sum of p
    copies of x: p-1 calls of _add_coords per block of MUL_P_BLOCK codes,
    on int64 columns holding one coordinate of every code in the block.
    Raises Int64BoundError, before any int64 arithmetic, if
    _addition_bound(p, ts) reaches INT64_LIMIT.
    """
    import numpy as np

    n = len(ts)
    bound = _addition_bound(p, ts)
    if bound >= INT64_LIMIT:
        raise Int64BoundError(
            f"adding in W_{n}(F_{p}) can reach {bound}, past int64")
    total = p ** n
    out = np.empty(total, dtype=np.int32)
    for start in range(0, total, MUL_P_BLOCK):
        codes = np.arange(start, min(start + MUL_P_BLOCK, total),
                          dtype=np.int64)
        x = _digits(codes, p, n)
        acc = x
        for _ in range(p - 1):
            acc = _add_coords(ts, acc, x, p)
        out[start:start + len(codes)] = _code(acc, p)
    out.flags.writeable = False
    return out


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

    # Coordinate (i+1)e-1 of V_e(y) is y_i, every other one is 0; y runs
    # over all of W_r(F_p) at once, one column per coordinate.
    coords = [0] * (r * e)
    for i, y_i in enumerate(_digits(np.arange(p ** r), p, r)):
        coords[(i + 1) * e - 1] = y_i
    in_image = np.zeros(total, dtype=bool)
    in_image[_code(coords, p)] = True
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
