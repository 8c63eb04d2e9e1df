"""The quotient W_re(F_p) / V_e(W_r(F_p)) of big Witt vectors, two ways.

Closed form: the big Witt ring splits into p-typical pieces indexed by the
integers m' prime to p, the piece at m' having length s(p, re, m').  Writing
e = p^u * e', the Verschiebung V_e hits the m'-piece only when e' | m', and
there its image is the Verschiebung V_{p^u} of a p-typical piece, so each
m' contributes a cyclic group Z/p^h with

    h(p, r, e, m') = s(p, re, m')          if e' does not divide m',
                     min(u, s(p, re, m'))  otherwise.

Brute force: enumerate the full quotient group and read off its invariant
factors from order statistics, using no structure theory at all.  The two
routes are compared in the test suite over an exhaustive grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .exactalg import GroupStructure, is_prime, p_valuation
from .witt import TruncationSet, _add_coords


class EnumerationBoundError(ValueError):
    """The brute-force enumeration would exceed the configured bound."""


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
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.r < 1 or self.e < 1:
            raise ValueError("r and e must be positive")
        u = p_valuation(self.e, self.p)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "e_prime", self.e // self.p ** u)


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
    params = SplitParams(p, r, e)
    s = s_function(p, r * e, m_prime)
    if m_prime % params.e_prime == 0:
        return min(params.u, s)
    return s


def predicted_quotient(params: SplitParams) -> GroupStructure:
    """The closed-form answer, assembled over all weights m' <= re."""
    p, r, e = params.p, params.r, params.e
    exps = [h_function(p, r, e, m) for m in range(1, r * e + 1) if m % p]
    return GroupStructure.from_prime_exponents(p, exps)


def _mul_p_map(p: int, ts: TruncationSet) -> dict[tuple, tuple]:
    """x -> p*x on all of W_S(F_p), memoized as a plain dict on tuples."""
    out = {}
    n = len(ts)
    for coords in product(range(p), repeat=n):
        acc = coords
        for _ in range(p - 1):
            acc = _add_coords(ts, acc, coords, p)
        out[coords] = acc
    return out


def brute_force_quotient(params: SplitParams,
                         enum_bound: int = 1 << 16) -> GroupStructure:
    """Invariant factors of W_re(F_p) / V_e(W_r(F_p)) by direct enumeration.

    The image of V_e is written down coordinatewise (V_e places coordinate
    n at coordinate e*n), so no Witt arithmetic enters its construction.
    Each element x of W_re(F_p) is then pushed through multiplication by p
    until it lands in the image; the count of elements absorbed by step i
    determines the number of cyclic factors of each order.
    """
    p, r, e = params.p, params.r, params.e
    total = p ** (r * e)
    if total > enum_bound:
        raise EnumerationBoundError(
            f"|W_{r * e}(F_{p})| = {total} exceeds enum_bound = {enum_bound}")
    ts = TruncationSet.big(r * e)

    image = set()
    for y in product(range(p), repeat=r):
        coords = [0] * (r * e)
        for i, c in enumerate(y):
            coords[(i + 1) * e - 1] = c
        image.add(tuple(coords))
    if total % len(image):
        raise AssertionError("image order must divide group order")

    mul_p = _mul_p_map(p, ts)
    states = list(mul_p.keys())
    quotient_order = total // len(image)

    # c_i = log_p #{cosets killed by p^i}; its increments count, for each i,
    # the cyclic factors of order at least p^i.
    counts = [0]  # c_0 = 0 since only the zero coset is killed by p^0 = 1
    while p ** counts[-1] != quotient_order:
        states = [mul_p[x] for x in states]
        absorbed = sum(1 for x in states if x in image)
        if absorbed % len(image):
            raise AssertionError("absorbed count must be a union of cosets")
        ci = _exact_log(absorbed // len(image), p)
        if ci <= counts[-1] and ci != counts[-1]:
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
    return GroupStructure.from_prime_exponents(p, exps)


def _exact_log(n: int, p: int) -> int:
    k = p_valuation(n, p)
    if n != p ** k:
        raise AssertionError(f"{n} is not a power of {p}")
    return k
