"""Route C: the relative K-groups of k[x]/(x^e), assembled from
per-weight equalizer kernels.

For each weight class m' prime to p there is a tower of cyclic p-groups
indexed by v (the weight p^v m'), with two maps out of each stage: the
canonical reduction can_v into the stage-v target, and a unit-scaled
comparison map phi_v into the stage-(v+1) target.  The group in degree
2r-1 at weight m' is the kernel of (can - phi) across the tower.  Stage
lengths come from the closed forms of the spectral engine evaluated at
r - 1; with that indexing the count of stages where the source is one
longer than the target equals s(p, re, m'), and the kernel reproduces
the h-function exponent in every case.

The kernel is memoized per tower model in a bounded lru cache of
EQUALIZER_CACHE_SIZE entries.  Towers repeat heavily: a model depends only
on p, the stage lengths and the units, not on (e, r, m') directly, so the
9,440 weights of the table p in {2, 3, 5}, 2 <= e <= 8, r <= 16 give 66
distinct models, and the 313,220 weights of p <= 7, 2 <= e <= 16, r <= 40
give 125.  Hits and misses are read from equalizer_kernel.cache_info().

group_in_degree builds towers per weight class, not per weight: the model
and h depend on m' only through s(p, re, m') and whether e' | m' (with
e = p^u e'), so each class runs tc_weight_group at its two ends and repeats
the answer over its members; a class whose ends disagree raises
RouteDisagreementError.  The table above has 1,824 classes and makes 2,987
calls for its 9,440 weights; p = 2, e = 2^20, r = 1 has 20 classes and
makes 38 calls for its 524,288 weights.  Each call does one closed_form per
stage (the stage weight p^v m' stepped by one multiplication), one validated
EqualizerModel, one kernel lookup, and the h-function comparison, which
runs on every call, hit or miss, on the kernel's exponents against (h,);
the case analysis becomes a GroupStructure only to raise
RouteDisagreementError.

checks.route_agreement compares this route with route A (the enumerated
Witt quotient) and route B (the h-function product).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exactalg import (GroupStructure, SparseIntMatrix, is_prime,
                       kernel_invariants, p_valuation)
from .ssengine import closed_form
from .wittsplit import h_function, s_function

# Bound on memoized equalizer kernels: about 8x the 125 distinct tower
# models of the largest grid above.  verify --suite all --seed 0 makes 1,748
# misses and 606 hits on it: each random-unit draw of
# checks.equalizer_units is a model of its own.
EQUALIZER_CACHE_SIZE = 1024


class RouteDisagreementError(AssertionError):
    """Two independently computed answers for the same group differ."""

    def __init__(self, label: str, case_analysis: GroupStructure,
                 kernel: GroupStructure):
        super().__init__(
            f"{label}: case analysis gives {case_analysis}, equalizer "
            f"kernel gives {kernel}")
        self.case_analysis = case_analysis
        self.kernel = kernel


@dataclass(frozen=True)
class EqualizerModel:
    """Finite truncation of one weight-class tower.

    source_lengths[v] and target_lengths[v] are the p-exponents of the
    stage-v source and target groups; units[v] scales phi into stage v
    (units[0] is unused since nothing maps into stage 0 from below).
    """

    p: int
    source_lengths: tuple[int, ...]
    target_lengths: tuple[int, ...]
    units: tuple[int, ...]

    def __post_init__(self):
        n = len(self.source_lengths)
        if len(self.target_lengths) != n or len(self.units) != n:
            raise ValueError("stage count mismatch")
        for v in range(n):
            if self.source_lengths[v] < self.target_lengths[v]:
                raise ValueError(
                    f"stage {v}: can must be a reduction, got source "
                    f"length {self.source_lengths[v]} < target length "
                    f"{self.target_lengths[v]}")
        for v in range(1, n):
            if self.units[v] % self.p == 0:
                raise ValueError(f"unit at stage {v} vanishes mod p")


def build_equalizer_model(p: int, e: int, r: int, m_prime: int,
                          depth: int | None = None,
                          units: tuple[int, ...] | None = None
                          ) -> EqualizerModel:
    """Tower truncated at stage V = depth (default s + u + 2, past which
    can is an isomorphism and phi is divisible by p, so deeper stages
    cannot change the kernel)."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if m_prime < 1 or m_prime % p == 0:
        raise ValueError("m' must be positive and prime to p")
    if r < 1 or e < 1:
        raise ValueError("r and e must be positive")
    if depth is None:
        depth = s_function(p, r * e, m_prime) + p_valuation(e, p) + 2
    source, target = [], []
    weight = m_prime  # p^v m' at stage v
    for _ in range(depth + 1):
        tp_length, tcminus_length = closed_form(p, e, weight, r - 1)
        source.append(tcminus_length)
        target.append(tp_length)
        weight *= p
    if units is None:
        units = (1,) * (depth + 1)
    return EqualizerModel(p, tuple(source), tuple(target), tuple(units))


@lru_cache(maxsize=EQUALIZER_CACHE_SIZE)
def equalizer_kernel(model: EqualizerModel) -> GroupStructure:
    """Kernel of (can - phi) on the truncated tower.

    Unknowns alpha_v mod p^c_v satisfy, in the stage-v target,
    alpha_v = units[v] * phi(alpha_{v-1}); can is plain reduction and
    phi reduces when the previous source is at least as long as the
    target, else multiplies by the deficit power of p.
    """
    p = model.p
    n = len(model.source_lengths)
    columns = []
    for v in range(n):  # column v: can into row v, -phi into row v + 1
        column = [(v, 1)]
        if v + 1 < n:
            gap = max(0, model.target_lengths[v + 1] - model.source_lengths[v])
            column.append((v + 1, -model.units[v + 1] * p ** gap))
        columns.append(tuple(column))
    return kernel_invariants(SparseIntMatrix(n, columns), p,
                             model.source_lengths, model.target_lengths)


def tc_weight_group(p: int, e: int, r: int, m_prime: int,
                    depth: int | None = None,
                    units: tuple[int, ...] | None = None) -> GroupStructure:
    """The weight-m' summand in degree 2r-1: one cyclic group Z/p^h.

    Computed both from the h-function case analysis and as an equalizer
    kernel; any disagreement raises rather than picking a side.
    """
    h = h_function(p, r, e, m_prime)
    kernel = equalizer_kernel(
        build_equalizer_model(p, e, r, m_prime, depth, units))
    if kernel.exponents != ((h,) if h else ()):
        raise RouteDisagreementError(
            f"weight m'={m_prime} of (p={p}, e={e}, r={r})",
            GroupStructure(p, [h]), kernel)
    return kernel


def _class_ends(p: int, e_prime: int, lo: int, hi: int,
                divisible: bool) -> tuple[int, int]:
    """Smallest and largest m' in (lo, hi] prime to p with e' | m' exactly
    when divisible, for a nonempty such set.

    The multiples of e' are e'k with k prime to p (p does not divide e'),
    so their ends are the ends of that k-range, stepped past a multiple of
    p.  The others are found by stepping in from lo + 1 and from hi: of any
    four consecutive integers, two that p does not divide are at most two
    apart, and e' > 1 cannot divide both, so each walk takes at most three
    steps, not the up to e' a scan for the multiples would.
    """
    if divisible:
        first, last = lo // e_prime + 1, hi // e_prime
        first += first % p == 0
        last -= last % p == 0
        return first * e_prime, last * e_prime
    first, last = lo + 1, hi
    while first % p == 0 or first % e_prime == 0:
        first += 1
    while last % p == 0 or last % e_prime == 0:
        last -= 1
    return first, last


def group_in_degree(p: int, e: int, degree: int, f: int = 1) -> GroupStructure:
    """K_degree(k[x]/(x^e), (x)) for k the field of order p^f, as the same
    degree of the relative cyclic theory (the identification is an input,
    not recomputed).  Even degrees vanish.  Degree 2r-1 is the product of
    the weight groups over m' <= re prime to p; the F_{p^f} answer is the
    f-fold product of the f = 1 answer, so each factor is repeated f times.

    The weights are walked in classes.  Write e = p^u e' and s = s(p, re,
    m').  Stage v of the tower reads closed_form(p, e, p^v m', r - 1),
    which is (u, u) when e | p^v m', that is when e' | m' and v >= u, and
    otherwise (v, v + 1) if p^v m' <= re, that is if v < s, else (v, v).
    The depth s + u + 2 and h (min(u, s) if e' | m', else s) read only s
    and e' | m' too.  So every m' in the class

        re // p^s < m' <= re // p^(s-1),  p prime to m',  e' | m' or not

    has the same model and the same group.  Each nonempty class runs
    tc_weight_group, with its kernel-against-h check, at its smallest
    member and, if different, at its largest; two different groups raise
    RouteDisagreementError naming the class, so the claim is checked
    rather than assumed.  The class group then counts once per member:
    #{m' <= x prime to p, e' | m'} = x // e' - x // (p e').
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if f < 1:
        raise ValueError("residue degree must be >= 1")
    if degree % 2 == 0:
        return GroupStructure(p, ())
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    r = (degree + 1) // 2
    n = r * e
    if n < 1:
        return GroupStructure(p, ())
    e_prime = e // p ** p_valuation(e, p)
    exponents = []
    s, hi = 1, n
    while hi:
        lo = hi // p
        prime_to_p = (hi - hi // p) - (lo - lo // p)
        multiples = (hi // e_prime - hi // (p * e_prime)
                     - lo // e_prime + lo // (p * e_prime))
        for divisible, count in ((True, multiples),
                                 (False, prime_to_p - multiples)):
            if not count:
                continue
            first, last = _class_ends(p, e_prime, lo, hi, divisible)
            group = tc_weight_group(p, e, r, first)
            if last != first:
                other = tc_weight_group(p, e, r, last)
                if other != group:
                    relation = "|" if divisible else "does not divide"
                    raise RouteDisagreementError(
                        f"class s={s}, e'={e_prime} {relation} m' of "
                        f"(p={p}, e={e}, r={r}): m'={last} against "
                        f"m'={first}", other, group)
            exponents.extend(group.exponents * (count * f))
        s, hi = s + 1, lo
    return GroupStructure(p, exponents)
