"""Assembly of the odd relative K-groups of k[x]/(x^e) from per-weight
equalizer kernels, with a three-route cross-check.

For each weight class m' prime to p there is a tower of cyclic p-groups
indexed by v (the weight p^v m'), with two maps out of each stage: the
canonical reduction can_v into the stage-v target, and a unit-scaled
comparison map phi_v into the stage-(v+1) target.  The group in degree
2r-1 at weight m' is the kernel of (can - phi) across the tower.  Stage
lengths come from the closed forms of the spectral engine evaluated at
r - 1; with that indexing the count of stages where the source is one
longer than the target equals s(p, re, m'), and the kernel reproduces
the h-function exponent in every case.

Routes compared: A = enumerated Witt quotient, B = h-function product,
C = this equalizer assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import (GroupStructure, IntMatrix, is_prime, kernel_invariants,
                       p_valuation)
from .ssengine import closed_form
from .wittsplit import (EnumerationBoundError, SplitParams,
                        brute_force_quotient, h_function, predicted_quotient,
                        s_function)


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
        s = s_function(p, r * e, m_prime)
        u = p_valuation(e, p)
        depth = s + u + 2
    source, target = [], []
    for v in range(depth + 1):
        tower = closed_form(p, e, p ** v * m_prime, r - 1)
        source.append(tower.tcminus_length)
        target.append(tower.tp_length)
    if units is None:
        units = (1,) * (depth + 1)
    return EqualizerModel(p, tuple(source), tuple(target), tuple(units))


def equalizer_kernel(model: EqualizerModel) -> GroupStructure:
    """Kernel of (can - phi) on the truncated tower.

    Unknowns alpha_v mod p^c_v satisfy, in the stage-v target,
    alpha_v = units[v] * phi(alpha_{v-1}); can is plain reduction and
    phi reduces when the previous source is at least as long as the
    target, else multiplies by the deficit power of p.
    """
    p = model.p
    n = len(model.source_lengths)
    rows = []
    for v in range(n):
        row = [0] * n
        row[v] = 1
        if v >= 1:
            gap = max(0, model.target_lengths[v] - model.source_lengths[v - 1])
            row[v - 1] = -model.units[v] * p ** gap
        rows.append(row)
    return kernel_invariants(
        IntMatrix(rows),
        [p ** c for c in model.source_lengths],
        [p ** t for t in model.target_lengths])


def tc_weight_group(p: int, e: int, r: int, m_prime: int,
                    depth: int | None = None,
                    units: tuple[int, ...] | None = None) -> GroupStructure:
    """The weight-m' summand in degree 2r-1: one cyclic group Z/p^h.

    Computed both from the h-function case analysis and as an equalizer
    kernel; any disagreement raises rather than picking a side.
    """
    expected = GroupStructure.from_prime_exponents(
        p, [h_function(p, r, e, m_prime)])
    kernel = equalizer_kernel(
        build_equalizer_model(p, e, r, m_prime, depth, units))
    if kernel != expected:
        raise RouteDisagreementError(
            f"weight m'={m_prime} of (p={p}, e={e}, r={r})", expected, kernel)
    return kernel


def tc_groups(p: int, e: int, r: int, f: int = 1) -> GroupStructure:
    """K_{2r-1}(k[x]/(x^e), (x)) for k the field of order p^f, as degree
    2r-1 of the relative cyclic theory (the identification is an input,
    not recomputed): product over weights m' <= re prime to p, each
    factor repeated f times."""
    if f < 1:
        raise ValueError("residue degree must be >= 1")
    factors: list[int] = []
    for m_prime in range(1, r * e + 1):
        if m_prime % p:
            factors.extend(tc_weight_group(p, e, r, m_prime).factors)
    return GroupStructure(factors, residue_degree=f)


def group_in_degree(p: int, e: int, degree: int, f: int = 1) -> GroupStructure:
    """Relative K-group in any degree >= 0; even degrees vanish."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree % 2 == 0:
        return GroupStructure.trivial(residue_degree=f)
    return tc_groups(p, e, (degree + 1) // 2, f)


@dataclass(frozen=True)
class CrossCheckReport:
    p: int
    e: int
    r: int
    brute: GroupStructure | None
    brute_note: str | None
    predicted: GroupStructure
    assembled: GroupStructure
    passed: bool


def cross_check(p: int, e: int, r: int,
                enum_bound: int = 1 << 16) -> CrossCheckReport:
    """Compare routes A (enumeration), B (closed form), C (assembly)."""
    params = SplitParams(p, r, e)
    predicted = predicted_quotient(params)
    assembled = tc_groups(p, e, r, 1)
    brute = None
    note = None
    try:
        brute = brute_force_quotient(params, enum_bound)
    except EnumerationBoundError as exc:
        note = str(exc)
    routes = [predicted, assembled] + ([brute] if brute is not None else [])
    passed = all(g == routes[0] for g in routes)
    return CrossCheckReport(p, e, r, brute, note, predicted, assembled, passed)
