"""Symbolic bigraded pages for the Tate and homotopy-fixed-point spectral
sequences attached to a weight component, their differentials, and the
closed-form answers they converge to.

A page is generated over F_p[t^{+-1}, x] (t of bidegree (-2,0), x of
bidegree (0,2)) by one or two named classes whose vertical degrees come
from the homology of the weight-m cyclic bar complex.  In hfp mode the
t-exponent is restricted to b >= 0.  Differentials are recorded as
patterns "d^rho(source) = unit * t^ts x^xs target", applied t- and
x-linearly; the engine enumerates classes per total degree, applies the
kill logic, and checks the survivor counts against the closed forms.
The patterns themselves are inputs, not derived here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycbar import d_function, generate_complex, reduced_homology
from .exactalg import p_valuation


class PageShapeError(ValueError):
    """Homology ranks do not fit any of the recognized page shapes."""


class PatternMismatchError(ValueError):
    """A differential pattern is inconsistent with the page it is run on."""


class UnboundedPageError(RuntimeError):
    """The kill logic cannot bound the survivors in some total degree."""


@dataclass(frozen=True)
class Generator:
    name: str
    vertical: int


@dataclass(frozen=True)
class BigradedPage:
    mode: str  # "tate" or "hfp"
    p: int
    e: int
    m: int
    generators: tuple[Generator, ...]
    d2_scalar: int | None

    def __post_init__(self):
        if self.mode not in ("tate", "hfp"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def generator(self, name: str) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)


@dataclass(frozen=True)
class DifferentialPattern:
    """d^page sends t^b x^a source to unit * t^(b+t_shift) x^(a+x_shift)
    target, for every b and every a >= 0.  Bidegree bookkeeping requires
    the shift to be (-page, page - 1)."""

    page: int
    source: str
    target: str
    t_shift: int
    x_shift: int
    unit: int = 1

    def validate(self, page: BigradedPage) -> None:
        src = page.generator(self.source)
        tgt = page.generator(self.target)
        shift = (-2 * self.t_shift,
                 tgt.vertical - src.vertical + 2 * self.x_shift)
        if shift != (-self.page, self.page - 1):
            raise PatternMismatchError(
                f"d^{self.page} pattern shifts bidegree by {shift}, "
                f"expected ({-self.page}, {self.page - 1})")
        if self.unit % page.p == 0:
            raise PatternMismatchError("pattern unit vanishes mod p")
        if self.t_shift < 0 or self.x_shift < 0:
            raise PatternMismatchError("pattern shifts must be nonnegative")


@dataclass(frozen=True)
class PageClass:
    b: int
    a: int
    generator: str

    def __str__(self) -> str:
        return f"t^{self.b} x^{self.a} {self.generator}"


def build_e2(e: int, m: int, p: int, mode: str) -> BigradedPage:
    """E^2 page of the weight-m spectral sequence, from bar homology.

    The d2 scalar is kept un-normalized (mod-p generators); the engine
    only consumes its vanishing and unit value, both choice-independent.
    """
    summary = reduced_homology(generate_complex(e, m, p),
                               integral_scalar=False)
    d = d_function(e, m)
    ranks = summary.ranks
    if not ranks:
        return BigradedPage(mode, p, e, m, (), None)
    if ranks == {2 * d: 1, 2 * d + 1: 1}:
        gens = (Generator("y", 2 * d), Generator("z", 2 * d + 1))
    elif ranks == {2 * d + 1: 1, 2 * d + 2: 1}:
        gens = (Generator("z", 2 * d + 1), Generator("w", 2 * d + 2))
    else:
        raise PageShapeError(
            f"homology ranks {ranks} for (e={e}, m={m}, p={p}) do not fit "
            f"a two-generator page")
    return BigradedPage(mode, p, e, m, gens, summary.connes_scalar)


def d2_from_connes(page: BigradedPage) -> DifferentialPattern | None:
    """d^2 = t * (Connes operator): nonzero only on y-pages with p not
    dividing the scalar."""
    if page.d2_scalar is None or page.d2_scalar % page.p == 0:
        return None
    names = [g.name for g in page.generators]
    if names != ["y", "z"]:
        raise PatternMismatchError(
            "nonzero Connes scalar on a page without a y generator")
    pat = DifferentialPattern(2, "y", "z", 1, 0, unit=page.d2_scalar)
    pat.validate(page)
    return pat


def standard_patterns(page: BigradedPage) -> tuple[DifferentialPattern, ...]:
    """The one differential each page supports.

    On a (y, z) page with m = p^v m' the differential is
    d^(2v+2)(y) = t (tx)^v z, reducing to the Connes d^2 when v = 0.
    On a (z, w) page with e = p^u e' it is d^(2u)(w) = (tx)^u z.
    """
    names = [g.name for g in page.generators]
    if not names:
        return ()
    if names == ["y", "z"]:
        v = p_valuation(page.m, page.p)
        d2 = d2_from_connes(page)
        if v == 0:
            if d2 is None:
                raise PatternMismatchError(
                    f"weight {page.m} prime to {page.p} must have a nonzero "
                    f"Connes d^2")
            return (d2,)
        if d2 is not None:
            raise PatternMismatchError(
                f"weight {page.m} divisible by {page.p} cannot have a "
                f"nonzero Connes d^2")
        pat = DifferentialPattern(2 * v + 2, "y", "z", v + 1, v)
        pat.validate(page)
        return (pat,)
    if names == ["z", "w"]:
        if page.d2_scalar is not None and page.d2_scalar % page.p:
            raise PatternMismatchError("(z, w) page with nonzero Connes d^2")
        u = p_valuation(page.e, page.p)
        if u == 0:
            raise PatternMismatchError(
                "(z, w) page requires the truncation exponent to be "
                "divisible by p")
        pat = DifferentialPattern(2 * u, "w", "z", u, u)
        pat.validate(page)
        return (pat,)
    raise PageShapeError(f"unrecognized generator set {names}")


def _kill_reason(mode: str, patterns, gen: str, b: int, a: int) -> str | None:
    for pat in patterns:
        if pat.source == gen:
            # dies as the source of a nonzero differential, provided the
            # target class lies on the page
            if mode == "tate" or b + pat.t_shift >= 0:
                return f"d^{pat.page}"
        if pat.target == gen:
            sa, sb = a - pat.x_shift, b - pat.t_shift
            if sa >= 0 and (mode == "tate" or sb >= 0):
                return f"d^{pat.page}"
    return None


def _classes_in_degree(page: BigradedPage, patterns, total: int):
    """(cls, kill_reason) pairs in one total degree, survivors bounded.

    For each generator g, classes t^b x^a g with -2b + vertical + 2a =
    total form one a-indexed family; survivors all have a below
    a_min + max t_shift + max x_shift, so enumeration stops just past
    that with a guard slot that must not survive.
    """
    max_ts = max((pat.t_shift for pat in patterns), default=0)
    max_xs = max((pat.x_shift for pat in patterns), default=0)
    out = []
    for gen in page.generators:
        if (total - gen.vertical) % 2:
            continue
        if not any(pat.source == gen.name or pat.target == gen.name
                   for pat in patterns):
            raise UnboundedPageError(
                f"generator {gen.name} is not covered by any pattern; its "
                f"classes in total degree {total} never die")
        a_min = 0
        if page.mode == "hfp":
            a_min = max(0, (total - gen.vertical) // 2)
        cap = a_min + max_ts + max_xs + 2
        for a in range(a_min, cap + 1):
            b = (gen.vertical + 2 * a - total) // 2
            cls = PageClass(b, a, gen.name)
            reason = _kill_reason(page.mode, patterns, gen.name, b, a)
            if reason is None and a == cap:
                raise UnboundedPageError(
                    f"survivor {cls} at the enumeration cap in total "
                    f"degree {total}")
            out.append((cls, reason))
    return out


def run_to_einfty(page: BigradedPage, patterns,
                  total_degrees) -> dict[int, tuple[PageClass, ...]]:
    """Surviving classes per total degree after applying the patterns."""
    for pat in patterns:
        pat.validate(page)
    result = {}
    for total in total_degrees:
        pairs = _classes_in_degree(page, patterns, total)
        result[total] = tuple(cls for cls, reason in pairs if reason is None)
    return result


def dump_page(page: BigradedPage, patterns, total_degrees) -> list[str]:
    """One line per enumerated class: killed-by page or survivor mark."""
    for pat in patterns:
        pat.validate(page)
    lines = []
    for total in total_degrees:
        for cls, reason in _classes_in_degree(page, patterns, total):
            state = f"killed-by: {reason}" if reason else "survives"
            lines.append(f"{total}: {cls} {state}")
    return lines


@dataclass(frozen=True)
class TowerGroup:
    """Closed-form lengths: the degree-(2r+1) homotopy of the Tate and
    negative-cyclic towers at one weight is cyclic of the stated length."""

    p: int
    e: int
    m: int
    r: int
    tp_length: int
    tcminus_length: int


def closed_form(p: int, e: int, m: int, r: int) -> TowerGroup:
    """Lengths forced by periodicity and the Frobenius comparison range.

    Writing m = p^v m' and e = p^u e': a weight with e not dividing m
    contributes length v on the Tate side and v + 1 on the negative side
    once r reaches d(e, m); a weight with e | m contributes u on both
    sides (zero when p does not divide e, where the homology vanishes).
    """
    if m < 1 or e < 1:
        raise ValueError("need m >= 1 and e >= 1")
    if m % e == 0:
        u = p_valuation(e, p)
        return TowerGroup(p, e, m, r, u, u)
    v = p_valuation(m, p)
    tcminus = v + 1 if r >= d_function(e, m) else v
    return TowerGroup(p, e, m, r, v, tcminus)
