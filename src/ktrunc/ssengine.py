"""Symbolic bigraded pages for the Tate and homotopy-fixed-point spectral
sequences attached to a weight component, their differentials, and the
closed-form answers they converge to.

A page is generated over F_p[t^{+-1}, x] (t of bidegree (-2,0), x of
bidegree (0,2)) by one or two named classes whose vertical degrees come
from the homology of the weight-m cyclic bar complex.  In hfp mode the
t-exponent is restricted to b >= 0.  Differentials are recorded as
patterns "d^rho(source) = unit * t^ts x^xs target", applied t- and
x-linearly.  Once per page the engine validates them and lists the ones
touching each generator; per total degree it yields plain tuples and
builds a PageClass only for survivors, whose counts are checked against
the closed forms.  The patterns themselves are inputs, not derived here.
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
        try:
            src, tgt = page.generator(self.source), page.generator(self.target)
        except KeyError as err:
            raise PatternMismatchError(
                f"d^{self.page} pattern names generator {err}, not among the "
                f"page's {[g.name for g in page.generators]}") from None
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
        return _label(self.b, self.a, self.generator)


def _label(b: int, a: int, generator: str) -> str:
    return f"t^{b} x^{a} {generator}"


def build_e2(e: int, m: int, p: int, mode: str) -> BigradedPage:
    """E^2 page of the weight-m spectral sequence, from bar homology.

    The d2 scalar is the Connes scalar of reduced_homology: integral on a
    (y, z) page, where the integral scalar is cached per (e, m), and
    mod p on a (z, w) page.  The engine only consumes its vanishing and
    unit value.
    """
    summary = reduced_homology(generate_complex(e, m, p))
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


def _page_families(page: BigradedPage, patterns):
    """Validate the patterns; return the enumeration width and, per
    generator, the (pattern, is_source) pairs touching it in list order."""
    for pat in patterns:
        pat.validate(page)
    width = (max((pat.t_shift for pat in patterns), default=0)
             + max((pat.x_shift for pat in patterns), default=0) + 2)
    return width, [(gen, [(pat, pat.source == gen.name) for pat in patterns
                          if gen.name in (pat.source, pat.target)])
                   for gen in page.generators]


def _classes_in_degree(mode: str, width: int, families, total: int):
    """Plain (b, a, generator, killer) tuples in one total degree; killer
    is the first pattern in list order that kills the class, or None.
    Classes t^b x^a g with -2b + vertical + 2a = total form one family per
    generator; survivors have a < a_min + width - 2, so enumeration stops
    just past that at a guard slot."""
    tate = mode == "tate"
    for gen, touching in families:
        if (total - gen.vertical) % 2:
            continue
        if not touching:
            raise UnboundedPageError(
                f"generator {gen.name} is not covered by any pattern; its "
                f"classes in total degree {total} never die")
        a_min = 0 if tate else max(0, (total - gen.vertical) // 2)
        for a in range(a_min, a_min + width + 1):
            b = (gen.vertical + 2 * a - total) // 2
            for killer, is_source in touching:
                # it dies as source or target when the other end is on the page
                if (tate or b + killer.t_shift >= 0) if is_source else (
                        a >= killer.x_shift and (tate or b >= killer.t_shift)):
                    break
            else:
                killer = None
            # validated shifts are nonnegative, so a validated pattern
            # kills the cap slot: this stays as a safety check
            if killer is None and a == a_min + width:
                raise UnboundedPageError(
                    f"survivor {_label(b, a, gen.name)} at the enumeration "
                    f"cap in total degree {total}")
            yield b, a, gen.name, killer


def run_to_einfty(page: BigradedPage, patterns,
                  total_degrees) -> dict[int, tuple[PageClass, ...]]:
    """Surviving classes per total degree after applying the patterns."""
    width, families = _page_families(page, patterns)
    return {total: tuple(PageClass(b, a, g) for b, a, g, killer in
                         _classes_in_degree(page.mode, width, families, total)
                         if killer is None) for total in total_degrees}


def dump_page(page: BigradedPage, patterns, total_degrees) -> list[str]:
    """One line per enumerated class: killed-by page or survivor mark."""
    width, families = _page_families(page, patterns)
    return [f"{total}: {_label(b, a, g)} "
            + (f"killed-by: d^{killer.page}" if killer else "survives")
            for total in total_degrees
            for b, a, g, killer in _classes_in_degree(page.mode, width,
                                                      families, total)]


@dataclass(frozen=True)
class TowerGroup:
    """Closed-form lengths: the degree-(2r+1) homotopy of the Tate and
    negative-cyclic towers at one weight is cyclic of the stated length."""

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
        return TowerGroup(u, u)
    v = p_valuation(m, p)
    tcminus = v + 1 if r >= d_function(e, m) else v
    return TowerGroup(v, tcminus)
