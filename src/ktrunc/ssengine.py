"""Symbolic bigraded pages for the Tate and homotopy-fixed-point spectral
sequences attached to a weight component, their differentials, and the
closed-form answers they converge to.

A page is generated over F_p[t^{+-1}, x] (t of bidegree (-2,0), x of
bidegree (0,2)) by two named classes, or none, whose vertical degrees
come from the homology of the weight-m cyclic bar complex.  In hfp mode
the t-exponent is restricted to b >= 0.  Each page has exactly one
differential, recorded as a pattern "d^rho(source) = unit * t^ts x^xs
target" applied t- and x-linearly: standard_patterns derives it from the
page's shape, the weight and the Connes scalar.  The engine validates it
once per page and decides each class by one rule: it dies when the other
end of the differential through it lies on the page.  It builds a
PageClass only for survivors, whose counts are checked against the
closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
    """d^page sends t^b x^a source to a unit times t^(b+t_shift)
    x^(a+x_shift) target, for every b and every a >= 0.  Bidegree
    bookkeeping requires the shift to be (-page, page - 1)."""

    page: int
    source: str
    target: str
    t_shift: int
    x_shift: int

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
    (y, z) page, where the integral scalar is cached per (e, m), and 0,
    checked mod p, on a (z, w) page.  The engine only consumes its
    vanishing and unit value.
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


def standard_patterns(page: BigradedPage) -> DifferentialPattern | None:
    """The one differential a page supports, or None on an empty page.

    On a (y, z) page with m = p^v m' the differential is
    d^(2v+2)(y) = t (tx)^v z: the Connes d^2 = t B when v = 0, which needs
    the scalar to be a unit mod p, and a longer one when p | m, where B
    vanishes mod p.  On a (z, w) page with e = p^u e' it is
    d^(2u)(w) = (tx)^u z.
    """
    names = [g.name for g in page.generators]
    if not names:
        return None
    connes = page.d2_scalar is not None and page.d2_scalar % page.p != 0
    if names == ["y", "z"]:
        v = p_valuation(page.m, page.p)
        if v == 0 and not connes:
            raise PatternMismatchError(
                f"weight {page.m} prime to {page.p} must have a nonzero "
                f"Connes d^2")
        if v and connes:
            raise PatternMismatchError(
                f"weight {page.m} divisible by {page.p} cannot have a "
                f"nonzero Connes d^2")
        return DifferentialPattern(2 * v + 2, "y", "z", v + 1, v)
    if names == ["z", "w"]:
        if connes:
            raise PatternMismatchError("(z, w) page with nonzero Connes d^2")
        u = p_valuation(page.e, page.p)
        if u == 0:
            raise PatternMismatchError(
                "(z, w) page requires the truncation exponent to be "
                "divisible by p")
        return DifferentialPattern(2 * u, "w", "z", u, u)
    raise PageShapeError(f"unrecognized generator set {names}")


def _classes(page: BigradedPage, pattern: DifferentialPattern | None,
             total_degrees, *, stop_at_kill: bool):
    """Plain (total, b, a, generator, killed) tuples, one per enumerated
    class.  Classes t^b x^a g with -2b + vertical + 2a = total form one
    family per generator and total degree.  A class dies when the other
    end of the differential through it lies on the page: t^(b+t_shift)
    x^(a+x_shift) from the source, t^(b-t_shift) x^(a-x_shift) from the
    target; survivors have a < a_min + t_shift + x_shift, so
    enumeration stops just past that at a guard slot.

    Both conditions of the kill rule are nondecreasing in a (b grows with
    a), so once a class of a family dies every later one does: with
    stop_at_kill each family ends at its first killed class, which is
    yielded, and the survivors are the same."""
    if pattern is not None:
        pattern.validate(page)
    named = () if pattern is None else (pattern.source, pattern.target)
    stray = [g.name for g in page.generators if g.name not in named]
    if stray:
        raise UnboundedPageError(f"the page has no differential on {stray}, "
                                 f"so their classes never die")
    if pattern is None:
        return
    width = pattern.t_shift + pattern.x_shift + 2
    tate = page.mode == "tate"
    for total in total_degrees:
        for gen in page.generators:
            if (total - gen.vertical) % 2:
                continue
            sign = 1 if gen.name == pattern.source else -1
            a_min = 0 if tate else max(0, (total - gen.vertical) // 2)
            for a in range(a_min, a_min + width + 1):
                b = (gen.vertical + 2 * a - total) // 2
                killed = (a + sign * pattern.x_shift >= 0
                          and (tate or b + sign * pattern.t_shift >= 0))
                # validated shifts are nonnegative, so the pattern kills
                # the cap slot: this stays as a safety check
                if not killed and a == a_min + width:
                    raise UnboundedPageError(
                        f"survivor {_label(b, a, gen.name)} at the "
                        f"enumeration cap in total degree {total}")
                yield total, b, a, gen.name, killed
                if killed and stop_at_kill:
                    break


def run_to_einfty(page: BigradedPage, pattern: DifferentialPattern | None,
                  total_degrees) -> dict[int, tuple[PageClass, ...]]:
    """Surviving classes per total degree after the page's differential."""
    survivors = {total: [] for total in total_degrees}
    for total, b, a, g, killed in _classes(page, pattern, survivors,
                                           stop_at_kill=True):
        if not killed:
            survivors[total].append(PageClass(b, a, g))
    return {total: tuple(classes) for total, classes in survivors.items()}


def dump_page(page: BigradedPage, pattern: DifferentialPattern | None,
              total_degrees) -> list[str]:
    """One line per enumerated class: killed-by page or survivor mark."""
    return [f"{total}: {_label(b, a, g)} "
            + (f"killed-by: d^{pattern.page}" if killed else "survives")
            for total, b, a, g, killed in _classes(
                page, pattern, total_degrees, stop_at_kill=False)]


class TowerGroup(NamedTuple):
    """Closed-form lengths: the degree-(2r+1) homotopy of the Tate and
    negative-cyclic towers at one weight is cyclic of the stated length.
    A named tuple, so route C can unpack one per tower stage cheaply."""

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
