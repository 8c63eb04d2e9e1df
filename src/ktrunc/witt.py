"""Big Witt vectors over Z and F_p on arbitrary (divisor-closed) truncation
sets, with the Frobenius and Verschiebung operators.

Everything routes through the ghost map.  Over Z the ghost map

    w_n(a) = sum_{d | n} d * a_d^(n/d)

is injective with an exact-division inverse; sums and products are computed
ghost-componentwise and pulled back.  Over F_p we lift coordinates to Z,
compute there, and reduce, which is well defined because the ghost
polynomials have integer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .exactalg import GhostInversionError, is_prime, p_valuation


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


class TruncationSet:
    """A finite set of positive integers closed under divisors.

    Precomputes, for each member n, the list of (position-of-d, d, n/d)
    triples over divisors d of n in increasing order, which is the hot
    data for ghost evaluation and its inverse.
    """

    __slots__ = ("elements", "_index", "_ghost_terms")
    _cache: dict[tuple[int, ...], "TruncationSet"] = {}

    def __new__(cls, elements: Iterable[int]):
        elems = tuple(sorted(set(int(x) for x in elements)))
        cached = cls._cache.get(elems)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        if any(x < 1 for x in elems):
            raise ValueError("truncation set members must be positive")
        index = {n: i for i, n in enumerate(elems)}
        terms = []
        for n in elems:
            row = []
            for d in _divisors(n):
                if d not in index:
                    raise ValueError(
                        f"truncation set not divisor-closed: {d} | {n} missing")
                row.append((index[d], d, n // d))
            terms.append(tuple(row))
        self.elements = elems
        self._index = index
        self._ghost_terms = tuple(terms)
        cls._cache[elems] = self
        return self

    @classmethod
    def big(cls, n: int) -> "TruncationSet":
        return cls(range(1, n + 1))

    def __contains__(self, n: int) -> bool:
        return n in self._index

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncationSet):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def position(self, n: int) -> int:
        return self._index[n]

    def quotient(self, d: int) -> "TruncationSet":
        """The set S/d = { n : d*n in S }."""
        return TruncationSet(n // d for n in self.elements if n % d == 0)

    def __repr__(self) -> str:
        return f"TruncationSet({list(self.elements)!r})"


@dataclass(frozen=True)
class WittVector:
    """Witt coordinates on a truncation set; p = None means over Z."""

    truncation: TruncationSet
    coords: tuple[int, ...]
    p: int | None = None

    def __post_init__(self):
        if len(self.coords) != len(self.truncation):
            raise ValueError("coordinate count does not match truncation set")
        if self.p is not None:
            if not is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
            if any(not 0 <= c < self.p for c in self.coords):
                raise ValueError("coordinates not reduced mod p")

    def coord(self, n: int) -> int:
        return self.coords[self.truncation.position(n)]


def _ghost_coords(ts: TruncationSet, coords: Sequence[int]) -> tuple[int, ...]:
    out = []
    for terms in ts._ghost_terms:
        acc = 0
        for pos, d, e in terms:
            acc += d * coords[pos] ** e
        out.append(acc)
    return tuple(out)


def _coords_from_ghost(ts: TruncationSet, ghost: Sequence[int]) -> tuple[int, ...]:
    coords: list[int] = [0] * len(ghost)
    for i, terms in enumerate(ts._ghost_terms):
        acc = ghost[i]
        # last term is (i, n, 1): the n * a_n contribution
        for pos, d, e in terms[:-1]:
            acc -= d * coords[pos] ** e
        n = terms[-1][1]
        q, r = divmod(acc, n)
        if r:
            raise GhostInversionError(
                f"ghost vector not in the image: component {n} off by {r}")
        coords[i] = q
    return tuple(coords)


def ghost(a: WittVector) -> tuple[int, ...]:
    if a.p is not None:
        raise ValueError("ghost coordinates only make sense over Z")
    return _ghost_coords(a.truncation, a.coords)


def from_ghost(ts: TruncationSet, ghost_vec: Sequence[int]) -> WittVector:
    if len(ghost_vec) != len(ts):
        raise ValueError("ghost vector length does not match truncation set")
    return WittVector(ts, _coords_from_ghost(ts, ghost_vec))


def _lift(a: WittVector) -> WittVector:
    return WittVector(a.truncation, a.coords, None)


def _reduce(a: WittVector, p: int) -> WittVector:
    return WittVector(a.truncation, tuple(c % p for c in a.coords), p)


def _check_compatible(a: WittVector, b: WittVector) -> None:
    if a.truncation is not b.truncation and a.truncation != b.truncation:
        raise ValueError("truncation sets differ")
    if a.p != b.p:
        raise ValueError("base rings differ")


def _add_coords(ts: TruncationSet, x: Sequence[int], y: Sequence[int],
                p: int | None) -> tuple[int, ...]:
    gx = _ghost_coords(ts, x)
    gy = _ghost_coords(ts, y)
    coords = _coords_from_ghost(ts, tuple(a + b for a, b in zip(gx, gy)))
    if p is not None:
        coords = tuple(c % p for c in coords)
    return coords


def witt_add(a: WittVector, b: WittVector) -> WittVector:
    _check_compatible(a, b)
    return WittVector(a.truncation, _add_coords(a.truncation, a.coords,
                                                b.coords, a.p), a.p)


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    _check_compatible(a, b)
    ts = a.truncation
    gx = _ghost_coords(ts, a.coords)
    gy = _ghost_coords(ts, b.coords)
    coords = _coords_from_ghost(ts, tuple(x * y for x, y in zip(gx, gy)))
    if a.p is not None:
        coords = tuple(c % a.p for c in coords)
    return WittVector(ts, coords, a.p)


def witt_scalar(k: int, a: WittVector) -> WittVector:
    """k * a for an integer k (the image of k under Z -> W(R))."""
    ts = a.truncation
    g = _ghost_coords(ts, a.coords)
    coords = _coords_from_ghost(ts, tuple(k * x for x in g))
    if a.p is not None:
        coords = tuple(c % a.p for c in coords)
    return WittVector(ts, coords, a.p)


def restrict(a: WittVector, ts: TruncationSet) -> WittVector:
    """Forget coordinates outside ts (which must be a subset)."""
    coords = tuple(a.coord(n) for n in ts.elements)
    return WittVector(ts, coords, a.p)


def verschiebung(e: int, a: WittVector,
                 target: TruncationSet | None = None) -> WittVector:
    """V_e: pushes coordinate n to coordinate e*n, zero elsewhere.

    The natural target is e * S for S the source set; passing an explicit
    target restricts (or zero-extends within e*S membership) to it.
    """
    if target is None:
        # e*S need not be divisor-closed, so take its divisor closure
        closure: set[int] = set()
        for n in a.truncation.elements:
            closure.update(_divisors(e * n))
        target = TruncationSet(closure)
    coords = []
    for n in target.elements:
        if n % e == 0 and (n // e) in a.truncation:
            coords.append(a.coord(n // e))
        else:
            coords.append(0)
    return WittVector(target, tuple(coords), a.p)


def frobenius(d: int, a: WittVector) -> WittVector:
    """F_d: ghost(F_d a)_n = ghost(a)_(d*n), landing on the quotient set."""
    ts = a.truncation
    target = ts.quotient(d)
    if a.p is None:
        g = _ghost_coords(ts, a.coords)
        gq = tuple(g[ts.position(d * n)] for n in target.elements)
        return WittVector(target, _coords_from_ghost(target, gq))
    lifted = frobenius(d, _lift(a))
    return _reduce(lifted, a.p)


def typical_part(d: int, p: int, a: WittVector) -> WittVector:
    """R o F_d onto the p-typical coordinates {1, p, p^2, ...} of F_d a."""
    fa = frobenius(d, a)
    wanted = [n for n in fa.truncation.elements
              if n == p ** p_valuation(n, p)]
    return restrict(fa, TruncationSet(wanted))
