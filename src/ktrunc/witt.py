"""Big Witt vectors over Z on arbitrary (divisor-closed) truncation sets,
with the Frobenius and Verschiebung operators.

Everything routes through the ghost map

    w_n(a) = sum_{d | n} d * a_d^(n/d),

which is injective with an exact-division inverse; sums and products are
computed ghost-componentwise and pulled back.  Witt vectors over F_p appear
only in route A's enumeration, which adds coordinate columns through
_add_coords(ts, x, y, p): lifting to Z, adding and reducing mod p is well
defined because the ghost polynomials have integer coefficients, and that
is the one place in this module that reduces mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .exactalg import GhostInversionError, p_valuation


# Bound on memoized divisor lists: the test suite and every benchmark grid
# ask for at most 28 distinct n.
DIVISORS_CACHE_SIZE = 256
# Bound on interned truncation sets: the whole test suite builds 35 in one
# process, `verify --suite all` 25 and the witt_enum grid 12.  Past it the
# oldest is dropped.
TRUNCATION_CACHE_SIZE = 256


@lru_cache(maxsize=DIVISORS_CACHE_SIZE)
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
    data for ghost evaluation and its inverse.  Sets are interned in
    _cache, keyed by their elements, up to TRUNCATION_CACHE_SIZE of them.
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
        if len(cls._cache) >= TRUNCATION_CACHE_SIZE:
            del cls._cache[next(iter(cls._cache))]  # the oldest
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
    """Integer Witt coordinates on a truncation set."""

    truncation: TruncationSet
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.truncation):
            raise ValueError("coordinate count does not match truncation set")

    def coord(self, n: int) -> int:
        return self.coords[self.truncation.position(n)]


# The ghost map, its inverse and _add_coords also run on columns: each
# coordinate an int64 numpy array holding that coordinate of many vectors,
# computed elementwise.  The caller keeps every intermediate within int64.

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
            acc = acc - d * coords[pos] ** e
        n = terms[-1][1]
        q, r = divmod(acc, n)
        if type(r) is not int:  # a column: report its first miss, if any
            r = int(r[r != 0][0]) if r.any() else 0
        if r:
            raise GhostInversionError(
                f"ghost vector not in the image: component {n} off by {r}")
        coords[i] = q
    return tuple(coords)


def ghost(a: WittVector) -> tuple[int, ...]:
    return _ghost_coords(a.truncation, a.coords)


def _check_compatible(a: WittVector, b: WittVector) -> None:
    if a.truncation is not b.truncation and a.truncation != b.truncation:
        raise ValueError("truncation sets differ")


def _add_coords(ts: TruncationSet, x: Sequence[int], y: Sequence[int],
                p: int | None) -> tuple[int, ...]:
    gx = _ghost_coords(ts, x)
    gy = _ghost_coords(ts, y)
    coords = _coords_from_ghost(ts, tuple(a + b for a, b in zip(gx, gy)))
    if p is not None:
        coords = tuple(c % p for c in coords)
    return coords


def _from_ghost(ts: TruncationSet, values: Iterable[int]) -> WittVector:
    """The Witt vector on ts with the given ghost coordinates."""
    return WittVector(ts, _coords_from_ghost(ts, tuple(values)))


def witt_add(a: WittVector, b: WittVector) -> WittVector:
    _check_compatible(a, b)
    return WittVector(a.truncation,
                      _add_coords(a.truncation, a.coords, b.coords, None))


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    _check_compatible(a, b)
    return _from_ghost(a.truncation,
                       (x * y for x, y in zip(ghost(a), ghost(b))))


def witt_scalar(k: int, a: WittVector) -> WittVector:
    """k * a for an integer k (the image of k under Z -> W(Z))."""
    return _from_ghost(a.truncation, (k * x for x in ghost(a)))


def restrict(a: WittVector, ts: TruncationSet) -> WittVector:
    """Forget coordinates outside ts (which must be a subset)."""
    return WittVector(ts, tuple(a.coord(n) for n in ts.elements))


def verschiebung(e: int, a: WittVector) -> WittVector:
    """V_e: pushes coordinate n to coordinate e*n, zero elsewhere, on the
    divisor closure of e*S for S the source set (e*S itself need not be
    divisor-closed)."""
    closure: set[int] = set()
    for n in a.truncation.elements:
        closure.update(_divisors(e * n))
    target = TruncationSet(closure)
    coords = tuple(a.coord(n // e) if n % e == 0 and n // e in a.truncation
                   else 0 for n in target.elements)
    return WittVector(target, coords)


def frobenius(d: int, a: WittVector) -> WittVector:
    """F_d: ghost(F_d a)_n = ghost(a)_(d*n), landing on the quotient set."""
    ts = a.truncation
    g = ghost(a)
    target = ts.quotient(d)
    return _from_ghost(target,
                       (g[ts.position(d * n)] for n in target.elements))


def typical_part(d: int, p: int, a: WittVector) -> WittVector:
    """R o F_d onto the p-typical coordinates {1, p, p^2, ...} of F_d a."""
    fa = frobenius(d, a)
    wanted = [n for n in fa.truncation.elements
              if n == p ** p_valuation(n, p)]
    return restrict(fa, TruncationSet(wanted))
