"""Weight components of the cyclic bar complex of the pointed monoid
Pi_e = {0, 1, x, ..., x^(e-1)} with x^e = 0, over F_p.

A degree-n basis element is a word (pi_0, ..., pi_n) of exponents with
pi_0 >= 0 and pi_i >= 1 for i >= 1 (the normalized complex drops words
containing the unit in an interior slot), all entries < e, total weight m.
Faces multiply adjacent letters, with the last face wrapping around; any
face that reaches exponent e hits the basepoint and contributes zero.
Connes' operator inserts the unit in front of each cyclic rotation.

All three mixed-complex identities are verified over Z once per (e, m);
the mod-p matrices are reductions of those integer matrices.  A separate
two-term "small complex" computes the same homology from the standard
periodic resolution of k[x]/(x^e) and serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exactalg import (IntMatrix, fp_kernel_basis, fp_rank, fp_solve,
                       integer_kernel_basis, integer_solve,
                       smith_normal_form)

Word = tuple[int, ...]


class ComplexIdentityError(AssertionError):
    """A mixed-complex identity failed at the integer level."""


def d_function(e: int, m: int) -> int:
    """d(e, m) = floor((m-1)/e), the homological depth of weight m."""
    if m < 1:
        raise ValueError("weight must be positive")
    return (m - 1) // e


def _interior_parts(total: int, n: int, e: int):
    """Compositions of `total` into n parts, each in [1, e-1], lex order."""
    if n == 0:
        if total == 0:
            yield ()
        return
    lo = max(1, total - (n - 1) * (e - 1))
    hi = min(e - 1, total - (n - 1))
    for first in range(lo, hi + 1):
        for rest in _interior_parts(total - first, n - 1, e):
            yield (first,) + rest


def weight_words(e: int, m: int, n: int) -> tuple[Word, ...]:
    """All degree-n normalized words of weight m, lexicographically sorted."""
    out = []
    for head in range(min(e - 1, m) + 1):
        for rest in _interior_parts(m - head, n, e):
            out.append((head,) + rest)
    return tuple(out)


def _face_terms(word: Word, e: int):
    """(sign, face) pairs of the nonzero faces of a word of degree n."""
    n = len(word) - 1
    for i in range(n):
        merged = word[i] + word[i + 1]
        if merged < e:
            yield (-1) ** i, word[:i] + (merged,) + word[i + 2:]
    merged = word[n] + word[0]
    if merged < e:
        yield (-1) ** n, (merged,) + word[1:n]


def _connes_terms(word: Word):
    """(sign, word) pairs of B applied to a word; empty when pi_0 = 0."""
    if word[0] == 0:
        return
    n = len(word) - 1
    for i in range(n + 1):
        sign = -1 if (n * i) % 2 else 1
        yield sign, (0,) + word[i:] + word[:i]


def _entries_matrix(src: tuple[Word, ...], dst: tuple[Word, ...],
                    term_fn) -> np.ndarray:
    index = {w: i for i, w in enumerate(dst)}
    mat = np.zeros((len(dst), len(src)), dtype=np.int64)
    for j, w in enumerate(src):
        for sign, out in term_fn(w):
            mat[index[out], j] += sign
    return mat


@lru_cache(maxsize=None)
def _integer_complex(e: int, m: int):
    """Bases plus integer boundary and Connes matrices, identity-checked.

    boundary[n] is the map out of degree n (boundary[0] has zero rows);
    connes[n] is the map from degree n into degree n+1 (connes[m] has
    zero rows since degree m+1 is empty).
    """
    if e < 2 or m < 1:
        raise ValueError("need e >= 2 and m >= 1")
    basis = tuple(weight_words(e, m, n) for n in range(m + 1))
    dims = [len(b) for b in basis]

    boundary = [np.zeros((0, dims[0]), dtype=np.int64)]
    for n in range(1, m + 1):
        boundary.append(_entries_matrix(basis[n], basis[n - 1],
                                        lambda w: _face_terms(w, e)))
    connes = []
    for n in range(m):
        connes.append(_entries_matrix(basis[n], basis[n + 1], _connes_terms))
    connes.append(np.zeros((0, dims[m]), dtype=np.int64))

    for n in range(1, m):
        if (boundary[n] @ boundary[n + 1]).any():
            raise ComplexIdentityError(
                f"boundary squared nonzero at degree {n + 1} (e={e}, m={m})")
    for n in range(m - 1):
        if (connes[n + 1] @ connes[n]).any():
            raise ComplexIdentityError(
                f"Connes squared nonzero at degree {n} (e={e}, m={m})")
    for n in range(m + 1):
        anti = np.zeros((dims[n], dims[n]), dtype=np.int64)
        if n < m:
            anti += boundary[n + 1] @ connes[n]
        if n >= 1:
            anti += connes[n - 1] @ boundary[n]
        if anti.any():
            raise ComplexIdentityError(
                f"boundary/Connes anticommutator nonzero at degree {n} "
                f"(e={e}, m={m})")

    return basis, tuple(boundary), tuple(connes)


@dataclass(frozen=True)
class NormalizedComplex:
    e: int
    m: int
    p: int
    basis: tuple[tuple[Word, ...], ...]
    boundary: tuple[np.ndarray, ...]  # boundary[n]: C_n -> C_{n-1}, mod p
    connes: tuple[np.ndarray, ...]    # connes[n]:   C_n -> C_{n+1}, mod p

    def dim(self, n: int) -> int:
        return len(self.basis[n]) if 0 <= n <= self.m else 0


def generate_complex(e: int, m: int, p: int) -> NormalizedComplex:
    basis, boundary, connes = _integer_complex(e, m)
    return NormalizedComplex(
        e, m, p, basis,
        tuple(b % p for b in boundary),
        tuple(b % p for b in connes))


@dataclass(frozen=True)
class HomologySummary:
    """Nonzero homology ranks by degree, plus the induced Connes scalar.

    connes_scalar is the coefficient lambda with B[z_lo] = lambda * [z_hi];
    it is None when the homology does not consist of exactly two
    consecutive rank-one groups (in particular when it vanishes).

    When the lower group sits in even degree the integral homology is
    free of rank one in both degrees, the generators are canonical up to
    sign, and the scalar is computed over Z (connes_scalar_int) and then
    reduced; any other unit would be an artifact of basis choice.  When
    the lower group sits in odd degree (integral torsion, no canonical
    generator) the scalar is computed mod p with deterministically
    chosen generators, and connes_scalar_int is None.
    """

    ranks: dict[int, int]
    connes_scalar: int | None
    connes_scalar_int: int | None = None


def _boundary_in(c: NormalizedComplex, n: int) -> np.ndarray:
    if n + 1 <= c.m:
        return c.boundary[n + 1]
    return np.zeros((c.dim(n), 0), dtype=np.int64)


def _np_int_matrix(arr: np.ndarray) -> IntMatrix:
    return IntMatrix([[int(v) for v in row] for row in arr],
                     rows=arr.shape[0], cols=arr.shape[1])


def _free_part_generator(out_mat: np.ndarray, in_mat: np.ndarray) -> list[int]:
    """Generator of an integral homology group that must be exactly Z.

    ker(out_mat)/im(in_mat) is presented in a kernel-lattice basis; the
    Smith form of the presentation must show one free coordinate and no
    torsion, and the generator is the chain realizing that coordinate.
    """
    kernel = integer_kernel_basis(_np_int_matrix(out_mat))
    snf_kernel = smith_normal_form(kernel)
    k = kernel.cols
    coords = []
    for j in range(in_mat.shape[1]):
        col = [int(v) for v in in_mat[:, j]]
        coords.append(integer_solve(kernel, col, snf_kernel))
    pres = IntMatrix([[coords[j][i] for j in range(len(coords))]
                      for i in range(k)], rows=k, cols=len(coords))
    snf_pres = smith_normal_form(pres)
    diag = snf_pres.d.diagonal_entries()
    rank = sum(1 for x in diag if x)
    if k - rank != 1 or any(x > 1 for x in diag):
        raise AssertionError(
            f"integral homology is not free of rank one: diag {diag}, "
            f"kernel rank {k}")
    free_coords = integer_solve(snf_pres.u, [1 if i == rank else 0
                                             for i in range(k)])
    return kernel.apply(free_coords)


@lru_cache(maxsize=None)
def _integral_connes_scalar(e: int, m: int) -> int:
    """The Connes scalar on integral generators, canonical up to sign.

    Only defined when e does not divide m, where the integral homology
    is Z in degrees 2d and 2d+1.
    """
    if m % e == 0:
        raise ValueError("integral normalization needs e not dividing m")
    basis, boundary, connes = _integer_complex(e, m)
    lo = 2 * d_function(e, m)
    dims = [len(b) for b in basis]

    def bnd(n: int) -> np.ndarray:
        if n <= m:
            return boundary[n]
        return np.zeros((dims[m], 0), dtype=np.int64)

    gen_lo = _free_part_generator(boundary[lo], bnd(lo + 1))
    gen_hi = _free_part_generator(boundary[lo + 1], bnd(lo + 2))
    image = [sum(int(row[j]) * gen_lo[j] for j in range(len(gen_lo)))
             for row in connes[lo]]
    into_hi = bnd(lo + 2)
    stacked = IntMatrix(
        [[gen_hi[i]] + [int(v) for v in into_hi[i]]
         for i in range(len(gen_hi))],
        rows=len(gen_hi), cols=1 + into_hi.shape[1])
    return integer_solve(stacked, image)[0]


def _homology_generator(c: NormalizedComplex, n: int) -> np.ndarray | None:
    """First kernel basis vector of d_n independent of the boundaries."""
    kernel = fp_kernel_basis(c.boundary[n], c.p)
    image = _boundary_in(c, n)
    base_rank = fp_rank(image, c.p)
    for k in range(kernel.shape[1]):
        cand = kernel[:, k:k + 1]
        if fp_rank(np.hstack([image, cand]), c.p) > base_rank:
            return kernel[:, k]
    return None


def reduced_homology(c: NormalizedComplex,
                     integral_scalar: bool = True) -> HomologySummary:
    """Homology ranks and the induced Connes scalar.

    With integral_scalar=False the scalar on a free-type page is taken
    between deterministic mod-p generators instead of the canonical
    integral ones; that is cheaper and changes it by at most a unit, so
    it still detects vanishing.
    """
    p = c.p
    ranks: dict[int, int] = {}
    for n in range(c.m + 1):
        rk = (c.dim(n) - fp_rank(c.boundary[n], p)
              - fp_rank(_boundary_in(c, n), p))
        if rk:
            ranks[n] = rk

    scalar = None
    scalar_int = None
    degs = sorted(ranks)
    if len(degs) == 2 and degs[1] == degs[0] + 1 and all(
            ranks[d] == 1 for d in degs):
        lo, hi = degs
        if lo % 2 == 0 and integral_scalar:
            scalar_int = _integral_connes_scalar(c.e, c.m)
            scalar = scalar_int % p
        else:
            gen_lo = _homology_generator(c, lo)
            gen_hi = _homology_generator(c, hi)
            if gen_lo is None or gen_hi is None:
                raise AssertionError(
                    "rank-one homology must have a generator")
            img = (c.connes[lo] @ gen_lo) % p
            # express the image in H_hi: solve against the generator and
            # the boundaries from one degree up
            cols = np.hstack([gen_hi.reshape(-1, 1), _boundary_in(c, hi)])
            sol = fp_solve(cols, img, p)
            if sol is None:
                raise AssertionError(
                    "Connes image of a cycle must be a cycle")
            scalar = int(sol[0]) % p
    return HomologySummary(ranks, scalar, scalar_int)


def predicted_homology(e: int, m: int, p: int) -> dict[int, int]:
    """Rank table forced by the structure of the truncated polynomial ring."""
    d = d_function(e, m)
    if m % e:
        return {2 * d: 1, 2 * d + 1: 1}
    if e % p == 0:
        return {2 * d + 1: 1, 2 * d + 2: 1}
    return {}


def small_complex_hh(e: int, m: int, p: int) -> dict[int, int]:
    """Weight-m homology ranks from the two-periodic small complex.

    The small complex of k[x]/(x^e) has a copy of the ring in every
    degree, with differentials alternately 0 and multiplication by the
    derivative e*x^(e-1).  The degree-2j slot carries weight j*e plus the
    internal power, so weight m selects x^(m-je) in degree 2j and
    x^(m-je-1) in degree 2j+1, when those powers lie in [0, e-1].
    """
    if e < 2 or m < 0:
        raise ValueError("need e >= 2 and m >= 0")
    top = 2 * (m // e) + 2

    def slot(n: int) -> int:
        j, odd = divmod(n, 2)
        power = m - j * e - odd
        return 1 if 0 <= power <= e - 1 else 0

    def diff(n: int) -> int:
        # map out of degree n; nonzero only from even degrees >= 2,
        # where it is multiplication by e
        if n <= 0 or n % 2 or not (slot(n) and slot(n - 1)):
            return 0
        return e % p

    ranks = {}
    for n in range(top + 1):
        rank_out = 1 if diff(n) else 0
        rank_in = 1 if diff(n + 1) else 0
        rk = slot(n) - rank_out - rank_in
        if rk < 0:
            raise AssertionError("slot ranks out of range")
        if rk:
            ranks[n] = rk
    return ranks

