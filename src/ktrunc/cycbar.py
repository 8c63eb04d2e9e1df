"""Weight components of the cyclic bar complex of the pointed monoid
Pi_e = {0, 1, x, ..., x^(e-1)} with x^e = 0, over F_p.

A degree-n basis element is a word (pi_0, ..., pi_n) of exponents with
pi_0 >= 0 and pi_i >= 1 for i >= 1 (the normalized complex drops words
containing the unit in an interior slot), all entries < e, total weight m.
Faces multiply adjacent letters, with the last face wrapping around; any
face that reaches exponent e hits the basepoint and contributes zero.
Connes' operator inserts the unit in front of each cyclic rotation.

All three mixed-complex identities are verified over Z once per (e, m),
and that one copy of the integer matrices serves every p: the mod-p
routines reduce their input, and the integral Connes scalar on homology
generators is read off the same matrices over Z.  A separate
two-term "small complex" computes the same homology from the standard
periodic resolution of k[x]/(x^e) and serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exactalg import (IntMatrix, fp_kernel_basis, fp_rank, fp_rref,
                       fp_solve, integer_kernel_basis, integer_solve,
                       lattice_coordinates, smith_normal_form)

Word = tuple[int, ...]

# Cache bounds.  `ktrunc verify --suite all` and the benchmark's hh_pages
# grid together build 58 complexes (e, m), compute 41 integral scalars and
# 166 homology summaries (e, m, p); every bound exceeds its count, so no
# cache evicts on those grids and call counts do not depend on case order.
COMPLEX_CACHE_SIZE = 64
CONNES_SCALAR_CACHE_SIZE = 64
HOMOLOGY_CACHE_SIZE = 256


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


def _identity_fails(words, *composites) -> bool:
    """Whether the sum of the composites, each a pair (first, second) of
    maps from a word to its (sign, word) terms, is nonzero on some word."""
    for w in words:
        acc: dict[Word, int] = {}
        for first, second in composites:
            for s1, mid in first[w]:
                for s2, out in second[mid]:
                    acc[out] = acc.get(out, 0) + s1 * s2
        if any(acc.values()):
            return True
    return False


def _entries_matrix(src: tuple[Word, ...], dst: tuple[Word, ...],
                    term_fn) -> np.ndarray:
    index = {w: i for i, w in enumerate(dst)}
    mat = np.zeros((len(dst), len(src)), dtype=np.int64)
    for j, w in enumerate(src):
        for sign, out in term_fn(w):
            mat[index[out], j] += sign
    return mat


@lru_cache(maxsize=COMPLEX_CACHE_SIZE)
def _integer_complex(e: int, m: int):
    """Bases plus integer boundary and Connes matrices, identity-checked.

    boundary[n] is the map out of degree n (boundary[0] has zero rows);
    connes[n] is the map from degree n into degree n+1 (connes[m] has
    zero rows since degree m+1 is empty).  The identities are checked
    word by word on the same terms the matrices are built from.
    """
    if e < 2 or m < 1:
        raise ValueError("need e >= 2 and m >= 1")
    basis = tuple(weight_words(e, m, n) for n in range(m + 1))
    dims = [len(b) for b in basis]
    # Terms of every word; degree 0 has no faces, degree m no Connes image.
    faces = {w: list(_face_terms(w, e)) if n else []
             for n, words in enumerate(basis) for w in words}
    rotations = {w: list(_connes_terms(w)) if n < m else []
                 for n, words in enumerate(basis) for w in words}

    boundary = [np.zeros((0, dims[0]), dtype=np.int64)]
    for n in range(1, m + 1):
        boundary.append(_entries_matrix(basis[n], basis[n - 1],
                                        faces.__getitem__))
    connes = []
    for n in range(m):
        connes.append(_entries_matrix(basis[n], basis[n + 1],
                                      rotations.__getitem__))
    connes.append(np.zeros((0, dims[m]), dtype=np.int64))

    for n in range(1, m):
        if _identity_fails(basis[n + 1], (faces, faces)):
            raise ComplexIdentityError(
                f"boundary squared nonzero at degree {n + 1} (e={e}, m={m})")
    for n in range(m - 1):
        if _identity_fails(basis[n], (rotations, rotations)):
            raise ComplexIdentityError(
                f"Connes squared nonzero at degree {n} (e={e}, m={m})")
    for n in range(m + 1):
        if _identity_fails(basis[n], (rotations, faces), (faces, rotations)):
            raise ComplexIdentityError(
                f"boundary/Connes anticommutator nonzero at degree {n} "
                f"(e={e}, m={m})")

    return basis, tuple(boundary), tuple(connes)


@dataclass(frozen=True)
class NormalizedComplex:
    """The weight-m complex, read over F_p.  boundary[n]: C_n -> C_(n-1)
    and connes[n]: C_n -> C_(n+1) are the integer matrices of
    _integer_complex(e, m) themselves, shared and never copied; the mod-p
    routines reduce what they are handed."""

    e: int
    m: int
    p: int
    basis: tuple[tuple[Word, ...], ...]
    boundary: tuple[np.ndarray, ...] = field(repr=False)
    connes: tuple[np.ndarray, ...] = field(repr=False)

    def dim(self, n: int) -> int:
        return len(self.basis[n]) if 0 <= n <= self.m else 0


def generate_complex(e: int, m: int, p: int) -> NormalizedComplex:
    return NormalizedComplex(e, m, p, *_integer_complex(e, m))


@dataclass(frozen=True)
class HomologySummary:
    """Nonzero homology ranks by degree, plus the induced Connes scalar.

    connes_scalar is the coefficient lambda with B[z_lo] = lambda * [z_hi];
    it is None when the homology does not consist of exactly two
    consecutive rank-one groups (in particular when it vanishes).

    The page decides how the scalar is computed.  When the lower group
    sits in even degree the integral homology is free of rank one in both
    degrees, the generators are canonical up to sign, and the scalar is
    computed over Z (connes_scalar_int) and then reduced; any other unit
    would be an artifact of basis choice.  When the lower group sits in
    odd degree (integral torsion, no canonical generator) the scalar is
    computed mod p with deterministically chosen generators, and
    connes_scalar_int is None.
    """

    ranks: dict[int, int]
    connes_scalar: int | None
    connes_scalar_int: int | None = None


def _boundary_in(boundary: tuple[np.ndarray, ...], n: int) -> np.ndarray:
    """The boundary map into degree n; no columns above the top degree."""
    if n + 1 < len(boundary):
        return boundary[n + 1]
    return np.zeros((boundary[n].shape[1], 0), dtype=np.int64)


def _np_int_matrix(arr: np.ndarray) -> IntMatrix:
    return IntMatrix(arr.tolist(), rows=arr.shape[0], cols=arr.shape[1])


def _free_part_generator(out_mat: np.ndarray, in_mat: np.ndarray,
                         cycles: tuple[list[int], ...] = ()
                         ) -> tuple[list[int], list[int]]:
    """Generator of an integral homology group that must be exactly Z, and
    the class of each given cycle as a multiple of it.

    ker(out_mat)/im(in_mat) is presented in a kernel-lattice basis; the
    Smith form u @ pres @ v = d of the presentation must show one free
    coordinate and no torsion.  Row `rank` of u is then a functional phi
    whose kernel is exactly the image, so it maps the homology
    isomorphically onto Z: any chain phi sends to 1 is a generator, and a
    cycle is phi of its kernel coordinates times that generator, modulo
    boundaries.
    """
    kernel = integer_kernel_basis(_np_int_matrix(out_mat))
    k, n_in = kernel.cols, in_mat.shape[1]
    coords = lattice_coordinates(kernel, in_mat.T.tolist() + list(cycles))
    pres = IntMatrix([row[:n_in] for row in coords.entries], rows=k,
                     cols=n_in)
    snf_pres = smith_normal_form(pres)
    diag = snf_pres.d.diagonal_entries()
    rank = sum(1 for x in diag if x)
    if k - rank != 1 or any(x > 1 for x in diag):
        raise AssertionError(
            f"integral homology is not free of rank one: diag {diag}, "
            f"kernel rank {k}")
    phi = snf_pres.u.entries[rank]
    classes = [sum(f * row[j] for f, row in zip(phi, coords.entries))
               for j in range(n_in, coords.cols)]
    generator = kernel.apply(integer_solve(IntMatrix([phi]), [1]))
    return generator, classes


@lru_cache(maxsize=CONNES_SCALAR_CACHE_SIZE)
def _integral_connes_scalar(e: int, m: int) -> int:
    """The Connes scalar on integral generators, canonical up to sign.

    Only defined when e does not divide m, where the integral homology
    is Z in degrees 2d and 2d+1.  It is phi_hi(B gen_lo): phi_hi kills
    every boundary and sends gen_hi to 1, so the value is exact, sign
    included.
    """
    if m % e == 0:
        raise ValueError("integral normalization needs e not dividing m")
    _, boundary, connes = _integer_complex(e, m)
    lo = 2 * d_function(e, m)
    gen_lo, _ = _free_part_generator(boundary[lo], _boundary_in(boundary, lo))
    image = _np_int_matrix(connes[lo]).apply(gen_lo)
    _, (scalar,) = _free_part_generator(
        boundary[lo + 1], _boundary_in(boundary, lo + 1), (image,))
    return scalar


def _homology_generator(c: NormalizedComplex, n: int) -> np.ndarray | None:
    """First kernel basis vector of d_n outside the span of the boundaries.

    In the echelon form of [image | kernel] the first pivot past the image
    columns marks that vector: every kernel column before it lies in the
    span of the image.
    """
    kernel = fp_kernel_basis(c.boundary[n], c.p)
    image = _boundary_in(c.boundary, n)
    _, pivots = fp_rref(np.hstack([image, kernel]), c.p)
    for col in pivots:
        if col >= image.shape[1]:
            return kernel[:, col - image.shape[1]]
    return None


def reduced_homology(c: NormalizedComplex) -> HomologySummary:
    """Homology ranks and the induced Connes scalar (see HomologySummary).

    Complexes come only from generate_complex(e, m, p), so (e, m, p) fixes
    the complex and its summary is computed once per triple and memoized;
    the matrices are not kept, and callers share the summary.
    """
    return _homology_summary(c.e, c.m, c.p)


@lru_cache(maxsize=HOMOLOGY_CACHE_SIZE)
def _homology_summary(e: int, m: int, p: int) -> HomologySummary:
    """Each boundary map is row-reduced once: the rank in degree n is
    dim C_n - rank d_n - rank d_(n+1)."""
    c = generate_complex(e, m, p)
    rk = [fp_rank(b, p) for b in c.boundary] + [0]
    ranks: dict[int, int] = {}
    for n in range(m + 1):
        h = c.dim(n) - rk[n] - rk[n + 1]
        if h:
            ranks[n] = h

    scalar = None
    scalar_int = None
    degs = sorted(ranks)
    if len(degs) == 2 and degs[1] == degs[0] + 1 and all(
            ranks[d] == 1 for d in degs):
        lo, hi = degs
        if lo % 2 == 0:
            scalar_int = _integral_connes_scalar(e, m)
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
            cols = np.hstack([gen_hi.reshape(-1, 1),
                              _boundary_in(c.boundary, hi)])
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

