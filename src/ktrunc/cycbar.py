"""Weight components of the cyclic bar complex of the pointed monoid
Pi_e = {0, 1, x, ..., x^(e-1)} with x^e = 0, over F_p.

A degree-n basis element is a word (pi_0, ..., pi_n) of exponents with
pi_0 >= 0 and pi_i >= 1 for i >= 1 (the normalized complex drops words
containing the unit in an interior slot), all entries < e, total weight m.
Faces multiply adjacent letters, with the last face wrapping around; any
face that reaches exponent e hits the basepoint and contributes zero.
Connes' operator inserts the unit in front of each cyclic rotation.

The boundary and Connes matrices are built once per (e, m) over Z and
stored sparse, by the nonzero entries of each column (SparseIntMatrix);
all three mixed-complex identities are verified on those stored columns.
That one copy serves every p.  The complex is reduced once over Z along
its +-1 entries, from the top degree down, each boundary d_n without the
cells of degree n that the unit pivots of d_(n+1) paired, so its rank mod
any p is the number of unit pivots plus the rank of a residual of at most
one row.  That is exact because d_n d_(n+1) = 0 and the pivot block of
d_(n+1) is unimodular: the dropped columns of d_n are integer
combinations of the kept ones.  Nothing here copies a matrix
into a dense array: the mod-p generators of the (z, w) pages and the
integral Connes scalar both read the stored columns.  The integral
scalar presents each homology group in the kernel basis of the boundary
out of its degree: the stored boundary goes to integer_kernel_basis as
it is, and the coordinate map kept with that basis turns the boundary
columns into the degree into the columns of the presentation, a
SparseIntMatrix with no dense copy.  Each of its Smith forms keeps only the transforms read from
it: the boundary's keeps v and the inverse of v (the kernel basis and
its coordinates), the presentation's keeps u (one row of it is the
homology functional), and in the lower degree the functional's own,
inverted by integer_solve for the generator, keeps u and v; the upper
degree needs no generator, only its functional.  A (z, w) page
row-reduces the boundaries into each of its two degrees once, as fp_rref
of the transposed boundary without the cells the degree above paired (the
same row space, so the same unique reduced form), on sparse rows mod p;
its generator is the first fp_kernel_basis vector whose remainder against
that reduction is nonzero, and its scalar is the ratio of the remainders
of B gen_lo and gen_hi in the upper degree.  Each of these eliminations is handed the
rank the boundary reductions already gave and stops when it is reached.
check_size_budget counts the words of each degree without building one,
and raises ComplexTooLargeError for an (e, m) past the size budget; `hh`
checks every weight it is asked for before it builds anything.  A
separate two-term "small complex" computes the same homology from the
standard periodic resolution of k[x]/(x^e) and serves as an independent
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Callable

from .exactalg import (SparseIntMatrix, _subtract_mod, fp_kernel_basis,
                       fp_rank, fp_rref, integer_kernel_basis, integer_solve,
                       smith_normal_form, unit_pivot_reduction)

Word = tuple[int, ...]

# Cache bounds.  `ktrunc verify --suite all` and the benchmark's hh_pages
# grid together build and reduce 58 complexes (e, m), compute 41 integral
# scalars and 166 homology summaries (e, m, p); every bound exceeds its
# count, so no cache evicts on those grids and call counts do not depend on
# case order.
COMPLEX_CACHE_SIZE = 64
CONNES_SCALAR_CACHE_SIZE = 64
HOMOLOGY_CACHE_SIZE = 256


# Size budget of `hh`, checked on word counts before anything is built.
# The weight bound keeps words_per_degree, at most m^2 steps, cheap before
# the word count is checked.  Every weight up to 14 has at most 2^14 words
# for every e.  The integral Connes scalar runs Smith forms on the four
# degrees around it.  Worst case over all 608 admitted (e, m), each run as
# a fresh `hh --m` process at p = 2 and at every prime factor of e (684
# runs, about 2 minutes in all; wall time and the process's own peak RSS,
# VmHWM; Python 3.11 on 2 shared x86_64 Xeon CPUs; the runs named here
# repeated 5 times): (6, 14), whose integral scalar reads a 952 x 2,471
# presentation, 1.1-1.8 s and 55-59 MB at p = 3 (1.5 s at p = 2).  The
# (z, w) pages, whose generators are found mod p on sparse rows, cost
# less: (3, 18) at p = 3, 8,362 words, 0.5-0.8 s and 38-39 MB; (7, 14) at
# p = 7, 0.6-0.7 s and 36 MB.  Every other run took at most 1.1 s and
# 44 MB.  Past the budget,
# (3, 19), widest scalar degree 3,718, takes 73 s and 514 MB for its
# homology summary.
WEIGHT_BUDGET = 512
WORD_BUDGET = 1 << 14
SCALAR_DEGREE_BUDGET = 3000


class ComplexIdentityError(AssertionError):
    """A mixed-complex identity failed at the integer level."""


class ComplexTooLargeError(ValueError):
    """The (e, m) complex, or the integral Connes scalar read off it, is
    past the size budget."""


def d_function(e: int, m: int) -> int:
    """d(e, m) = floor((m-1)/e), the homological depth of weight m."""
    if m < 1:
        raise ValueError("weight must be positive")
    return (m - 1) // e


def weight_words(e: int, m: int, n: int) -> tuple[Word, ...]:
    """All degree-n normalized words of weight m, lexicographically sorted.

    A word is a head in [0, e-1] followed by a composition of m - head
    into n parts in [1, e-1].  The compositions come from a table indexed
    by part count: tails maps each total s to the compositions of s into
    k parts, in lex order, for k = 1..n in turn, each built by putting a
    first part in front of the table for k - 1.  Only the totals that the
    n - k parts before them and a head can complete to m are kept, and a
    tail shared by many words is built once.  A degree with no word, m
    outside [n, (n + 1)(e - 1)], returns before any table is built.
    """
    top = e - 1
    if not n <= m <= (n + 1) * top:
        return ()
    tails: dict[int, list[tuple[int, ...]]] = {0: [()]}
    for k in range(1, n + 1):
        prev, tails = tails, {}
        for s in range(max(k, m - (n - k + 1) * top),
                       min(k * top, m - n + k) + 1):
            tails[s] = [(first,) + rest
                        for first in range(max(1, s - (k - 1) * top),
                                           min(top, s - k + 1) + 1)
                        for rest in prev[s - first]]
    return tuple((head,) + rest for head in range(min(top, m) + 1)
                 for rest in tails.get(m - head, ()))


def words_per_degree(e: int, m: int) -> list[int]:
    """len(weight_words(e, m, n)) for n = 0..m, counted without building a
    word: a degree-n word is a head in [0, e-1] followed by a composition
    of m - head into n parts in [1, e-1].  comps[i] counts the
    compositions of start + i, over the sums start.. that n parts reach
    without passing m, so a row costs its width, not m."""
    counts = []
    start, comps = 0, [1]
    for _ in range(m + 1):
        counts.append(sum(comps[max(0, m - e + 1 - start):
                                max(0, m + 1 - start)]))
        prefix = [0, *accumulate(comps)]
        width = len(comps)
        comps = [prefix[min(s - start, width)]
                 - prefix[max(0, s - e + 1 - start)]
                 for s in range(start + 1,
                                min(m + 1, start + width + e - 1))]
        start += 1
    return counts


def check_size_budget(e: int, m: int) -> None:
    """Raise ComplexTooLargeError when the weight-m complex, or the Smith
    forms of its integral Connes scalar (e not dividing m), would be past
    the budget."""
    if m > WEIGHT_BUDGET:
        raise ComplexTooLargeError(
            f"weight {m} is past the size budget of {WEIGHT_BUDGET}")
    words = words_per_degree(e, m)
    total = sum(words)
    if total > WORD_BUDGET:
        shown = f"{total:,}" if total < 10 ** 9 else "over 10^9"
        raise ComplexTooLargeError(
            f"the (e, m) = ({e}, {m}) complex has {shown} words, past the "
            f"size budget of {WORD_BUDGET:,}")
    if m % e:
        lo = 2 * d_function(e, m)
        widest = max(words[max(0, lo - 1):lo + 3])
        if widest > SCALAR_DEGREE_BUDGET:
            raise ComplexTooLargeError(
                f"the integral Connes scalar at (e, m) = ({e}, {m}) reads "
                f"a degree of {widest:,} words, past the size budget of "
                f"{SCALAR_DEGREE_BUDGET:,}")


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


def _composite_nonzero(*composites) -> bool:
    """Whether the sum of the products second @ first, over the given pairs
    (first, second) of stored matrices out of one degree, has a nonzero
    column."""
    for j in range(composites[0][0].shape[1]):
        acc: dict[int, int] = {}
        for first, second in composites:
            for i, a in first.columns[j]:
                for k, b in second.columns[i]:
                    acc[k] = acc.get(k, 0) + a * b
        if any(acc.values()):
            return True
    return False


def _entries_matrix(src: tuple[Word, ...], dst: tuple[Word, ...],
                    term_fn) -> SparseIntMatrix:
    """The map sending each word of src to its (sign, word) terms, on the
    basis dst: column j holds the terms of src[j] after cancellation."""
    index = {w: i for i, w in enumerate(dst)}
    columns = []
    for w in src:
        col: dict[int, int] = {}
        for sign, out in term_fn(w):
            i = index[out]
            col[i] = col.get(i, 0) + sign
        if 0 in col.values():
            col = {i: x for i, x in col.items() if x}
        columns.append(tuple(col.items()))
    return SparseIntMatrix(len(dst), columns)


@lru_cache(maxsize=COMPLEX_CACHE_SIZE)
def _integer_complex(e: int, m: int):
    """Bases plus integer boundary and Connes matrices, identity-checked.

    boundary[n] is the map out of degree n (boundary[0] has zero rows);
    connes[n] is the map from degree n into degree n+1 (connes[m] has
    zero rows since degree m+1 is empty).  The identities are checked
    column by column on the stored matrices, so they also cover the word
    to row mapping the matrices are built with.
    """
    if e < 2 or m < 1:
        raise ValueError("need e >= 2 and m >= 1")
    basis = tuple(weight_words(e, m, n) for n in range(m + 1))
    boundary = [SparseIntMatrix(0, [()] * len(basis[0]))]
    for n in range(1, m + 1):
        boundary.append(_entries_matrix(basis[n], basis[n - 1],
                                        lambda w: _face_terms(w, e)))
    connes = [_entries_matrix(basis[n], basis[n + 1], _connes_terms)
              for n in range(m)]
    connes.append(SparseIntMatrix(0, [()] * len(basis[m])))

    for n in range(1, m):
        if _composite_nonzero((boundary[n + 1], boundary[n])):
            raise ComplexIdentityError(
                f"boundary squared nonzero at degree {n + 1} (e={e}, m={m})")
    for n in range(m - 1):
        if _composite_nonzero((connes[n], connes[n + 1])):
            raise ComplexIdentityError(
                f"Connes squared nonzero at degree {n} (e={e}, m={m})")
    for n in range(m + 1):
        composites = [(connes[n], boundary[n + 1])] if n < m else []
        if n:
            composites.append((boundary[n], connes[n - 1]))
        if _composite_nonzero(*composites):
            raise ComplexIdentityError(
                f"boundary/Connes anticommutator nonzero at degree {n} "
                f"(e={e}, m={m})")

    return basis, tuple(boundary), tuple(connes)


@lru_cache(maxsize=COMPLEX_CACHE_SIZE)
def _boundary_reductions(e: int, m: int) -> tuple:
    """unit_pivot_reduction of the (e, m) complex, one (pivots, residual)
    per boundary: the rank of boundary[n] mod any p is len(pivots) +
    fp_rank(residual, p), and pivots are the cells of degree n - 1 paired
    with cells of degree n.  Each boundary is eliminated without the
    columns the boundary above paired, exactly: d_n d_(n+1) = 0 and the
    pivot block of d_(n+1) is unimodular, so those columns of d_n are
    integer combinations of the others."""
    _, boundary, _ = _integer_complex(e, m)
    return unit_pivot_reduction(boundary)


@dataclass(frozen=True)
class NormalizedComplex:
    """The weight-m complex, read over F_p.  boundary[n]: C_n -> C_(n-1)
    and connes[n]: C_n -> C_(n+1) are the sparse integer matrices of
    _integer_complex(e, m) themselves, shared and never copied; the mod-p
    routines reduce what they are handed."""

    e: int
    m: int
    p: int
    basis: tuple[tuple[Word, ...], ...]
    boundary: tuple[SparseIntMatrix, ...] = field(repr=False)
    connes: tuple[SparseIntMatrix, ...] = field(repr=False)

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


def _boundary_in(boundary: tuple[SparseIntMatrix, ...],
                 n: int) -> SparseIntMatrix:
    """The boundary map into degree n; no columns above the top degree."""
    if n + 1 < len(boundary):
        return boundary[n + 1]
    return SparseIntMatrix(boundary[n].shape[1], ())


def _homology_functional(out_mat: SparseIntMatrix, in_mat: SparseIntMatrix
                         ) -> tuple[SparseIntMatrix, Callable, list[int]]:
    """(kernel, coordinates, phi) for an integral homology group that must
    be exactly Z.

    ker(out_mat)/im(in_mat) is presented in a kernel-lattice basis, whose
    coordinates integer_kernel_basis reads off the Smith form of out_mat;
    the Smith form u @ pres @ v = d of the presentation must show one free
    coordinate and no torsion.  Row `rank` of u is then a functional phi
    on kernel coordinates whose kernel is exactly the image, so it maps
    the homology isomorphically onto Z: a cycle's class is phi of its
    coordinates times the generator, the cycles phi sends to 1.
    """
    kernel, coordinates = integer_kernel_basis(out_mat)
    snf_pres = smith_normal_form(coordinates(in_mat.columns), _keep=("u",))
    rank = snf_pres.rank()
    if kernel.shape[1] - rank != 1 or any(x > 1 for x in snf_pres.d):
        raise AssertionError(
            f"integral homology is not free of rank one: diag {snf_pres.d}, "
            f"kernel rank {kernel.shape[1]}")
    phi = [dict(col).get(rank, 0) for col in snf_pres.u.columns]  # row rank
    return kernel, coordinates, phi


@lru_cache(maxsize=CONNES_SCALAR_CACHE_SIZE)
def _integral_connes_scalar(e: int, m: int) -> int:
    """The Connes scalar on integral generators, canonical up to sign.

    Only defined when e does not divide m, where the integral homology
    is Z in degrees 2d and 2d+1.  It is phi_hi(B gen_lo), where gen_lo
    solves phi_lo(c) = 1: phi_hi kills every boundary and sends gen_hi
    to 1, so the value is exact, sign included.
    """
    if m % e == 0:
        raise ValueError("integral normalization needs e not dividing m")
    _, boundary, connes = _integer_complex(e, m)
    lo = 2 * d_function(e, m)
    kernel, _, phi_lo = _homology_functional(boundary[lo],
                                             _boundary_in(boundary, lo))
    gen_lo = kernel.apply(integer_solve(
        SparseIntMatrix(1, [((0, f),) if f else () for f in phi_lo]), [1]))
    _, coordinates, phi_hi = _homology_functional(
        boundary[lo + 1], _boundary_in(boundary, lo + 1))
    (image,) = coordinates([enumerate(connes[lo].apply(gen_lo))]).columns
    return sum(phi_hi[k] * x for k, x in image)


def _image_reduction(c: NormalizedComplex, n: int, rank: int
                     ) -> dict[int, dict[int, int]]:
    """The reduced row-echelon basis mod p of the boundaries in degree n,
    as {pivot column: row}: fp_rref, stopped at rank, of the transpose of
    the boundary into degree n without its columns at the cells of degree
    n + 1 that the unit pivots of the boundary out of degree n + 2 paired.
    Those columns are integer combinations of the others (d_(n+1) d_(n+2)
    = 0, and the pivot block of d_(n+2) is unimodular), so the row space
    is that of the whole transpose, and its reduced row-echelon form,
    which is unique, is the same."""
    into = _boundary_in(c.boundary, n)
    reductions = _boundary_reductions(c.e, c.m)
    paired = reductions[n + 2][0] if n + 2 < len(reductions) else ()
    kept = SparseIntMatrix(into.shape[0], [
        col for j, col in enumerate(into.columns) if j not in paired])
    rows, pivots = fp_rref(kept.transpose(), c.p, rank)
    return dict(zip(pivots, rows))


def _remainder(image: dict[int, dict[int, int]], vec: dict[int, int],
               p: int) -> dict[int, int]:
    """vec mod p minus the combination of the echelon rows that matches it
    on their pivots, as a dict of residues in [1, p): empty exactly when
    vec is a boundary mod p, and linear in vec.  An echelon row holds no
    other row's pivot, so subtracting it leaves vec's other pivot entries
    as they were."""
    rem = {j: x % p for j, x in vec.items() if x % p}
    for c in [c for c in rem if c in image]:
        _subtract_mod(rem, image[c], rem[c], p)
    return rem


def _homology_generator(c: NormalizedComplex, n: int, rank: int,
                        image: dict[int, dict[int, int]]
                        ) -> dict[int, int] | None:
    """First kernel basis vector of d_n outside the span of the boundaries:
    the first vector of fp_kernel_basis (rank being the rank of d_n mod p)
    whose remainder against image, the _image_reduction of degree n, is
    nonzero."""
    for vec in fp_kernel_basis(c.boundary[n], c.p, rank):
        if _remainder(image, vec, c.p):
            return vec
    return None


def reduced_homology(c: NormalizedComplex) -> HomologySummary:
    """Homology ranks and the induced Connes scalar (see HomologySummary).

    Complexes come only from generate_complex(e, m, p), so (e, m, p) fixes
    the complex and its summary is computed once per triple and memoized;
    the matrices are not kept, and callers share the summary.
    """
    return _homology_summary(c.e, c.m, c.p)


def _boundary_ranks(e: int, m: int, p: int) -> list[int]:
    """rank d_n mod p for n = 0..m, then 0 for the map out of degree m+1,
    each read off the complex's one reduction over Z."""
    return [len(pivots) + fp_rank(residual, p)
            for pivots, residual in _boundary_reductions(e, m)] + [0]


@lru_cache(maxsize=HOMOLOGY_CACHE_SIZE)
def _homology_summary(e: int, m: int, p: int) -> HomologySummary:
    """The rank in degree n is dim C_n - rank d_n - rank d_(n+1)."""
    c = generate_complex(e, m, p)
    rk = _boundary_ranks(e, m, p)
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
            image = _image_reduction(c, hi, rk[hi + 1])
            gen_lo = _homology_generator(c, lo, rk[lo],
                                         _image_reduction(c, lo, rk[hi]))
            gen_hi = _homology_generator(c, hi, rk[hi], image)
            if gen_lo is None or gen_hi is None:
                raise AssertionError(
                    "rank-one homology must have a generator")
            # B gen_lo = s gen_hi + a boundary, and the remainder against
            # the boundaries is linear and kills them, so the remainders
            # of B gen_lo and gen_hi differ by the factor s
            connes = c.connes[lo].columns
            b_gen: dict[int, int] = {}
            for j, x in gen_lo.items():
                for i, a in connes[j]:
                    b_gen[i] = b_gen.get(i, 0) + a * x
            img = _remainder(image, b_gen, p)
            rem_hi = _remainder(image, gen_hi, p)
            k = min(rem_hi)
            scalar = img.get(k, 0) * pow(rem_hi[k], p - 2, p) % p
            if any((img.get(j, 0) - scalar * rem_hi.get(j, 0)) % p
                   for j in img.keys() | rem_hi.keys()):
                raise AssertionError(
                    "Connes image of a cycle must be a cycle")
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

