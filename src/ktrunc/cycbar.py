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
that one copy serves every p.  A degree-n word is read as its code
c = sum of w_k e^(n-k), the base-e numeral of its letters, so within a
degree numeric order is lex order, and one code -> row index serves both
maps into the degree.  Each row is found by integer arithmetic on c:
face i < n is c // e^(n-i) * e^(n-i-1) + c % e^(n-i) (kept when
w_i + w_(i+1) < e), the wrap face c // e + (c % e) * e^(n-1) (kept when
w_n + w_0 < e), and rotation i of B (w_0 != 0)
(c % e^(n+1-i)) * e^i + c // e^(n+1-i).  These are exact: each cuts the
numeral at a power of e and shifts the parts, and every digit of the
result, merged letters included, is below e, so nothing carries.  All
three mixed-complex identities are verified on the stored columns (B B
by lookups: every word in the image of B has head 0, where B vanishes).
The complex is reduced once over Z along
its +-1 entries, from the top degree down, each boundary d_n without the
cells of degree n that the unit pivots of d_(n+1) paired, so its rank mod
any p is the number of unit pivots plus the rank of a residual of at most
one row.  That is exact because d_n d_(n+1) = 0 and the pivot block of
d_(n+1) is unimodular: the dropped columns of d_n are integer
combinations of the kept ones.  Nothing here copies a matrix
into a dense array: the mod-p generator of a (z, w) page and the
integral Connes scalar both read the stored columns.  The integral
scalar presents each homology group in the kernel basis of the boundary
out of its degree: the stored boundary goes to integer_kernel_basis as
it is, and the coordinate map kept with that basis turns the boundary
columns into the degree into the columns of the presentation, a
SparseIntMatrix with no dense copy.  Each of its Smith forms keeps only
the transforms read from it.  In the lower degree, the boundary's keeps v
and the inverse of v (the kernel basis, which carries the generator, and
the coordinates), the presentation's keeps u (one row of it is the
homology functional), and the functional's own, inverted by
integer_solve for the generator, keeps u and v.  The upper degree needs
no generator, only its functional and the coordinates of B of the lower
generator: its boundary's Smith form keeps the inverse of v alone, and
its presentation's keeps u.

A (z, w) page (e | m and p | e) has its scalar checked, not solved for.
Its integral homology is Z/e in degree 2d+1 and nothing else, so by
universal coefficients the mod-p generator of degree 2d+1 is the
reduction of an integral cycle z; Bz is an integral cycle of degree
2d+2, where the integral homology is zero, so it is an integral boundary
and B induces 0.  The summary finds that generator, the first
fp_kernel_basis vector whose remainder against the boundaries into its
degree is nonzero, and raises if B of it leaves a remainder against the
boundaries into the degree above.  Each boundary image is row-reduced
once, as fp_rref of the transposed boundary without the cells the degree
above paired (the same row space, so the same unique reduced form), on
sparse rows mod p.  Each of these eliminations is handed the rank the
boundary reductions already gave and stops when it is reached.
check_size_budget counts the words of each degree without building one,
and raises ComplexTooLargeError for an (e, m) past the size budget; `hh`
checks every weight it is asked for before it builds anything.  A
separate two-term "small complex" computes the same homology from the
standard periodic resolution of k[x]/(x^e) and serves as an independent
oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import mul
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
# runs, 91 s in all; wall time of the whole process and its peak RSS,
# VmHWM; Python 3.11.7 on 2 shared x86_64 Xeon CPUs): (6, 14), whose
# integral scalar reads a 952 x 2,471 presentation, 1.0-1.1 s and 48 MB at
# p = 2 or 3.  Every other run took at most 0.72 s and 39 MB.  Timed as 5
# fresh processes each on the same host, since the upper degree's Smith
# form stopped building v and the E-infinity survivors stop at the first
# kill (before it, in brackets): (6, 14) at p = 3 0.75-0.81 s
# (0.95-1.17 s) and 48 MB (55-59 MB); (7, 14) at p = 7, a (z, w) page,
# 0.39-0.64 s (0.40-0.66 s) and 35 MB; (3, 18) at p = 3, a (z, w) page of
# 8,362 words, 0.32-0.46 s (0.40-0.50 s) and 30 MB.  Past the budget,
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


def _face_moves(e: int, n: int, power: list[int]) -> list[tuple]:
    """The faces out of degree n as moves (see _entries_matrix), with
    power[k] = e^k.  Face i < n merges letters i and i + 1, sign (-1)^i:
    its code is c // e^(n-i) * e^(n-i-1) + c % e^(n-i).  The wrap face
    puts w_n + w_0 in front of w_1..w_(n-1), sign (-1)^n: its code is
    c // e + (c % e) * e^(n-1).  Each is kept while the merged letter
    stays below e, since x^e is the basepoint."""
    moves = [(i, i + 1, e, -1 if i % 2 else 1, power[n - i],
              power[n - i - 1], 1) for i in range(n)]
    moves.append((n, 0, e, -1 if n % 2 else 1, e, 1, power[n - 1]))
    return moves


def _rotation_moves(e: int, n: int, power: list[int]) -> list[tuple]:
    """Connes' operator out of degree n as moves (see _entries_matrix),
    with power[k] = e^k: rotation i puts the unit in front of w_i..w_n
    w_0..w_(i-1), sign (-1)^(n i), so its code is
    (c % e^(n+1-i)) * e^i + c // e^(n+1-i).  No letters merge, so no
    move has a condition: two letters below e sum below 2e.  B vanishes
    on a word with head 0, which would put the unit in an interior slot;
    those words come first in each degree, and _entries_matrix leaves
    their columns empty."""
    return [(0, 0, 2 * e, -1 if n * i % 2 else 1, power[n + 1 - i], 1,
             power[i]) for i in range(n + 1)]


def _composite_nonzero(first: SparseIntMatrix,
                       second: SparseIntMatrix) -> bool:
    """Whether second @ first has a nonzero column."""
    for col in first.columns:
        acc: dict[int, int] = {}
        for i, a in col:
            for k, b in second.columns[i]:
                acc[k] = acc.get(k, 0) + a * b
        if any(acc.values()):
            return True
    return False


def _anticommutator_nonzero(boundary: list[SparseIntMatrix],
                            connes: list[SparseIntMatrix], n: int) -> bool:
    """Whether d B + B d has a nonzero column out of degree n.

    B of a word is, up to sign, B of each of its rotations, so few stored
    B columns are distinct: d of each distinct column, keyed on its sorted
    entries, is computed once.  Out of the top degree B has no entries,
    and into degree 0 d has none, so neither reads past the ends of the
    lists."""
    up = boundary[n + 1].columns if n + 1 < len(boundary) else ()
    down = connes[n - 1].columns
    products: dict[tuple, dict[int, int]] = {}
    for col, faces in zip(connes[n].columns, boundary[n].columns):
        acc: dict[int, int] = {}
        if col:
            key = tuple(sorted(col))
            product = products.get(key)
            if product is None:
                product = products[key] = {}
                for i, a in key:
                    for k, b in up[i]:
                        product[k] = product.get(k, 0) + a * b
            acc = dict(product)
        for i, a in faces:
            for k, b in down[i]:
                acc[k] = acc.get(k, 0) + a * b
        if any(acc.values()):
            return True
    return False


def _entries_matrix(words: tuple[Word, ...], codes: list[int],
                    rows: dict[int, int], moves: list[tuple],
                    first: int, where: str) -> SparseIntMatrix:
    """The map sending each word to the sum of its moves, on the basis
    whose rows maps each code to its row: column j holds the terms of
    words[j] after cancellation, and the columns before `first` are zero.

    A word is read by its code c = sum of w_k e^(n-k), its base-e numeral.
    A move (i, j, limit, sign, a, b, d) sends it to sign times the word of
    code c // a * b + c % a * d, and is kept when w_i + w_j < limit.  The
    moves cut the numeral at a power of e and shift its two parts by
    powers of e; every digit stays a letter below e (a merged letter is
    below e when its move is kept), so no carry occurs and the result is
    the code of the word the move makes.  A code outside rows means a
    broken move: ComplexIdentityError names it, with `where` (the map,
    its degree and (e, m)), found again on a cold path so the word loop
    pays only one try per call."""
    columns = [()] * first
    if first:
        words, codes = words[first:], codes[first:]
    try:
        for w, c in zip(words, codes):
            col: dict[int, int] = {}
            for i, j, limit, sign, a, b, d in moves:
                if w[i] + w[j] < limit:
                    r = rows[c // a * b + c % a * d]
                    col[r] = col.get(r, 0) + sign
            if 0 in col.values():
                col = {i: x for i, x in col.items() if x}
            columns.append(tuple(col.items()))
    except KeyError:
        raise ComplexIdentityError(
            _missed_move(words, codes, rows, moves, where)) from None
    return SparseIntMatrix(len(rows), columns)


def _missed_move(words: tuple[Word, ...], codes: list[int],
                 rows: dict[int, int], moves: list[tuple], where: str) -> str:
    """The error message for the first word and kept move whose code is
    not in rows, as _entries_matrix reads them."""
    for w, c in zip(words, codes):
        for k, (i, j, limit, sign, a, b, d) in enumerate(moves):
            target = c // a * b + c % a * d
            if w[i] + w[j] < limit and target not in rows:
                return (f"{where}: move {k} {moves[k]} sends the word {w} "
                        f"to code {target}, outside the target basis")
    raise AssertionError(f"{where}: a lookup failed that no move makes")


@lru_cache(maxsize=COMPLEX_CACHE_SIZE)
def _integer_complex(e: int, m: int):
    """Bases plus integer boundary and Connes matrices, identity-checked.

    boundary[n] is the map out of degree n (boundary[0] has zero rows);
    connes[n] is the map from degree n into degree n+1 (connes[m] has
    zero rows since degree m+1 is empty).  Each degree-n word is read as
    its base-e code, sum of w_k e^(n-k): the letters are its digits, so
    the numeric order of the codes is the lex order of the words, and one
    code -> row index per degree serves the boundary into it and the
    Connes map into it.  Every row is found by integer arithmetic on the
    code (_face_moves, _rotation_moves), with the powers of e taken from
    one list.

    d d and d B + B d are checked column by column on the stored
    matrices, so the checks also cover the code to row mapping the
    matrices are built with.  B B is zero because every word in the image
    of B has head 0, where B vanishes: the check looks up the columns of
    B that B reaches, and multiplies out only if one of them is nonzero.
    """
    if e < 2 or m < 1:
        raise ValueError("need e >= 2 and m >= 1")
    basis = tuple(weight_words(e, m, n) for n in range(m + 1))
    power = [1]
    for _ in range(m + 1):
        power.append(power[-1] * e)
    codes: list[list[int]] = []
    rows: list[dict[int, int]] = []
    for n, words in enumerate(basis):
        if words:
            digits = power[n::-1]
            codes.append([sum(map(mul, w, digits)) for w in words])
            rows.append({c: i for i, c in enumerate(codes[n])})
        else:
            codes.append([])
            rows.append({})
    boundary = [SparseIntMatrix(0, [()] * len(basis[0]))]
    for n in range(1, m + 1):
        moves = _face_moves(e, n, power) if basis[n] else []
        boundary.append(_entries_matrix(
            basis[n], codes[n], rows[n - 1], moves, 0,
            f"boundary out of degree {n} (e={e}, m={m})"))
    connes = []
    for n in range(m):
        moves = _rotation_moves(e, n, power) if basis[n] else []
        connes.append(_entries_matrix(
            basis[n], codes[n], rows[n + 1], moves,
            bisect_left(codes[n], power[n]),
            f"Connes map out of degree {n} (e={e}, m={m})"))
    connes.append(SparseIntMatrix(0, [()] * len(basis[m])))

    for n in range(1, m):
        if _composite_nonzero(boundary[n + 1], boundary[n]):
            raise ComplexIdentityError(
                f"boundary squared nonzero at degree {n + 1} (e={e}, m={m})")
    for n in range(m - 1):
        above = connes[n + 1].columns
        reached = any(above[k] for col in connes[n].columns for k, _ in col)
        if reached and _composite_nonzero(connes[n], connes[n + 1]):
            raise ComplexIdentityError(
                f"Connes squared nonzero at degree {n} (e={e}, m={m})")
    for n in range(m + 1):
        if basis[n] and _anticommutator_nonzero(boundary, connes, n):
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
    """The key (e, m, p) of the weight-m complex read over F_p; the
    matrices live in _integer_complex(e, m), and reduced_homology reads
    only this key.  It stays only until the benchmark's pins on
    generate_complex and reduced_homology move to one homology entry
    point keyed by (e, m, p)."""

    e: int
    m: int
    p: int


def generate_complex(e: int, m: int, p: int) -> NormalizedComplex:
    if e < 2 or m < 1:
        raise ValueError("need e >= 2 and m >= 1")
    return NormalizedComplex(e, m, p)


@dataclass(frozen=True)
class HomologySummary:
    """Nonzero homology ranks by degree, plus the induced Connes scalar.

    connes_scalar is the coefficient lambda with B[z_lo] = lambda * [z_hi];
    it is None when the homology does not consist of exactly two
    consecutive rank-one groups (in particular when it vanishes).

    The page decides how the scalar is found.  When the lower group sits
    in even degree (e not dividing m) the integral homology is free of
    rank one in both degrees, the generators are canonical up to sign, and
    the scalar is computed over Z (connes_scalar_int) and then reduced;
    any other unit would be an artifact of basis choice.  When the lower
    group sits in odd degree (e | m and p | e) the integral homology is
    Z/e in that degree alone, so by universal coefficients the mod-p
    generator lifts to an integral cycle, whose image under B is an
    integral boundary: the scalar is 0, checked on the mod-p generator,
    and connes_scalar_int is None.
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


def _homology_functional(out_mat: SparseIntMatrix, in_mat: SparseIntMatrix,
                         *, keep_basis: bool
                         ) -> tuple[SparseIntMatrix | None, Callable,
                                    list[int]]:
    """(kernel, coordinates, phi) for an integral homology group that must
    be exactly Z.

    ker(out_mat)/im(in_mat) is presented in a kernel-lattice basis, whose
    coordinates integer_kernel_basis reads off the Smith form of out_mat;
    that Smith form keeps the inverse of v, and v as well only when
    keep_basis asks for the kernel basis (else kernel is None).  The
    presentation has one row per kernel basis vector, and its Smith form
    u @ pres @ v = d, which keeps u alone, must show one free coordinate
    and no torsion.  Row `rank` of u is then a functional phi on kernel
    coordinates whose kernel is exactly the image, so it maps the homology
    isomorphically onto Z: a cycle's class is phi of its coordinates times
    the generator, the cycles phi sends to 1.
    """
    kernel, coordinates = integer_kernel_basis(out_mat,
                                               keep_basis=keep_basis)
    pres = coordinates(in_mat.columns)
    snf_pres = smith_normal_form(pres, _keep=("u",))
    rank = snf_pres.rank()
    if pres.shape[0] - rank != 1 or any(x > 1 for x in snf_pres.d):
        raise AssertionError(
            f"integral homology is not free of rank one: diag {snf_pres.d}, "
            f"kernel rank {pres.shape[0]}")
    phi = [dict(col).get(rank, 0) for col in snf_pres.u.columns]  # row rank
    return kernel, coordinates, phi


@lru_cache(maxsize=CONNES_SCALAR_CACHE_SIZE)
def _integral_connes_scalar(e: int, m: int) -> int:
    """The Connes scalar on integral generators, canonical up to sign.

    Only defined when e does not divide m, where the integral homology
    is Z in degrees 2d and 2d+1.  It is phi_hi(B gen_lo), where gen_lo
    solves phi_lo(c) = 1: phi_hi kills every boundary and sends gen_hi
    to 1, so the value is exact, sign included.  The upper degree's
    kernel basis is never read, so its boundary's Smith form does not
    build v (see _homology_functional).
    """
    if m % e == 0:
        raise ValueError("integral normalization needs e not dividing m")
    _, boundary, connes = _integer_complex(e, m)
    lo = 2 * d_function(e, m)
    kernel, _, phi_lo = _homology_functional(
        boundary[lo], _boundary_in(boundary, lo), keep_basis=True)
    gen_lo = kernel.apply(integer_solve(
        SparseIntMatrix(1, [((0, f),) if f else () for f in phi_lo]), [1]))
    _, coordinates, phi_hi = _homology_functional(
        boundary[lo + 1], _boundary_in(boundary, lo + 1), keep_basis=False)
    (image,) = coordinates([enumerate(connes[lo].apply(gen_lo))]).columns
    return sum(phi_hi[k] * x for k, x in image)


def _image_reduction(e: int, m: int, p: int, n: int, rank: int
                     ) -> dict[int, dict[int, int]]:
    """The reduced row-echelon basis mod p of the boundaries in degree n,
    as {pivot column: row}: fp_rref, stopped at rank, of the transpose of
    the boundary into degree n without its columns at the cells of degree
    n + 1 that the unit pivots of the boundary out of degree n + 2 paired.
    Those columns are integer combinations of the others (d_(n+1) d_(n+2)
    = 0, and the pivot block of d_(n+2) is unimodular), so the row space
    is that of the whole transpose, and its reduced row-echelon form,
    which is unique, is the same."""
    _, boundary, _ = _integer_complex(e, m)
    into = _boundary_in(boundary, n)
    reductions = _boundary_reductions(e, m)
    paired = reductions[n + 2][0] if n + 2 < len(reductions) else ()
    kept = SparseIntMatrix(into.shape[0], [
        col for j, col in enumerate(into.columns) if j not in paired])
    rows, pivots = fp_rref(kept.transpose(), p, rank)
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


def _homology_generator(out: SparseIntMatrix, p: int, rank: int,
                        image: dict[int, dict[int, int]]
                        ) -> dict[int, int] | None:
    """First kernel basis vector of out = d_n outside the span of the
    boundaries: the first vector of fp_kernel_basis (rank being the rank
    of d_n mod p) whose remainder against image, the _image_reduction of
    degree n, is nonzero."""
    for vec in fp_kernel_basis(out, p, rank):
        if _remainder(image, vec, p):
            return vec
    return None


def reduced_homology(c: NormalizedComplex) -> HomologySummary:
    """Homology ranks and the induced Connes scalar (see HomologySummary).

    c is only the key (e, m, p): the summary is computed once per triple
    from the cached complex and memoized, and callers share it.
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
    basis, boundary, connes = _integer_complex(e, m)
    rk = _boundary_ranks(e, m, p)
    ranks: dict[int, int] = {}
    for n in range(m + 1):
        h = len(basis[n]) - rk[n] - rk[n + 1]
        if h:
            ranks[n] = h

    scalar = scalar_int = None
    degs = sorted(ranks)
    if len(degs) == 2 and degs[1] == degs[0] + 1 and all(
            ranks[d] == 1 for d in degs):
        lo, hi = degs
        if lo % 2 == 0:
            scalar_int = _integral_connes_scalar(e, m)
            scalar = scalar_int % p
        else:
            gen_lo = _homology_generator(boundary[lo], p, rk[lo],
                                         _image_reduction(e, m, p, lo, rk[hi]))
            if gen_lo is None:
                raise AssertionError(
                    "rank-one homology must have a generator")
            b_gen = connes[lo].apply(
                [gen_lo.get(j, 0) for j in range(len(basis[lo]))])
            if _remainder(_image_reduction(e, m, p, hi, rk[hi + 1]),
                          dict(enumerate(b_gen)), p):
                raise AssertionError(
                    f"B of the mod-p generator of degree {lo} is no boundary "
                    f"at (e, m, p) = ({e}, {m}, {p}), against universal "
                    f"coefficients: H_*(Z) is Z/{e} in degree {lo} alone")
            scalar = 0
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

