"""Exact linear algebra substrate: integer matrices, Smith normal form with
unimodular transforms, kernels of maps between finite cyclic-group products,
and ranks and kernels over F_p.

All arithmetic is on Python ints, over Z or reduced into [0, p), so
nothing here rounds or overflows, and the module needs no numpy.

The chain-complex matrices that reach this module are sparse and mostly
+-1.  They are stored as SparseIntMatrix, by the nonzero entries of each
column, and unit_pivot_reduction reduces a whole complex over Z along its
+-1 entries, from the top degree down: a unit pivot is a unit mod every
prime, so the rank of d_n mod any p is the number of its pivots plus the
fp_rank of a small residual.  d_n is eliminated without its columns at
the pivot rows of d_(n+1), which is exact: d_n d_(n+1) = 0 and the pivot
block of d_(n+1) is unimodular, so those columns are integer combinations
of the others and dropping them keeps the image lattice.  fp_rank brings
sparse rows kept as dicts to echelon form mod p, as fp_rref does.
smith_normal_form keeps its matrix and every transform the same
way, as dicts of nonzero entries, and one update rule, dst += q * src,
serves them all but for the column steps on its pivot row, each of which
changes one entry; it builds only the transforms its caller keeps, and
returns d as its diagonal and each of those as a SparseIntMatrix.
integer_kernel_basis keeps the column transform v and its inverse, and no
u: rows rank.. of the inverse are a left inverse of the kernel basis, so
the coordinate map it returns reads the coordinates of kernel vectors off
that inverse, with no second Smith form and no solve per vector.  A
caller that reads only coordinates asks for no basis, and then the Smith
form keeps the inverse alone.
kernel_invariants reads the kernel of a map of finite cyclic p-group
products off the cokernel of its dual map, so it needs one Smith form, of
whose diagonal it reads only the exponents of p: it keeps no transform.
cycbar's presentation of a homology group keeps u alone, and integer_solve
and the default keep u and v.  SparseIntMatrix is the one integer matrix
type: smith_normal_form, integer_kernel_basis, integer_solve and
kernel_invariants take it, the Smith form reading its starting rows off
the stored columns, and the transforms, the kernel basis and its
coordinates come back as one.  fp_rref eliminates the rows of a
SparseIntMatrix mod p, kept as dicts, into the unique reduced row-echelon
form, and stops once it holds as many pivots as the rank its caller
already knows; fp_kernel_basis reads a kernel basis off it.  Their pivots
choose the mod-p homology generators.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import (Callable, Collection, Iterable, Iterator, Mapping,
                    Sequence)


class GhostInversionError(ArithmeticError):
    """A division that should be exact was not.  Signals an internal bug."""


# STRONG_PSEUDOPRIMES[k] is the least odd composite that passes the
# Miller-Rabin test to each of the first k + 1 primes of SMALL_PRIMES as
# bases (OEIS A014233; the last two are from Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86 (2017)).  So below
# it those k + 1 bases decide primality, and is_prime decides every n below
# PRIME_TEST_LIMIT in O(log n) modular multiplications, with no trial
# division past SMALL_PRIMES.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
STRONG_PSEUDOPRIMES = (
    2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
    3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981)
PRIME_TEST_LIMIT = STRONG_PSEUDOPRIMES[-1]
# Bound on memoized primality answers.  Each entry point checks its p, and
# a route C query asks about the same p twice per weight and GroupStructure
# once per group, so a repeat costs a dict lookup.
PRIME_CACHE_SIZE = 256


@lru_cache(maxsize=PRIME_CACHE_SIZE)
def is_prime(n: int) -> bool:
    """Whether n is prime.  A Miller-Rabin witness proves n composite at
    any size, but past PRIME_TEST_LIMIT passing every base does not prove
    n prime, so such an n raises ValueError (and is not memoized)."""
    if n < 2:
        return False
    for q in SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # no prime factor up to 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, bound in zip(SMALL_PRIMES, STRONG_PSEUDOPRIMES):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False  # a is a witness: n is composite
        if n < bound:
            return True
    raise ValueError(f"{n} passes the Miller-Rabin test, which is exact "
                     f"only below {PRIME_TEST_LIMIT:,}")


def p_valuation(n: int, p: int) -> int:
    """The exponent of p in n, for n != 0: for p = 2 the index of the
    lowest set bit, for any other p one division per factor."""
    if n == 0:
        raise ValueError("valuation of zero")
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class GroupStructure:
    """A finite abelian p-group, as p and the sorted exponents h of its
    factors Z/p^h, which factors lists; every route builds only p-groups.
    Zero exponents are dropped, and a negative one, or a p that is not
    prime, raises ValueError.  Equality, hash and str read only factors."""

    __slots__ = ("p", "exponents")

    def __init__(self, p: int, exponents: Iterable[int]):
        self.p = p
        self.exponents = tuple(sorted(h for h in exponents if h != 0))
        if self.exponents and self.exponents[0] < 0:
            raise ValueError(f"negative exponent {self.exponents[0]}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")

    @property
    def factors(self) -> tuple[int, ...]:
        """The p^h, built on each read rather than kept beside exponents."""
        return tuple(self.p ** h for h in self.exponents)

    def order(self) -> int:
        return self.p ** sum(self.exponents)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupStructure):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"GroupStructure({self.p}, {list(self.exponents)!r})"

    def __str__(self) -> str:
        return " x ".join(f"Z/{f}" for f in self.factors) or "0"


class SparseIntMatrix:
    """Integer matrix stored by the nonzero entries of each column.

    columns[j] is a tuple of (row, value) pairs, one per nonzero entry of
    column j, each value a Python int; zeros are never stored.  shape and
    size are those of the dense matrix.
    """

    __slots__ = ("shape", "columns")

    def __init__(self, rows: int,
                 columns: Sequence[tuple[tuple[int, int], ...]]):
        self.columns = tuple(columns)
        self.shape = (rows, len(self.columns))

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    def transpose(self) -> "SparseIntMatrix":
        """The transpose, whose stored columns are the rows of self."""
        return _from_rows([dict(col) for col in self.columns], self.shape[0])

    def apply(self, vec: Sequence[int]) -> list[int]:
        """self @ vec, one stored column per nonzero entry of vec."""
        if len(vec) != self.shape[1]:
            raise ValueError("dimension mismatch in apply")
        out = [0] * self.shape[0]
        for x, col in zip(vec, self.columns):
            if x:
                for i, a in col:
                    out[i] += a * x
        return out


@dataclass(frozen=True)
class SNFResult:
    """u @ m @ v == diag(d), d the diagonal of length min(rows, cols).  A
    transform is None when the Smith form was not asked to keep it; u, v
    and v's inverse v_inverse are stored by columns."""

    d: tuple[int, ...]
    u: SparseIntMatrix | None
    v: SparseIntMatrix | None
    v_inverse: SparseIntMatrix | None = None

    def rank(self) -> int:
        return sum(1 for x in self.d if x != 0)


def _add_multiple(dst: dict[int, int], src: Mapping[int, int],
                  q: int) -> None:
    """dst += q * src, on vectors kept as {index: nonzero int}."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _rows(m: SparseIntMatrix) -> list[dict[int, int]]:
    """The rows of m, each a dict of its nonzero entries in column order:
    the inverse of _from_rows."""
    rows = [{} for _ in range(m.shape[0])]
    for j, col in enumerate(m.columns):
        for i, x in col:
            rows[i][j] = x
    return rows


def _from_rows(rows: Sequence[Mapping[int, int]],
               cols: int) -> SparseIntMatrix:
    """The matrix with the given sparse rows, stored by columns."""
    columns = [[] for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns[j].append((i, x))
    return SparseIntMatrix(len(rows), map(tuple, columns))


def smith_normal_form(m: SparseIntMatrix, *,
                      _keep: Collection[str] = ("u", "v")) -> SNFResult:
    """Diagonalize m over Z: returns (d, u, v) with u @ m @ v == diag(d),
    u and v unimodular, and d_1 | d_2 | ... on the nonnegative diagonal.

    Pivot choice is the entry of smallest absolute value, ties broken by
    lowest row index then lowest column index, so the reduction is
    deterministic.  The pivot search stops at the first row holding an
    entry of absolute value 1, and a unit pivot skips the divisibility
    sweep.

    Boundary matrices are sparse and mostly +-1, so a, the rows of u, the
    columns of v and the rows of v's inverse are all kept as dicts of
    their nonzero entries, and every operation is a swap or one
    _add_multiple, but for a column step on the pivot row of a, which
    changes one entry (see below).  a starts as the rows of m, read off
    its stored columns, so m must store no zero (as SparseIntMatrix
    promises): a stored zero would be taken as a pivot of absolute value
    0.  v is kept by columns, so its column operations are vector
    additions; col_j -= q * col_t on v is row_t += q * row_j on its
    inverse, and a column swap swaps two rows of it, and of a only the
    rows that hold either column.  Rows of a past t are zero in the
    columns before t, and since the row sweep leaves column t of a zero
    except at the pivot, a column operation changes one entry of a.

    _keep names the transforms the caller reads, among u, v and
    v_inverse (default u and v); the others come back as None.  Pivot
    choice reads only a, so d and every kept transform are the same
    whatever is dropped, and a dropped transform is never built.
    """
    R, C = m.shape
    a = _rows(m)
    u = [{i: 1} for i in range(R)] if "u" in _keep else None
    vc = [{j: 1} for j in range(C)] if "v" in _keep else None
    vi = [{j: 1} for j in range(C)] if "v_inverse" in _keep else None

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def col_swap(i, j):  # rows above t are zero in columns t and beyond
        for row in a[t:]:
            if i in row or j in row:
                x, y = row.pop(i, 0), row.pop(j, 0)
                if y:
                    row[i] = y
                if x:
                    row[j] = x
        if vc is not None:
            vc[i], vc[j] = vc[j], vc[i]
        if vi is not None:
            vi[i], vi[j] = vi[j], vi[i]

    t = 0
    while t < min(R, C):
        best = None
        for i in range(t, R):
            if a[i]:  # (|x|, j) smallest in row i
                x, j = min(zip(map(abs, a[i].values()), a[i]))
                if best is None or x < best:
                    best, pi, pj = x, i, j
                    if x == 1:
                        break
        if best is None:
            break
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if a[t][t] < 0:
            a[t] = {k: -x for k, x in a[t].items()}
            if u is not None:
                u[t] = {k: -x for k, x in u[t].items()}
        while True:
            at = a[t]
            piv = at[t]
            # row_i -= q * row_t; what is left in column t lies in
            # [0, piv), so a swapped-in pivot is positive
            rem = []
            for i in range(t + 1, R):
                ai = a[i]
                if t in ai:
                    q = ai[t] // piv
                    if q:
                        _add_multiple(ai, at, -q)
                        if u is not None:
                            _add_multiple(u[i], u[t], -q)
                    if t in ai:
                        rem.append(i)
            if rem:
                row_swap(t, min(rem, key=lambda k: (a[k][t], k)))
                continue
            for j, aj in list(at.items()):
                q, r = divmod(aj, piv)
                if q and j != t:  # col_j -= q * col_t, which is piv at row t
                    if r:
                        at[j] = r
                    else:
                        del at[j]
                    if vc is not None:
                        _add_multiple(vc[j], vc[t], -q)
                    if vi is not None:
                        _add_multiple(vi[t], vi[j], q)  # row_t += q * row_j
            rem = [j for j in at if j != t]
            if rem:
                col_swap(t, min(rem, key=lambda k: (at[k], k)))
                continue
            if piv == 1:
                break
            bad = next((i for i in range(t + 1, R)
                        if any(x % piv for x in a[i].values())), None)
            if bad is None:
                break
            # pull the offending row up; the pivot will shrink
            _add_multiple(at, a[bad], 1)
            if u is not None:
                _add_multiple(u[t], u[bad], 1)
        t += 1

    return SNFResult(
        tuple(a[i].get(i, 0) for i in range(min(R, C))),
        None if u is None else _from_rows(u, R),
        None if vc is None else SparseIntMatrix(
            C, [tuple(sorted(col.items())) for col in vc]),
        None if vi is None else _from_rows(vi, C))


def integer_kernel_basis(m: SparseIntMatrix, *, keep_basis: bool = True
                         ) -> tuple[SparseIntMatrix | None, Callable[
                             [Iterable[Iterable[tuple[int, int]]]],
                             SparseIntMatrix]]:
    """(basis, coordinates): the columns of basis form a basis of the
    integer kernel lattice of m, and coordinates(vectors) gives the
    coordinates of kernel vectors in it, one column per vector, so its
    matrices have one row per basis vector, the kernel rank.

    With u @ m @ v == diag(d) of rank r, the basis is columns r.. of v,
    stored by columns as the Smith form returns it, and the coordinates of
    w are rows r.. of v^-1 @ w, read off the inverse the Smith form kept
    (no second Smith form, no solve per vector).  The Smith form keeps v
    and its inverse, and no u; with keep_basis False it keeps the inverse
    alone and basis comes back as None.  Pivot choice reads neither
    transform, so the coordinates are the same either way.  Each vector is
    given sparse, as (index, value) pairs; one whose rows ..r of v^-1 @ w
    do not vanish lies outside the kernel, and coordinates raises
    GhostInversionError for it.
    """
    snf = smith_normal_form(
        m, _keep=("v", "v_inverse") if keep_basis else ("v_inverse",))
    rank = snf.rank()
    dim = m.shape[1] - rank
    inverse = snf.v_inverse.columns

    def coordinates(vectors: Iterable[Iterable[tuple[int, int]]]
                    ) -> SparseIntMatrix:
        columns = []
        for vec in vectors:
            low, high = {}, {}  # rows ..rank and rank.. of v^-1 @ vec
            for i, x in vec:
                if x:
                    for k, a in inverse[i]:
                        if k < rank:
                            low[k] = low.get(k, 0) + a * x
                        else:
                            high[k - rank] = high.get(k - rank, 0) + a * x
            if any(low.values()):  # zero exactly on the kernel
                raise GhostInversionError(
                    "vector outside the integer kernel")
            columns.append(tuple(sorted((k, y) for k, y in high.items()
                                        if y)))
        return SparseIntMatrix(dim, columns)

    basis = (SparseIntMatrix(m.shape[1], snf.v.columns[rank:])
             if keep_basis else None)
    return basis, coordinates


def integer_solve(g: SparseIntMatrix, w: Sequence[int]) -> list[int]:
    """Exact integer solution of g @ c = w; raises if none exists."""
    snf = smith_normal_form(g)
    y = snf.u.apply(list(w))
    z = [0] * g.shape[1]
    for i, yi in enumerate(y):
        di = snf.d[i] if i < len(snf.d) else 0
        if di == 0:
            if yi != 0:
                raise GhostInversionError("inconsistent integral system")
            continue
        q, r = divmod(yi, di)
        if r:
            raise GhostInversionError("non-exact division in integral solve")
        z[i] = q
    return snf.v.apply(z)


def kernel_invariants(relations: SparseIntMatrix, p: int,
                      source_exponents: Sequence[int],
                      target_exponents: Sequence[int]) -> GroupStructure:
    """Invariant factors of the kernel of the map of finite p-groups

        f: (+) Z/p^source_exponents[j]  -->  (+) Z/p^target_exponents[i]

    presented by the integer matrix `relations` (rows indexed by the target
    coordinates, columns by the source generators).

    A finite abelian group is isomorphic to its Pontryagin dual, and the
    dual of ker f is the cokernel of the dual map.  Write a and b for the
    source and target moduli p^c.  The dual map sends the i-th dual
    generator of the target to D[j][i] = relations[i][j] * a[j] / b[i]
    times the j-th of the source, an exact quotient because f is well
    defined.  So ker f has the invariant factors of Z^n / <columns of
    [diag(a) | D]>, which one Smith form gives; diag(a) has full rank, so
    none of them is zero, and ker f is a p-group, so each is a power of p,
    whose exponent p_valuation reads.  Column i of D is row i of
    relations, scaled.
    """
    if min([*source_exponents, *target_exponents], default=0) < 0:
        raise ValueError("exponents must be nonnegative")
    moduli = [p ** c for c in source_exponents]
    n, mm = len(moduli), len(target_exponents)
    if relations.shape != (mm, n):
        rows, cols = relations.shape
        raise ValueError(f"dimension mismatch: relations is {rows}x{cols}, "
                         f"expected {mm}x{n}")
    dual = [((j, aj),) for j, aj in enumerate(moduli)]
    for i, (c, row) in enumerate(zip(target_exponents, _rows(relations))):
        column = []
        for j, x in row.items():
            q, r = divmod(x * moduli[j], p ** c)
            if r:
                raise ValueError(
                    f"relation entry ({i},{j}) does not define a map of "
                    f"cyclic groups")
            column.append((j, q))
        dual.append(tuple(column))
    diag = smith_normal_form(SparseIntMatrix(n, dual), _keep=()).d
    if 0 in diag:
        raise GhostInversionError("kernel of a map of finite groups is finite")
    exponents = [p_valuation(x, p) for x in diag]
    if any(x != p ** h for x, h in zip(diag, exponents)):
        raise GhostInversionError(f"an invariant factor of {diag} is no "
                                  f"power of p = {p}")
    return GroupStructure(p, exponents)


# ---------------------------------------------------------------------------
# mod-p routines.  Entries are reduced into [0, p) and kept as Python ints,
# so no modulus can overflow.  P_LIMIT is not a limit of the arithmetic:
# it is the bound `hh --p` has always stated, kept so that the command
# accepts and rejects the same moduli.  fp_rank and fp_rref share one
# echelon routine, _echelon; unit_pivot_reduction eliminates a complex over
# Z along +-1 pivots only, mod every prime at once.

P_LIMIT = 1 << 20


def _check_modulus(p: int) -> None:
    if p > P_LIMIT or not is_prime(p):
        raise ValueError(f"p = {p} out of range for mod-p reduction")


def _subtract_mod(dst: dict[int, int], src: Mapping[int, int], f: int,
                  p: int) -> None:
    """dst -= f * src mod p, on vectors kept as {index: residue in [1, p)}
    with f a unit mod p."""
    for k, x in src.items():
        y = (dst.get(k, 0) - f * x) % p
        if y:
            dst[k] = y
        else:
            del dst[k]


def _echelon(rows: Iterable[Mapping[int, int]], p: int
             ) -> Iterator[dict[int, dict[int, int]]]:
    """Row echelon rows over F_p of the given integer rows, taken in order:
    each is reduced mod p against the rows kept so far, from its smallest
    column up, until its first column is no kept pivot, and what is left
    is kept, scaled to a leading 1.  Yields the kept rows, as {pivot
    column: row of residues in [1, p)}, each time one is added; a caller
    that knows the rank stops there, since every later row is
    dependent."""
    kept: dict[int, dict[int, int]] = {}  # pivot column -> its row
    for row in rows:
        vec = {j: x % p for j, x in row.items() if x % p}
        heap = list(vec)  # every column of vec, popped smallest first
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            if c not in vec:
                continue
            if c not in kept:
                break  # c is the first column of vec
            # a kept row is zero left of its pivot c, so this only adds
            # columns past c
            for k in kept[c]:
                if k not in vec:
                    heapq.heappush(heap, k)
            _subtract_mod(vec, kept[c], vec[c], p)
        else:
            continue  # vec was dependent
        inv = pow(vec[c], p - 2, p)
        kept[c] = {j: x * inv % p for j, x in vec.items()}
        yield kept


def fp_rref(mat: SparseIntMatrix, p: int, rank: int
            ) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced row-echelon form over F_p of the rows of mat: (rows,
    pivots), the pivot columns ascending and the nonzero rows in their
    order.  Each row is a dict of residues in [1, p), its pivot is its
    first column and holds 1, and each pivot column is nonzero in its own
    row only.  That form is unique, so it does not depend on how it is
    reached.

    The rows are first brought to echelon form (_echelon), then the kept
    rows are cleared of each other's pivots, largest pivot first.  The
    rows are taken last to first: on the boundaries of the bar complex,
    words in lexicographic order, that ran 3 to 20 times faster than first
    to last on the four eliminations of (e, m, p) = (3, 18, 3).  rank must
    be the rank of mat mod p: the elimination stops once it holds that
    many pivots, and raises ValueError if the rows run out before.
    """
    _check_modulus(p)
    kept: dict[int, dict[int, int]] = {}
    # stop at the rank-th pivot: every later row is dependent
    for kept in islice(_echelon(reversed(_rows(mat)), p), rank):
        pass
    if len(kept) != rank:
        raise ValueError(f"rank {len(kept)} mod {p}, not the {rank} given")
    pivots = sorted(kept)
    for c in reversed(pivots):  # the rows of larger pivots are final
        row = kept[c]
        for j in [j for j in row if j != c and j in kept]:
            _subtract_mod(row, kept[j], row[j], p)
    return [kept[c] for c in pivots], pivots


def _eliminate(vectors: list[dict[int, int]]) -> list[int]:
    """Pivot on +-1 entries, in place, until no vector holds one; returns
    the positions of the pivot vectors, in pivot order.

    A pivot clears its index from every other vector by adding a multiple
    of the pivot vector, then empties the pivot vector: an invertible
    change of basis over Z that splits off rank one, mod every prime at
    once.  Only pivot vectors are ever added to others, so each pivot
    vector is its original plus a combination of earlier ones, zero at
    their pivot indices: the block of the original vectors at the pivot
    positions and indices is unimodular.  Vectors are taken in the order
    given, each pivoting on its unit of highest index: a heap of
    positions holds every vector that holds a unit, each at most once
    (one that lost its units is skipped when popped), so a vector not on
    it is queued only when a pivot writes a unit into it.  On the
    boundary matrices of the bar complex, rows in word order, that order
    fills in two to four times less than shortest-vector-first.  The
    vectors left nonempty hold no unit.
    """
    users: dict[int, set[int]] = {}
    for k, vec in enumerate(vectors):
        for j in vec:
            users.setdefault(j, set()).add(k)
    heap = [k for k, vec in enumerate(vectors)
            if 1 in vec.values() or -1 in vec.values()]
    queued = set(heap)
    pivots = []
    while heap:
        k = heapq.heappop(heap)
        queued.discard(k)
        vec = vectors[k]
        units = [j for j, x in vec.items() if x == 1 or x == -1]
        if not units:
            continue  # lost its units
        c = max(units)
        vectors[k] = {}
        sign = vec.pop(c)  # +-1, its own inverse
        for j in vec:
            users[j].discard(k)
        targets = users.pop(c)
        targets.discard(k)
        for o in targets:
            other = vectors[o]
            f = other.pop(c) * sign
            gained = False
            for j, x in vec.items():
                y = other.get(j, 0) - f * x
                if not y:
                    del other[j]
                    users[j].discard(o)
                    continue
                if j not in other:
                    users[j].add(o)
                other[j] = y
                if y == 1 or y == -1:
                    gained = True
            if gained and o not in queued:
                queued.add(o)
                heapq.heappush(heap, o)
        pivots.append(k)
    return pivots


def unit_pivot_reduction(boundaries: Sequence[SparseIntMatrix]
                         ) -> tuple[tuple[frozenset[int],
                                          tuple[dict[int, int], ...]], ...]:
    """The chain complex with boundaries[n]: C_n -> C_(n-1) reduced over Z
    along +-1 pivots, one (pivots, residual) per boundary, where
    boundaries[n] @ boundaries[n + 1] must be zero.

    From the top degree down, the rows of boundaries[n] are eliminated
    (_eliminate) without the columns at pivots of boundaries[n + 1]: the
    cells of degree n that its unit pivots paired.  Since d_n d_(n+1) = 0
    and the pivot block P = d_(n+1)[R, C] is unimodular (_eliminate), with
    R the pivot rows, C the pivot columns and R' the other rows, those
    columns of d_n are integer combinations of its other columns, d_n[:, R]
    = -d_n[:, R'] d_(n+1)[R', C] P^-1, so dropping them keeps the image
    lattice of d_n and its rank mod every p.  pivots is the set of pivot
    rows, cells of degree n - 1, and rank_p(boundaries[n]) =
    len(pivots) + fp_rank(residual, p) for every prime p, since a +-1
    pivot is a unit mod every prime.  The residual is the rows left
    nonzero, each a dict from column to Python int, and none holds a +-1
    entry."""
    reductions = []
    paired: frozenset[int] = frozenset()
    for mat in reversed(boundaries):
        rows = _rows(SparseIntMatrix(mat.shape[0], [
            () if j in paired else col for j, col in enumerate(mat.columns)]))
        paired = frozenset(_eliminate(rows))
        reductions.append((paired, tuple(row for row in rows if row)))
    return tuple(reversed(reductions))


def fp_rank(rows: Iterable[Mapping[int, int]], p: int) -> int:
    """Rank over F_p of sparse rows, each a dict from column to an integer
    entry: the number of echelon rows _echelon keeps."""
    _check_modulus(p)
    return sum(1 for _ in _echelon(rows, p))


def fp_kernel_basis(mat: SparseIntMatrix, p: int,
                    rank: int) -> list[dict[int, int]]:
    """A deterministic basis of the right kernel of mat mod p, rank being
    the rank of mat mod p: one vector per free column f of fp_rref(mat, p,
    rank), 1 at f and minus column f of the form on the pivots, each a
    dict of residues in [1, p), in the order of f."""
    rows, pivots = fp_rref(mat, p, rank)
    pivot_set = set(pivots)
    basis = {f: {f: 1} for f in range(mat.shape[1]) if f not in pivot_set}
    for c, row in zip(pivots, rows):
        for j, x in row.items():
            if j != c:
                basis[j][c] = p - x
    return list(basis.values())
