"""Slow, independent reference implementations used only by the tests.

Everything in here recomputes quantities by a route the library itself never
takes: cofactor determinants, gcd-of-minors invariant factors, exhaustive
kernel enumeration, generating-function coefficients.  Keep these dumb.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from ktrunc.witt import _add_coords


def det(rows) -> int:
    """Integer determinant by cofactor expansion.  Fine up to ~6x6."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det(minor)
    return total


def minor_gcd_invariants(rows) -> list[int]:
    """Invariant factors of an integer matrix via gcds of k x k minors.

    d_k = gcd of all k x k minors, invariant factor k is d_k / d_{k-1}.
    Exponential in the matrix size, so only use on tiny inputs.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    inv = []
    prev = 1
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rsel in combinations(range(nrows), k):
            for csel in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, det(sub))
        if g == 0:
            break
        inv.append(g // prev)
        prev = g
    return inv


def _scaled(vec, k, moduli):
    return tuple((k * x) % a for x, a in zip(vec, moduli))


def kernel_by_enumeration(relations, moduli, target_moduli) -> list[int]:
    """Invariant prime powers of ker(prod Z/a_j -> prod Z/b_i), sorted.

    Walks every element of the source group, so the product of the moduli
    must stay small (tests keep it at or below 2**12).  The structure is
    read off from order statistics: the number of kernel elements killed
    by p^i determines how many cyclic factors have exponent >= i.
    """
    order = 1
    for a in moduli:
        order *= a
    if order > 1 << 14:
        raise ValueError("source group too large for exhaustive enumeration")

    kernel = []
    for vec in product(*(range(a) for a in moduli)):
        if all(
            sum(r * x for r, x in zip(row, vec)) % b == 0
            for row, b in zip(relations, target_moduli)
        ):
            kernel.append(vec)

    factors = []
    size = len(kernel)
    for p in sorted({q for q in range(2, size + 1) if size % q == 0 and _is_prime(q)}):
        counts = [0]
        i = 1
        while True:
            killed = sum(
                1 for vec in kernel if all(x == 0 for x in _scaled(vec, p**i, moduli))
            )
            exp = killed.bit_length() - 1 if p == 2 else round(math.log(killed, p))
            assert p**exp == killed, "kernel p-part count is not a p-power"
            counts.append(exp)
            if killed == sum(
                1
                for vec in kernel
                if all(x == 0 for x in _scaled(vec, p ** (i + 1), moduli))
            ):
                break
            i += 1
        at_least = [counts[i + 1] - counts[i] for i in range(len(counts) - 1)]
        for i, n_ge in enumerate(at_least):
            n_gt = at_least[i + 1] if i + 1 < len(at_least) else 0
            factors.extend([p ** (i + 1)] * (n_ge - n_gt))
    return sorted(factors)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def valuation_by_division(n: int, p: int) -> int:
    """The exponent of p in n != 0, one division per factor."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _interior_parts(total: int, n: int, e: int):
    """Compositions of `total` into n parts, each in [1, e-1], lex order,
    by recursion on the first part."""
    if n == 0:
        if total == 0:
            yield ()
        return
    lo = max(1, total - (n - 1) * (e - 1))
    hi = min(e - 1, total - (n - 1))
    for first in range(lo, hi + 1):
        for rest in _interior_parts(total - first, n - 1, e):
            yield (first,) + rest


def words_by_recursion(e: int, m: int, n: int) -> tuple:
    """The degree-n cyclic-bar words of weight m in lexicographic order: a
    head in [0, e-1], then a composition of the rest into n parts."""
    return tuple((head,) + rest for head in range(min(e - 1, m) + 1)
                 for rest in _interior_parts(m - head, n, e))


def word_count(e: int, m: int, n: int) -> int:
    """Number of cyclic-bar words of weight m in degree n, by counting
    coefficients of (1 + t + ... + t^{e-1}) * (t + ... + t^{e-1})^n."""
    first = [1] * e
    rest = [0] + [1] * (e - 1)
    poly = first
    for _ in range(n):
        poly = poly_mul(poly, rest)
    return poly[m] if m < len(poly) else 0


def face_terms(word: tuple, e: int):
    """(sign, face) pairs of the nonzero faces of a word of degree n, by
    slicing the word: face i < n merges letters i and i + 1 with sign
    (-1)^i, the last face puts w_n + w_0 in front with sign (-1)^n, and a
    merged letter that reaches e is the basepoint."""
    n = len(word) - 1
    for i in range(n):
        merged = word[i] + word[i + 1]
        if merged < e:
            yield (-1) ** i, word[:i] + (merged,) + word[i + 2:]
    merged = word[n] + word[0]
    if merged < e:
        yield (-1) ** n, (merged,) + word[1:n]


def connes_terms(word: tuple):
    """(sign, word) pairs of B applied to a word, by slicing it: the unit
    in front of each cyclic rotation, with sign (-1)^(n i); empty when
    pi_0 = 0."""
    if word[0] == 0:
        return
    n = len(word) - 1
    for i in range(n + 1):
        sign = -1 if (n * i) % 2 else 1
        yield sign, (0,) + word[i:] + word[:i]


def word_code(word: tuple, e: int) -> int:
    """The word read as a base-e numeral, its first letter leading."""
    code = 0
    for letter in word:
        code = code * e + letter
    return code


def dense_entries_matrix(src, dst, term_fn) -> np.ndarray:
    """The matrix of the map sending each word of src to its (sign, word)
    terms, on the basis dst, as cycbar built it before storing it sparse:
    one dense int64 array, every term added into its entry."""
    index = {w: i for i, w in enumerate(dst)}
    mat = np.zeros((len(dst), len(src)), dtype=np.int64)
    for j, w in enumerate(src):
        for sign, out in term_fn(w):
            mat[index[out], j] += sign
    return mat


def dense(mat) -> np.ndarray:
    """The int64 array with the entries of a matrix stored by columns."""
    out = np.zeros(mat.shape, dtype=np.int64)
    for j, col in enumerate(mat.columns):
        for i, x in col:
            out[i, j] = x
    return out


def dense_vector(vec, n: int) -> list[int]:
    """The length-n list with the entries of a vector kept as {index:
    value}."""
    out = [0] * n
    for i, x in vec.items():
        out[i] = x
    return out


def rref_mod_p(vectors, p: int):
    """(rows, pivot columns): the reduced row echelon form over F_p of a
    list of equal-length vectors, by plain Gauss-Jordan elimination on a
    copy."""
    rows = [[x % p for x in v] for v in vectors]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        pivots.append(c)
    return rows, pivots


def rank_mod_p(vectors, p: int) -> int:
    """Rank over F_p of a list of equal-length vectors."""
    return len(rref_mod_p(vectors, p)[1])


def first_outside_span(span, candidates, p: int):
    """Index of the first candidate vector outside the F_p-span of `span`,
    by one rank comparison per candidate; None if every one lies inside."""
    base = rank_mod_p(span, p)
    for k, vec in enumerate(candidates):
        if rank_mod_p(list(span) + [vec], p) > base:
            return k
    return None


def span_multiples(span, target, vec, p: int) -> list[int]:
    """Every s in F_p with target - s * vec in the F_p-span of `span`, by
    one rank comparison per s."""
    base = rank_mod_p(span, p)
    return [s for s in range(p)
            if rank_mod_p(list(span) + [[t - s * x for t, x in
                                         zip(target, vec)]], p) == base]


# -- Reference Smith normal form --------------------------------------------
# A verbatim copy of exactalg.smith_normal_form and exactalg.integer_solve
# before their unit-pivot exits and zero skipping, on plain lists of rows,
# with the dense matrix-vector product they used.  The fast paths must give
# the same (d, u, v) and the same solutions.

def dense_apply(rows, vec):
    """rows @ vec, one row at a time."""
    return [sum(a * x for a, x in zip(row, vec)) for row in rows]


def reference_snf(entries, R, C):
    """(d, u, v) as lists of rows, exactly as the original reduction."""
    a = [list(row) for row in entries]
    u = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    v = [[1 if i == j else 0 for j in range(C)] for i in range(C)]

    def row_add(i, j, q):  # row_i += q * row_j
        ai, aj = a[i], a[j]
        for k in range(C):
            ai[k] += q * aj[k]
        ui, uj = u[i], u[j]
        for k in range(R):
            ui[k] += q * uj[k]

    def col_add(j, i, q):  # col_j += q * col_i
        for row in a:
            row[j] += q * row[i]
        for row in v:
            row[j] += q * row[i]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(R, C):
        best = None
        pi = pj = -1
        for i in range(t, R):
            row = a[i]
            for j in range(t, C):
                x = row[j]
                if x:
                    x = -x if x < 0 else x
                    if best is None or x < best:
                        best, pi, pj = x, i, j
        if best is None:
            break
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if a[t][t] < 0:
            row_negate(t)
        while True:
            piv = a[t][t]
            for i in range(t + 1, R):
                q = a[i][t] // piv
                if q:
                    row_add(i, t, -q)
            rem = [i for i in range(t + 1, R) if a[i][t]]
            if rem:
                i = min(rem, key=lambda k: (abs(a[k][t]), k))
                row_swap(t, i)
                if a[t][t] < 0:
                    row_negate(t)
                continue
            for j in range(t + 1, C):
                q = a[t][j] // piv
                if q:
                    col_add(j, t, -q)
            rem = [j for j in range(t + 1, C) if a[t][j]]
            if rem:
                j = min(rem, key=lambda k: (abs(a[t][k]), k))
                col_swap(t, j)
                if a[t][t] < 0:
                    row_negate(t)
                continue
            bad = None
            for i in range(t + 1, R):
                row = a[i]
                for j in range(t + 1, C):
                    if row[j] % piv:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad, 1)  # pulls the offending row up; pivot will shrink
        t += 1
    return a, u, v


class ReferenceSolveError(ArithmeticError):
    pass


def reference_solve(d, u, v, w):
    """Exact solution c of g @ c = w from the reference (d, u, v) of g."""
    y = dense_apply(u, list(w))
    diag = [d[i][i] for i in range(min(len(d), len(v)))]
    z = [0] * len(v)
    for i, yi in enumerate(y):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if yi != 0:
                raise ReferenceSolveError("inconsistent integral system")
            continue
        q, r = divmod(yi, di)
        if r:
            raise ReferenceSolveError("non-exact division in integral solve")
        z[i] = q
    return dense_apply(v, z)


def dense_rows(mat):
    """A matrix stored by columns, read through its shape and its columns
    of (row, value) pairs, as lists of rows."""
    rows, cols = mat.shape
    out = [[0] * cols for _ in range(rows)]
    for j, col in enumerate(mat.columns):
        for i, x in col:
            out[i][j] = x
    return out


def reference_coordinates(basis):
    """The map from vectors to their coordinates in the lattice spanned by
    the columns of basis (a matrix stored by columns), as lists of rows
    with one column per vector: the reference Smith form of the basis and
    one reference solve per vector."""
    R, C = basis.shape
    d, u, v = reference_snf(dense_rows(basis), R, C)

    def coordinates(vectors):
        coords = [reference_solve(d, u, v, w) for w in vectors]
        return [[c[i] for c in coords] for i in range(C)]

    return coordinates


# -- Reference multiply-by-p map -------------------------------------------
# The multiply-by-p map as wittsplit._mul_p_map built it one element at a
# time, before its column blocks and its maps on the divisors D(k): p-1
# additions of coordinate tuples per element.

def mul_p_codes(p: int, ts) -> list[int]:
    """code(p*x) for every x in W_S(F_p), in the order of
    product(range(p), repeat=len(ts)); code(x) reads the coordinates of x
    as base-p digits, first coordinate most significant."""
    codes = []
    for coords in product(range(p), repeat=len(ts)):
        acc = coords
        for _ in range(p - 1):
            acc = _add_coords(ts, acc, coords, p)
        code = 0
        for c in acc:
            code = code * p + c
        codes.append(code)
    return codes


# -- Reference kill rule ------------------------------------------------------
# The spectral engine's kill rule applied one class at a time: a class dies
# under the page's one differential as its source when the target lies on
# the page, and as its target when the source does.

def _killing_page(mode: str, pattern, gen: str, b: int, a: int):
    if gen == pattern.source and (mode == "tate" or b + pattern.t_shift >= 0):
        return pattern.page
    if (gen == pattern.target and a - pattern.x_shift >= 0
            and (mode == "tate" or b - pattern.t_shift >= 0)):
        return pattern.page
    return None


def page_dump_lines(page, pattern, total_degrees):
    """Every dump line ssengine.dump_page should print: per total degree
    and generator g, the classes t^b x^a g with -2b + vertical + 2a =
    total for a from a_min (0, or the least a with b >= 0 in hfp mode)
    through a_min + t_shift + x_shift + 2."""
    width = pattern.t_shift + pattern.x_shift + 2
    for total in total_degrees:
        for gen in page.generators:
            if (total - gen.vertical) % 2:
                continue
            a_min = 0
            if page.mode == "hfp":
                a_min = max(0, (total - gen.vertical) // 2)
            for a in range(a_min, a_min + width + 1):
                b = (gen.vertical + 2 * a - total) // 2
                k = _killing_page(page.mode, pattern, gen.name, b, a)
                state = "survives" if k is None else f"killed-by: d^{k}"
                yield f"{total}: t^{b} x^{a} {gen.name} {state}"
