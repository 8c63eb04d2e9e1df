"""Exact linear algebra substrate: integer matrices, Smith normal form with
unimodular transforms, kernels of maps between finite cyclic-group products,
and ranks, kernels and solutions over F_p.

All integer work is arbitrary precision and all mod-p work reduces into
[0, p) before touching int64 arrays, so nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class GhostInversionError(ArithmeticError):
    """A division that should be exact was not.  Signals an internal bug."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def p_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _factor_prime_power(n: int) -> tuple[int, int]:
    """Split n as p**k for a single prime p, or raise."""
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        return n, 1
    k = 0
    m = n
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"{n} is not a prime power")
    return p, k


def _split_prime_powers(n: int) -> list[int]:
    """Elementary divisors of Z/n: one prime power per prime dividing n."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                q *= p
                m //= p
            out.append(q)
        p += 1
    if m > 1:
        out.append(m)
    return out


class GroupStructure:
    """A finite abelian group, as its sorted list of prime-power factors.

    Internally each factor is kept as a (prime, exponent) pair and rendered
    as p**h on the way out.  The trivial group has no factors.  The
    residue_degree f repeats every factor f times, which is the effect of
    extending the coefficient field to the degree-f extension; factors()
    stays at the f = 1 level and expanded_factors() applies the repetition.
    """

    __slots__ = ("_pairs", "residue_degree")

    def __init__(self, factors: Iterable[int] = (), residue_degree: int = 1):
        if residue_degree < 1:
            raise ValueError("residue_degree must be >= 1")
        pairs = []
        for f in factors:
            f = int(f)
            if f == 1:
                continue
            pairs.append(_factor_prime_power(f))
        pairs.sort(key=lambda t: (t[0] ** t[1], t[0]))
        self._pairs = tuple(pairs)
        self.residue_degree = int(residue_degree)

    @classmethod
    def from_prime_exponents(cls, p: int, exponents: Iterable[int],
                             residue_degree: int = 1) -> "GroupStructure":
        return cls((p ** h for h in exponents if h > 0), residue_degree)

    @classmethod
    def trivial(cls, residue_degree: int = 1) -> "GroupStructure":
        return cls((), residue_degree)

    @property
    def factors(self) -> tuple[int, ...]:
        return tuple(p ** h for p, h in self._pairs)

    def expanded_factors(self) -> tuple[int, ...]:
        out = []
        for f in self.factors:
            out.extend([f] * self.residue_degree)
        out.sort()
        return tuple(out)

    def order(self) -> int:
        n = 1
        for f in self.expanded_factors():
            n *= f
        return n

    def is_trivial(self) -> bool:
        return not self._pairs

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupStructure):
            return NotImplemented
        return (self._pairs == other._pairs
                and self.residue_degree == other.residue_degree)

    def __hash__(self) -> int:
        return hash((self._pairs, self.residue_degree))

    def __repr__(self) -> str:
        return (f"GroupStructure({list(self.factors)!r}, "
                f"residue_degree={self.residue_degree})")

    def __str__(self) -> str:
        fs = self.expanded_factors()
        if not fs:
            return "0"
        return " x ".join(f"Z/{f}" for f in fs)


class IntMatrix:
    """Dense integer matrix with arbitrary-precision entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]], rows: int | None = None,
                 cols: int | None = None):
        ents = tuple(tuple(int(v) for v in row) for row in entries)
        if ents:
            r, c = len(ents), len(ents[0])
            if any(len(row) != c for row in ents):
                raise ValueError("ragged rows")
        else:
            r, c = 0, 0 if cols is None else cols
        if rows is not None and rows != r:
            raise ValueError("row count mismatch")
        if cols is not None and ents and cols != c:
            raise ValueError("column count mismatch")
        self.rows, self.cols, self.entries = r, c, ents

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == \
               (other.rows, other.cols, other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        bt = list(zip(*other.entries)) if other.entries else []
        out = [[sum(a * b for a, b in zip(row, col)) for col in bt]
               for row in self.entries]
        if self.rows and not bt:
            out = [[] for _ in range(self.rows)]
        m = IntMatrix(out, rows=self.rows, cols=other.cols)
        return m

    def apply(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch in apply")
        return [sum(a * x for a, x in zip(row, vec)) for row in self.entries]

    def diagonal_entries(self) -> list[int]:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]!r})"


@dataclass(frozen=True)
class SNFResult:
    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    def rank(self) -> int:
        return sum(1 for x in self.d.diagonal_entries() if x != 0)


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """Diagonalize m over Z: returns (d, u, v) with u @ m @ v == d,
    u and v unimodular, and d_1 | d_2 | ... on the nonnegative diagonal.

    Pivot choice is the entry of smallest absolute value, ties broken by
    lowest row index then lowest column index, so the reduction is
    deterministic.
    """
    R, C = m.rows, m.cols
    a = [list(row) for row in m.entries]
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

    return SNFResult(IntMatrix(a, rows=R, cols=C),
                     IntMatrix(u, rows=R, cols=R),
                     IntMatrix(v, rows=C, cols=C))


def _solve_integer(snf_g: SNFResult, w: Sequence[int]) -> list[int]:
    """Exact solution c of g @ c = w, via the precomputed SNF of g."""
    d, u, v = snf_g.d, snf_g.u, snf_g.v
    y = u.apply(list(w))
    diag = d.diagonal_entries()
    z = [0] * d.cols
    for i, yi in enumerate(y):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if yi != 0:
                raise GhostInversionError("inconsistent integral system")
            continue
        q, r = divmod(yi, di)
        if r:
            raise GhostInversionError("non-exact division in integral solve")
        z[i] = q
    return v.apply(z)


def integer_kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel lattice of m."""
    snf = smith_normal_form(m)
    rank = snf.rank()
    cols = range(rank, m.cols)
    return IntMatrix([[snf.v[r, c] for c in cols] for r in range(m.cols)],
                     rows=m.cols, cols=m.cols - rank)


def integer_solve(g: IntMatrix, w: Sequence[int],
                  snf_g: SNFResult | None = None) -> list[int]:
    """Exact integer solution of g @ c = w; raises if none exists."""
    if snf_g is None:
        snf_g = smith_normal_form(g)
    return _solve_integer(snf_g, w)


def kernel_invariants(relations: IntMatrix, moduli: Sequence[int],
                      target_moduli: Sequence[int] | None = None) -> GroupStructure:
    """Invariant factors of the kernel of the map

        (+) Z/moduli[j]  -->  (+) Z/target_moduli[i]

    presented by the integer matrix `relations` (rows indexed by the target
    coordinates, columns by the source generators).  When target_moduli is
    omitted the map is an endomorphism of the source product.
    """
    moduli = [int(x) for x in moduli]
    if target_moduli is None:
        target_moduli = list(moduli)
    else:
        target_moduli = [int(x) for x in target_moduli]
    if any(x < 1 for x in moduli) or any(x < 1 for x in target_moduli):
        raise ValueError("moduli must be positive")
    n, mm = len(moduli), len(target_moduli)
    if relations.cols != n or relations.rows != mm:
        raise ValueError(
            f"dimension mismatch: relations is {relations.rows}x{relations.cols}, "
            f"expected {mm}x{n}")
    for i in range(mm):
        bi = target_moduli[i]
        for j in range(n):
            if (relations[i, j] * moduli[j]) % bi:
                raise ValueError(
                    f"relation entry ({i},{j}) does not define a map of "
                    f"cyclic groups")
    if n == 0:
        return GroupStructure.trivial()

    # Lattice L = { x in Z^n : relations @ x = 0 mod target }: kernel of the
    # stacked map [relations | -diag(target)] on Z^(n+mm), projected to the
    # x-block.  The projection is injective because diag(target) is.
    stacked = [list(relations.entries[i]) + [0] * mm for i in range(mm)]
    for i in range(mm):
        stacked[i][n + i] = -target_moduli[i]
    snf = smith_normal_form(IntMatrix(stacked, rows=mm, cols=n + mm))
    rank = snf.rank()
    gens = [[snf.v[r, c] for c in range(rank, n + mm)] for r in range(n)]
    k = n + mm - rank
    if k != n:
        raise GhostInversionError("kernel lattice has unexpected rank")
    g = IntMatrix(gens, rows=n, cols=k)
    snf_g = smith_normal_form(g)

    # Express each relation a_j * e_j of the source product in lattice
    # coordinates; the quotient of Z^k by those columns is the kernel group.
    cols = []
    for j in range(n):
        w = [0] * n
        w[j] = moduli[j]
        cols.append(_solve_integer(snf_g, w))
    c = IntMatrix([[cols[j][i] for j in range(n)] for i in range(k)],
                  rows=k, cols=n)
    diag = smith_normal_form(c).d.diagonal_entries()
    if len([x for x in diag if x != 0]) != k:
        raise GhostInversionError("kernel of a map of finite groups is finite")
    factors: list[int] = []
    for x in diag:
        if x > 1:
            factors.extend(_split_prime_powers(x))
    return GroupStructure(factors)


# ---------------------------------------------------------------------------
# mod-p routines.  Entries are reduced into [0, p) first; with p below 2^20
# the int64 intermediates cannot overflow at the sizes used here.

_P_LIMIT = 1 << 20


def _as_mod_array(mat, p: int) -> np.ndarray:
    return np.mod(np.asarray(mat, dtype=np.int64), p)


def fp_rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over F_p; returns (rref, pivot columns)."""
    if not is_prime(p) or p > _P_LIMIT:
        raise ValueError(f"p = {p} out of range for mod-p reduction")
    a = _as_mod_array(mat, p)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def fp_rank(mat, p: int) -> int:
    return len(fp_rref(mat, p)[1])


def fp_kernel_basis(mat, p: int) -> np.ndarray:
    """Columns form a deterministic basis of the right kernel mod p."""
    a, pivots = fp_rref(mat, p)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for r, pc in enumerate(pivots):
            basis[pc, k] = (-int(a[r, fc])) % p
    return basis

def fp_solve(mat, rhs, p: int) -> np.ndarray | None:
    """One solution of mat @ x = rhs over F_p (free variables at 0), or None."""
    a = _as_mod_array(mat, p)
    b = np.asarray(rhs, dtype=np.int64).reshape(-1, 1) % p
    if b.shape[0] != a.shape[0]:
        raise ValueError("dimension mismatch in solve")
    aug, pivots = fp_rref(np.hstack([a, b]), p)
    if a.shape[1] in pivots:
        return None
    x = np.zeros(a.shape[1], dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = aug[r, -1]
    return x

