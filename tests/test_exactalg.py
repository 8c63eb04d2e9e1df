"""Integer and mod-p linear algebra, checked against cofactor determinants,
gcd-of-minors invariant factors, and exhaustive kernel enumeration."""

import signal
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ktrunc import cycbar, exactalg, tcassemble
from ktrunc.cycbar import _integer_complex, _integral_connes_scalar
from ktrunc.exactalg import (
    GhostInversionError,
    GroupStructure,
    SparseIntMatrix,
    fp_kernel_basis,
    fp_rank,
    fp_rref,
    integer_kernel_basis,
    integer_solve,
    is_prime,
    kernel_invariants,
    smith_normal_form,
    unit_pivot_reduction,
)
from oracle_utils import (
    ReferenceSolveError,
    dense,
    dense_apply,
    dense_rows,
    dense_vector,
    det,
    kernel_by_enumeration,
    minor_gcd_invariants,
    rank_mod_p,
    reference_coordinates,
    reference_snf,
    reference_solve,
    rref_mod_p,
)
from oracle_utils import _is_prime as reference_is_prime  # trial division

entries = st.integers(min_value=-9, max_value=9)


def sparse_rows(rows) -> list[dict[int, int]]:
    """The rows of a dense matrix as fp_rank reads them."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def sparse_matrix(rows) -> SparseIntMatrix:
    """A nonempty dense matrix, given by its rows, stored by columns."""
    return SparseIntMatrix(len(rows), [
        tuple((i, x) for i, x in enumerate(col) if x) for col in zip(*rows)])


def dense_product(a, b):
    """a @ b, on lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def diagonal_matrix(d, rows, cols):
    """The rows x cols matrix with diagonal d, as lists of rows."""
    return [[d[i] if i == j else 0 for j in range(cols)]
            for i in range(rows)]


def stored(mat):
    """What a SparseIntMatrix holds, its shape and columns; None stays
    None."""
    return None if mat is None else (mat.shape, mat.columns)


def int_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def test_is_prime_small_values():
    primes = [n for n in range(40) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


class TestPrimality:
    """Miller-Rabin with a table of strong pseudoprimes, against trial
    division."""

    def test_matches_trial_division(self):
        for n in range(-3, 30000):
            assert is_prime(n) == reference_is_prime(n), n

    def test_each_least_strong_pseudoprime_is_composite(self):
        # the least strong pseudoprimes to the first k prime bases, k =
        # 1..12 (OEIS A014233, repeats left out), written here rather than
        # read from the table under test: each passes the bases before it,
        # so is_prime must go on to the next base, past its own bound
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
                  3474749660383, 341550071728321, 3825123056546413051,
                  318665857834031151167461):
            assert not is_prime(n), n
        assert not is_prime((2 ** 31 - 1) * (2 ** 61 - 1))
        for p in (2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 3):
            assert is_prime(p), p

    def test_past_the_exact_range(self):
        # a witness still proves a composite; passing every base does not
        # prove a prime
        assert not is_prime((2 ** 61 - 1) * (2 ** 89 - 1))
        for n in (exactalg.PRIME_TEST_LIMIT, 2 ** 89 - 1):
            with pytest.raises(ValueError, match="exact only below"):
                is_prime(n)

    def test_a_repeat_is_a_cache_hit(self):
        # route C asks about its p twice per weight; an n past the exact
        # range raises every time and is never memoized
        is_prime.cache_clear()
        for _ in range(3):
            assert is_prime(1000003)
        for _ in range(2):
            with pytest.raises(ValueError, match="exact only below"):
                is_prime(exactalg.PRIME_TEST_LIMIT)
        info = is_prime.cache_info()
        assert (info.hits, info.currsize) == (2, 1)
        assert info.maxsize == exactalg.PRIME_CACHE_SIZE

    def test_large_prime_powers(self):
        # the largest prime below PRIME_TEST_LIMIT, found by the exact test
        p = next(q for q in range(exactalg.PRIME_TEST_LIMIT - 2, 0, -2)
                 if is_prime(q))
        g = GroupStructure(p, [3, 1])
        assert (g.p, g.exponents) == (p, (1, 3))
        assert g.factors == (p, p ** 3)
        assert str(g) == f"Z/{p} x Z/{p ** 3}"
        assert g.order() == p ** 4
        with pytest.raises(ValueError, match="exact only below"):
            GroupStructure(2 ** 89 - 1, [1])


class TestGroupStructure:
    def test_factors_sorted_and_rendered(self):
        g = GroupStructure(2, [3, 1])
        assert g.exponents == (1, 3)
        assert g.factors == (2, 8)
        assert str(g) == "Z/2 x Z/8"
        assert repr(g) == "GroupStructure(2, [1, 3])"
        assert g.order() == 16

    def test_trivial(self):
        assert str(GroupStructure(2, ())) == "0"
        assert GroupStructure(2, ()).order() == 1
        assert GroupStructure(3, [0, 0]) == GroupStructure(2, ())

    def test_rejects_composite_p(self):
        for p in (1, 4, 12, 2 ** 61 - 1 + 2, (2 ** 31 - 1) * (2 ** 61 - 1)):
            with pytest.raises(ValueError, match=f"^p = {p} is not prime$"):
                GroupStructure(p, [1])
        with pytest.raises(ValueError, match="^negative exponent -2$"):
            GroupStructure(2, [3, -2])

    def test_zero_exponents_dropped(self):
        g = GroupStructure(2, [0, 3, 0, 1])
        assert g.exponents == (1, 3)
        assert g.factors == (2, 8)


class TestSmithNormalForm:
    @given(int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_decomposition_and_invariants(self, rows):
        m = sparse_matrix(rows)
        snf = smith_normal_form(m)
        u, v = dense_rows(snf.u), dense_rows(snf.v)
        # u @ m @ v is diagonal: its off-diagonal entries all vanish
        assert dense_product(dense_product(u, rows), v) == \
            diagonal_matrix(snf.d, *m.shape)
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = list(snf.d)
        assert len(diag) == min(m.shape)
        assert all(x >= 0 for x in diag)
        nz = [x for x in diag if x != 0]
        assert diag[: len(nz)] == nz, "zeros must come last"
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert nz == minor_gcd_invariants(rows)

    def test_deterministic(self):
        m = sparse_matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        first = smith_normal_form(m)
        second = smith_normal_form(m)
        assert first.d == second.d
        assert stored(first.u) == stored(second.u)
        assert stored(first.v) == stored(second.v)

    def test_known_diagonal(self):
        # invariant factors cross-checked by gcds of minors
        rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        diag = smith_normal_form(sparse_matrix(rows)).d
        assert list(diag) == minor_gcd_invariants(rows)

    def test_empty_and_zero(self):
        zero = sparse_matrix([[0, 0, 0], [0, 0, 0]])
        z = smith_normal_form(zero)
        assert z.rank() == 0
        assert z.d == (0, 0)


@st.composite
def sparse_matrices(draw, max_dim=7):
    """Mostly-zero matrices with unit and non-unit entries, some of whose
    rows and columns are zeroed outright."""
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    values = st.sampled_from([0, 0, 0, 1, -1, 1, 2, -3, 4, 6, -9])
    rows = draw(st.lists(st.lists(values, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    zero_rows = draw(st.sets(st.integers(0, r - 1), max_size=r - 1))
    zero_cols = draw(st.sets(st.integers(0, c - 1), max_size=c - 1))
    return [[0 if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(rows)]


@pytest.fixture
def time_limit():
    """Fail a test that runs past 20 s: a Smith form whose column sweep
    leaves row t nonzero swaps columns forever instead of failing."""
    def expire(signum, frame):
        raise TimeoutError("test did not finish in 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 20)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


class TestFastPathsMatchReference:
    """The unit-pivot exits, zero skipping and v kept by columns change no
    transform."""

    @given(st.one_of(sparse_matrices(), int_matrices()), st.data())
    @settings(max_examples=200, deadline=None)
    def test_transforms_and_solutions_are_the_reference_ones(self, rows,
                                                              data):
        g = sparse_matrix(rows)
        R, C = g.shape
        snf = smith_normal_form(g)
        d, u, v = reference_snf(rows, R, C)
        assert diagonal_matrix(snf.d, R, C) == d
        assert dense_rows(snf.u) == u
        assert dense_rows(snf.v) == v
        small = st.sampled_from([0, 0, 1, -1, 2, -5])
        c = data.draw(st.lists(small, min_size=C, max_size=C),
                      label="solution")
        assert g.apply(c) == dense_apply(rows, c)
        other = data.draw(st.lists(small, min_size=R, max_size=R),
                          label="right-hand side")
        for w in (dense_apply(rows, c), other):
            try:
                want = reference_solve(d, u, v, w)
            except ReferenceSolveError:
                with pytest.raises(GhostInversionError):
                    integer_solve(g, w)
            else:
                assert integer_solve(g, w) == want

    @pytest.mark.parametrize("e, m", [(4, 8), (5, 9)])
    def test_bar_complex_boundaries(self, e, m, time_limit):
        _, boundary, _ = _integer_complex(e, m)
        for b in boundary:
            self.assert_reference_snf(b)

    def test_connes_scalar_smith_forms(self, monkeypatch, time_limit):
        """Every matrix the integral Connes scalar at (e, m) = (3, 7) puts
        through the Smith form: for each of the two degrees, the boundary
        out of it (keeping the inverse of v, which gives the kernel
        coordinates, and v too, the kernel basis, in the lower degree
        only) and the presentation of its homology (keeping u, whose row
        phi it reads); in the lower degree only, the functional phi that
        integer_solve inverts for the generator (keeping u and v).  d is
        the reference one, and so is each transform kept.  The upper
        presentation, the coordinates of the boundaries into the upper
        degree, is the reference one in the reference kernel basis, so the
        dropped v changed no coordinate."""
        seen = []

        def recording_snf(m, **kwargs):
            snf = smith_normal_form(m, **kwargs)
            seen.append((m, snf))
            return snf

        monkeypatch.setattr(exactalg, "smith_normal_form", recording_snf)
        monkeypatch.setattr(cycbar, "smith_normal_form", recording_snf)
        _integral_connes_scalar.__wrapped__(3, 7)
        assert [g.shape for g, _ in seen] == [
            (4, 14), (10, 16), (1, 10), (14, 16), (7, 7)]
        kept = [(snf.u is not None, snf.v is not None,
                 snf.v_inverse is not None) for _, snf in seen]
        assert kept == [(False, True, True), (True, False, False),
                        (True, True, False), (False, False, True),
                        (True, False, False)]
        for g, snf in seen:
            d, u, v = reference_snf(dense_rows(g), *g.shape)
            assert diagonal_matrix(snf.d, *g.shape) == d
            if snf.u is not None:
                assert dense_rows(snf.u) == u
            if snf.v is not None:
                assert dense_rows(snf.v) == v
            if snf.v_inverse is not None:
                # the kept inverse is the inverse of the reference v
                assert dense_product(dense_rows(snf.v_inverse),
                                     v) == identity(g.shape[1])
        (upper, snf), (presentation, _) = seen[3:]
        _, v = reference_snf(dense_rows(upper), *upper.shape)[1:]
        rank = snf.rank()
        kernel = SparseIntMatrix(upper.shape[1], [
            tuple((i, row[j]) for i, row in enumerate(v) if row[j])
            for j in range(rank, upper.shape[1])])
        _, boundary, _ = _integer_complex(3, 7)  # upper degree 5
        assert boundary[5].columns == upper.columns
        into = [dense_vector(dict(col), upper.shape[1])
                for col in boundary[6].columns]
        assert dense_rows(presentation) == \
            reference_coordinates(kernel)(into)

    @staticmethod
    def assert_reference_snf(m: SparseIntMatrix):
        snf = smith_normal_form(m)
        d, u, v = reference_snf(dense_rows(m), *m.shape)
        assert diagonal_matrix(snf.d, *m.shape) == d
        assert dense_rows(snf.u) == u
        assert dense_rows(snf.v) == v
        return v


class TestNoUpdateOfADroppedTransform:
    """A Smith form builds and updates only the transforms it keeps, so no
    update has an empty source."""

    def test_no_update_has_an_empty_source(self, monkeypatch, time_limit):
        original = exactalg._add_multiple

        def guarded(dst, src, q):
            assert src, "an update from an empty vector"
            original(dst, src, q)

        monkeypatch.setattr(exactalg, "_add_multiple", guarded)
        _, boundary, _ = _integer_complex(4, 8)
        for b in boundary:
            for size in range(4):
                for keep in combinations(("u", "v", "v_inverse"), size):
                    smith_normal_form(b, _keep=keep)
        # the five Smith forms test_connes_scalar_smith_forms records
        _integral_connes_scalar.__wrapped__(3, 7)


class TestTransformSelection:
    """A Smith form that keeps only some transforms gives the same d and the
    same kept transforms as one that keeps all three, and None for the
    rest."""

    @given(st.one_of(sparse_matrices(), int_matrices()))
    @settings(max_examples=100, deadline=None)
    def test_every_selection_matches_the_full_form(self, rows):
        m = sparse_matrix(rows)
        full = smith_normal_form(m, _keep=("u", "v", "v_inverse"))
        for size in range(4):
            for keep in combinations(("u", "v", "v_inverse"), size):
                snf = smith_normal_form(m, _keep=keep)
                assert snf.d == full.d
                for name in ("u", "v", "v_inverse"):
                    want = getattr(full, name) if name in keep else None
                    assert stored(getattr(snf, name)) == stored(want), (
                        keep, name)
        default = smith_normal_form(m)
        assert (default.d, stored(default.u), stored(default.v),
                default.v_inverse) == (
            full.d, stored(full.u), stored(full.v), None)


class TestColumnIndex:
    """SparseIntMatrix indexes a matrix by the nonzero entries of each
    column, and its product with a vector reads only those."""

    def test_empty_shapes(self):
        assert SparseIntMatrix(0, [()] * 3).apply([1, 2, 3]) == []
        assert SparseIntMatrix(2, ()).apply([]) == [0, 0]


class TestIntegerSolve:
    @given(int_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_on_solvable_systems(self, rows, data):
        g = sparse_matrix(rows)
        c = data.draw(
            st.lists(entries, min_size=g.shape[1], max_size=g.shape[1]),
            label="solution"
        )
        w = dense_apply(rows, c)
        sol = integer_solve(g, w)
        assert dense_apply(rows, sol) == w

    def test_inconsistent_raises(self):
        with pytest.raises(GhostInversionError):
            integer_solve(sparse_matrix([[2]]), [1])
        with pytest.raises(GhostInversionError):
            integer_solve(sparse_matrix([[0]]), [5])

    @given(int_matrices())
    @settings(max_examples=100, deadline=None)
    def test_kernel_basis_spans_kernel(self, rows):
        m = sparse_matrix(rows)
        basis, _ = integer_kernel_basis(m)
        prod = dense_product(rows, dense_rows(basis))
        assert all(x == 0 for row in prod for x in row)
        rank = smith_normal_form(m).rank()
        assert basis.shape[1] == m.shape[1] - rank
        # basis columns are primitive and independent: full rank over Z
        assert smith_normal_form(basis).rank() == basis.shape[1]


@st.composite
def cyclic_maps(draw):
    """A well-defined map between small products of cyclic p-groups: p,
    the relations and the source and target exponents."""
    p = draw(st.sampled_from([2, 3, 5]))
    exponents = st.lists(st.integers(0, 3), min_size=1, max_size=3)
    src, tgt = draw(exponents), draw(exponents)
    if p ** sum(src) > 1 << 10:
        src = src[:1]
    rows = []
    for b in tgt:
        row = []
        for a in src:
            step = p ** max(b - a, 0)  # smallest legal entry
            row.append(step * draw(st.integers(-3, 3)))
        rows.append(row)
    return sparse_matrix(rows), p, src, tgt


@st.composite
def deficient_matrices(draw, max_dim=6):
    """Matrices with entries in -3..3, some of whose columns are zero and
    some of whose rows and columns repeat others, so the rank often falls
    short of both dimensions."""
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    small = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(small, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    if r > 1:
        for i in draw(st.lists(st.integers(1, r - 1), max_size=2)):
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
    cols = [list(col) for col in zip(*rows)]
    if c > 1:
        for j in draw(st.lists(st.integers(1, c - 1), max_size=2)):
            cols[j] = list(cols[draw(st.integers(0, j - 1))])
    for j in draw(st.sets(st.integers(0, c - 1), max_size=c - 1)):
        cols[j] = [0] * r
    return [list(row) for row in zip(*cols)]


class TestKernelCoordinates:
    """integer_kernel_basis reads kernel coordinates off the inverse of v
    that its Smith form kept; a reference Smith form of the basis and one
    reference solve per vector is the oracle."""

    @staticmethod
    def assert_coordinates(m: SparseIntMatrix, vectors):
        basis, coordinates = integer_kernel_basis(m)
        reference = reference_coordinates(basis)
        snf = smith_normal_form(m, _keep=("v", "v_inverse"))
        assert dense_product(dense_rows(snf.v_inverse),
                             dense_rows(snf.v)) == identity(m.shape[1])
        rows = dense_rows(m)
        for w in vectors:
            if any(dense_apply(rows, w)):
                with pytest.raises(GhostInversionError):
                    coordinates([enumerate(w)])
            else:
                assert dense_rows(coordinates([enumerate(w)])) == \
                    reference([w])
        kernel = [w for w in vectors if not any(dense_apply(rows, w))]
        sparse = [[(i, x) for i, x in enumerate(w) if x] for w in kernel]
        assert dense_rows(coordinates(sparse)) == reference(kernel)
        # without the basis the Smith form keeps the inverse of v alone,
        # and the coordinates are the same
        no_basis, bare = integer_kernel_basis(m, keep_basis=False)
        assert no_basis is None
        assert bare(sparse).shape == coordinates(sparse).shape
        assert dense_rows(bare(sparse)) == reference(kernel)
        for w in vectors:
            if any(dense_apply(rows, w)):
                with pytest.raises(GhostInversionError):
                    bare([enumerate(w)])

    @given(deficient_matrices(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_coordinates(self, rows, data):
        m = sparse_matrix(rows)
        basis, _ = integer_kernel_basis(m)
        small = st.integers(-3, 3)
        coeffs = data.draw(st.lists(
            st.lists(small, min_size=basis.shape[1],
                     max_size=basis.shape[1]),
            max_size=3), label="kernel coefficients")
        others = data.draw(st.lists(
            st.lists(small, min_size=m.shape[1], max_size=m.shape[1]),
            max_size=2), label="other vectors")
        self.assert_coordinates(m, [basis.apply(c) for c in coeffs] + others)

    def test_every_boundary(self):
        """On each boundary of e <= 5, m <= 9: the columns of the boundary
        into the same degree, which are cycles, and the basis words whose
        column is nonzero, which are not."""
        for e in range(2, 6):
            for m in range(1, 10):
                _, boundary, _ = _integer_complex(e, m)
                for n, b in enumerate(boundary):
                    cycles = (dense(boundary[n + 1]).T.tolist()
                              if n + 1 < len(boundary) else [])
                    units = [[int(i == j) for i in range(b.shape[1])]
                             for j, col in enumerate(b.columns) if col]
                    self.assert_coordinates(b, cycles + units)


def assert_stores_no_zero(mat: SparseIntMatrix):
    """Every stored entry is a nonzero int in a row of mat, one per row of
    its column: what the Smith form's row dicts need, since a stored zero
    would become a pivot of absolute value 0."""
    rows = mat.shape[0]
    for col in mat.columns:
        assert all(type(x) is int and x != 0 and 0 <= i < rows
                   for i, x in col), col
        assert len({i for i, _ in col}) == len(col), col


@st.composite
def sparse_mod_p_matrices(draw, max_dim=30):
    """Mostly-zero matrices up to max_dim square, some entries multiples of
    p, plus rows that are combinations of earlier rows, so elimination
    cancels entries and whole rows."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    values = st.sampled_from([0] * 8 + [1, -1, 2, p, p + 1, -3])
    rows = draw(st.lists(st.lists(values, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    for _ in range(draw(st.integers(0, max_dim - r))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(
            st.integers(0, len(rows) - 1))
        f = draw(st.integers(1, p - 1)) if p > 2 else 1
        rows.append([x + f * y for x, y in zip(rows[i], rows[j])])
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[k] for k in order], dtype=np.int64), p


def assert_reduced_mod_p(rows, pivots, kernel, p: int, cols: int):
    """fp_rref rows and fp_kernel_basis vectors hold int residues in
    [1, p), in columns of the matrix; each row's pivot is its first column
    and holds 1, and no other row holds it."""
    for vec in rows + kernel:
        assert all(type(x) is int and 0 < x < p and 0 <= j < cols
                   for j, x in vec.items()), vec
    assert pivots == sorted(set(pivots)) and len(rows) == len(pivots)
    for c, row in zip(pivots, rows):
        assert min(row) == c and row[c] == 1, (c, row)
        assert all(c not in other for other in rows if other is not row), c


class TestNoStoredZeros:
    """Every producer of a SparseIntMatrix stores no zero and no row out of
    range: the Smith form transforms, the kernel basis and its coordinate
    map, the bar complex and the equalizer relations.  The mod-p rows of
    fp_rref and the vectors of fp_kernel_basis hold residues in [1, p)."""

    @given(sparse_mod_p_matrices(max_dim=12))
    @settings(max_examples=100, deadline=None)
    def test_rref_rows_and_kernel_vectors(self, case):
        a, p = case
        rows = a.tolist()
        m = sparse_matrix(rows)
        rank = rank_mod_p(rows, p)
        echelon, pivots = fp_rref(m, p, rank)
        assert_reduced_mod_p(echelon, pivots, fp_kernel_basis(m, p, rank),
                             p, m.shape[1])

    def test_rref_rows_and_kernel_vectors_on_the_zw_pages(self):
        """Every boundary of the complexes of the (z, w) pages with e <= 5,
        m <= 12 and p in {2, 3, 5}, as the kernel reads it and transposed,
        as the image reduction reads it."""
        for e in range(2, 6):
            for p in (2, 3, 5):
                for m in range(e, 13, e):
                    if e % p:
                        continue
                    _, boundary, _ = _integer_complex(e, m)
                    rk = cycbar._boundary_ranks(e, m, p)
                    for n in range(1, m + 1):
                        into = cycbar._boundary_in(boundary, n).transpose()
                        echelon, pivots = fp_rref(into, p, rk[n + 1])
                        assert_reduced_mod_p(echelon, pivots, [], p,
                                             into.shape[1])
                        echelon, pivots = fp_rref(boundary[n], p, rk[n])
                        assert_reduced_mod_p(
                            echelon, pivots,
                            fp_kernel_basis(boundary[n], p, rk[n]), p,
                            boundary[n].shape[1])

    @given(st.one_of(sparse_matrices(), deficient_matrices(),
                     int_matrices()), st.data())
    @settings(max_examples=100, deadline=None)
    def test_smith_transforms_and_kernel_coordinates(self, rows, data):
        m = sparse_matrix(rows)
        snf = smith_normal_form(m, _keep=("u", "v", "v_inverse"))
        basis, coordinates = integer_kernel_basis(m)
        small = st.integers(-3, 3)
        coeffs = data.draw(st.lists(
            st.lists(small, min_size=basis.shape[1],
                     max_size=basis.shape[1]),
            max_size=3), label="kernel coefficients")
        for mat in (snf.u, snf.v, snf.v_inverse, basis,
                    coordinates(enumerate(basis.apply(c)) for c in coeffs)):
            assert_stores_no_zero(mat)

    def test_bar_complex_and_equalizer_relations(self, monkeypatch):
        """The boundaries and Connes maps for e <= 5, m <= 9 and the
        presentation of each homology group in its kernel basis; the
        relations of every tower of the table p in {2, 3, 5}, e <= 8,
        r <= 16; and a kernel vector one of whose coordinates sums to
        zero."""
        _, coordinates = integer_kernel_basis(sparse_matrix([[2, 2, -3]]))
        assert coordinates([enumerate([-2, 2, 0])]).columns == (((0, 2),),)
        for e in range(2, 6):
            for m in range(1, 10):
                _, boundary, connes = _integer_complex(e, m)
                for mat in boundary + connes:
                    assert_stores_no_zero(mat)
                for n, b in enumerate(boundary):
                    _, coordinates = integer_kernel_basis(b)
                    assert_stores_no_zero(coordinates(
                        cycbar._boundary_in(boundary, n).columns))
        relations = []

        def recording_kernel_invariants(mat, *args):
            relations.append(mat)
            return kernel_invariants(mat, *args)

        monkeypatch.setattr(tcassemble, "kernel_invariants",
                            recording_kernel_invariants)
        models = {tcassemble.build_equalizer_model(p, e, r, m_prime)
                  for p in (2, 3, 5) for e in range(2, 9)
                  for r in range(1, 17) for m_prime in range(1, r * e + 1)
                  if m_prime % p}
        for model in models:
            tcassemble.equalizer_kernel.__wrapped__(model)
        assert len(relations) == len(models)
        for mat in relations:
            assert_stores_no_zero(mat)


class TestKernelInvariants:
    @given(cyclic_maps())
    @settings(max_examples=120, deadline=None)
    def test_matches_exhaustive_enumeration(self, case):
        relations, p, src, tgt = case
        got = kernel_invariants(relations, p, src, tgt)
        want = kernel_by_enumeration(dense_rows(relations),
                                     [p ** a for a in src],
                                     [p ** b for b in tgt])
        assert list(got.factors) == want

    def test_identity_and_zero_maps(self):
        ident = sparse_matrix([[1, 0], [0, 1]])
        assert kernel_invariants(ident, 3, [1, 2], [1, 2]) == \
            GroupStructure(3, ())
        zero = sparse_matrix([[0, 0], [0, 0]])
        assert kernel_invariants(zero, 3, [1, 2], [1, 2]).factors == (3, 9)

    def test_multiplication_by_two_on_z4(self):
        g = kernel_invariants(sparse_matrix([[2]]), 2, [2], [2])
        assert g.factors == (2,)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernel_invariants(sparse_matrix([[1, 0]]), 2, [2], [2])

    def test_ill_defined_map_rejected(self):
        # 1: Z/2 -> Z/4 is not a group map since 2*1 != 0 in Z/4
        with pytest.raises(ValueError, match="does not define"):
            kernel_invariants(sparse_matrix([[1]]), 2, [1], [2])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            kernel_invariants(sparse_matrix([[1]]), 2, [-1], [0])

    def test_a_factor_off_the_powers_of_p_raises(self):
        # no map of p-groups has one, so the Smith form of a composite
        # "p" stands in for a fault: 2: Z/36 -> Z/6 leaves the factor 12
        with pytest.raises(GhostInversionError, match="no power of p = 6"):
            kernel_invariants(sparse_matrix([[2]]), 6, [2], [1])

    def test_one_smith_form_per_kernel(self, monkeypatch):
        """One Smith form, n x (n + mm), of the dual map beside diag(a):
        for a map between products of n and mm cyclic groups, and for the
        equalizer kernel of a tower of n stages."""
        shapes = []

        def recording_snf(m, **kwargs):
            shapes.append(m.shape)
            return smith_normal_form(m, **kwargs)

        monkeypatch.setattr(exactalg, "smith_normal_form", recording_snf)
        zero = sparse_matrix([[0, 0], [0, 0], [0, 0]])
        assert kernel_invariants(zero, 3, [1, 2], [0, 1, 3]).factors == (3, 9)
        assert shapes == [(2, 5)]
        model = tcassemble.build_equalizer_model(2, 4, 3, 1)
        n = len(model.source_lengths)
        shapes.clear()
        tcassemble.equalizer_kernel.__wrapped__(model)
        assert shapes == [(n, 2 * n)]


small_primes = st.sampled_from([2, 3, 5, 7])


class TestModP:
    @given(int_matrices(), small_primes)
    @settings(max_examples=150, deadline=None)
    def test_rank_nullity_and_kernel(self, rows, p):
        m = sparse_matrix(rows)
        cols = m.shape[1]
        rank = rank_mod_p(rows, p)
        basis = fp_kernel_basis(m, p, rank)
        for vec in basis:
            assert not any(x % p for x in dense_apply(
                rows, dense_vector(vec, cols)))
        assert fp_rank(sparse_rows(rows), p) + len(basis) == cols
        # fp_rref is the reduced row echelon form, which is unique, so it
        # is idempotent and equals the oracle's nonzero rows
        r1, piv1 = fp_rref(m, p, rank)
        assert fp_rref(exactalg._from_rows(r1, cols), p, rank) == (r1, piv1)
        want, want_pivots = rref_mod_p(rows, p)
        assert piv1 == want_pivots
        assert [dense_vector(row, cols) for row in r1] == want[:rank]
        assert not any(map(any, want[rank:]))
        # the kernel basis is the one that is the identity on the free
        # columns, which the kernel fixes
        free = [c for c in range(cols) if c not in piv1]
        assert [[vec.get(c, 0) for c in free] for vec in basis] == \
            identity(len(free))

    def test_a_rank_past_the_rows_is_refused(self):
        m = sparse_matrix([[1, 2], [2, 4]])
        assert fp_rref(m, 5, 1) == ([{0: 1, 1: 2}], [0])
        with pytest.raises(ValueError, match="rank 1 mod 5, not the 2 given"):
            fp_rref(m, 5, 2)

    def test_no_rows_and_no_columns(self):
        for m in (SparseIntMatrix(0, [()] * 3), SparseIntMatrix(3, ())):
            assert fp_rref(m, 2, 0) == ([], [])
            assert fp_kernel_basis(m, 2, 0) == [
                {j: 1} for j in range(m.shape[1])]

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            fp_rank([{0: 1}], 4)
        with pytest.raises(ValueError):
            fp_rref(sparse_matrix([[1]]), 4, 1)


class TestSparseRank:
    """fp_rank and fp_rref eliminate sparsely; rank_mod_p is the dense
    oracle."""

    @given(sparse_mod_p_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_oracle(self, case):
        a, p = case
        assert fp_rank(sparse_rows(a.tolist()), p) == rank_mod_p(a.tolist(),
                                                                 p)

    @pytest.mark.parametrize("p", [2, 3, 101])
    def test_empty_and_zero_mod_p(self, p):
        for n in (0, 1, 4):
            for a in (np.zeros((0, n), dtype=np.int64),
                      np.zeros((n, 0), dtype=np.int64),
                      np.full((n, n), p, dtype=np.int64),
                      np.array([[p, -p, 0]] * n, dtype=np.int64)
                      .reshape(n, 3)):
                assert fp_rank(sparse_rows(a.tolist()), p) == rank_mod_p(
                    a.tolist(), p) == 0

    def test_matches_rref_pivots_on_every_boundary(self):
        """fp_rref, stopped at the rank fp_rank gives, leaves no row of
        the boundary outside the span of its rows (a remainder against them
        on their pivots is zero), and for m <= 7 its pivots are the
        oracle's."""
        for e in range(2, 6):
            for m in range(1, 11):
                _, boundary, _ = _integer_complex(e, m)
                for p in (2, 3, 5):
                    for n, b in enumerate(boundary):
                        rows = dense(b).tolist()
                        rank = fp_rank(sparse_rows(rows), p)
                        echelon, pivots = fp_rref(b, p, rank)
                        for row in rows:
                            rem = [x % p for x in row]
                            for c, r in zip(pivots, echelon):
                                f = rem[c]
                                for j, x in r.items():
                                    rem[j] = (rem[j] - f * x) % p
                            assert not any(rem), (e, m, p, n)
                        if m <= 7:
                            assert pivots == rref_mod_p(rows, p)[1], (
                                e, m, p, n)

    def test_rejects_large_modulus(self):
        with pytest.raises(ValueError):
            fp_rank([{0: 1}], 1048583)


@st.composite
def unit_pivot_matrices(draw, max_dim=8):
    """Integer matrices with entries in -3..3 of four kinds: any entries,
    mostly zeros, no unit at all (entries 0, +-2, +-3, as in 2 times the
    identity), and a unit-free block beside [[1, 2], [2, 3]], whose second
    row gets its unit only once the first row is eliminated."""
    r, c = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    kind = draw(st.sampled_from(["any", "sparse", "no units", "late"]))
    values = {"any": st.integers(-3, 3),
              "sparse": st.sampled_from([0] * 6 + [1, -1, 2, -2, 3, -3]),
              "no units": st.sampled_from([0, 0, 2, -2, 3, -3]),
              "late": st.sampled_from([0, 0, 2, -2, 3, -3])}[kind]
    rows = draw(st.lists(st.lists(values, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    if kind == "late":
        rows = [[1, 2] + [0] * c, [2, 3] + [0] * c] + [
            [0, 0] + row for row in rows]
    return rows


@st.composite
def two_map_complexes(draw, max_dim=6):
    """(lo, hi), two integer matrices as lists of rows with lo @ hi = 0:
    lo has entries mostly +-1, and hi is the integer kernel basis of lo
    times an integer matrix with entries mostly +-1, so its rows are
    mostly +-1 combinations of kernel vectors."""
    values = st.sampled_from([0, 0, 1, -1, 1, -1, 2, -2, 3])
    r, c = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    lo = draw(st.lists(st.lists(values, min_size=c, max_size=c),
                       min_size=r, max_size=r))
    kernel = dense_rows(integer_kernel_basis(sparse_matrix(lo))[0])
    k, cols = len(kernel[0]), draw(st.integers(1, max_dim))
    mix = draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                        min_size=k, max_size=k))
    hi = dense_product(kernel, mix) if k else [[0] * cols] * c
    return lo, hi


class TestUnitPivotReduction:
    """Unit pivots over Z, then fp_rank of the residual, against the dense
    rank_mod_p for several primes."""

    @given(unit_pivot_matrices())
    @example([[2, 0], [0, 2]])
    @example([[1, 2], [2, 3]])
    @example([[2, 3], [3, 1]])
    @settings(max_examples=300, deadline=None)
    def test_units_plus_residual_rank_is_the_rank_mod_p(self, rows):
        ((pivots, residual),) = unit_pivot_reduction([sparse_matrix(rows)])
        units = len(pivots)
        for row in residual:
            assert row and all(x not in (0, 1, -1) for x in row.values())
        for p in (2, 3, 5, 7):
            assert units + fp_rank(residual, p) == rank_mod_p(rows, p), p

    def test_no_unit_leaves_everything_in_the_residual(self):
        ((pivots, residual),) = unit_pivot_reduction(
            [sparse_matrix([[2, 0], [0, 2]])])
        assert len(pivots) == 0 and residual == ({0: 2}, {1: 2})

    def test_a_unit_that_appears_after_an_elimination_is_used(self):
        # pivot on the 1 of row 0; row 1 becomes [0, -1], a unit
        ((pivots, residual),) = unit_pivot_reduction(
            [sparse_matrix([[1, 2], [2, 3]])])
        assert (len(pivots), residual) == (2, ())

    @given(two_map_complexes())
    @example(([[1, 1]], [[2], [-2]]))
    @example(([[1, -1, 0], [0, 1, -1]], [[1], [1], [1]]))
    @settings(max_examples=300, deadline=None)
    def test_a_complex_is_reduced_without_the_cells_paired_above(
            self, case):
        """The lower map is eliminated without its columns at the pivot
        rows of the upper one, which keeps its rank mod every p because
        lo @ hi = 0 and the pivot block of hi is unimodular; the first
        example has no unit pivot in hi and a residual on both of lo's
        columns."""
        lo, hi = case
        assert not any(map(any, dense_product(lo, hi)))
        reductions = unit_pivot_reduction(
            [sparse_matrix(lo), sparse_matrix(hi)])
        for rows, (pivots, residual) in zip((lo, hi), reductions):
            for p in (2, 3, 5, 7):
                assert len(pivots) + fp_rank(residual, p) == rank_mod_p(
                    rows, p), (rows, p)
