"""Integer and mod-p linear algebra, checked against cofactor determinants,
gcd-of-minors invariant factors, and exhaustive kernel enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktrunc.exactalg import (
    GhostInversionError,
    GroupStructure,
    IntMatrix,
    fp_kernel_basis,
    fp_rank,
    fp_rref,
    fp_solve,
    integer_kernel_basis,
    integer_solve,
    is_prime,
    kernel_invariants,
    smith_normal_form,
)
from oracle_utils import det, kernel_by_enumeration, minor_gcd_invariants

entries = st.integers(min_value=-9, max_value=9)


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


class TestGroupStructure:
    def test_factors_sorted_and_rendered(self):
        g = GroupStructure([8, 2])
        assert g.factors == (2, 8)
        assert str(g) == "Z/2 x Z/8"
        assert g.order() == 16

    def test_trivial(self):
        assert str(GroupStructure.trivial()) == "0"
        assert GroupStructure.trivial().is_trivial()
        assert GroupStructure([1, 1]).is_trivial()

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            GroupStructure([12])

    def test_from_prime_exponents_drops_zeros(self):
        g = GroupStructure.from_prime_exponents(2, [0, 3, 0, 1])
        assert g.factors == (2, 8)

    def test_residue_degree_repeats_factors(self):
        g = GroupStructure([4, 2], residue_degree=2)
        assert g.factors == (2, 4)
        assert g.expanded_factors() == (2, 2, 4, 4)
        assert g.order() == 64
        assert g != GroupStructure([4, 2])

    def test_sort_key_is_order_then_prime(self):
        g = GroupStructure([9, 2, 8, 3])
        assert g.factors == (2, 3, 8, 9)


class TestSmithNormalForm:
    @given(int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_decomposition_and_invariants(self, rows):
        m = IntMatrix(rows)
        snf = smith_normal_form(m)
        assert snf.u @ m @ snf.v == snf.d
        assert abs(det([list(r) for r in snf.u.entries])) == 1
        assert abs(det([list(r) for r in snf.v.entries])) == 1
        diag = snf.d.diagonal_entries()
        assert all(x >= 0 for x in diag)
        nz = [x for x in diag if x != 0]
        assert diag[: len(nz)] == nz, "zeros must come last"
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        # off-diagonal entries all vanish
        for i, row in enumerate(snf.d.entries):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0
        assert nz == minor_gcd_invariants(rows)

    def test_deterministic(self):
        m = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        first = smith_normal_form(m)
        second = smith_normal_form(m)
        assert first.d == second.d and first.u == second.u and first.v == second.v

    def test_known_diagonal(self):
        # invariant factors cross-checked by gcds of minors
        rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        diag = smith_normal_form(IntMatrix(rows)).d.diagonal_entries()
        assert diag == minor_gcd_invariants(rows)

    def test_empty_and_zero(self):
        zero = IntMatrix([[0, 0, 0], [0, 0, 0]])
        z = smith_normal_form(zero)
        assert z.rank() == 0
        assert z.d == zero


class TestIntegerSolve:
    @given(int_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_on_solvable_systems(self, rows, data):
        g = IntMatrix(rows)
        c = data.draw(
            st.lists(entries, min_size=g.cols, max_size=g.cols), label="solution"
        )
        w = g.apply(c)
        sol = integer_solve(g, w)
        assert g.apply(sol) == w

    def test_inconsistent_raises(self):
        with pytest.raises(GhostInversionError):
            integer_solve(IntMatrix([[2]]), [1])
        with pytest.raises(GhostInversionError):
            integer_solve(IntMatrix([[0]]), [5])

    @given(int_matrices())
    @settings(max_examples=100, deadline=None)
    def test_kernel_basis_spans_kernel(self, rows):
        m = IntMatrix(rows)
        basis = integer_kernel_basis(m)
        prod = m @ basis
        assert all(x == 0 for row in prod.entries for x in row)
        rank = smith_normal_form(m).rank()
        assert basis.cols == m.cols - rank
        # basis columns are primitive and independent: full rank over Z
        assert smith_normal_form(basis).rank() == basis.cols


prime_powers = st.sampled_from([1, 2, 4, 8, 3, 9, 5])


@st.composite
def cyclic_maps(draw):
    """A well-defined map between small products of cyclic groups."""
    import math

    src = draw(st.lists(prime_powers, min_size=1, max_size=3))
    tgt = draw(st.lists(prime_powers, min_size=1, max_size=3))
    order = 1
    for a in src:
        order *= a
    if order > 1 << 10:
        src = src[:1]
    rows = []
    for b in tgt:
        row = []
        for a in src:
            step = b // math.gcd(b, a)  # smallest legal entry
            row.append(step * draw(st.integers(-3, 3)))
        rows.append(row)
    return IntMatrix(rows), src, tgt


class TestKernelInvariants:
    @given(cyclic_maps())
    @settings(max_examples=120, deadline=None)
    def test_matches_exhaustive_enumeration(self, case):
        relations, src, tgt = case
        got = kernel_invariants(relations, src, tgt)
        want = kernel_by_enumeration(
            [list(r) for r in relations.entries], src, tgt
        )
        assert list(got.expanded_factors()) == want

    def test_identity_and_zero_maps(self):
        ident = IntMatrix([[1, 0], [0, 1]])
        assert kernel_invariants(ident, [4, 9]).is_trivial()
        zero = IntMatrix([[0, 0], [0, 0]])
        assert kernel_invariants(zero, [4, 9]).factors == (4, 9)

    def test_multiplication_by_two_on_z4(self):
        g = kernel_invariants(IntMatrix([[2]]), [4])
        assert g.factors == (2,)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernel_invariants(IntMatrix([[1, 0]]), [4])

    def test_ill_defined_map_rejected(self):
        # 1: Z/2 -> Z/4 is not a group map since 2*1 != 0 in Z/4
        with pytest.raises(ValueError, match="does not define"):
            kernel_invariants(IntMatrix([[1]]), [2], [4])

    def test_nonpositive_modulus_rejected(self):
        with pytest.raises(ValueError):
            kernel_invariants(IntMatrix([[1]]), [0])


small_primes = st.sampled_from([2, 3, 5, 7])


class TestModP:
    @given(int_matrices(), small_primes)
    @settings(max_examples=150, deadline=None)
    def test_rank_nullity_and_kernel(self, rows, p):
        a = np.array(rows, dtype=np.int64)
        basis = fp_kernel_basis(a, p)
        assert not ((a @ basis) % p).any()
        assert fp_rank(a, p) + basis.shape[1] == a.shape[1]
        # rref is idempotent
        r1, piv1 = fp_rref(a, p)
        r2, piv2 = fp_rref(r1, p)
        assert piv1 == piv2 and (r1 == r2).all()

    @given(int_matrices(), small_primes, st.data())
    @settings(max_examples=100, deadline=None)
    def test_solve_roundtrip(self, rows, p, data):
        a = np.array(rows, dtype=np.int64)
        x = data.draw(
            st.lists(entries, min_size=a.shape[1], max_size=a.shape[1]),
            label="solution",
        )
        rhs = (a @ np.array(x, dtype=np.int64)) % p
        sol = fp_solve(a, rhs, p)
        assert sol is not None
        assert not ((a @ sol - rhs) % p).any()

    def test_solve_detects_inconsistency(self):
        a = np.array([[1], [1]], dtype=np.int64)
        assert fp_solve(a, [0, 1], 2) is None
        # exhaustive check over F_2 that no solution exists
        for x in (0, 1):
            assert ((a @ np.array([x])) % 2).tolist() != [0, 1]

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            fp_rank(np.array([[1]]), 4)
