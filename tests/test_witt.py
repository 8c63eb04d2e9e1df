"""Big Witt vectors: ghost coordinates, ring structure, and the F/V operators.

The ground truth throughout is the ghost map, which is injective over Z, plus
a handful of coordinate identities small enough to check by enumeration.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktrunc import witt
from ktrunc.exactalg import GhostInversionError
from ktrunc.witt import (
    TruncationSet,
    WittVector,
    _add_coords,
    _coords_from_ghost,
    frobenius,
    ghost,
    restrict,
    typical_part,
    verschiebung,
    witt_add,
    witt_mul,
    witt_scalar,
)

BIG6 = TruncationSet.big(6)
BIG8 = TruncationSet.big(8)
MIXED = TruncationSet([1, 2, 3, 4, 6, 12])
ZERO6 = WittVector(BIG6, (0,) * 6)
ONE6 = WittVector(BIG6, (1,) + (0,) * 5)  # [1]: every ghost coordinate is 1

coordinate = st.integers(min_value=-9, max_value=9)


def vectors(ts):
    n = len(ts)
    return st.lists(coordinate, min_size=n, max_size=n).map(
        lambda cs: WittVector(ts, tuple(cs))
    )


class TestTruncationSet:
    def test_big_and_typical(self):
        assert TruncationSet.big(6).elements == (1, 2, 3, 4, 5, 6)
        assert TruncationSet(2**i for i in range(3)).elements == (1, 2, 4)
        assert TruncationSet([1]).elements == (1,)

    def test_divisor_closure_enforced(self):
        with pytest.raises(ValueError, match="divisor-closed"):
            TruncationSet([1, 4])
        with pytest.raises(ValueError, match="positive"):
            TruncationSet([0, 1])

    def test_interning(self):
        assert TruncationSet([3, 1, 2]) is TruncationSet([1, 2, 3])

    def test_interned_sets_are_bounded(self, monkeypatch):
        # a full cache drops its oldest set; one built again is equal
        monkeypatch.setattr(witt, "TRUNCATION_CACHE_SIZE", 3)
        monkeypatch.setattr(TruncationSet, "_cache", {})
        first = TruncationSet.big(1)
        for n in range(2, 6):
            TruncationSet.big(n)
        assert list(TruncationSet._cache) == [(1, 2, 3), (1, 2, 3, 4),
                                              (1, 2, 3, 4, 5)]
        again = TruncationSet.big(1)
        assert again is not first and again == first
        assert len(TruncationSet._cache) == 3

    def test_quotient(self):
        assert TruncationSet.big(12).quotient(2).elements == (1, 2, 3, 4, 5, 6)
        assert MIXED.quotient(3).elements == (1, 2, 4)
        assert MIXED.quotient(5).elements == ()

    def test_position_and_membership(self):
        assert MIXED.position(6) == 4
        assert 6 in MIXED and 5 not in MIXED
        with pytest.raises(KeyError):
            MIXED.position(5)


class TestGhost:
    @given(vectors(BIG8))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, a):
        assert WittVector(BIG8, _coords_from_ghost(BIG8, ghost(a))) == a

    @given(vectors(MIXED))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_mixed_set(self, a):
        assert WittVector(MIXED, _coords_from_ghost(MIXED, ghost(a))) == a

    def test_first_components(self):
        a = WittVector(TruncationSet.big(3), (2, 3, 5))
        # w_1 = a_1, w_2 = a_1^2 + 2 a_2, w_3 = a_1^3 + 3 a_3
        assert ghost(a) == (2, 10, 23)

    def test_off_image_rejected(self):
        with pytest.raises(GhostInversionError,
                           match="^ghost vector not in the image: "
                                 "component 2 off by 1$"):
            _coords_from_ghost(TruncationSet.big(2), (0, 1))

    def test_one_bad_element_in_a_column_rejected(self):
        # w_2 = a_1^2 + 2 a_2: columns hold one component of three vectors,
        # and only the middle one of (1, 2) has no integral preimage
        ts = TruncationSet.big(2)
        good = _coords_from_ghost(ts, (np.array([1, 1, 1]),
                                       np.array([1, 3, 5])))
        assert [c.tolist() for c in good] == [[1, 1, 1], [0, 1, 2]]
        with pytest.raises(GhostInversionError, match="component 2 off by 1"):
            _coords_from_ghost(ts, (np.array([1, 1, 1]),
                                    np.array([1, 2, 5])))

    @given(vectors(BIG8), vectors(BIG8))
    @settings(max_examples=200, deadline=None)
    def test_ring_homomorphism(self, a, b):
        ga, gb = ghost(a), ghost(b)
        assert ghost(witt_add(a, b)) == tuple(x + y for x, y in zip(ga, gb))
        assert ghost(witt_mul(a, b)) == tuple(x * y for x, y in zip(ga, gb))


class TestRingStructure:
    def test_addition_example(self):
        ts = TruncationSet.big(2)
        a = WittVector(ts, (1, 0))
        assert witt_add(a, a).coords == (2, -1)

    def test_addition_example_mod_two(self):
        assert _add_coords(TruncationSet.big(2), (1, 0), (1, 0), 2) == (0, 1)

    @given(vectors(BIG6), vectors(BIG6), vectors(BIG6))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert witt_add(a, b) == witt_add(b, a)
        assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))
        assert witt_mul(a, b) == witt_mul(b, a)
        assert witt_mul(witt_mul(a, b), c) == witt_mul(a, witt_mul(b, c))
        assert witt_mul(a, witt_add(b, c)) == witt_add(
            witt_mul(a, b), witt_mul(a, c)
        )

    @given(vectors(BIG6))
    @settings(max_examples=60, deadline=None)
    def test_units_and_inverses(self, a):
        assert witt_add(a, ZERO6) == a
        assert witt_mul(a, ONE6) == a
        assert witt_add(a, witt_scalar(-1, a)) == ZERO6

    @given(vectors(BIG6), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_scalar_is_repeated_addition(self, a, k):
        acc = ZERO6
        for _ in range(abs(k)):
            acc = witt_add(acc, a)
        if k < 0:
            acc = witt_scalar(-1, acc)
        assert witt_scalar(k, a) == acc

    def test_incompatible_operands_rejected(self):
        a = WittVector(BIG6, (1,) * 6)
        b = WittVector(BIG8, (1,) * 8)
        with pytest.raises(ValueError):
            witt_add(a, b)


class TestModP:
    # Over F_p, Witt addition is _add_coords with its reduction mod p: the
    # addition route A enumerates with.
    def test_w2_f2_is_cyclic_of_order_four(self):
        ts = TruncationSet.big(2)
        g = x = (1, 0)
        orbit = [x]
        while any(x):
            x = _add_coords(ts, x, g, 2)
            orbit.append(x)
        assert len(orbit) == 4
        assert len(set(orbit)) == 4

    def test_group_axioms_by_enumeration(self):
        ts = TruncationSet.big(2)
        all_vecs = list(product(range(2), repeat=len(ts)))

        def add(a, b):
            return _add_coords(ts, a, b, 2)

        for a in all_vecs:
            assert sum(not any(add(a, b)) for b in all_vecs) == 1
            for b in all_vecs:
                assert add(a, b) == add(b, a)
                for c in all_vecs:
                    assert add(add(a, b), c) == add(a, add(b, c))


class TestOperators:
    @given(vectors(BIG6), st.sampled_from([2, 3]))
    @settings(max_examples=80, deadline=None)
    def test_verschiebung_ghost_formula(self, a, e):
        va = verschiebung(e, a)
        target = va.truncation
        ga = ghost(a)
        for n in target.elements:
            want = e * ga[n // e - 1] if n % e == 0 and n // e <= 6 else 0
            assert ghost(va)[target.position(n)] == want

    def test_verschiebung_default_target(self):
        a = WittVector(TruncationSet.big(3), (1, 1, 1))
        va = verschiebung(2, a)
        # divisor closure of {2, 4, 6} brings in 1 and 3
        assert va.truncation.elements == (1, 2, 3, 4, 6)
        assert va.coord(2) == 1 and va.coord(1) == 0 and va.coord(3) == 0

    @given(vectors(BIG6), vectors(BIG6), st.sampled_from([2, 3]))
    @settings(max_examples=80, deadline=None)
    def test_verschiebung_additive(self, a, b, e):
        assert verschiebung(e, witt_add(a, b)) == witt_add(
            verschiebung(e, a), verschiebung(e, b)
        )

    @given(vectors(TruncationSet.big(12)), st.sampled_from([1, 2, 3, 4]))
    @settings(max_examples=80, deadline=None)
    def test_frobenius_ghost_formula(self, a, d):
        fa = frobenius(d, a)
        ga = ghost(a)
        for n in fa.truncation.elements:
            assert ghost(fa)[fa.truncation.position(n)] == ga[d * n - 1]

    @given(vectors(BIG6), st.sampled_from([1, 2, 3, 4]))
    @settings(max_examples=100, deadline=None)
    def test_frobenius_after_verschiebung(self, a, d):
        lhs = restrict(frobenius(d, verschiebung(d, a)), BIG6)
        assert lhs == witt_scalar(d, a)

    @given(st.data(), st.sampled_from([2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_projection_formula(self, data, e):
        # V_e(a) * b = V_e(a * F_e b) with a on S/e and b on S, where V_e
        # lands on the divisor closure of e * (S/e), a subset of S
        big = TruncationSet.big(12)
        quot = big.quotient(e)
        a = data.draw(vectors(quot), label="a")
        b = data.draw(vectors(big), label="b")
        va = verschiebung(e, a)
        lhs = witt_mul(va, restrict(b, va.truncation))
        rhs = verschiebung(e, witt_mul(a, frobenius(e, b)))
        assert lhs == rhs

    def test_typical_part_lands_on_p_powers(self):
        a = WittVector(TruncationSet.big(12), tuple(range(1, 13)))
        t = typical_part(3, 2, a)
        assert t.truncation.elements == (1, 2, 4)
        assert t == restrict(frobenius(3, a), TruncationSet([1, 2, 4]))

    def test_typical_projection_of_verschiebung(self):
        # typical_part(e'd, p, V_e a) = e' * V_{p^u}(typical_part(d, p, a))
        # with e = p^u e', compared on the shared truncation set
        import random

        from ktrunc.exactalg import p_valuation

        rng = random.Random(7)
        for p, e, d in [(2, 12, 1), (2, 12, 3), (2, 2, 1), (2, 6, 5),
                        (3, 3, 1), (3, 9, 2), (3, 6, 1)]:
            u = p_valuation(e, p)
            e_prime = e // p**u
            m = e_prime * d
            for _ in range(5):
                a = WittVector(
                    BIG6, tuple(rng.randrange(-6, 7) for _ in range(6))
                )
                lhs = typical_part(m, p, verschiebung(e, a))
                rhs = witt_scalar(
                    e_prime, verschiebung(p**u, typical_part(d, p, a))
                )
                shared = TruncationSet(
                    set(lhs.truncation.elements) & set(rhs.truncation.elements)
                )
                assert restrict(lhs, shared) == restrict(rhs, shared)

    def test_restrict_requires_subset(self):
        a = WittVector(BIG6, (1, 2, 3, 4, 5, 6))
        with pytest.raises(KeyError):
            restrict(a, BIG8)
