"""Weight components of the cyclic bar complex and their homology.

Basis sizes are checked against generating-function coefficients, the
mixed-complex identities are re-asserted numerically mod p, and homology
is triangulated between the bar route, the two-periodic small complex,
and the closed-form rank table.
"""

import numpy as np
import pytest

from ktrunc.cycbar import (
    ComplexIdentityError,
    HomologySummary,
    d_function,
    generate_complex,
    predicted_homology,
    reduced_homology,
    small_complex_hh,
    weight_words,
)
from oracle_utils import word_count

GRID = [(e, m) for e in (2, 3, 4, 5) for m in range(1, 9)]


class TestWords:
    def test_counts_match_generating_function(self):
        for e, m in GRID:
            for n in range(m + 1):
                assert len(weight_words(e, m, n)) == word_count(e, m, n), (
                    e, m, n)

    def test_normalization_constraints(self):
        for e, m in GRID:
            for n in range(m + 1):
                for w in weight_words(e, m, n):
                    assert len(w) == n + 1
                    assert sum(w) == m
                    assert 0 <= w[0] < e
                    assert all(1 <= x < e for x in w[1:])

    def test_sorted_and_frozen_examples(self):
        assert weight_words(2, 2, 1) == ((1, 1),)
        assert weight_words(2, 2, 2) == ((0, 1, 1),)
        assert weight_words(2, 2, 0) == ()
        # degree-1 weight-3 words for e = 3: head 0 would need interior 3
        assert weight_words(3, 3, 1) == ((1, 2), (2, 1))
        words = weight_words(3, 4, 2)
        assert words == tuple(sorted(words))


class TestComplexStructure:
    def test_d_function(self):
        assert d_function(2, 1) == 0
        assert d_function(2, 2) == 0
        assert d_function(2, 3) == 1
        assert d_function(3, 7) == 2
        with pytest.raises(ValueError):
            d_function(2, 0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            generate_complex(1, 2, 2)
        with pytest.raises(ValueError):
            generate_complex(2, 0, 2)

    def test_identities_hold_mod_p(self):
        for e, m in GRID:
            for p in (2, 3):
                c = generate_complex(e, m, p)
                for n in range(1, m):
                    assert not ((c.boundary[n] @ c.boundary[n + 1]) % p).any()
                for n in range(m - 1):
                    assert not ((c.connes[n + 1] @ c.connes[n]) % p).any()
                for n in range(m + 1):
                    anti = np.zeros((c.dim(n), c.dim(n)), dtype=np.int64)
                    if n < m:
                        anti += c.boundary[n + 1] @ c.connes[n]
                    if n >= 1:
                        anti += c.connes[n - 1] @ c.boundary[n]
                    assert not (anti % p).any()

    def test_boundary_example_weight_two(self):
        # d(0,x,x) = (x,x) - 0 + (x,x): the interior merge hits x^2 = 0,
        # the two surviving faces coincide
        c3 = generate_complex(2, 2, 3)
        assert c3.boundary[2].tolist() == [[2]]
        c2 = generate_complex(2, 2, 2)
        assert not c2.boundary[2].any()

    def test_connes_example_weight_one(self):
        # B(x) = (1, x), a single insertion
        c = generate_complex(2, 1, 2)
        assert c.basis[0] == ((1,),)
        assert c.basis[1] == ((0, 1),)
        assert c.connes[0].tolist() == [[1]]

    def test_connes_example_weight_two(self):
        # B(x, x): the two cyclic rotations coincide and the signs cancel
        # integrally, so the matrix is zero even before reduction
        c = generate_complex(2, 2, 5)
        assert not c.connes[1].any()

    def test_connes_vanishes_on_basepoint_headed_words(self):
        for e, m in [(3, 4), (4, 5)]:
            c = generate_complex(e, m, 2)
            for n in range(m + 1):
                for j, w in enumerate(c.basis[n]):
                    if w[0] == 0 and n < m:
                        assert not c.connes[n][:, j].any(), (e, m, w)

    def test_top_degree_connes_is_empty(self):
        c = generate_complex(3, 5, 2)
        assert c.connes[5].shape == (0, c.dim(5))


class TestHomology:
    def test_three_routes_agree(self):
        for e, m in GRID:
            for p in (2, 3, 5):
                c = generate_complex(e, m, p)
                summary = reduced_homology(c)
                assert summary.ranks == predicted_homology(e, m, p), (e, m, p)
                assert summary.ranks == small_complex_hh(e, m, p), (e, m, p)

    def test_frozen_summaries(self):
        s = reduced_homology(generate_complex(2, 1, 2))
        assert s.ranks == {0: 1, 1: 1}
        assert s.connes_scalar == 1
        assert s.connes_scalar_int in (1, -1)

        s = reduced_homology(generate_complex(2, 2, 2))
        assert s.ranks == {1: 1, 2: 1}
        assert s.connes_scalar == 0
        assert s.connes_scalar_int is None  # torsion case, mod-p route

        s = reduced_homology(generate_complex(3, 3, 2))
        assert s.ranks == {}
        assert s.connes_scalar is None

        s = reduced_homology(generate_complex(2, 4, 2))
        assert s.ranks == {3: 1, 4: 1}
        assert s.connes_scalar == 0

    def test_integral_scalar_is_plus_minus_weight(self):
        for e in (2, 3, 4):
            for m in range(1, 9):
                if m % e == 0:
                    continue
                for p in (2, 3, 5):
                    s = reduced_homology(generate_complex(e, m, p))
                    assert s.connes_scalar_int in (m, -m), (e, m, p)
                    assert s.connes_scalar in (m % p, -m % p)
                    # scalar dies mod p exactly when p divides the weight
                    assert (s.connes_scalar == 0) == (m % p == 0)

    def test_unnormalized_scalar_agrees_up_to_unit(self):
        for e, m, p in [(3, 2, 5), (4, 3, 5), (3, 4, 7), (2, 5, 3)]:
            c = generate_complex(e, m, p)
            quick = reduced_homology(c, integral_scalar=False)
            exact = reduced_homology(c)
            assert quick.connes_scalar_int is None
            assert (quick.connes_scalar == 0) == (exact.connes_scalar == 0)

    def test_small_complex_standalone(self):
        assert small_complex_hh(2, 1, 2) == {0: 1, 1: 1}
        assert small_complex_hh(2, 2, 2) == {1: 1, 2: 1}
        assert small_complex_hh(3, 3, 2) == {}
        assert small_complex_hh(2, 4, 2) == {3: 1, 4: 1}
        assert small_complex_hh(4, 2, 3) == {0: 1, 1: 1}
        assert small_complex_hh(3, 6, 3) == {3: 1, 4: 1}

    def test_summary_is_plain_data(self):
        s = HomologySummary({0: 1, 1: 1}, 1, -1)
        assert s.ranks[0] == 1 and s.connes_scalar == 1

