"""Equalizer towers and the assembled odd K-groups, cross-checked against
exhaustive kernel enumeration and the route comparison."""

import random

import pytest

from ktrunc.exactalg import GroupStructure, p_valuation
from ktrunc.tcassemble import (
    EqualizerModel,
    RouteDisagreementError,
    build_equalizer_model,
    cross_check,
    equalizer_kernel,
    group_in_degree,
    tc_groups,
    tc_weight_group,
)
from ktrunc.wittsplit import h_function, s_function
from oracle_utils import kernel_by_enumeration


class TestModelConstruction:
    def test_stage_lengths_from_closed_forms(self):
        # p=2, e=3, r=2, m'=1: weights 1, 2, 4, 8, ... against e = 3
        model = build_equalizer_model(2, 3, 2, 1)
        s = s_function(2, 6, 1)
        assert len(model.source_lengths) == s + 0 + 2 + 1  # depth s+u+2
        assert model.source_lengths == (1, 2, 3, 3, 4, 5)
        assert model.target_lengths == (0, 1, 2, 3, 4, 5)

    def test_full_stage_count_equals_h_exponent(self):
        # stages where the source reaches the full length v + 1 are exactly
        # the ones below the comparison bound, and their count is the
        # h-function exponent
        for p in (2, 3, 5):
            for e in (1, 2, 3, 4, 6):
                for r in (1, 2, 3):
                    for m_prime in range(1, r * e + 1):
                        if m_prime % p == 0:
                            continue
                        model = build_equalizer_model(p, e, r, m_prime)
                        full = sum(
                            1
                            for v, c in enumerate(model.source_lengths)
                            if c == v + 1
                        )
                        assert full == h_function(p, r, e, m_prime), (
                            p, e, r, m_prime)

    def test_validation(self):
        with pytest.raises(ValueError, match="not prime"):
            build_equalizer_model(4, 2, 1, 1)
        with pytest.raises(ValueError, match="prime to p"):
            build_equalizer_model(2, 2, 1, 4)
        with pytest.raises(ValueError, match="positive"):
            build_equalizer_model(2, 2, 0, 1)
        with pytest.raises(ValueError, match="reduction"):
            EqualizerModel(2, (0,), (1,), (1,))
        with pytest.raises(ValueError, match="stage count"):
            EqualizerModel(2, (1, 1), (0, 1), (1,))
        with pytest.raises(ValueError, match="unit"):
            EqualizerModel(2, (1, 1), (0, 1), (1, 2))


class TestEqualizerKernel:
    def test_hand_checked_two_stage_tower(self):
        # alpha_0 in Z/2 free, alpha_1 in Z/2 pinned to alpha_0: kernel Z/2
        model = EqualizerModel(2, (1, 1), (0, 1), (1, 1))
        assert equalizer_kernel(model).factors == (2,)

    def test_matches_exhaustive_enumeration(self):
        # shallow towers keep the exhaustive oracle's search space small;
        # the kernel routine sees the same truncated model
        cases = [
            (2, 3, 1, 1),
            (2, 3, 2, 1),
            (2, 3, 2, 3),
            (2, 2, 2, 1),
            (3, 3, 1, 1),
            (3, 2, 2, 1),
        ]
        for p, e, r, m_prime in cases:
            model = build_equalizer_model(p, e, r, m_prime, depth=3)
            rows = []
            n = len(model.source_lengths)
            for v in range(n):
                row = [0] * n
                row[v] = 1
                if v >= 1:
                    gap = max(
                        0,
                        model.target_lengths[v] - model.source_lengths[v - 1],
                    )
                    row[v - 1] = -model.units[v] * p**gap
                rows.append(row)
            want = kernel_by_enumeration(
                rows,
                [p**c for c in model.source_lengths],
                [p**t for t in model.target_lengths],
            )
            got = equalizer_kernel(model)
            assert list(got.expanded_factors()) == want, (p, e, r, m_prime)

    def test_weight_groups(self):
        assert tc_weight_group(2, 2, 2, 1).factors == (2,)
        assert tc_weight_group(2, 3, 2, 3).is_trivial()
        assert tc_weight_group(2, 3, 2, 1).factors == (8,)

    def test_unit_robustness(self):
        def draw_unit(rng, p):
            while True:
                x = rng.randrange(1, p**6)
                if x % p:
                    return x

        rng = random.Random(11)
        for p, e, r, m_prime in [(2, 3, 2, 1), (3, 3, 2, 2), (2, 4, 3, 3)]:
            base = tc_weight_group(p, e, r, m_prime)
            depth = len(build_equalizer_model(p, e, r, m_prime).source_lengths) - 1
            for _ in range(20):
                units = tuple(draw_unit(rng, p) for _ in range(depth + 1))
                assert tc_weight_group(p, e, r, m_prime, units=units) == base

    def test_truncation_stability(self):
        for p, e, r, m_prime in [(2, 3, 2, 1), (3, 2, 3, 1), (2, 6, 2, 5)]:
            s = s_function(p, r * e, m_prime)
            u = p_valuation(e, p)
            base = tc_weight_group(p, e, r, m_prime, depth=s + u + 2)
            for extra in range(3, 7):
                assert tc_weight_group(p, e, r, m_prime, depth=s + u + extra) == base


class TestAssembledGroups:
    def test_frozen_odd_groups(self):
        assert tc_groups(2, 2, 2).factors == (2, 2)
        assert tc_groups(2, 3, 2).factors == (2, 8)
        assert tc_groups(3, 3, 1).factors == (3, 3)
        assert tc_groups(2, 3, 1).factors == (4,)
        assert tc_groups(2, 6, 1).factors == (2, 2, 8)
        assert tc_groups(3, 6, 1).factors == (3, 3, 3, 9)

    def test_orders(self):
        for p in (2, 3):
            for e in (2, 3, 4):
                for r in (1, 2, 3):
                    assert tc_groups(p, e, r).order() == p ** (r * (e - 1))

    def test_group_in_degree(self):
        assert group_in_degree(2, 3, 3).factors == (2, 8)
        assert group_in_degree(2, 3, 1).factors == (4,)
        assert group_in_degree(2, 3, 4).is_trivial()
        assert group_in_degree(2, 3, 0).is_trivial()
        with pytest.raises(ValueError):
            group_in_degree(2, 3, -1)

    def test_residue_degree_expansion(self):
        g = tc_groups(2, 3, 1, f=2)
        assert g.factors == (4,)
        assert g.expanded_factors() == (4, 4)
        assert g.order() == 16
        assert group_in_degree(2, 3, 0, f=3).residue_degree == 3

    def test_residue_degree_validated(self):
        with pytest.raises(ValueError):
            tc_groups(2, 3, 1, f=0)


class TestCrossCheck:
    def test_all_three_routes_small(self):
        report = cross_check(2, 2, 2)
        assert report.passed
        assert report.brute is not None
        assert report.brute == report.predicted == report.assembled
        assert report.predicted.factors == (2, 2)

    def test_brute_skipped_over_bound(self):
        report = cross_check(2, 3, 6)
        assert report.passed
        assert report.brute is None
        assert report.brute_note is not None
        assert report.predicted == report.assembled

    def test_disagreement_error_carries_both_sides(self):
        err = RouteDisagreementError(
            "demo", GroupStructure([2]), GroupStructure([4])
        )
        assert err.case_analysis.factors == (2,)
        assert err.kernel.factors == (4,)
        assert "demo" in str(err)
