"""Equalizer towers and the assembled K-groups, cross-checked against
exhaustive kernel enumeration and route B."""

import random

import pytest

from ktrunc import checks, tcassemble, wittsplit
from ktrunc.exactalg import GroupStructure, p_valuation
from ktrunc.tcassemble import (
    EQUALIZER_CACHE_SIZE,
    EqualizerModel,
    RouteDisagreementError,
    build_equalizer_model,
    equalizer_kernel,
    group_in_degree,
    tc_weight_group,
)
from ktrunc.wittsplit import (SplitParams, h_function, predicted_quotient,
                              s_function)
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
            assert list(got.factors) == want, (p, e, r, m_prime)

    def test_weight_groups(self):
        assert tc_weight_group(2, 2, 2, 1).factors == (2,)
        assert tc_weight_group(2, 3, 2, 3) == GroupStructure(2, ())
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


@pytest.fixture
def cold_kernel_cache():
    equalizer_kernel.cache_clear()
    yield
    equalizer_kernel.cache_clear()


@pytest.mark.usefixtures("cold_kernel_cache")
class TestKernelMemo:
    def test_cross_check_runs_on_a_hit(self, monkeypatch):
        # warm the cache, then make the case analysis one exponent off
        tc_weight_group(2, 3, 2, 1)
        monkeypatch.setattr(tcassemble, "h_function",
                            lambda *args: h_function(*args) + 1)
        with pytest.raises(RouteDisagreementError) as caught:
            tc_weight_group(2, 3, 2, 1)
        # both sides reach the error as groups, not as raw factor tuples
        assert caught.value.case_analysis == GroupStructure(2, [4])
        assert caught.value.kernel == GroupStructure(2, [3])
        info = equalizer_kernel.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_one_miss_per_distinct_model(self):
        grid = [(p, e, r)
                for p in (2, 3) for e in (2, 3, 4) for r in (1, 2, 3)]
        weights = [(p, e, r, m_prime) for p, e, r in grid
                   for m_prime in range(1, r * e + 1) if m_prime % p]
        models = {build_equalizer_model(*w) for w in weights}
        first = [group_in_degree(p, e, 2 * r - 1) for p, e, r in grid]
        info = equalizer_kernel.cache_info()
        assert info.misses == len(models) < len(weights)
        # weight classes share one lookup per end, not one per weight
        assert info.hits + info.misses < len(weights)
        assert [group_in_degree(p, e, 2 * r - 1)
                for p, e, r in grid] == first
        again = equalizer_kernel.cache_info()
        assert again.misses == info.misses
        assert again.hits == info.hits + info.hits + info.misses

    def test_size_is_bounded(self):
        rng = random.Random(3)
        units = rng.sample(range(1, 1 << 20, 2), EQUALIZER_CACHE_SIZE + 50)
        for u in units:
            model = EqualizerModel(2, (1, 1), (0, 1), (1, u))
            assert equalizer_kernel(model).factors == (2,)
        info = equalizer_kernel.cache_info()
        assert info.maxsize == EQUALIZER_CACHE_SIZE
        assert info.misses == len(units)
        assert info.currsize <= info.maxsize


class TestWeightClasses:
    @staticmethod
    def classes(p, e, r):
        """The m' <= re prime to p, keyed by (s, e' | m')."""
        e_prime = e // p ** p_valuation(e, p)
        classes = {}
        for m_prime in range(1, r * e + 1):
            if m_prime % p:
                key = (s_function(p, r * e, m_prime), m_prime % e_prime == 0)
                classes.setdefault(key, []).append(m_prime)
        return classes

    def test_model_and_h_are_constant_on_each_class(self, monkeypatch):
        # e = 12, 18, 50 have u = 2 and e' > 1
        called = []

        def spy(p, e, r, m_prime):
            called.append(m_prime)
            return tc_weight_group(p, e, r, m_prime)

        monkeypatch.setattr(tcassemble, "tc_weight_group", spy)
        for p in (2, 3, 5):
            for e in (*range(2, 10), p * p * (3 if p == 2 else 2)):
                for r in range(1, 7):
                    classes = self.classes(p, e, r)
                    for key, members in classes.items():
                        models = {build_equalizer_model(p, e, r, m)
                                  for m in members}
                        hs = {h_function(p, r, e, m) for m in members}
                        assert len(models) == len(hs) == 1, (p, e, r, key)
                    # group_in_degree runs each class at its two ends only
                    called.clear()
                    group_in_degree(p, e, 2 * r - 1)
                    assert sorted(called) == sorted(
                        {m for members in classes.values()
                         for m in (members[0], members[-1])}), (p, e, r)

    def test_class_ends_that_differ_raise(self, monkeypatch):
        # p=2, e=5, r=3: the class s=1 with e' = 5 not dividing m' is
        # {9, 11, 13}
        assert self.classes(2, 5, 3)[(1, False)] == [9, 11, 13]
        monkeypatch.setattr(
            tcassemble, "tc_weight_group",
            lambda p, e, r, m_prime: GroupStructure(p, [1 + (m_prime == 13)]))
        with pytest.raises(RouteDisagreementError) as caught:
            group_in_degree(2, 5, 5)
        assert str(caught.value).startswith(
            "class s=1, e'=5 does not divide m' of (p=2, e=5, r=3): "
            "m'=13 against m'=9")
        assert caught.value.case_analysis == GroupStructure(2, [2])
        assert caught.value.kernel == GroupStructure(2, [1])


class TestAssembledGroups:
    def test_frozen_odd_groups(self):
        assert group_in_degree(2, 2, 3).factors == (2, 2)
        assert group_in_degree(2, 3, 3).factors == (2, 8)
        assert group_in_degree(3, 3, 1).factors == (3, 3)
        assert group_in_degree(2, 3, 1).factors == (4,)
        assert group_in_degree(2, 6, 1).factors == (2, 2, 8)
        assert group_in_degree(3, 6, 1).factors == (3, 3, 3, 9)

    def test_orders(self):
        for p in (2, 3):
            for e in (2, 3, 4):
                for r in (1, 2, 3):
                    assert (group_in_degree(p, e, 2 * r - 1).order()
                            == p ** (r * (e - 1)))

    def test_group_in_degree(self):
        assert group_in_degree(2, 3, 3).factors == (2, 8)
        assert group_in_degree(2, 3, 1).factors == (4,)
        assert group_in_degree(2, 3, 4) == GroupStructure(2, ())
        assert group_in_degree(2, 3, 0) == GroupStructure(2, ())
        with pytest.raises(ValueError):
            group_in_degree(2, 3, -1)

    def test_residue_degree_expansion(self):
        g = group_in_degree(2, 3, 1, f=2)
        assert g.factors == (4, 4)
        assert g.order() == 16
        assert group_in_degree(2, 3, 0, f=3) == GroupStructure(2, ())

    def test_residue_degree_repeats_each_factor(self):
        # the F_{p^f} answer is the f-fold product of the f = 1 answer
        for p in (2, 3):
            for e in range(1, 5):
                for d in range(6):
                    once = group_in_degree(p, e, d).factors
                    for f in (1, 2, 3):
                        assert (group_in_degree(p, e, d, f).factors
                                == tuple(sorted(once * f))), (p, e, d, f)

    def test_residue_degree_validated(self):
        with pytest.raises(ValueError):
            group_in_degree(2, 3, 1, f=0)

    def test_route_c_matches_route_b_on_the_kgroups_table_grid(self):
        for p in (2, 3, 5):
            for e in range(2, 9):
                for r in range(1, 17):
                    assert group_in_degree(p, e, 2 * r - 1) == (
                        predicted_quotient(SplitParams(p, r, e))), (p, e, r)


class TestRouteAgreement:
    def test_all_three_routes_small(self):
        (case,) = checks.route_agreement([(2, 2, 2)])
        assert case.passed and case.brute_ran
        assert case.detail == "A=Z/2 x Z/2 B=Z/2 x Z/2 C=Z/2 x Z/2"

    def test_route_a_skipped_over_bound(self):
        (case,) = checks.route_agreement([(2, 3, 6)])
        assert case.passed and not case.brute_ran
        assert case.detail.startswith("A=skipped B=")

    def test_wrong_route_a_fails_the_case(self, monkeypatch):
        monkeypatch.setattr(wittsplit, "brute_force_quotient",
                            lambda params, bound: GroupStructure(2, [1]))
        (case,) = checks.route_agreement([(2, 2, 2)])
        assert not case.passed and case.brute_ran
        assert case.detail.startswith("A=Z/2 B=Z/2 x Z/2 ")

    def test_route_c_disagreement_fails_the_case(self, monkeypatch):
        monkeypatch.setattr(tcassemble, "h_function",
                            lambda *args: h_function(*args) + 1)
        (case,) = checks.route_agreement([(2, 2, 2)])
        assert not case.passed and not case.brute_ran
        assert "equalizer kernel gives" in case.detail


class TestCrossCheck:
    def test_disagreement_error_carries_both_sides(self):
        err = RouteDisagreementError(
            "demo", GroupStructure(2, [1]), GroupStructure(2, [2])
        )
        assert err.case_analysis.factors == (2,)
        assert err.kernel.factors == (4,)
        assert "demo" in str(err)
