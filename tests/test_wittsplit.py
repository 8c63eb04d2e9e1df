"""The Verschiebung quotient two ways: closed form against brute enumeration.

Frozen expectations below were worked out by hand from the definition of
s(p, bound, d) and the splitting exponents; the brute-force route recomputes
them with no structure theory.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktrunc import wittsplit
from ktrunc.exactalg import GroupStructure, is_prime
from ktrunc.witt import (TruncationSet, WittVector, _coords_from_ghost,
                         _divisors, _ghost_coords, witt_scalar)
from ktrunc.wittsplit import (
    ENUM_CAP,
    INT64_LIMIT,
    MUL_P_BLOCK,
    EnumerationBoundError,
    Int64BoundError,
    SplitParams,
    _addition_bound,
    _mul_p_map,
    _split_e,
    brute_force_quotient,
    h_function,
    predicted_quotient,
    s_function,
)
from oracle_utils import mul_p_codes


class TestSplitParams:
    def test_valuation_split(self):
        # (u, e') with e = p^u e', as h_function reads them
        assert _split_e(2, 1, 12) == (2, 3)
        assert _split_e(3, 1, 9) == (2, 1)
        assert _split_e(5, 2, 6) == (0, 6)

    def test_validation(self):
        with pytest.raises(ValueError, match="not prime"):
            SplitParams(4, 1, 2)
        with pytest.raises(ValueError, match="positive"):
            SplitParams(2, 0, 2)
        with pytest.raises(ValueError, match="positive"):
            SplitParams(2, 1, 0)


class TestSFunction:
    def test_hand_values(self):
        assert s_function(2, 6, 1) == 3  # 1, 2, 4
        assert s_function(2, 6, 5) == 1
        assert s_function(2, 4, 3) == 1
        assert s_function(3, 9, 1) == 3  # 1, 3, 9
        assert s_function(3, 9, 2) == 2  # 2, 6
        assert s_function(7, 6, 7) == 0

    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(1, 200),
        st.integers(1, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_by_enumeration(self, p, bound, d):
        want = sum(1 for v in range(12) if p**v * d <= bound)
        assert s_function(p, bound, d) == want

    @given(st.sampled_from([2, 3]), st.integers(1, 100), st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_bound(self, p, bound, d):
        assert s_function(p, bound, d) <= s_function(p, bound + 1, d)


class TestHFunction:
    def test_hand_values(self):
        # e = 3 is prime to 2, so u = 0 and only multiples of 3 are capped
        assert h_function(2, 2, 3, 1) == 3
        assert h_function(2, 2, 3, 3) == 0
        assert h_function(2, 2, 3, 5) == 1
        # e = 2 = 2^1: everything capped at u = 1
        assert h_function(2, 2, 2, 1) == 1
        assert h_function(2, 2, 2, 3) == 1
        # e = 4 = 2^2
        assert h_function(2, 1, 4, 1) == 2
        assert h_function(2, 1, 4, 3) == 1
        # e = 6 = 2 * 3: cap only at multiples of 3
        assert h_function(2, 1, 6, 1) == 3
        assert h_function(2, 1, 6, 3) == 1
        assert h_function(2, 1, 6, 5) == 1

    def test_rejects_weight_divisible_by_p(self):
        with pytest.raises(ValueError):
            h_function(2, 1, 2, 4)

    def test_rejects_what_split_params_rejects(self):
        # h_function splits e itself, with SplitParams' checks and errors
        with pytest.raises(ValueError, match="p = 4 is not prime"):
            h_function(4, 1, 2, 1)
        with pytest.raises(ValueError, match="positive"):
            h_function(2, 0, 2, 1)
        with pytest.raises(ValueError, match="positive"):
            h_function(2, 1, 0, 1)

    def test_order_identity(self):
        # sum of exponents over prime-to-p weights is r(e-1) exactly
        for p in (2, 3, 5):
            for e in range(1, 7):
                for r in range(1, 7):
                    total = sum(
                        h_function(p, r, e, m)
                        for m in range(1, r * e + 1)
                        if m % p
                    )
                    assert total == r * (e - 1), (p, e, r)


class TestPredictedQuotient:
    def test_hand_built_groups(self):
        assert predicted_quotient(SplitParams(2, 2, 2)).factors == (2, 2)
        assert predicted_quotient(SplitParams(2, 2, 3)).factors == (2, 8)
        assert predicted_quotient(SplitParams(2, 1, 3)).factors == (4,)
        assert predicted_quotient(SplitParams(3, 1, 3)).factors == (3, 3)
        assert predicted_quotient(SplitParams(5, 1, 5)).factors == (5, 5, 5, 5)
        assert predicted_quotient(SplitParams(2, 3, 2)).factors == (2, 2, 2)
        assert predicted_quotient(SplitParams(2, 1, 4)).factors == (2, 4)
        assert predicted_quotient(SplitParams(2, 1, 6)).factors == (2, 2, 8)

    def test_trivial_at_e_equal_one(self):
        for p, r in [(2, 3), (3, 2), (7, 1)]:
            assert predicted_quotient(SplitParams(p, r, 1)) == \
                GroupStructure(p, ())

    def test_order(self):
        for p, r, e in [(2, 3, 4), (3, 2, 3), (5, 1, 4), (7, 2, 2)]:
            g = predicted_quotient(SplitParams(p, r, e))
            assert g.order() == p ** (r * (e - 1))


class TestBruteForce:
    def test_matches_prediction_on_small_grid(self):
        for p in (2, 3):
            for e in range(1, 5):
                for r in (1, 2):
                    if p ** (r * e) > 1 << 14:
                        continue
                    params = SplitParams(p, r, e)
                    assert brute_force_quotient(
                        params, enum_bound=1 << 14
                    ) == predicted_quotient(params), (p, r, e)

    def test_named_examples(self):
        assert brute_force_quotient(SplitParams(2, 2, 2)).factors == (2, 2)
        assert brute_force_quotient(SplitParams(2, 2, 3)).factors == (2, 8)

    def test_five_typical(self):
        got = brute_force_quotient(SplitParams(5, 1, 5))
        assert got == GroupStructure(5, [1, 1, 1, 1])

    def test_bound_respected(self):
        with pytest.raises(EnumerationBoundError):
            brute_force_quotient(SplitParams(2, 5, 4), enum_bound=1 << 16)
        with pytest.raises(EnumerationBoundError):
            brute_force_quotient(SplitParams(2, 2, 2), enum_bound=8)
        with pytest.raises(EnumerationBoundError, match=str(ENUM_CAP)):
            brute_force_quotient(SplitParams(2, 3, 7), enum_bound=1 << 40)

    def test_bound_message_names_the_size_as_a_power(self):
        # 2^20000 is never built: it would have 6,021 digits, past the
        # default limit on printing an int
        with pytest.raises(EnumerationBoundError) as caught:
            brute_force_quotient(SplitParams(2, 1, 20000))
        assert str(caught.value) == (
            "|W_20000(F_2)| = 2^20000 exceeds enum_bound = 65536")


@pytest.fixture
def fresh_mul_p_cache():
    _mul_p_map.cache_clear()
    yield
    _mul_p_map.cache_clear()


def _largest_n_under_the_cap(p):
    n = 1
    while p ** (n + 1) <= ENUM_CAP:
        n += 1
    return n


class TestMulPMap:
    # (101, 2) builds its map on D(2) in three blocks, and (31, 3) builds
    # its map in eight.  D(12) and D(8) are not W_n, so they are built
    # directly by double-and-add, D(12) with gaps in its indices.
    @pytest.mark.parametrize("p, ts", [
        pytest.param(p, TruncationSet.big(n), id=f"{p}-{n}")
        for p, n in [(2, 6), (3, 4), (5, 3), (101, 2), (31, 3)]] + [
        pytest.param(p, TruncationSet(_divisors(k)), id=f"{p}-D{k}")
        for p, k in [(3, 12), (5, 8)]])
    def test_codes_agree_with_one_ghost_scaling(self, p, ts):
        # code(x) reads the coordinates of x as base-p digits, first
        # coordinate most significant; witt_scalar computes p*x in one
        # ghost scaling on all of W_S(Z), with no smaller maps and no
        # additions.
        n = len(ts)
        mul_p = _mul_p_map(p, ts)
        assert not mul_p.flags.writeable
        assert len(mul_p) == p ** n
        for code, x in enumerate(product(range(p), repeat=n)):
            got = int(mul_p[code])
            digits = tuple(got // p ** (n - 1 - i) % p for i in range(n))
            want = witt_scalar(p, WittVector(ts, x)).coords
            assert digits == tuple(c % p for c in want), x

    def test_one_map_per_p_and_re(self, fresh_mul_p_cache):
        assert _mul_p_map.cache_info().maxsize is not None
        for r, e in [(2, 4), (4, 2), (8, 1)]:
            params = SplitParams(2, r, e)
            assert brute_force_quotient(params) == predicted_quotient(params)
        # W_8(F_2) is built on W_7(F_2) and D(8), and so on down to W_2,
        # which is D(2): one map per prefix W_8 .. W_2 and one per D(3) ..
        # D(8).  W_1 is never built.
        assert _mul_p_map.cache_info().misses == 7 + 6
        _mul_p_map(2, TruncationSet.big(4))
        assert _mul_p_map.cache_info().misses == 7 + 6

    # (2, 14) is built in four blocks.
    @pytest.mark.parametrize("p, n", [(2, 14), (31, 3), (101, 2)])
    def test_map_extends_the_map_on_the_prefix(self, p, n):
        # Dropping the last coordinate is a ring map, so the leading digits
        # of code(p*x) are the map one size down at x's leading digits; the
        # last digit is coordinate n of p*x, from one ghost scaling.
        ts = TruncationSet.big(n)
        mul_p = _mul_p_map(p, ts)
        prefix = _mul_p_map(p, TruncationSet.big(n - 1))
        codes = np.arange(p ** n)
        assert (mul_p // p == prefix[codes // p]).all()
        last = [witt_scalar(p, WittVector(ts, x)).coords[-1] % p
                for x in product(range(p), repeat=n)]
        assert (mul_p % p).tolist() == last

    # Maps on D(k) of 1, 1, 29 and 255 blocks.
    @pytest.mark.parametrize("p, k", [(2, 12), (3, 12), (7, 12), (1021, 2)])
    def test_each_table_block_doubles_and_adds(self, p, k, monkeypatch):
        add, calls = wittsplit._add_coords, []

        def counting(*args):
            calls.append(len(args[1][0]))  # the codes in this block
            return add(*args)

        monkeypatch.setattr(wittsplit, "_add_coords", counting)
        mul_p = _mul_p_map.__wrapped__(p, TruncationSet(_divisors(k)))
        size = p ** len(_divisors(k))
        blocks = -(-size // MUL_P_BLOCK)
        per_block = p.bit_length() - 1 + bin(p).count("1") - 1
        assert len(mul_p) == size and mul_p.dtype == np.int32
        assert len(calls) == blocks * per_block
        assert sum(calls) == size * per_block

    # The oracle makes p^n (p-1) additions one element at a time, which
    # limits the primes; the grids of route A use p <= 7.
    @pytest.mark.parametrize("p, n", [
        (p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(1, 13)
        if p ** n <= MUL_P_BLOCK])
    def test_blocks_match_one_element_at_a_time(self, p, n):
        ts = TruncationSet.big(n)
        assert _mul_p_map.__wrapped__(p, ts).tolist() == mul_p_codes(p, ts)

    def test_several_blocks_match_one_element_at_a_time(self):
        ts = TruncationSet.big(14)
        assert 2 ** 14 > 2 * MUL_P_BLOCK
        assert _mul_p_map.__wrapped__(2, ts).tolist() == mul_p_codes(2, ts)

    def test_int64_bound_holds_up_to_the_cap(self):
        for p in filter(is_prime, range(2, 1025)):
            n = _largest_n_under_the_cap(p)
            assert _addition_bound(p, TruncationSet.big(n)) < INT64_LIMIT, p

    def test_every_table_is_within_the_map_bound(self):
        # _mul_p_map checks the bound of ts alone before building the maps
        # on the divisors D(k) of each k in ts.
        for p in filter(is_prime, range(2, 1025)):
            n = _largest_n_under_the_cap(p)
            bound = _addition_bound(p, TruncationSet.big(n))
            for k in range(1, n + 1):
                assert _addition_bound(
                    p, TruncationSet(_divisors(k))) <= bound, (p, k)

    @pytest.mark.parametrize("p, n", [(2, 7), (3, 4), (5, 3)])
    def test_bound_covers_every_sum(self, p, n):
        # Over all pairs x, y in W_S(F_p) at once: every ghost component of
        # x + y, and every term d * a_d^(n/d) its inversion subtracts and
        # every partial sum left, lies within the bound.
        ts = TruncationSet.big(n)
        pairs = np.array(list(product(range(p), repeat=2 * n))).T
        ghost = tuple(a + b for a, b in zip(_ghost_coords(ts, pairs[:n]),
                                            _ghost_coords(ts, pairs[n:])))
        coords = _coords_from_ghost(ts, ghost)
        seen = []
        for acc, terms in zip(ghost, ts._ghost_terms):
            seen.append(acc)
            for pos, d, e in terms[:-1]:
                term = d * coords[pos] ** e
                acc = acc - term
                seen += [term, acc]
        assert 0 < np.abs(np.array(seen)).max() <= _addition_bound(p, ts)

    def test_refuses_a_build_past_int64(self, fresh_mul_p_cache):
        # W_54(F_2) is the first big Witt ring over F_2 whose bound reaches
        # 2^62; the refusal comes before any smaller map is built.
        assert _addition_bound(2, TruncationSet.big(53)) < INT64_LIMIT
        with pytest.raises(Int64BoundError):
            _mul_p_map.__wrapped__(2, TruncationSet.big(54))
        assert _mul_p_map.cache_info().currsize == 0
