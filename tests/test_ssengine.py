"""Symbolic spectral sequence pages: shapes, patterns, kill logic, and the
closed-form survivor counts they must reproduce."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktrunc.exactalg import p_valuation
from ktrunc.ssengine import (
    BigradedPage,
    DifferentialPattern,
    Generator,
    PageClass,
    PageShapeError,
    PatternMismatchError,
    UnboundedPageError,
    build_e2,
    closed_form,
    dump_page,
    run_to_einfty,
    standard_patterns,
)
from oracle_utils import page_dump_lines, valuation_by_division

DEGREES = range(-6, 8)
ORACLE_DEGREES = range(-20, 21)
MODES = ("tate", "hfp")


def survivor_counts(p, e, m, mode):
    page = build_e2(e, m, p, mode)
    surv = run_to_einfty(page, standard_patterns(page), DEGREES)
    return {t: len(classes) for t, classes in surv.items()}


class TestValuation:
    def test_values(self):
        assert p_valuation(12, 2) == 2
        assert p_valuation(12, 3) == 1
        assert p_valuation(7, 2) == 0
        with pytest.raises(ValueError):
            p_valuation(0, 2)

    @given(st.one_of(st.just(2), st.integers(3, 101)), st.integers(0, 40),
           st.integers(-10 ** 6, 10 ** 6).filter(bool))
    @settings(max_examples=300, deadline=None)
    def test_matches_repeated_division(self, p, v, k):
        n = p ** v * k
        assert p_valuation(n, p) == valuation_by_division(n, p)


class TestPageConstruction:
    def test_y_z_shape(self):
        page = build_e2(2, 1, 2, "tate")
        assert page.generators == (Generator("y", 0), Generator("z", 1))
        assert page.d2_scalar == 1

    def test_z_w_shape(self):
        page = build_e2(2, 2, 2, "hfp")
        assert page.generators == (Generator("z", 1), Generator("w", 2))
        assert page.d2_scalar == 0
        deeper = build_e2(2, 4, 2, "tate")
        assert deeper.generators == (Generator("z", 3), Generator("w", 4))

    def test_empty_shape(self):
        page = build_e2(3, 3, 2, "tate")
        assert page.generators == ()
        assert standard_patterns(page) is None

    def test_mode_checked(self):
        with pytest.raises(ValueError, match="unknown mode"):
            BigradedPage("weird", 2, 2, 1, (), None)

    def test_generator_lookup(self):
        page = build_e2(2, 1, 2, "tate")
        assert page.generator("y").vertical == 0
        with pytest.raises(KeyError):
            page.generator("q")


class TestPatterns:
    def test_standard_pattern_families(self):
        # e does not divide m, v = 0: the Connes d^2
        pat = standard_patterns(build_e2(2, 1, 2, "tate"))
        assert (pat.page, pat.t_shift, pat.x_shift) == (2, 1, 0)
        assert (pat.source, pat.target) == ("y", "z")
        # e does not divide m, v = 2: one long differential off y
        pat = standard_patterns(build_e2(3, 4, 2, "tate"))
        assert (pat.page, pat.t_shift, pat.x_shift) == (6, 3, 2)
        # e divides m, u = 1: differential off w
        pat = standard_patterns(build_e2(2, 2, 2, "tate"))
        assert (pat.page, pat.source, pat.target) == (2, "w", "z")
        assert (pat.t_shift, pat.x_shift) == (1, 1)

    def test_bidegree_bookkeeping_enforced(self):
        page = build_e2(2, 1, 2, "tate")
        with pytest.raises(PatternMismatchError, match="bidegree"):
            DifferentialPattern(2, "y", "z", 0, 1).validate(page)
        with pytest.raises(PatternMismatchError, match="nonnegative"):
            DifferentialPattern(-2, "y", "z", -1, -2).validate(page)

    def test_inconsistent_pages_rejected(self):
        yz = (Generator("y", 0), Generator("z", 1))
        # weight prime to p needs a nonzero d2
        with pytest.raises(PatternMismatchError, match="nonzero"):
            standard_patterns(BigradedPage("tate", 2, 3, 1, yz, 0))
        # weight divisible by p cannot carry one
        with pytest.raises(PatternMismatchError, match="cannot"):
            standard_patterns(BigradedPage("tate", 2, 3, 2, yz, 1))
        zw = (Generator("z", 1), Generator("w", 2))
        # (z, w) shape needs p | e, and B vanishing mod p
        with pytest.raises(PatternMismatchError, match="divisible"):
            standard_patterns(BigradedPage("tate", 3, 2, 2, zw, None))
        with pytest.raises(PatternMismatchError, match=r"\(z, w\) page"):
            standard_patterns(BigradedPage("tate", 2, 2, 2, zw, 1))
        with pytest.raises(PageShapeError):
            standard_patterns(
                BigradedPage("tate", 2, 2, 1, (Generator("q", 0),), None)
            )

    def test_run_validates_patterns(self):
        page = build_e2(2, 1, 2, "tate")
        for bad, match in (
                (DifferentialPattern(3, "y", "z", 1, 0), "bidegree"),
                # a generator the page does not have
                (DifferentialPattern(2, "w", "z", 1, 0),
                 r"generator 'w', not among the page's \['y', 'z'\]")):
            with pytest.raises(PatternMismatchError, match=match):
                run_to_einfty(page, bad, [1])


class TestKillLogic:
    def test_tate_clears_unit_weight(self):
        counts = survivor_counts(2, 2, 1, "tate")
        assert all(c == 0 for c in counts.values())

    def test_hfp_unit_weight_survivors(self):
        page = build_e2(2, 1, 2, "hfp")
        surv = run_to_einfty(page, standard_patterns(page), DEGREES)
        assert surv[1] == (PageClass(0, 0, "z"),)
        assert surv[3] == (PageClass(0, 1, "z"),)
        assert surv[-1] == ()
        assert all(not surv[t] for t in DEGREES if t % 2 == 0)

    def test_torsion_weight_survivors(self):
        # e = 2 divides m = 2: one class per odd degree in both modes
        for mode in ("tate", "hfp"):
            counts = survivor_counts(2, 2, 2, mode)
            for t, c in counts.items():
                assert c == (1 if t % 2 else 0), (mode, t)

    def test_counts_match_closed_form(self):
        for p in (2, 3):
            for e in (2, 3):
                for m in range(1, 9):
                    for mode in ("tate", "hfp"):
                        counts = survivor_counts(p, e, m, mode)
                        for t in DEGREES:
                            if t % 2 == 0:
                                assert counts[t] == 0
                                continue
                            tower = closed_form(p, e, m, (t - 1) // 2)
                            want = (
                                tower.tp_length
                                if mode == "tate"
                                else tower.tcminus_length
                            )
                            assert counts[t] == want, (p, e, m, mode, t)

    def test_uncovered_generator_raises(self):
        page = BigradedPage("tate", 2, 2, 1, (Generator("q", 0),), None)
        with pytest.raises(UnboundedPageError,
                           match=r"no differential on \['q'\]"):
            run_to_einfty(page, None, [0])
        # a generator the differential does not touch
        page = BigradedPage("tate", 2, 3, 1, (Generator("y", 0),
                                              Generator("z", 1),
                                              Generator("q", 2)), 1)
        with pytest.raises(UnboundedPageError,
                           match=r"no differential on \['q'\]"):
            dump_page(page, DifferentialPattern(2, "y", "z", 1, 0), [0])

    def test_empty_page_has_nothing_to_kill(self):
        for mode in MODES:
            page = build_e2(3, 3, 2, mode)
            assert run_to_einfty(page, None, DEGREES) == {
                t: () for t in DEGREES}
            assert dump_page(page, None, DEGREES) == []

    def test_dump_page_format(self):
        page = build_e2(2, 1, 2, "tate")
        lines = dump_page(page, standard_patterns(page), [0, 1])
        assert lines == [
            "0: t^0 x^0 y killed-by: d^2",
            "0: t^1 x^1 y killed-by: d^2",
            "0: t^2 x^2 y killed-by: d^2",
            "0: t^3 x^3 y killed-by: d^2",
            "1: t^0 x^0 z killed-by: d^2",
            "1: t^1 x^1 z killed-by: d^2",
            "1: t^2 x^2 z killed-by: d^2",
            "1: t^3 x^3 z killed-by: d^2",
        ]


def assert_matches_oracle(page, pattern):
    want = list(page_dump_lines(page, pattern, ORACLE_DEGREES))
    assert dump_page(page, pattern, ORACLE_DEGREES) == want
    survivors = run_to_einfty(page, pattern, ORACLE_DEGREES)
    assert [f"{t}: {cls} survives" for t in ORACLE_DEGREES
            for cls in survivors[t]] == [
        line for line in want if line.endswith(" survives")]


class TestKillRuleOracle:
    """run_to_einfty and dump_page against the class-by-class kill rule of
    oracle_utils, on synthetic pages: no bar complex is built."""

    @pytest.mark.parametrize("mode", MODES)
    def test_y_z_pages(self, mode):
        # m = 2^v against p = 2: d^(2v+2)(y) = t (tx)^v z, the Connes d^2
        # when v = 0
        for v in range(4):
            for d in range(5):
                yz = (Generator("y", 2 * d), Generator("z", 2 * d + 1))
                page = BigradedPage(mode, 2, 3, 2 ** v, yz,
                                    1 if v == 0 else 0)
                pattern = standard_patterns(page)
                assert pattern.page == 2 * v + 2
                assert_matches_oracle(page, pattern)

    @pytest.mark.parametrize("mode", MODES)
    def test_z_w_pages(self, mode):
        # e = 2^u against p = 2: d^(2u)(w) = (tx)^u z
        for u in range(1, 4):
            for d in range(5):
                zw = (Generator("z", 2 * d + 1), Generator("w", 2 * d + 2))
                page = BigradedPage(mode, 2, 2 ** u, 2 ** u, zw, None)
                pattern = standard_patterns(page)
                assert pattern.page == 2 * u
                assert_matches_oracle(page, pattern)


class TestClosedForm:
    def test_frozen_values(self):
        assert closed_form(2, 2, 2, 1).tp_length == 1
        assert closed_form(2, 2, 2, 1).tcminus_length == 1
        # weight 1, v = 0: nothing on the Tate side, one class once r >= 0
        assert closed_form(2, 2, 1, 0).tp_length == 0
        assert closed_form(2, 2, 1, 0).tcminus_length == 1
        assert closed_form(2, 2, 1, -1).tcminus_length == 0
        # m = 9 = 3^2 against e = 2: v = 2, depth d = 4
        assert closed_form(3, 2, 9, 5).tp_length == 2
        assert closed_form(3, 2, 9, 5).tcminus_length == 3
        assert closed_form(3, 2, 9, 3).tcminus_length == 2
        # e | m cases: both lengths equal the valuation of e
        assert closed_form(2, 3, 6, 4).tp_length == 0
        assert closed_form(2, 6, 6, 4).tp_length == 1
        assert closed_form(2, 6, 6, 4).tcminus_length == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_form(2, 2, 0, 1)
