"""Weight components of the cyclic bar complex and their homology.

Basis sizes are checked against generating-function coefficients, the
stored sparse matrices against a dense reference builder, the
mixed-complex identities are re-asserted numerically mod p, and homology
is triangulated between the bar route, the two-periodic small complex,
and the closed-form rank table.
"""

import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ktrunc import cycbar
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
from ktrunc.exactalg import SparseIntMatrix, fp_kernel_basis, fp_rank, fp_rref
from ktrunc.ssengine import build_e2
from oracle_utils import (dense, dense_entries_matrix, dense_vector,
                          first_outside_span, rank_mod_p, span_multiples,
                          word_count, words_by_recursion)

SRC = Path(__file__).resolve().parents[1] / "src"
# (e, m, lambda) for every weight class `hh` admits with e not dividing m,
# written by scripts/lambda_table.py
LAMBDA_TABLE = Path(__file__).resolve().parent / "data" / "lambda_table.csv"
# The (z, w) pages, e | m and p | e, with e <= 5, m <= 12 and p in {2, 3, 5}
ZW_PAGES = [(e, m, p) for e in range(2, 6) for m in range(e, 13, e)
            for p in (2, 3, 5) if e % p == 0]
GRID = [(e, m) for e in (2, 3, 4, 5) for m in range(1, 9)]


def generator(e, m, p, n):
    """The mod-p homology generator of degree n, found as _homology_summary
    finds the lower one of a (z, w) page, with the boundary ranks it
    reads."""
    rk = cycbar._boundary_ranks(e, m, p)
    _, boundary, _ = cycbar._integer_complex(e, m)
    return cycbar._homology_generator(
        boundary[n], p, rk[n], cycbar._image_reduction(e, m, p, n, rk[n + 1]))


class TestWords:
    def test_counts_match_generating_function(self):
        for e, m in GRID:
            for n in range(m + 1):
                assert len(weight_words(e, m, n)) == word_count(e, m, n), (
                    e, m, n)

    def test_counts_without_building_words(self):
        for e in range(2, 9):
            for m in range(1, 13):
                assert cycbar.words_per_degree(e, m) == [
                    word_count(e, m, n) for n in range(m + 1)], (e, m)

    def test_normalization_constraints(self):
        for e, m in GRID:
            for n in range(m + 1):
                for w in weight_words(e, m, n):
                    assert len(w) == n + 1
                    assert sum(w) == m
                    assert 0 <= w[0] < e
                    assert all(1 <= x < e for x in w[1:])

    def test_words_are_the_recursive_enumeration(self):
        for e in range(2, 9):
            for m in range(1, 13):
                for n in range(m + 1):
                    assert weight_words(e, m, n) == words_by_recursion(
                        e, m, n), (e, m, n)

    def test_sorted_and_frozen_examples(self):
        assert weight_words(2, 2, 1) == ((1, 1),)
        assert weight_words(2, 2, 2) == ((0, 1, 1),)
        assert weight_words(2, 2, 0) == ()
        # degree-1 weight-3 words for e = 3: head 0 would need interior 3
        assert weight_words(3, 3, 1) == ((1, 2), (2, 1))
        words = weight_words(3, 4, 2)
        assert words == tuple(sorted(words))


def _flip_first_sign(terms):
    """The same expansion with the sign of its first term flipped."""
    def wrong_sign(*args):
        for i, (sign, out) in enumerate(terms(*args)):
            yield (-sign if i == 0 else sign), out
    return wrong_sign


def _stray_degree_two_term(terms):
    """B plus a term from every degree-1 word to (1, 1, 1), a word whose
    head is not the unit, so that B no longer kills B's image.  Faces are
    untouched, and at e = 3, m = 3 the word lies in the degree-2 basis."""
    def stray(word):
        yield from terms(word)
        if len(word) == 2:
            yield 1, (1, 1, 1)
    return stray


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
            basis, boundary, connes = cycbar._integer_complex(e, m)
            boundary = [dense(b) for b in boundary]
            connes = [dense(b) for b in connes]
            for p in (2, 3):
                for n in range(1, m):
                    assert not ((boundary[n] @ boundary[n + 1]) % p).any()
                for n in range(m - 1):
                    assert not ((connes[n + 1] @ connes[n]) % p).any()
                for n in range(m + 1):
                    dim = len(basis[n])
                    anti = np.zeros((dim, dim), dtype=np.int64)
                    if n < m:
                        anti += boundary[n + 1] @ connes[n]
                    if n >= 1:
                        anti += connes[n - 1] @ boundary[n]
                    assert not (anti % p).any()

    def test_boundary_example_weight_two(self):
        # d(0,x,x) = (x,x) - 0 + (x,x): the interior merge hits x^2 = 0,
        # the two surviving faces coincide, so the entry is 2 over Z for
        # every p and vanishes mod 2
        boundary = dense(cycbar._integer_complex(2, 2)[1][2])
        assert boundary.tolist() == [[2]]
        assert not (boundary % 2).any()

    def test_connes_example_weight_one(self):
        # B(x) = (1, x), a single insertion
        basis, _, connes = cycbar._integer_complex(2, 1)
        assert basis[0] == ((1,),)
        assert basis[1] == ((0, 1),)
        assert dense(connes[0]).tolist() == [[1]]

    def test_connes_example_weight_two(self):
        # B(x, x): the two cyclic rotations coincide and the signs cancel
        # integrally, so the matrix is zero even before reduction
        assert not dense(cycbar._integer_complex(2, 2)[2][1]).any()

    def test_connes_vanishes_on_basepoint_headed_words(self):
        for e, m in [(3, 4), (4, 5)]:
            basis, _, connes = cycbar._integer_complex(e, m)
            for n in range(m + 1):
                for j, w in enumerate(basis[n]):
                    if w[0] == 0 and n < m:
                        assert not dense(connes[n])[:, j].any(), (e, m, w)

    def test_top_degree_connes_is_empty(self):
        basis, _, connes = cycbar._integer_complex(3, 5)
        assert connes[5].shape == (0, len(basis[5]))

    @pytest.mark.parametrize("name, mutate, identity", [
        pytest.param("_face_terms", _flip_first_sign,
                     "boundary squared nonzero at degree 3",
                     id="_face_terms-boundary squared nonzero at degree 3"),
        pytest.param("_connes_terms", _flip_first_sign,
                     "boundary/Connes anticommutator nonzero at degree 1",
                     id="_connes_terms-boundary/Connes anticommutator "
                        "nonzero at degree 1"),
        pytest.param("_connes_terms", _stray_degree_two_term,
                     "Connes squared nonzero at degree 1",
                     id="_connes_terms-Connes squared nonzero at degree 1"),
    ])
    def test_wrong_sign_breaks_an_identity(self, monkeypatch, name, mutate,
                                           identity):
        # each mutation breaks one identity first, in the order they are
        # checked; the unwrapped builder neither reads nor fills the lru
        # cache
        monkeypatch.setattr(cycbar, name, mutate(getattr(cycbar, name)))
        before = cycbar._integer_complex.cache_info()
        with pytest.raises(ComplexIdentityError,
                           match=rf"{identity} \(e=3, m=3\)"):
            cycbar._integer_complex.__wrapped__(3, 3)
        assert cycbar._integer_complex.cache_info() == before


class TestSparseStorage:
    """The stored columns against the dense builder they replaced
    (oracle_utils.dense_entries_matrix), on every map of e <= 5, m <= 9."""

    def test_dense_view_matches_the_reference_builder(self):
        for e in range(2, 6):
            for m in range(1, 10):
                basis, boundary, connes = cycbar._integer_complex(e, m)
                for n in range(m + 1):
                    faces = (dense_entries_matrix(
                        basis[n], basis[n - 1],
                        lambda w: cycbar._face_terms(w, e)) if n
                        else np.zeros((0, len(basis[0])), dtype=np.int64))
                    rotations = (dense_entries_matrix(
                        basis[n], basis[n + 1], cycbar._connes_terms)
                        if n < m
                        else np.zeros((0, len(basis[m])), dtype=np.int64))
                    for got, want in ((boundary[n], faces),
                                      (connes[n], rotations)):
                        assert got.shape == want.shape, (e, m, n)
                        assert got.size == want.size, (e, m, n)
                        assert (dense(got) == want).all(), (e, m, n)
                        assert all(x for col in got.columns for _, x in col)

    def test_builder_result_has_the_shape_and_size_the_tracer_reads(self):
        basis = [weight_words(3, 5, n) for n in (1, 2)]
        mat = cycbar._entries_matrix(basis[1], basis[0],
                                     lambda w: cycbar._face_terms(w, 3))
        assert "{}x{}".format(*mat.shape) == (
            f"{len(basis[0])}x{len(basis[1])}")
        assert mat.size == len(basis[0]) * len(basis[1])

    def test_unit_pivot_ranks_on_every_boundary(self):
        for e in range(2, 6):
            for m in range(1, 10):
                _, boundary, _ = cycbar._integer_complex(e, m)
                reductions = cycbar._boundary_reductions(e, m)
                for n, (b, (pivots, residual)) in enumerate(
                        zip(boundary, reductions)):
                    rows = dense(b).tolist()
                    for p in (2, 3, 5, 7):
                        assert len(pivots) + fp_rank(
                            residual, p) == rank_mod_p(rows, p), (e, m, n, p)

    @staticmethod
    def peak_rss_mb(statement: str) -> float:
        """The peak resident size, VmHWM, of a fresh interpreter that
        imports cycbar and runs statement."""
        code = ("from ktrunc import cycbar\n"
                f"{statement}\n"
                "for line in open('/proc/self/status'):\n"
                "    if line.startswith('VmHWM:'):\n"
                "        print(int(line.split()[1]))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              timeout=300)
        return int(proc.stdout) / 1024

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the peak RSS from /proc")
    def test_weight_fourteen_complex_stays_small(self):
        # e = 7, m = 14: 15,234 words, all homology zero mod 2.  With dense
        # boundaries this peaked at 551 MB; with sparse ones, under 80 MB.
        assert self.peak_rss_mb("cycbar._homology_summary(7, 14, 2)") < 150

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the peak RSS from /proc")
    def test_weight_fourteen_zw_page_stays_small(self):
        # e = 7, m = 14 at p = 7: a (z, w) page, whose generators are found
        # mod p.  With dense numpy eliminations (and numpy imported) this
        # peaked at 70 MB; with sparse rows mod p, at 41 MB, as at p = 2.
        assert self.peak_rss_mb("cycbar._homology_summary(7, 14, 7)") < 55

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the peak RSS from /proc")
    def test_integral_scalar_smith_forms_stay_sparse(self):
        # e = 4, m = 15: the Smith forms behind the scalar peaked at 133 MB
        # with dense transforms, and at 89 MB with dict rows and columns.
        assert self.peak_rss_mb(
            "cycbar._integral_connes_scalar(4, 15)") < 110


class TestSizeBudget:
    def test_every_weight_up_to_fourteen_fits(self):
        for e in range(2, 20):
            for m in range(1, 15):
                assert sum(cycbar.words_per_degree(e, m)) <= \
                    cycbar.WORD_BUDGET, (e, m)
        for e, m in [(6, 14), (7, 14), (4, 15), (2, cycbar.WEIGHT_BUDGET)]:
            cycbar.check_size_budget(e, m)

    @pytest.mark.parametrize("e, m, message", [
        (6, 16, "complex has 53,568 words, past the size budget of 16,384"),
        (3, 19, "reads a degree of 3,718 words, past the size budget of "
                "3,000"),
        (2, 513, "weight 513 is past the size budget of 512"),
        (3, 512, "complex has over 10^9 words"),
    ])
    def test_refused_without_building_a_word(self, monkeypatch, e, m,
                                             message):
        def build_nothing(*args):
            raise AssertionError("words built")

        monkeypatch.setattr(cycbar, "weight_words", build_nothing)
        with pytest.raises(cycbar.ComplexTooLargeError,
                           match=re.escape(message)):
            cycbar.check_size_budget(e, m)


class TestHomology:
    def test_three_routes_agree(self):
        for e, m in GRID:
            for p in (2, 3, 5):
                c = generate_complex(e, m, p)
                summary = reduced_homology(c)
                assert summary.ranks == predicted_homology(e, m, p), (e, m, p)
                assert summary.ranks == small_complex_hh(e, m, p), (e, m, p)

    def test_a_complex_is_only_its_key(self):
        # the matrices live in _integer_complex(e, m), one copy for every
        # p; a memo hit returns the summary computed first
        assert [f.name for f in dataclasses.fields(
            cycbar.NormalizedComplex)] == ["e", "m", "p"]
        assert generate_complex(3, 5, 2) == cycbar.NormalizedComplex(3, 5, 2)
        summary = reduced_homology(generate_complex(3, 5, 2))
        assert reduced_homology(generate_complex(3, 5, 2)) is summary

    def test_a_summary_builds_no_complex(self, monkeypatch):
        # the summary reads the cached matrices by (e, m), on a (y, z) page,
        # a (z, w) page and a page with no homology
        def build_nothing(*args):
            raise AssertionError("generate_complex called")

        monkeypatch.setattr(cycbar, "generate_complex", build_nothing)
        for e, m, p in [(3, 7, 2), (4, 8, 2), (3, 6, 2)]:
            s = cycbar._homology_summary.__wrapped__(e, m, p)
            assert s.ranks == predicted_homology(e, m, p), (e, m, p)
        assert s.ranks == {} and s.connes_scalar is None

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

    def test_integral_connes_scalar_is_plus_minus_weight(self):
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

    def test_integral_connes_scalar_table(self):
        # The integral scalar is +-m; its sign depends on how the generators
        # are oriented and shows in `hh` output mod p, so it is pinned.
        # It is -m at (3, 11), (4, 6), (4, 9) and (5, 12) and +m elsewhere,
        # and -13 at (5, 13), past the grid.
        negative = {(3, 11), (4, 6), (4, 9), (5, 12)}
        for e in range(2, 7):
            for m in range(1, 13):
                if m % e:
                    want = -m if (e, m) in negative else m
                    assert cycbar._integral_connes_scalar(e, m) == want, (
                        e, m)
        assert cycbar._integral_connes_scalar(5, 13) == -13

    @staticmethod
    def lambda_table() -> list[tuple[int, int, int]]:
        with LAMBDA_TABLE.open(newline="") as f:
            return [(int(r["e"]), int(r["m"]), int(r["lambda"]))
                    for r in csv.DictReader(f)]

    def test_integral_connes_scalar_matches_the_committed_table(self):
        # The table pins lambda, sign included, on every weight class `hh`
        # admits.  Tier-1 recomputes the classes whose widest scalar
        # degree holds at most 200 words; scripts/lambda_table.py --check
        # recomputes all of them.
        rows = self.lambda_table()
        assert {(e, m) for e, m, want in rows if want == -m} == {
            (4, 6), (3, 11), (4, 9), (7, 9), (8, 9), (5, 12), (7, 13),
            (8, 13), (9, 13), (10, 13), (11, 13), (5, 13), (3, 16),
            (3, 17), (4, 14), (6, 14)}
        checked = 0
        for e, m, want in rows:
            lo = 2 * d_function(e, m)
            if max(cycbar.words_per_degree(e, m)[max(0, lo - 1):lo + 3]) \
                    <= 200:
                assert cycbar._integral_connes_scalar(e, m) == want, (e, m)
                checked += 1
        assert checked == 291

    def test_criterion_2_on_every_admitted_weight(self):
        # criterion 2 (the scalar is +-m) over the whole space `hh`
        # admits, read off the committed table of lambda, which
        # test_integral_connes_scalar_matches_the_committed_table and
        # scripts/lambda_table.py --check hold to the code
        rows = self.lambda_table()
        assert len(rows) == 330
        assert len({(e, m) for e, m, _ in rows}) == 330
        for e, m, lam in rows:
            assert m % e and abs(lam) == m, (e, m, lam)

    def test_small_complex_on_every_admitted_weight(self):
        # The closed form and the small complex agree on every weight
        # class `hh` admits: the pairs 2 <= e <= m + 1 within the budget
        # (for e > m + 1 the complex is the one at e = m + 1).  Word
        # counts grow with e and with m, so each loop stops at the first
        # count past the budget, as in scripts/lambda_table.py.
        pairs = []
        e = 2
        while sum(cycbar.words_per_degree(e, e - 1)) <= cycbar.WORD_BUDGET:
            for m in range(e - 1, cycbar.WEIGHT_BUDGET + 1):
                if sum(cycbar.words_per_degree(e, m)) > cycbar.WORD_BUDGET:
                    break
                try:
                    cycbar.check_size_budget(e, m)
                except cycbar.ComplexTooLargeError:
                    continue
                pairs.append((e, m))
            e += 1
        assert len(pairs) == 608
        assert sum(1 for e, m in pairs if m % e) == 330
        for e, m in pairs:
            for p in (2, 3, 5, 7):
                assert small_complex_hh(e, m, p) == \
                    predicted_homology(e, m, p), (e, m, p)

    def test_page_scalar_is_the_homology_scalar(self):
        # the grid holds (y, z) pages and (z, w) pages, the latter from
        # e | m with p | e
        shapes = set()
        for e in (2, 3, 4):
            for m in range(1, 9):
                for p in (2, 3, 5):
                    s = reduced_homology(generate_complex(e, m, p))
                    for mode in ("tate", "hfp"):
                        page = build_e2(e, m, p, mode)
                        assert page.d2_scalar == s.connes_scalar, (e, m, p)
                    shapes.add(tuple(g.name for g in page.generators))
        assert shapes == {(), ("y", "z"), ("z", "w")}

    def test_generator_is_the_first_kernel_column_outside_the_boundaries(self):
        shapes = set()
        for e in (2, 3, 4):
            for m in range(1, 8):
                basis, boundary, _ = cycbar._integer_complex(e, m)
                for p in (2, 3):
                    shapes.add(tuple(cycbar._homology_summary(e, m, p).ranks))
                    rk = cycbar._boundary_ranks(e, m, p)
                    for n in range(m + 1):
                        kernel = fp_kernel_basis(boundary[n], p, rk[n])
                        image = dense(cycbar._boundary_in(boundary, n))
                        k = first_outside_span(
                            image.T.tolist(),
                            [dense_vector(v, len(basis[n])) for v in kernel],
                            p)
                        gen = generator(e, m, p, n)
                        if k is None:
                            assert gen is None, (e, m, p, n)
                        else:
                            assert gen == kernel[k], (e, m, p, n)
        # both page shapes: lower class in even and in odd degree
        assert {degs[0] % 2 for degs in shapes if degs} == {0, 1}

    def test_remainder_kills_the_boundaries_and_not_the_generator(self):
        for e, m, p in ZW_PAGES:
            _, boundary, _ = cycbar._integer_complex(e, m)
            degs = sorted(cycbar._homology_summary(e, m, p).ranks)
            assert len(degs) == 2 and degs[0] % 2 == 1, (e, m, p)
            rk = cycbar._boundary_ranks(e, m, p)
            for n in degs:
                image = cycbar._image_reduction(e, m, p, n, rk[n + 1])
                for col in cycbar._boundary_in(boundary, n).columns:
                    assert not cycbar._remainder(image, dict(col), p), (
                        e, m, p, n)
                gen = cycbar._homology_generator(boundary[n], p, rk[n], image)
                rem = cycbar._remainder(image, gen, p)
                assert rem and all(0 < x < p for x in rem.values()), (
                    e, m, p, n)

    def test_image_reduction_is_the_rref_of_the_whole_boundary(
            self, monkeypatch):
        """_image_reduction drops the cells paired with the degree above,
        which keeps the row space of the transposed boundary, so its
        reduced row-echelon form, which is unique, is that of the whole
        transpose; on some page fp_rref is handed fewer rows."""
        handed = []

        def recording(mat, p, rank):
            handed.append(mat.shape[0])
            return fp_rref(mat, p, rank)

        monkeypatch.setattr(cycbar, "fp_rref", recording)
        fewer = False
        for e, m, p in [(e, m, p) for e in range(2, 7)
                        for m in range(e, 13, e) for p in (2, 3, 5)
                        if e % p == 0]:
            _, boundary, _ = cycbar._integer_complex(e, m)
            rk = cycbar._boundary_ranks(e, m, p)
            for n in range(m + 1):
                into = cycbar._boundary_in(boundary, n)
                rows, pivots = fp_rref(into.transpose(), p, rk[n + 1])
                handed.clear()
                assert cycbar._image_reduction(e, m, p, n, rk[n + 1]) == dict(
                    zip(pivots, rows)), (e, m, p, n)
                assert handed[0] <= into.shape[1], (e, m, p, n)
                fewer |= handed[0] < into.shape[1]
        assert fewer

    def test_page_scalar_matches_the_span_oracle(self):
        for e, m, p in ZW_PAGES:
            basis, boundary, connes = cycbar._integer_complex(e, m)
            s = cycbar._homology_summary(e, m, p)
            lo, hi = sorted(s.ranks)
            gen_lo = dense_vector(generator(e, m, p, lo), len(basis[lo]))
            gen_hi = dense_vector(generator(e, m, p, hi), len(basis[hi]))
            img = dense(connes[lo]) @ gen_lo
            boundaries = dense(cycbar._boundary_in(boundary, hi)).T
            assert span_multiples(boundaries.tolist(), img.tolist(),
                                  gen_hi, p) == [s.connes_scalar], (e, m, p)

    @pytest.mark.parametrize("e, m, p", [(2, 2, 2), (3, 6, 3), (4, 8, 2)])
    def test_a_connes_image_off_the_boundaries_raises(self, monkeypatch, e,
                                                      m, p):
        # add the upper generator, a cycle and no boundary mod p, to the
        # Connes column of one word the lower generator holds: B of that
        # generator is then no boundary, which universal coefficients rule
        # out on a (z, w) page
        basis, boundary, connes = cycbar._integer_complex(e, m)
        lo, hi = sorted(cycbar._homology_summary(e, m, p).ranks)
        j = min(generator(e, m, p, lo))
        column = dict(connes[lo].columns[j])
        for i, x in generator(e, m, p, hi).items():
            column[i] = column.get(i, 0) + x
        columns = list(connes[lo].columns)
        columns[j] = tuple(column.items())
        patched = list(connes)
        patched[lo] = SparseIntMatrix(len(basis[hi]), columns)
        monkeypatch.setattr(cycbar, "_integer_complex",
                            lambda *em: (basis, boundary, tuple(patched)))
        with pytest.raises(AssertionError, match=re.escape(
                f"no boundary at (e, m, p) = ({e}, {m}, {p})")):
            cycbar._homology_summary.__wrapped__(e, m, p)

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

