"""Command-line behavior: output formats, exit codes, and determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ktrunc import cycbar, tcassemble, wittsplit
from ktrunc.cli import main
from ktrunc.exactalg import PRIME_TEST_LIMIT, GroupStructure
from ktrunc.wittsplit import ENUM_CAP

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def digests(name: str) -> list[list[str]]:
    """(digest, command) pairs of a `sha256  command` file in tests/data."""
    return [line.split("  ", 1)
            for line in (ROOT / "tests" / "data" / name).read_text()
            .splitlines() if not line.startswith("#")]


# stdout digests of whole page dumps, so that no change to the kill logic
# moves a byte of them; the other dump tests check substrings only
PAGE_DUMPS = digests("page_dumps.sha256")
# stdout digests of kgroups tables, so that a fault route C shares with
# route B (the h-function) still moves a byte
KGROUPS = digests("kgroups.sha256")
# stdout digests of the slowest and largest runs the `hh` size budget
# admits, each in a fresh process as the budget is stated
HH_BUDGET = digests("hh_budget.sha256")
# stdout digests of the largest runs the `kgroups` size budget admits, each
# in a fresh process; e = 1000003 has e' > 1, whose class ends route C
# finds by arithmetic
KGROUPS_BUDGET = digests("kgroups_budget.sha256")


def run_cli(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


@pytest.fixture
def fresh_homology_memo():
    """An empty homology memo with zeroed counts for a test that reads
    them, and none of its entries left behind for the next test."""
    cycbar._homology_summary.cache_clear()
    yield
    cycbar._homology_summary.cache_clear()


class TestKGroups:
    def test_single_degree_table(self, capsys):
        code, out = run_cli(capsys, "kgroups", "--p", "2", "--e", "3", "--r", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "relative K-groups  p=2 e=3 f=1"
        assert lines[1].startswith("K_3")
        assert "Z/2 x Z/8" in lines[1]
        assert lines[1].rstrip().endswith("order 16")

    def test_degree_range_json(self, capsys):
        code, out = run_cli(
            capsys, "kgroups", "--p", "2", "--e", "3", "--rmax", "2",
            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == 2 and payload["e"] == 3 and payload["f"] == 1
        assert [g["degree"] for g in payload["groups"]] == [1, 2, 3]
        assert [g["factors"] for g in payload["groups"]] == [[4], [], [2, 8]]

    def test_residue_degree_expansion(self, capsys):
        code, out = run_cli(
            capsys, "kgroups", "--p", "2", "--e", "3", "--f", "2", "--r", "1",
            "--format", "json")
        assert code == 0
        assert json.loads(out)["groups"][0]["factors"] == [4, 4]

    @pytest.mark.parametrize("digest, command", KGROUPS,
                             ids=[command for _, command in KGROUPS])
    def test_kgroups_bytes(self, capsys, digest, command):
        code, out = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_even_degrees_trivial(self, capsys):
        _, out = run_cli(
            capsys, "kgroups", "--p", "3", "--e", "2", "--rmax", "3",
            "--format", "json")
        payload = json.loads(out)
        for g in payload["groups"]:
            if g["degree"] % 2 == 0:
                assert g["factors"] == []


class TestHH:
    def test_single_weight_lines(self, capsys):
        _, out = run_cli(capsys, "hh", "--p", "2", "--e", "2", "--m", "1")
        assert out.strip() == "deg 0: 1, deg 1: 1, B = 1"
        _, out = run_cli(capsys, "hh", "--p", "2", "--e", "2", "--m", "2")
        assert out.strip() == "deg 1: 1, deg 2: 1, B = 0"
        _, out = run_cli(capsys, "hh", "--p", "2", "--e", "3", "--m", "3")
        assert out.strip() == "all zero"

    def test_weight_range_prefixes(self, capsys):
        _, out = run_cli(capsys, "hh", "--p", "2", "--e", "2", "--mmax", "3")
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("m=1: ")
        assert lines[2].startswith("m=3: ")
        assert "MISMATCH" not in out

    def test_json_round_trip(self, capsys):
        _, out = run_cli(
            capsys, "hh", "--p", "3", "--e", "2", "--mmax", "4",
            "--format", "json")
        payload = json.loads(out)
        assert payload["p"] == 3 and payload["e"] == 2
        by_m = {entry["m"]: entry for entry in payload["homology"]}
        assert by_m[1]["ranks"] == {"0": 1, "1": 1}
        assert by_m[1]["connes"] == 1
        # e | m with p prime to e: the weight vanishes outright
        assert by_m[2]["ranks"] == {} and by_m[2]["connes"] is None
        assert by_m[3]["ranks"] == {"2": 1, "3": 1}
        # B scalar is +-3 = 0 mod 3 on weight 3
        assert by_m[3]["connes"] == 0

    def test_page_dump(self, capsys):
        _, out = run_cli(
            capsys, "hh", "--p", "2", "--e", "2", "--m", "1",
            "--dump-page", "tate")
        lines = out.splitlines()
        assert lines[1] == "page e=2 m=1 p=2 mode=tate"
        assert any("killed-by: d^2" in ln for ln in lines[2:])
        assert all(ln.startswith("  ") for ln in lines[2:])

    @pytest.mark.parametrize("digest, command", PAGE_DUMPS,
                             ids=[command for _, command in PAGE_DUMPS])
    def test_page_dump_bytes(self, capsys, digest, command):
        code, out = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_page_dump_hfp_has_survivors(self, capsys):
        _, out = run_cli(
            capsys, "hh", "--p", "2", "--e", "2", "--m", "1",
            "--dump-page", "hfp")
        assert "survives" in out

    def test_json_page_matches_table(self, capsys):
        args = ("hh", "--p", "2", "--e", "2", "--m", "1", "--dump-page",
                "tate")
        _, table = run_cli(capsys, *args)
        _, out = run_cli(capsys, *args, "--format", "json")
        (entry,) = json.loads(out)["homology"]
        assert entry["page"]["mode"] == "tate"
        assert entry["page"]["classes"] == [
            ln.removeprefix("  ") for ln in table.splitlines()[2:]]
        assert "expected" not in entry

    def test_printed_sign_of_a_negative_integral_scalar(self, capsys):
        # the integral scalar at (e, m) = (3, 11) is -11, so B = -11 mod 3
        _, out = run_cli(capsys, "hh", "--p", "3", "--e", "3", "--m", "11")
        assert out == "deg 6: 1, deg 7: 1, B = 1\n"

    def test_printed_sign_past_the_scalar_table(self, capsys):
        # the integral scalar at (e, m) = (5, 13) is -13, so B = -13 mod 3
        _, out = run_cli(capsys, "hh", "--p", "3", "--e", "5", "--m", "13")
        assert out == "deg 4: 1, deg 5: 1, B = 2\n"

    def test_one_homology_computation_per_weight(self, capsys,
                                                 fresh_homology_memo):
        # the page dump reuses the summary of the weight's own line
        code, _ = run_cli(capsys, "hh", "--p", "3", "--e", "3", "--mmax",
                          "7", "--dump-page", "hfp")
        assert code == 0
        info = cycbar._homology_summary.cache_info()
        assert (info.misses, info.hits) == (7, 7)

    def test_mismatch_reported_in_both_formats(self, capsys, monkeypatch):
        monkeypatch.setattr(cycbar, "predicted_homology",
                            lambda e, m, p: {0: 2})
        args = ("hh", "--p", "2", "--e", "2", "--m", "1")
        _, table = run_cli(capsys, *args)
        assert table.strip().endswith("MISMATCH: expected ranks {0: 2}")
        _, out = run_cli(capsys, *args, "--format", "json")
        (entry,) = json.loads(out)["homology"]
        assert entry["expected"] == {"0": 2}
        assert entry["ranks"] == {"0": 1, "1": 1}


class TestModuleEntryPoint:
    @staticmethod
    def env():
        path = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        return {**os.environ, "PYTHONPATH": path}

    def test_python_dash_m_matches_main(self, capsys):
        argv = ["hh", "--p", "3", "--e", "2", "--m", "3"]
        code, out = run_cli(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "ktrunc", *argv],
                              capture_output=True, text=True, env=self.env())
        assert (proc.returncode, proc.stdout) == (code, out)
        assert proc.stderr == ""

    @pytest.mark.parametrize("digest, command", HH_BUDGET,
                             ids=[command for _, command in HH_BUDGET])
    def test_hh_budget_worst_case_bytes(self, digest, command):
        assert self.stdout_digest(command) == digest

    @pytest.mark.parametrize("digest, command", KGROUPS_BUDGET,
                             ids=[command for _, command in KGROUPS_BUDGET])
    def test_kgroups_budget_worst_case_bytes(self, digest, command):
        assert self.stdout_digest(command) == digest

    def stdout_digest(self, command: str) -> str:
        proc = subprocess.run([sys.executable, "-m", "ktrunc",
                               *command.split()],
                              capture_output=True, env=self.env(),
                              timeout=300)
        assert proc.returncode == 0
        return hashlib.sha256(proc.stdout).hexdigest()

    def test_reader_closing_the_pipe_early(self):
        # the JSON line is about 133 KB, more than a pipe buffer holds, so
        # the write fails once the reader has closed its end
        proc = subprocess.Popen(
            [sys.executable, "-m", "ktrunc", "kgroups", "--p", "3", "--e",
             "20", "--rmax", "80", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env())
        head = proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert head.startswith(b'{"p": 3, "e": 20')
        assert b"Traceback" not in stderr


class TestScripts:
    def test_k_table_reader_closing_the_pipe_early(self):
        # about 120 KB of table, more than a pipe buffer holds, so the
        # write fails once the reader has closed its end
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "scripts" / "k_table.py"),
             "--primes", "3", "--emax", "10", "--rmax", "24"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert head.startswith(b"p = 3, residue degree f = 1")
        assert stderr == b""

    def test_k_table(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "k_table.py"),
             "--primes", "2", "--emax", "3", "--rmax", "2", "--f", "2"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert [ln.rstrip() for ln in proc.stdout.splitlines()] == [
            "p = 2, residue degree f = 2",
            "degree  e=2                    e=3",
            "-" * 52,
            "K_1     Z/2 x Z/2              Z/4 x Z/4",
            "K_3     Z/2 x Z/2 x Z/2 x Z/2  Z/2 x Z/2 x Z/8 x Z/8"]


class TestVerify:
    def test_witt_suite_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "witt")
        assert code == 0
        lines = out.splitlines()
        assert all(ln.startswith("PASS") for ln in lines[:-1])
        assert lines[-1] == "3/3 checks passed"

    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "verify", "--suite", "witt", "--seed", "5")
        _, second = run_cli(capsys, "verify", "--suite", "witt", "--seed", "5")
        assert first == second

    def test_routes_suite_scoped(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "routes", "--p", "2", "--e", "2",
            "--rmax", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "2/2 checks passed"
        assert "A=Z/2" in lines[0]  # brute route ran at this size

    @pytest.mark.parametrize("fmt, digest", [
        ("table",
         "4d175c6c3b04f21da5cf7b28f6232889db120c51a33f9bc7d068a00f999faa70"),
        ("json",
         "94f9e8ca1d961725e2001ac939f39b1e0e36aa8b708d8eedc60c5a9801e0aa4e"),
    ], ids=["table", "json"])
    def test_all_suites_bytes(self, capsys, fmt, digest):
        # every check of every suite, pinned to the bytes it printed when
        # each check still took its grid as a parameter
        code, out = run_cli(capsys, "verify", "--suite", "all", "--seed", "0",
                            "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_output(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "routes", "--p", "2", "--e", "2",
            "--rmax", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] == payload["total"] == 2
        assert payload["checks"][0] == {
            "name": "routes (p=2, e=2, r=1)", "passed": True,
            "detail": "A=Z/2 B=Z/2 C=Z/2"}


class TestUsageErrors:
    def test_composite_characteristic(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kgroups", "--p", "4", "--e", "2", "--r", "1"])
        assert exc.value.code == 2

    def test_missing_degree_selector(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kgroups", "--p", "2", "--e", "2"])
        assert exc.value.code == 2

    def test_hh_requires_e_at_least_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hh", "--p", "2", "--e", "1", "--m", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, code, text", [
        (["kgroups", "--e", "2", "--r", "1", "--format", "json"], 0,
         '"groups": [{"degree": 1, "factors": [1000000000000000003]}]'),
        (["hh", "--e", "2", "--m", "3"], 2,
         "--p must be at most 1,048,576 for homology, got "
         "1000000000000000003"),
        (["verify", "--suite", "routes", "--e", "2", "--rmax", "1"], 0,
         "A=skipped B=Z/1000000000000000003 C=Z/1000000000000000003"),
    ], ids=["kgroups", "hh", "verify"])
    def test_a_large_prime_is_read_in_time(self, capsys, argv, code, text):
        # p = 10^18 + 3: deciding primality and prime powers costs no trial
        # division up to sqrt(p), which here would not finish in minutes
        try:
            got = main([argv[0], "--p", str(10 ** 18 + 3), *argv[1:]])
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        assert got == code
        assert text in captured.out + captured.err

    @pytest.mark.parametrize("argv", [
        ["kgroups", "--e", "2", "--r", "1"],
        ["hh", "--e", "2", "--m", "3"],
        ["verify", "--suite", "routes", "--e", "2", "--rmax", "1"],
    ], ids=lambda argv: argv[0])
    def test_prime_past_the_exact_primality_range(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--p", str(PRIME_TEST_LIMIT), *argv[1:]])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: ktrunc {argv[0]} [-h]")
        assert ("--p must be below 3,317,044,064,679,887,385,961,981, where "
                "primality is decided exactly") in captured.err

    def test_hh_prime_past_the_mod_p_limit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hh", "--p", "1048583", "--e", "2", "--m", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--p must be at most 1,048,576" in captured.err
        # the largest prime below the limit still runs
        assert run_cli(capsys, "hh", "--p", "1048573", "--e", "2",
                       "--m", "3") == (0, "deg 2: 1, deg 3: 1, B = 3\n")

    @pytest.mark.parametrize("argv", [
        ["hh", "--p", "2", "--e", "2", "--m", "1", "--f", "2"],
        ["hh", "--p", "2", "--e", "2", "--m", "1", "--seed", "3"],
        ["hh", "--p", "2", "--e", "2", "--m", "1", "--enum-bound", "5"],
        ["kgroups", "--p", "2", "--e", "2", "--r", "1", "--seed", "3"],
        ["kgroups", "--p", "2", "--e", "2", "--r", "1", "--enum-bound", "5"],
        ["verify", "--suite", "witt", "--f", "2"],
    ])
    def test_flag_the_subcommand_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, flag, suite", [
        (["--suite", "homology", "--p", "5", "--e", "9", "--rmax", "3"],
         "p", "homology"),
        (["--suite", "split", "--p", "7"], "p", "split"),
        (["--suite", "witt", "--e", "3"], "e", "witt"),
        (["--suite", "ss", "--rmax", "2"], "rmax", "ss"),
        (["--suite", "equalizer", "--e", "2"], "e", "equalizer"),
    ], ids=["homology", "split", "witt", "ss", "equalizer"])
    def test_a_routes_scope_on_another_suite(self, capsys, argv, flag,
                                             suite):
        # only the routes suite reads --p, --e and --rmax
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"--{flag} scopes the routes suite only, and --suite "
                f"{suite} does not read it") in captured.err

    def test_a_routes_scope_within_all(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "all", "--p", "2",
                            "--e", "2", "--rmax", "1")
        assert code == 0
        assert out.endswith(" checks passed\n")

    def test_nonpositive_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kgroups", "--p", "2", "--e", "0", "--r", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bound", [ENUM_CAP + 1, 100000000000])
    def test_enum_bound_above_the_cap(self, capsys, monkeypatch, bound):
        def enumerate_nothing(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(wittsplit, "brute_force_quotient",
                            enumerate_nothing)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "routes", "--enum-bound", str(bound)])
        assert exc.value.code == 2
        assert "--enum-bound must be at most" in capsys.readouterr().err

    @pytest.mark.parametrize("selector", ["--r", "--rmax"])
    def test_kgroups_table_order_above_the_digit_limit(self, capsys,
                                                       monkeypatch, selector):
        # p^(f*r*(e-1)) = 2^22350 has 6,729 digits; the table is refused
        # before any group is computed
        def compute_nothing(*args):
            raise AssertionError("group computed")

        monkeypatch.setattr(tcassemble, "group_in_degree", compute_nothing)
        with pytest.raises(SystemExit) as exc:
            main(["kgroups", "--p", "2", "--e", "150", selector, "150"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ktrunc kgroups [-h]")
        assert "prints the order 2^22350, which has more than" in captured.err

    def test_kgroups_order_at_the_digit_limit(self, capsys, monkeypatch):
        # 2^k has at most `limit` digits exactly when k < bits(10^limit), so
        # the largest printable order is accepted and the next refused;
        # --format json never prints the order.  The stub group in degree
        # 2r-1 is (Z/p)^(f*r*(e-1)), of the order criterion 4 predicts.
        limit = sys.get_int_max_str_digits()
        k = (10 ** limit).bit_length() - 1
        monkeypatch.setattr(
            tcassemble, "group_in_degree",
            lambda p, e, d, f: GroupStructure(p, [1] * (f * (d + 1) // 2
                                                        * (e - 1) * (d % 2))))
        code, out = run_cli(capsys, "kgroups", "--p", "2", "--e", "2",
                            "--r", str(k))
        assert code == 0 and out.endswith(f"order {2 ** k}\n")
        assert len(str(2 ** k)) == limit
        code, out = run_cli(capsys, "kgroups", "--p", "2", "--e", "2",
                            "--r", str(k + 1), "--format", "json")
        assert code == 0
        assert json.loads(out)["groups"][0]["factors"] == [2] * (k + 1)
        with pytest.raises(SystemExit) as exc:
            main(["kgroups", "--p", "2", "--e", "2", "--r", str(k + 1)])
        assert exc.value.code == 2

    def test_kgroups_table_without_a_digit_limit(self, capsys, monkeypatch):
        # Python before 3.10.7 has no sys.get_int_max_str_digits and no
        # limit on printing an int: the table prints as usual
        _, want = run_cli(capsys, "kgroups", "--p", "3", "--e", "4",
                          "--r", "3")
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        code, out = run_cli(capsys, "kgroups", "--p", "3", "--e", "4",
                            "--r", "3")
        assert code == 0
        assert out == want == (
            "relative K-groups  p=3 e=4 f=1\n"
            "K_5    Z/3 x Z/3 x Z/3 x Z/3 x Z/9 x Z/27  order 19683\n")

    @pytest.mark.parametrize("argv, size", [
        (["--e", "2000", "--r", "1000", "--format", "json"], "2,000,000"),
        (["--e", "2", "--r", "1", "--f", str(10 ** 9), "--format", "json"],
         "2,000,000,000"),
        (["--e", "2", "--rmax", "1024", "--format", "json"], "1,049,600"),
        (["--e", "1", "--rmax", str(10 ** 18)],
         f"{10 ** 18 * (10 ** 18 + 1) // 2:,}"),
    ])
    def test_kgroups_past_the_size_budget(self, capsys, monkeypatch, argv,
                                          size):
        def compute_nothing(*args):
            raise AssertionError("group computed")

        monkeypatch.setattr(tcassemble, "group_in_degree", compute_nothing)
        with pytest.raises(SystemExit) as exc:
            main(["kgroups", "--p", "2", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ktrunc kgroups [-h]")
        assert (f"sum of r*e over the printed degrees is {size}, past the "
                f"size budget of 1,048,576") in captured.err

    def test_kgroups_at_the_size_budget(self, capsys, monkeypatch):
        # f * r * e = 2^20 is admitted, and so is --rmax 1023 at e = 2,
        # whose sum of r*e is 1,047,552 (--rmax 1024 is refused above)
        monkeypatch.setattr(tcassemble, "group_in_degree",
                            lambda p, e, d, f: GroupStructure(p, ()))
        for argv in (["--e", "2", "--r", "1", "--f", str(1 << 19)],
                     ["--e", "1", "--r", "1", "--f", str(1 << 20)],
                     ["--e", "2", "--rmax", "1023"]):
            code, _ = run_cli(capsys, "kgroups", "--p", "2", *argv,
                              "--format", "json")
            assert code == 0, argv

    @pytest.mark.parametrize("argv, size", [
        (["--e", "3", "--rmax", "2000"], "12,006,000"),
        (["--p", "2", "--e", "1", "--rmax", str(10 ** 18)],
         f"{10 ** 18 * (10 ** 18 + 1) // 2:,}"),
        (["--rmax", "264"], "1,049,400"),
    ])
    def test_routes_past_the_size_budget(self, capsys, monkeypatch, argv,
                                         size):
        def compute_nothing(*args):
            raise AssertionError("group computed")

        monkeypatch.setattr(tcassemble, "group_in_degree", compute_nothing)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "routes", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ktrunc verify [-h]")
        assert (f"the sum of r*e over the routes grid is {size}, past the "
                f"size budget of 1,048,576") in captured.err

    def test_verify_help_states_the_size_budget(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("the sum of r*e over its (p, e, r) grid is at most "
                "1,048,576 (--e 3 --rmax 590 fits)") in text

    def test_kgroups_help_states_the_size_budget(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kgroups", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("f times the sum of r*e over the printed degrees 2r-1 is at "
                "most 1,048,576") in text

    @pytest.mark.parametrize("weights, message", [
        (["--m", "16"], "(6, 16) complex has 53,568 words, past the size "
                        "budget of 16,384"),
        (["--mmax", "10000000000"], "(6, 15) complex has 27,248 words"),
    ])
    def test_hh_past_the_size_budget(self, capsys, monkeypatch, weights,
                                     message):
        def compute_nothing(*args):
            raise AssertionError("homology computed")

        monkeypatch.setattr(cycbar, "reduced_homology", compute_nothing)
        with pytest.raises(SystemExit) as exc:
            main(["hh", "--p", "3", "--e", "6", *weights])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ktrunc hh [-h]")
        assert message in captured.err

    def test_hh_help_states_the_size_budget(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hh", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "a weight of at most 512, at most 16,384 words" in text
        assert "at most 3,000 words in each of the four degrees" in text
        assert "a --p above 1,048,576" in text

    @pytest.mark.parametrize("argv", [
        ["verify", "--enum-bound", "0"],
        ["verify", "--enum-bound", str(ENUM_CAP + 1)],
        ["hh", "--p", "2", "--e", "1", "--m", "1"],
        ["kgroups", "--p", "4", "--e", "2", "--r", "1"],
    ])
    def test_reported_with_the_subcommand_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: ktrunc {argv[0]} [-h]")
