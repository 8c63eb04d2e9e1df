"""Command-line behavior: output formats, exit codes, and determinism."""

import json

import pytest

from ktrunc.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


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

    def test_mismatch_reported_in_both_formats(self, capsys, monkeypatch):
        from ktrunc import cycbar

        monkeypatch.setattr(cycbar, "predicted_homology",
                            lambda e, m, p: {0: 2})
        args = ("hh", "--p", "2", "--e", "2", "--m", "1")
        _, table = run_cli(capsys, *args)
        assert table.strip().endswith("MISMATCH: expected ranks {0: 2}")
        _, out = run_cli(capsys, *args, "--format", "json")
        (entry,) = json.loads(out)["homology"]
        assert entry["expected"] == {"0": 2}
        assert entry["ranks"] == {"0": 1, "1": 1}


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

    def test_nonpositive_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kgroups", "--p", "2", "--e", "0", "--r", "1"])
        assert exc.value.code == 2
