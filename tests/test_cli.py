"""CLI subcommand tests (driven through main() for exit codes and reports)."""

import json

import pytest

from cyclicbent import seqfam as sf
from cyclicbent.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_construct_default_kerdock(capsys):
    code, rep = run_json(capsys, "construct", "--m", "4")
    assert code == 0
    assert rep["certificate"]["passed"] is True
    assert rep["spec"] == {"m": 4, "e": [1, 3], "gamma": [1]}
    assert rep["truth_table"]["n"] == 4


def test_construct_invalid_chain_exits_nonzero(capsys):
    code = main(["construct", "--m", "4", "--chain", "2,3", "--gamma", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "e_0 = 1" in err


def test_construct_enumerate_gamma_m10(capsys):
    code, rep = run_json(
        capsys, "construct", "--m", "10", "--chain", "1,3,9", "--enumerate-gamma",
        "--mode", "reduced",
    )
    assert code == 0
    assert len(rep["chains"]) == 7
    assert rep["all_passed"] is True


def test_verify_semibent(capsys):
    code, rep = run_json(capsys, "verify", "--n", "5", "--gold", "2", "--mode", "full")
    assert code == 0 and rep["certificate"]["passed"]


def test_codebook_real(capsys):
    code, rep = run_json(capsys, "codebook", "--m", "4")
    assert code == 0
    assert rep["status"] == "OPTIMAL"
    assert rep["imax_sq"] == "1/16" and rep["bound_sq"] == "1/16"
    assert rep["alphabet_size"] == 4


def test_codebook_complex(capsys):
    code, rep = run_json(capsys, "codebook", "--m", "4", "--kind", "complex")
    assert code == 0
    assert (rep["n_rows"], rep["length"]) == (72, 8)
    assert rep["alphabet_size"] == 6 and rep["optimal"] is True


def test_codebook_semibent(capsys):
    code, rep = run_json(capsys, "codebook", "--n", "3", "--kind", "semibent")
    assert code == 0
    assert rep["imax_sq"] == "1/4" and not rep["optimal"]
    assert rep["ratio_sq"] == "20/17"
    assert rep["status"].startswith("ALMOST")


def test_codebook_csv_export(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, _ = run(capsys, "codebook", "--m", "4", "--format", "csv", "--out", str(out))
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 144


def test_mub_with_walsh_check(capsys):
    code, rep = run_json(capsys, "mub", "--m", "4", "--walsh-check")
    assert code == 0
    assert rep["status"] == "PASS" and rep["walsh_route_agrees"] is True
    assert rep["bases"] == 9


def test_seqfam_quaternary_table_check(capsys):
    code, rep = run_json(
        capsys, "seqfam", "--kind", "quaternary", "--m", "4", "--table-check"
    )
    assert code == 0
    assert rep["table_check"] == "PASS"
    assert rep["family_size"] == 9 and rep["period"] == 7


def test_seqfam_semibent_csv(tmp_path, capsys):
    out = tmp_path / "fam.csv"
    code, rep = run(
        capsys, "seqfam", "--kind", "semibent", "--n", "3", "--format", "csv",
        "--out", str(out),
    )
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 9


def test_code_command_both_kinds(capsys):
    code, rep = run_json(capsys, "code", "--m", "4")
    assert code == 0
    assert rep["closed_form_check"] == "PASS" and rep["min_distance"] == 6
    code, rep = run_json(capsys, "code", "--n", "3")
    assert code == 0
    assert rep["linear"] is True and rep["min_distance"] == 2


def test_design_command(capsys):
    code, rep = run_json(capsys, "design", "--m", "4", "--k", "6", "--t", "3")
    assert code == 0
    assert rep["lambda"] == 4 and rep["status"] == "DESIGN"


def test_charquad_both_paths(capsys):
    code, rep = run_json(capsys, "charquad", "--m", "5", "--L", "x^4", "--walsh-check")
    assert code == 0
    assert rep["cyclic_semibent"] is True and rep["paths_agree"] is True
    code, rep = run_json(capsys, "charquad", "--m", "9", "--L", "x^8")  # gcd(3,9)=3
    assert code == 0
    assert rep["cyclic_semibent"] is False and rep["paths_agree"] is True


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "11/11 selftest checks passed" in out


def test_mub_csv_export(tmp_path, capsys):
    out = tmp_path / "mub.csv"
    code, _ = run(capsys, "mub", "--m", "4", "--format", "csv", "--out", str(out))
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 72


def test_codebook_threads_flag(capsys):
    code, rep = run_json(capsys, "codebook", "--m", "4", "--threads", "4")
    assert code == 0 and rep["imax_sq"] == "1/16"


@pytest.mark.parametrize("argv, code", [
    ("seqfam --kind semibent --n 3", 0),
    ("seqfam --kind quaternary --m 4", 0),
    ("codebook --kind semibent --n 3", 0),
    ("codebook --kind real --m 4", 0),
    # a flag that does not match --kind
    ("seqfam --kind semibent --m 4", 2),
    ("seqfam --kind quaternary --n 5", 2),
    ("codebook --kind semibent --m 6", 2),
    ("codebook --kind real --n 5", 2),
])
def test_kind_and_size_flags(capsys, argv, code):
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    if code == 2:
        assert "error" in json.loads(captured.err)
        assert captured.out == ""
    else:
        assert json.loads(captured.out)["command"] == argv.split()[0]


def test_seqfam_scans_the_family_once(capsys, monkeypatch):
    calls = []
    scan = sf._scan

    def counted(fam):
        calls.append(fam.size)
        return scan(fam)

    monkeypatch.setattr(sf, "_scan", counted)
    code, rep = run_json(capsys, "seqfam", "--kind", "binary", "--m", "4")
    assert code == 0 and calls == [8]
    assert rep["r_max_sq"] == 36
