"""CLI subcommand tests (driven through main() for exit codes and reports)."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from cyclicbent import boolfun as bf
from cyclicbent import cli
from cyclicbent import codebook as cbk
from cyclicbent import codes as cd
from cyclicbent import construct as cn
from cyclicbent import gf2
from cyclicbent import linpoly as lp
from cyclicbent import seqfam as sf
from cyclicbent.cli import _semibent_input, main
from cyclicbent.gf2 import mk_field

from oracles import from_field_fn


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


def test_verify_semibent_auto_cross_checks_only_within_the_full_cap(capsys):
    code, rep = run_json(capsys, "verify", "--n", "9")
    assert code == 0 and rep["full_reduced_agree"] is True
    code, rep = run_json(capsys, "verify", "--n", "11")
    assert code == 0 and rep["certificate"]["mode"] == "reduced"
    assert "full_reduced_agree" not in rep


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


def test_selftest_runs_each_subcommand_through_main(capsys, monkeypatch):
    argvs, main_ = [], cli.main

    def recorded(argv):
        argvs.append(" ".join(argv))
        return main_(argv)

    monkeypatch.setattr(cli, "main", recorded)
    assert main_(["selftest"]) == 0
    assert argvs == [argv for _, calls in cli._SELFTEST for argv in calls]
    assert len(argvs) == 14 and capsys.readouterr().err == ""


def test_selftest_checks_the_report_beyond_the_exit_code(capsys, monkeypatch):
    # the complex codebook still meets the bound, so its exit code is 0
    monkeypatch.setattr(cbk.Codebook, "alphabet_size", property(lambda self: 4))
    code, out = run(capsys, "selftest")
    assert code == 1
    assert "FAIL  complex codebook (72,8) meets bound 1/8, alphabet 6" in out
    assert out.count("FAIL") == 1 and "10/11 selftest checks passed" in out


def test_mub_csv_export(tmp_path, capsys):
    out = tmp_path / "mub.csv"
    code, _ = run(capsys, "mub", "--m", "4", "--format", "csv", "--out", str(out))
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 72


def test_codebook_threads_flag(capsys):
    code, rep = run_json(capsys, "codebook", "--m", "4", "--threads", "4")
    assert code == 0 and rep["imax_sq"] == "1/16"


_BENT_CMDS = ("construct", "verify", "codebook", "mub", "seqfam --kind binary", "code",
              "design --k 6 --t 3")
_SEMIBENT_CMDS = ("verify", "codebook --kind semibent", "seqfam --kind semibent", "code",
                  "design --k 4 --t 3")


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
    # a thread count below one
    ("codebook --m 6 --threads 0", 2),
    ("verify --m 4 --threads -3", 2),
    # a linearized polynomial that does not parse
    ("charquad --m 5 --L y^3", 2),
    ("charquad --m 5 --L x^3", 2),
    ("charquad --m 5 --L x^0", 2),
    ("charquad --m 5 --L *x", 2),
    # a CSV export with nowhere to write it
    ("codebook --m 4 --format csv", 2),
    ("mub --m 4 --format csv", 2),
    ("seqfam --kind semibent --n 3 --format csv", 2),
    # semi-bent families, codes and designs need n >= 3; certification does not
    ("seqfam --kind semibent --n 1", 2),
    ("codebook --kind semibent --n 1", 2),
    ("code --n 1", 2),
    ("design --n 1 --k 1 --t 1", 2),
    ("verify --n 1", 0),
    # the Gold exponent 2^i + 1 needs i >= 0
    ("verify --n 5 --gold -1", 2),
    # a wrong parity, a size out of range, and malformed --chain/--gamma lists
    *[(f"{cmd} --m {m}", 2) for cmd in _BENT_CMDS for m in (5, 2, 40)],
    *[(f"{cmd} --n {n}", 2) for cmd in _SEMIBENT_CMDS for n in (4, 40)],
    *[(f"{cmd} --m 4 {flag}", 2) for cmd in _BENT_CMDS
      for flag in ("--chain 1,x", "--gamma 1,,9999")],
    ("charquad --m 4 --L x^2", 2),
    ("charquad --m 40 --L x^2", 2),
    # no field past the log tables (d > 20)
    ("charquad --m 21 --L x^2", 2),
    ("charquad --m 23 --L x^2", 2),
    ("verify --m 18 --mode reduced", 2),
    # the levels of a chain increase from 1 (-1 divides 9, but is no level)
    ("construct --m 10 --chain 1,-1,9 --gamma 1,0", 2),
    # codebooks and MUB sets past the block-entry cap, rejected before
    # certification
    ("codebook --m 14", 2),
    ("codebook --kind complex --m 14", 2),
    ("codebook --kind semibent --n 13", 2),
    ("mub --m 14", 2),
    ("code --m 14", 2),
    ("code --n 13", 2),
    # codes are bounded only by the block-entry cap; designs count every
    # t-subset of at most 64 points
    ("code --m 8", 0),
    ("code --n 7", 0),
    ("design --m 8 --k 120 --t 3", 2),
    # dense output past the entry cap, rejected before the scan
    ("codebook --m 12 --format csv --out /dev/null", 2),
    # semi-bent certification past its caps: full n <= 9, reduced n <= 15
    ("verify --n 11 --mode full", 2),
    ("verify --n 17 --mode reduced", 2),
    ("verify --n 17", 2),
    # sizes past every certifier, rejected before the function is built
    ("construct --m 22", 2),
    ("verify --m 22", 2),
    ("codebook --m 22", 2),
    ("seqfam --kind quaternary --m 22", 2),
    ("verify --n 21", 2),
    # an --out that cannot be written
    ("verify --m 4 --out /nonexistent/dir/r.json", 2),
    ("codebook --m 4 --format csv --out /nonexistent/dir/x.csv", 2),
    # --m and --n together
    ("verify --m 4 --n 3", 2),
    ("codebook --m 4 --n 3", 2),
    ("seqfam --kind quaternary --m 4 --n 3", 2),
    ("code --m 4 --n 3", 2),
    ("design --m 4 --n 3 --k 6 --t 3", 2),
    # --enumerate-gamma runs every gamma vector and takes no --gamma
    ("construct --m 4 --enumerate-gamma --gamma 1", 2),
])
def test_kind_and_size_flags(capsys, argv, code):
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    if code == 2:
        assert "error" in json.loads(captured.err)
        assert captured.out == ""
    else:
        assert json.loads(captured.out)["command"] == argv.split()[0]


@pytest.mark.parametrize("L", ["x^0", "*x", "x^3", "y^3", "99*x", "x^2^3", "x^2+2*x^6"])
def test_linpoly_parse_errors_name_the_term(capsys, L):
    assert main(["charquad", "--m", "5", "--L", L]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert repr(L.split("+")[-1]) in err


@pytest.mark.parametrize("flag, value, token", [
    ("--chain", "abc", "abc"), ("--chain", "1,3.5", "3.5"),
    ("--gamma", "1,y", "y"), ("--gamma", "0x1", "0x1"),
])
def test_chain_and_gamma_parse_errors_name_the_flag_and_token(capsys, flag, value, token):
    assert main(["construct", "--m", "4", flag, value]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == f"{flag} entry {token!r} is not an integer"


_BENT_CAP = "reduced certification capped at m <= 16"
_SEMIBENT_CAP = "reduced semi-bent certification capped at n <= 15, got n = 21"


@pytest.mark.parametrize("argv, error", [
    *[(f"{cmd} --m 22", _BENT_CAP) for cmd in _BENT_CMDS],
    ("construct --m 22 --enumerate-gamma", _BENT_CAP),
    ("seqfam --kind quaternary --m 22", _BENT_CAP),
    *[(f"{cmd} --n 21", _SEMIBENT_CAP) for cmd in _SEMIBENT_CMDS],
    ("verify --n 21 --restrict-bent", _SEMIBENT_CAP),
    ("charquad --m 21 --L x^2 --walsh-check", _SEMIBENT_CAP),
])
def test_sizes_past_every_certifier_exit_before_building(capsys, monkeypatch, argv, error):
    # the certifier's cap comes before the function or the tau scan is built
    for mod, name in ((cn, "chain_fn"), (cn, "kerdock_fn"), (cn, "admissible_gammas"),
                      (lp, "quad_form"), (lp, "is_cyclic_semibent_quadratic")):
        monkeypatch.setattr(mod, name, lambda *a, name=name, **k: pytest.fail(f"called {name}"))
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == error


def test_seqfam_csv_past_the_output_cap_exits_2_before_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cbk, "MAX_ENTRIES", 9 * 7 - 1)  # the n = 3 family is 9 x 7
    out = tmp_path / "fam.csv"
    assert main(["seqfam", "--kind", "semibent", "--n", "3", "--format", "csv",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "output cap" in json.loads(captured.err)["error"]
    assert not out.exists()


def test_charquad_walsh_check_past_the_certifier_cap_skips_the_tau_scans(capsys, monkeypatch):
    monkeypatch.setattr(lp, "is_cyclic_semibent_quadratic",
                        lambda *a, **k: pytest.fail("scanned tau"))
    assert main(["charquad", "--m", "17", "--L", "x^4", "--walsh-check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == (
        "reduced semi-bent certification capped at n <= 15, got n = 17")


@pytest.mark.parametrize("argv", [
    "codebook",  # no --m
    "verify --m 4 --bogus",
    "codebook --m 4 --kind nope",
    "seqfam --kind nope --m 4",
    # --seed is read only by codebook, --threads only by verify and codebook
    "construct --m 4 --seed 3",
    "mub --m 4 --threads 2",
    # selftest prints its lines and writes no report
    "selftest --out r.json",
])
def test_argparse_errors_exit_2_with_json(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error" in json.loads(captured.err)
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_help_is_usage_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cyclicbent verify")


# -- one parser per process ------------------------------------------------------------


def _call(capsys, argv: str) -> tuple:
    """Exit code, stdout and stderr of one main() call, usage errors included."""
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_EVERY_SUBCOMMAND = ["construct --m 4", "verify --m 4 --threads 2", "codebook --m 4",
                     "mub --m 4", "seqfam --kind binary --m 4", "code --n 3",
                     "design --m 4 --k 6 --t 3", "charquad --m 5 --L x^4", "selftest"]


def test_the_parser_is_built_on_the_first_call_and_reused(capsys, monkeypatch):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    cli._parser.cache_clear()
    assert _call(capsys, "verify --m 4")[0] == 0
    assert len(added) > 0
    added.clear()
    for argv in _EVERY_SUBCOMMAND:
        assert _call(capsys, argv)[0] == 0, argv
    assert added == []


def test_importing_the_cli_builds_no_parser():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import cyclicbent.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "0\n"


def test_public_surface_is_what_the_package_runs():
    # the correlation sum, the test-input builders, the divisor chains, phi_{L,tau}
    # and the semi-bent Walsh histogram live in tests/oracles.py; a MUB set is
    # the Codebook build_mub returns, and char_bits is the one character table;
    # bf.count_values is the one value counter, and a code keeps only its
    # packed coset leaders
    import cyclicbent

    assert all(hasattr(cyclicbent, name) for name in cyclicbent.__all__)
    assert {"correlate", "MubSet", "mub_to_codebook"}.isdisjoint(cyclicbent.__all__)
    gone = [(bf, "is_bent"), (bf, "is_semibent"), (bf, "xor_const"), (bf, "from_field_fn"),
            (bf, "from_field_bit_fn"), (bf.WalshSpectrum, "value_at"),
            (bf.WalshSpectrum, "distribution"), (sf, "correlate"), (cyclicbent, "MubSet"),
            (cbk, "MubSet"), (gf2.GF2m, "trace_pairing"), (cn, "divisor_chains"),
            (lp, "phi_l_tau"), (sf, "expected_semibent_walsh_distribution"),
            (cbk.Codebook, "norm_sq"), (sf, "_count"), (sf, "_COUNT_VALUES"),
            (cd.NonlinearCode, "_coset_leaders")]
    assert [name for owner, name in gone if hasattr(owner, name)] == []
    # bench/tracer.py wraps these by name
    assert all(hasattr(bf, name) for name in ("scale_compose", "scale_field", "xor", "restrict"))
    assert hasattr(cbk, "mub_to_codebook")


@pytest.mark.parametrize("first, second", [
    ("verify --m 4 --threads 2", "verify --m 4"),
    ("codebook --m 4 --format csv --out {tmp}", "codebook --m 4"),
    # the --m / --n check must not see the first call's --n
    ("seqfam --kind semibent --n 3", "seqfam --kind quaternary --m 4"),
    ("codebook --m 4 --kind nope", "codebook --m 4"),  # an exit-2 usage error first
    ("codebook", "codebook --m 4"),
])
def test_no_state_leaks_between_calls(capsys, tmp_path, first, second):
    cli._parser.cache_clear()
    alone = _call(capsys, second)
    cli._parser.cache_clear()
    _call(capsys, first.format(tmp=tmp_path / "rows.csv"))
    assert _call(capsys, second) == alone
    code, out, err = alone
    assert code == 0 and err == "" and json.loads(out)["command"] == second.split()[0]


@pytest.mark.parametrize("argv, code", [
    ("verify --m 8 --mode full", 0),  # a passing full bent scan
    ("verify --n 7 --mode full", 0),  # a passing full semi-bent scan
    ("verify --n 9 --gold 3 --mode full", 1),  # fails at its first case
])
def test_verify_threads_flag_is_accepted_and_ignored(capsys, argv, code):
    alone = _call(capsys, argv)
    assert _call(capsys, argv + " --threads 2") == alone
    assert alone[0] == code and alone[2] == ""


@pytest.mark.parametrize("argv", ["--help", "codebook --help"])
def test_help_prints_the_same_usage_text_twice(capsys, argv):
    code, out, _ = _call(capsys, argv)
    assert code == 0 and out.startswith("usage: cyclicbent")
    assert _call(capsys, argv) == (code, out, "")


@pytest.mark.parametrize("n", range(1, 12))
def test_gold_input_is_the_gold_function(n):
    ctx = mk_field(n)
    for i in range(n + 2):
        args = argparse.Namespace(n=n, gold=i, restrict_bent=False)
        expected = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, (1 << i) + 1)))
        assert _semibent_input(args) == expected


@pytest.mark.parametrize("cmd", [
    "construct --m 4", "verify --m 4", "code --m 4", "design --m 4 --k 6 --t 3",
    "charquad --m 5 --L x^4", "selftest",
])
def test_format_is_only_taken_by_the_csv_subcommands(tmp_path, capsys, cmd):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(cmd.split() + ["--format", "csv", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert "--format" in capsys.readouterr().err


def _outermost_certifier_calls(monkeypatch) -> list:
    """Record the name of each certifier call not made inside another."""
    certs, depth = [], [0]

    def counted_cert(fn):
        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                certs.append(fn.__name__)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for name in ("certify_cyclic_bent", "is_cyclic_bent_full", "is_cyclic_bent_reduced",
                 "is_cyclic_semibent"):
        monkeypatch.setattr(cn, name, counted_cert(getattr(cn, name)))
    return certs


@pytest.mark.parametrize("argv, certifier", [
    ("codebook --m 4", "certify_cyclic_bent"),
    ("codebook --m 4 --kind complex", "certify_cyclic_bent"),
    ("codebook --n 3 --kind semibent", "is_cyclic_semibent"),
    ("mub --m 4", "certify_cyclic_bent"),
    ("code --m 4", "certify_cyclic_bent"),
    ("code --n 3", "is_cyclic_semibent"),
    ("design --m 4 --k 6 --t 3", "certify_cyclic_bent"),
    ("design --n 3 --k 4 --t 3", "is_cyclic_semibent"),
])
def test_builders_certify_their_input_once(capsys, monkeypatch, argv, certifier):
    certs = _outermost_certifier_calls(monkeypatch)
    code, rep = run_json(capsys, *argv.split())
    assert code == 0 and rep["command"] == argv.split()[0]
    assert certs == [certifier]


def test_seqfam_certifies_once_and_skips_the_direct_scan(capsys, monkeypatch):
    # the 7 counted Walsh rows are the q - 1 spectra of the one certifier
    # call; the distribution is read off the stored block through
    # _hadamard_rows, which is not counted here, and _scan is not run
    scans, rows = [], []

    def counted_scan(fam):
        scans.append(fam.size)
        return scan(fam)

    def counted_rows(fn, n_rows):
        def wrapper(arg, **kwargs):
            rows.append(n_rows(arg))
            return fn(arg, **kwargs)
        return wrapper

    scan = sf._scan
    monkeypatch.setattr(sf, "_scan", counted_scan)
    monkeypatch.setattr(bf, "walsh", counted_rows(bf.walsh, lambda f: 1))
    monkeypatch.setattr(bf, "walsh_many", counted_rows(bf.walsh_many, lambda w: len(w)))
    certs = _outermost_certifier_calls(monkeypatch)
    code, rep = run_json(capsys, "seqfam", "--kind", "binary", "--m", "4")
    assert code == 0
    assert scans == []
    assert sum(rows) == 7
    assert certs == ["certify_cyclic_bent"]
    assert rep["r_max_sq"] == 36
