"""CLI subcommand tests (driven through main() for exit codes and reports)."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

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


def test_mub_walsh_check_fails_on_one_flipped_entry(capsys, monkeypatch):
    # the dense Gram reads the built codebook and the Walsh route reads f, so
    # one negated entry of one block vector makes them differ
    def flipped(f):
        cb = build(f)
        cb.re[3, 5] *= -1
        cb.im[3, 5] *= -1
        return cb

    build = cbk.build_mub
    monkeypatch.setattr(cbk, "build_mub", flipped)
    code, rep = run_json(capsys, "mub", "--m", "4", "--walsh-check")
    assert code == 1
    assert rep["walsh_route_agrees"] is False and rep["status"] == "FAIL"


@pytest.mark.parametrize("part", [0, 1])
def test_mub_walsh_check_compares_both_parts(capsys, monkeypatch, part):
    # one entry off in the real or the imaginary stack of one batch
    def tampered(f, a, later):
        stacks = list(route(f, a, later))
        if a == 2:
            stacks[part][0, 1, 1] += 1
        return tuple(stacks)

    route = cbk.mub_gram_via_walsh
    monkeypatch.setattr(cbk, "mub_gram_via_walsh", tampered)
    code, rep = run_json(capsys, "mub", "--m", "4", "--walsh-check")
    assert code == 1
    assert rep["walsh_route_agrees"] is False and rep["status"] == "FAIL"


def _walsh_rows_of(monkeypatch, capsys, *argv) -> int:
    rows = []

    def counted(signs, *args, **kwargs):
        rows.append(len(signs))
        return walsh_many(signs, *args, **kwargs)

    walsh_many = bf.walsh_many
    with monkeypatch.context() as mp:
        mp.setattr(bf, "walsh_many", counted)
        mp.setattr(bf, "walsh", lambda f: pytest.fail("scalar walsh"))
        code, rep = run_json(capsys, *argv)
    assert code == 0 and rep["status"] == "PASS"
    return sum(rows)


@pytest.mark.parametrize("m, step", [(4, None), (6, None), (4, 3)])
def test_mub_walsh_check_transforms_k_times_k_minus_1_rows(capsys, monkeypatch, m, step):
    # two rows for each of the C(k, 2) basis pairs, beside the certifier's,
    # in one batch per basis, or in batches of step later bases when
    # bf.BATCH_VALUES holds only step Grams
    k = 1 << (m - 1)
    if step:
        monkeypatch.setattr(bf, "BATCH_VALUES", step * k * k)
    batches = []

    def counted(f, a, later):
        batches.append((a, list(later)))
        return route(f, a, later)

    route = cbk.mub_gram_via_walsh
    monkeypatch.setattr(cbk, "mub_gram_via_walsh", counted)
    plain = _walsh_rows_of(monkeypatch, capsys, "mub", "--m", str(m))
    checked = _walsh_rows_of(monkeypatch, capsys, "mub", "--m", str(m), "--walsh-check")
    assert checked - plain == k * (k - 1)
    step = step or k
    assert batches == [(a, list(range(lo, min(k, lo + step))))
                       for a in range(k) for lo in range(a + 1, k, step)]


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


def test_charquad_builds_one_tau_scan_set_up_for_both_routes(capsys, monkeypatch):
    built = []
    for name in ("_tau_representatives", "_field_logs"):
        fn = getattr(lp, name)
        monkeypatch.setattr(lp, name, lambda *a, fn=fn, name=name: built.append(name) or fn(*a))
    code, rep = run_json(capsys, "charquad", "--m", "11", "--L", "x^4")
    assert code == 0 and rep["paths_agree"] is True
    assert sorted(built) == ["_field_logs", "_tau_representatives"]


def test_charquad_calls_no_scalar_skew_or_rank_routine(capsys, monkeypatch):
    # condition (1) is the tau = 0 row of the batched kernels, so the scalar
    # routes that stay in linpoly (as oracles, and for bench/tracer.py) are
    # on no path of charquad
    argvs = ["charquad --m 11 --L x^4", "charquad --m 9 --L x^8 --walsh-check"]
    alone = [_call(capsys, argv) for argv in argvs]
    for owner, name in ((lp, "skew_gcrd"), (lp, "rdivmod"), (lp, "kernel_dim"),
                        (lp.LinPoly, "evaluate")):
        monkeypatch.setattr(owner, name, lambda *a, name=name: pytest.fail(f"called {name}"))
    assert [_call(capsys, argv) for argv in argvs] == alone
    assert [code for code, _, _ in alone] == [0, 0]
    base = [{p: json.loads(out)[p]["base_dim"] for p in ("gcrd_path", "rank_path")}
            for _, out, _ in alone]
    assert base == [{"gcrd_path": 1, "rank_path": 1}, {"gcrd_path": 3, "rank_path": 3}]


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
    # full bent certification past its cap, m <= 10
    ("verify --m 12 --mode full", 2),
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


@pytest.mark.parametrize("argv", ["design --m 6 --k 28 --t 12", "design --m 6 --k 64 --t 12"])
def test_design_past_the_head_cap_exits_2_before_building_the_code(capsys, monkeypatch, argv):
    # the 28 s witness scan and the C(64, 11)-head passing count both stop
    # at the head count, before certifying f or building C(f)
    monkeypatch.setattr(cd, "build_code_f", lambda *a: pytest.fail("built the code"))
    t0 = time.perf_counter()
    assert main(argv.split()) == 2
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == (
        "the design count at t = 12 visits C(64, 11) = 743595781824 heads, "
        f"past the cap of {cd.MAX_DESIGN_HEADS}")


def test_design_past_the_work_cap_exits_2_before_the_first_head(capsys, monkeypatch):
    # 41664 heads of the 1984 weight-28 words: exit 1 at the cap, 2 past it
    argv = "design --m 6 --k 28 --t 4".split()
    monkeypatch.setattr(cd, "MAX_DESIGN_WORK", 41664 * 1984)
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["witness"] == [0, 1, 2, 4]
    monkeypatch.setattr(cd, "MAX_DESIGN_WORK", 41664 * 1984 - 1)
    monkeypatch.setattr(cd, "combinations", lambda *a: pytest.fail("visited a head"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == (
        "the design count at t = 4 visits C(64, 3) = 41664 heads of 1984 words each, "
        f"{41664 * 1984} head-words past the cap of {41664 * 1984 - 1}")


def test_mub_walsh_check_past_its_cap_exits_2_before_building(capsys, monkeypatch):
    # the dense Grams of mub --m 10 --walsh-check would take about 15 min
    for mod, name in ((cn, "chain_fn"), (cbk, "build_mub")):
        monkeypatch.setattr(mod, name, lambda *a, name=name: pytest.fail(f"called {name}"))
    t0 = time.perf_counter()
    assert main("mub --m 10 --walsh-check".split()) == 2
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == (
        "mub --walsh-check at K = 512 builds about K^4/2 = 34359738368 dense Gram entries, "
        f"past the cap of {cbk.MAX_WALSH_CHECK_ENTRIES}")


def test_mub_walsh_check_cap_is_k4_over_2_entries(capsys, monkeypatch):
    # m = 8 (K = 128) is the largest size under the cap; at m = 6, K^4/2 = 2^19
    assert cbk.MAX_WALSH_CHECK_ENTRIES == 128 ** 4 // 2
    monkeypatch.setattr(cbk, "MAX_WALSH_CHECK_ENTRIES", 1 << 19)
    code, rep = run_json(capsys, "mub", "--m", "6", "--walsh-check")
    assert code == 0 and rep["walsh_route_agrees"] is True and rep["status"] == "PASS"
    monkeypatch.setattr(cbk, "MAX_WALSH_CHECK_ENTRIES", (1 << 19) - 1)
    assert main("mub --m 6 --walsh-check".split()) == 2
    assert "past the cap of 524287" in json.loads(capsys.readouterr().err)["error"]
    assert main("mub --m 6".split()) == 0  # the cap reads --walsh-check only


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


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND)
def test_commands_return_their_reports_and_main_emits_them(capsys, argv):
    args = cli._parser().parse_args(argv.split())
    report, passed = args.fn(args)
    out = capsys.readouterr().out
    assert passed
    if args.cmd == "selftest":  # its lines are its report
        assert report is None and out.endswith(" selftest checks passed\n")
    else:
        assert out == ""
        assert main(argv.split()) == 0
        assert capsys.readouterr().out == json.dumps(report, indent=2, default=str) + "\n"


def test_importing_the_cli_builds_no_parser():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import cyclicbent.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "0\n"


def test_public_surface_is_what_the_package_runs():
    # the correlation sum, the test-input builders, the divisor chains, phi_{L,tau},
    # the scalar skew-gcrd kernel dimension (with assoc and x^m - 1) and the
    # semi-bent Walsh histogram live in tests/oracles.py; a MUB set is
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
            (cd.NonlinearCode, "_coset_leaders"), (cli, "_check_semibent_cap"),
            (gf2, "_linear_table"), (bf, "classify_values"), (lp, "gcrd_kernel_dim"),
            (lp, "assoc"), (lp, "x_pow_m_minus_1"), (lp.LinPoly, "is_zero"),
            (bf.BoolFun, "from_json")]
    assert [name for owner, name in gone if hasattr(owner, name)] == []
    # bench/tracer.py wraps these by name
    assert all(hasattr(bf, name) for name in ("scale_compose", "scale_field", "xor", "restrict"))
    assert hasattr(cbk, "mub_to_codebook")
    assert all(hasattr(lp, name) for name in ("is_cyclic_semibent_quadratic", "quad_form",
                                              "kernel_dim", "rdivmod", "skew_gcrd"))


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


# -- the argv grammar fuzzer -----------------------------------------------------------

# Every flag of the parser (help aside, which test_help_is_usage_text covers)
# with its well-formed values, small sizes (m <= 6, n <= 5) among them, and
# its malformed ones: sizes of the wrong parity or range, bad tokens and
# paths, and None, the flag without its value (a switch's malformed value
# is a stray token).  --t runs past 4: the design count's caps stop a large
# t at its C(v, t - 1) heads before the code is built (--m 6 --k 28 --t 12
# exits 2 at once, where it used to count for 28 s), and t = 40 lies past
# most k.
_FLAG_VALUES = {
    "--m": (["4", "6"], ["5", "2", "1", "0", "-4", "40", "x", "4.0", "", None]),
    "--n": (["3", "5", "1"], ["4", "2", "0", "-3", "40", "y", None]),
    "--chain": (["1,3", "1,5"], ["1,3,9", "1,x", "1,,3", ",", "", "3,1", "1,-1,5", "0", None]),
    "--gamma": (["1", "0", "1,1"], ["1,,9999", "0x1", "y", "-1", "", None]),
    "--gold": (["0", "1", "2", "7"], ["-1", "z", None]),
    "--restrict-bent": ([], ["1"]),
    "--eps-bit": (["0", "1"], ["2", "x", None]),
    "--out": (["{tmp}/r.json", "{tmp}/r.csv"], ["{tmp}/no/dir/r.json", "{tmp}", "", None]),
    "--format": (["json", "csv"], ["xml", None]),
    "--mode": (["auto", "full", "reduced"], ["half", None]),
    "--enumerate-gamma": ([], ["1"]),
    "--threads": (["1", "2"], ["0", "-3", "t", None]),
    "--kind": (["real", "complex", "semibent", "quaternary", "binary"], ["nope", None]),
    "--eps": (["zeros", "ones", "random"], ["twos", None]),
    "--seed": (["0", "7", "-1"], ["s", None]),
    "--walsh-check": ([], ["1"]),
    "--table-check": ([], ["1"]),
    "--k": (["1", "3", "4", "6", "8", "12", "16", "28", "32", "36", "64"], ["0", "-2", "k", None]),
    "--t": (["1", "2", "3", "4", "8", "12", "40"], ["0", "-1", "t", None]),
    "--L": (["x^4", "x^2+x^4", "3*x^2+x", "x"],
            ["x^3", "y^2", "*x", "x^0", "99*x", "+", "", None]),
}


def _subcommand_flags() -> dict[str, set]:
    """The option strings of each subcommand, read off the parser itself."""
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {cmd: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
            for cmd, p in sub.choices.items()}


_SUBCOMMAND_NAMES = [argv.split()[0] for argv in _EVERY_SUBCOMMAND]


def test_the_fuzzer_draws_every_subcommand_and_flag():
    flags = _subcommand_flags()
    assert sorted(flags) == sorted(_SUBCOMMAND_NAMES)
    assert set().union(*flags.values()) == set(_FLAG_VALUES)


# the flags a subcommand needs; every size-taking subcommand also needs --m or --n
_REQUIRED = {"seqfam": ["--kind"], "design": ["--k", "--t"], "charquad": ["--m", "--L"]}
# well-formed values that differ by subcommand
_OWN_VALUES = {("charquad", "--m"): ["3", "5"],
               ("codebook", "--kind"): ["real", "complex", "semibent"],
               ("seqfam", "--kind"): ["quaternary", "binary", "semibent"]}


@st.composite
def _argvs(draw) -> list[str]:
    """A subcommand (now and then a bogus one, or none) with the flags it
    needs, each dropped one time in ten, up to three more of its own and
    now and then any other, in any order; one value in ten malformed.
    Paths name the directory {tmp}."""
    own = _subcommand_flags()
    cmd = draw(st.sampled_from(_SUBCOMMAND_NAMES + ["nope", None]))
    pool = sorted(own.get(cmd, ()))
    needed = list(_REQUIRED.get(cmd, []))
    if "--n" in pool:
        needed.append(draw(st.sampled_from(["--m", "--n"])))
    elif "--m" in pool and "--m" not in needed:
        needed.append("--m")
    flags = [f for f in needed if draw(st.integers(0, 9))]
    if pool:
        flags += draw(st.lists(st.sampled_from(pool), max_size=3))
    flags += draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES) + ["--bogus"]), max_size=1))
    argv = [cmd] if cmd else []
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        good, bad = _FLAG_VALUES.get(flag, ([], ["1"]))
        good = _OWN_VALUES.get((cmd, flag), good)
        values = good if draw(st.integers(0, 9)) else bad
        value = draw(st.sampled_from(values)) if values else None
        if value is not None:
            argv.append(value)
    return argv


def _outcome(argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


# The draw seldom reaches exit 1 (none in 3000 argvs), so the property
# always runs two known failures: a design count that stops at its first
# deviating 4-subset and a reduced semi-bent scan that fails on g itself.
_EXIT_1_ARGVS = ["design --m 6 --k 28 --t 4", "verify --n 9 --gold 3 --mode reduced"]


@pytest.mark.parametrize("argv", _EXIT_1_ARGVS)
def test_the_fuzzer_examples_exit_1_with_json(argv):
    code, out, err = _outcome(argv.split())
    assert code == 1 and err == ""
    assert json.loads(out)["command"] == argv.split()[0]


@given(argv=_argvs())
@example(argv=_EXIT_1_ARGVS[0].split())
@example(argv=_EXIT_1_ARGVS[1].split())
@settings(max_examples=400, deadline=None)
def test_every_argv_exits_0_or_1_with_json_or_2_with_one_json_error(fuzz_dir, argv):
    """A traceback fails the property; so does any other exit or output."""
    argv = [a.format(tmp=fuzz_dir) for a in argv]
    code, out, err = _outcome(argv)
    if code == 2:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        assert set(json.loads(err)) == {"error"}
        return
    assert code in (0, 1) and err == ""
    if argv[0] == "selftest":  # its lines are its report
        assert out.endswith(" selftest checks passed\n")
    elif out.startswith("wrote "):  # the JSON report went to --out
        with open(out[len("wrote "):].rstrip("\n")) as fh:
            assert json.load(fh)["command"] == argv[0]
    else:
        assert json.loads(out)["command"] == argv[0]
