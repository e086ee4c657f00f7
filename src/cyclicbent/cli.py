"""Batch command-line front end.

Every subcommand returns its JSON report and whether every check the
invocation requested passed; main alone emits the report (stdout or
--out) and maps the verdict to the exit code, 0 when it passed.  selftest
prints its own lines and returns no report.  Codebooks, MUB sets and
sequence families can be exported as CSV with --format csv, which only
those three subcommands take.  Reports embed exact rationals as "num/den"
strings next to float renderings.

main(argv) may be called any number of times in one process (selftest runs
its checks through it): the argument parser is built on the first call and
reused, and each call parses into a fresh namespace.

Subcommands: construct, verify, codebook, mub, seqfam, code, design,
charquad, selftest.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
from fractions import Fraction

import numpy as np

from cyclicbent import boolfun as bf
from cyclicbent import codebook as cbk
from cyclicbent import codes as cd
from cyclicbent import construct as cn
from cyclicbent import linpoly as lp
from cyclicbent import seqfam as sf
from cyclicbent.gf2 import mk_field


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, default=str)
    if getattr(args, "out", None) and getattr(args, "format", "json") == "json":
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)


def _int(tok: str, what: str, base: int = 10) -> int:
    try:
        return int(tok, base)
    except ValueError:
        raise ValueError(f"{what} is not an integer") from None


def _parse_ints(flag: str, s: str) -> tuple[int, ...]:
    return tuple(_int(tok, f"{flag} entry {tok!r}") for tok in s.split(",") if tok != "")


def _chain_levels(args) -> tuple[int, ...]:
    cn.check_reduced_cap(args.m, bent=True)  # past every certifier: reject before chain_fn
    return _parse_ints("--chain", args.chain) if args.chain else (1, args.m - 1)


def _chain_spec(args) -> cn.ChainSpec:
    if args.m is None:
        raise ValueError("a bent input needs --m")
    e = _chain_levels(args)
    gamma = _parse_ints("--gamma", args.gamma) if args.gamma else (1,) * (len(e) - 1)
    return cn.ChainSpec(args.m, e, gamma)


def _csv(args, write) -> dict:
    """Write the CSV export, if asked for, before the scan (so that rows past
    the output cap fail fast); the report's "csv" entry."""
    if args.format != "csv":
        return {}
    write(args.out)
    return {"csv": args.out}


def _eps_vector(args, q: int) -> list[int]:
    if args.eps == "random":
        rng = np.random.default_rng(args.seed)
        return [int(b) for b in rng.integers(0, 2, q - 1)]
    return [int(args.eps == "ones")] * (q - 1)


def _semibent_input(args) -> bf.BoolFun:
    if args.n is None:
        raise ValueError("a semi-bent input needs --n")
    cn.check_reduced_cap(args.n, bent=False)  # before building g
    ctx = mk_field(args.n)
    if getattr(args, "restrict_bent", False):
        return cn.derive_semibent(cn.kerdock_fn(args.n + 1), getattr(args, "eps_bit", 0))
    if args.gold < 0:
        raise ValueError(f"--gold must be at least 0, got {args.gold}")
    return lp.quad_form(lp.LinPoly.from_dict(ctx, {args.gold: 1}))


def _parse_linpoly(ctx, text: str) -> lp.LinPoly:
    """Parse sums like "x^4", "x^2+x^4", "3*x^2+x" (coefficients are field
    element indices; exponents must be powers of two)."""
    terms: dict[int, int] = {}
    for raw in text.replace(" ", "").split("+"):
        if not raw:
            continue
        c, star, body = raw.rpartition("*")
        coef = _int(c, f"coefficient {c!r} of term {raw!r}", 0) if star else 1
        if not 0 <= coef < ctx.order:
            raise ValueError(f"coefficient {coef} of term {raw!r} is outside [0, {ctx.order})")
        if body == "x":
            exp = 1
        elif body.startswith("x^"):
            exp = _int(body[2:], f"exponent of term {raw!r}", 0)
        else:
            raise ValueError(f"cannot parse linearized term {raw!r}")
        if exp < 1 or exp & (exp - 1):
            raise ValueError(f"exponent {exp} of term {raw!r} is not a power of two")
        i = exp.bit_length() - 1
        terms[i] = terms.get(i, 0) ^ coef
    return lp.LinPoly.from_dict(ctx, terms)


# -- subcommands ---------------------------------------------------------------------


def cmd_construct(args) -> tuple[dict, bool]:
    if args.enumerate_gamma:
        if args.gamma:
            raise ValueError("--enumerate-gamma runs every admissible gamma and takes no --gamma")
        e = _chain_levels(args)
        rows = []
        for gamma in cn.admissible_gammas(args.m, e):
            spec = cn.ChainSpec(args.m, e, gamma)
            cert = cn.certify_cyclic_bent(cn.chain_fn(spec), args.mode)
            rows.append({"spec": spec.to_json_obj(), "certificate": cert.to_json_obj()})
        ok = all(row["certificate"]["passed"] for row in rows)
        return {"command": "construct", "chains": rows, "all_passed": ok}, ok
    spec = _chain_spec(args)
    f = cn.chain_fn(spec)
    cert = cn.certify_cyclic_bent(f, args.mode)
    return {"command": "construct", "spec": spec.to_json_obj(), "certificate": cert.to_json_obj(),
            "truth_table": json.loads(f.to_json())}, cert.passed


def cmd_verify(args) -> tuple[dict, bool]:
    if args.n is not None:
        g = _semibent_input(args)
        cert = cn.is_cyclic_semibent(g, "full" if args.mode == "full" else "reduced")
        report = {"command": "verify", "n": args.n, "certificate": cert.to_json_obj()}
        # auto cross-checks with the full scan only within its cap
        if args.mode == "auto" and g.n_vars <= cn.SEMIBENT_FULL_MAX_N:
            full = cn.is_cyclic_semibent(g, "full")
            report["full_reduced_agree"] = full.passed == cert.passed
        return report, cert.passed and report.get("full_reduced_agree", True)
    spec = _chain_spec(args)
    cert = cn.certify_cyclic_bent(cn.chain_fn(spec), args.mode)
    return {"command": "verify", "spec": spec.to_json_obj(),
            "certificate": cert.to_json_obj()}, cert.passed


def cmd_codebook(args) -> tuple[dict, bool]:
    if args.kind == "semibent":
        cb = cbk.build_semibent_codebook(_semibent_input(args))
    else:
        f = cn.chain_fn(_chain_spec(args))
        if args.kind == "real":
            cb = cbk.build_real_codebook(f, _eps_vector(args, f.domain.ctx.order))
        else:
            cb = cbk.build_mub(f)
    csv = _csv(args, cb.write_csv)
    rep = cbk.optimality_report(cb)
    if args.kind == "semibent":
        expected_sq = Fraction(1, 1 << (args.n - 1))  # exact 2^{1-n}
        passed = Fraction(rep["imax_sq"]) == expected_sq
        status = "ALMOST (exact imax_sq = 2^(1-n))" if passed else "UNEXPECTED"
        return {"command": "codebook", "kind": "semibent", **rep, "status": status, **csv}, passed
    return {"command": "codebook", "kind": args.kind,
            "status": "OPTIMAL" if rep["optimal"] else "NOT OPTIMAL", **rep, **csv}, rep["optimal"]


def _dense_gram(cb: cbk.Codebook, a: int, later) -> np.ndarray:
    """The Grams of basis 1 + a against each basis 1 + a2, a2 in later,
    stacked (a2, lam, lam'), as one complex128 GEMM b conj(B_later)^T: every
    partial sum is a Gaussian integer of size at most 2K, so it is exact."""
    k = cb.length
    re, im, _ = cb.basis(1 + a)
    conj = np.empty((len(later) * k, k), dtype=np.complex128)
    for i, a2 in enumerate(later):
        re2, im2, _ = cb.basis(1 + a2)
        conj.real[i * k : (i + 1) * k] = re2
        conj.imag[i * k : (i + 1) * k] = -im2
    return ((re + 1j * im) @ conj.T).reshape(k, len(later), k).transpose(1, 0, 2)


def _same_gram(gram: np.ndarray, walsh) -> bool:
    return np.array_equal(gram.real, walsh[0]) and np.array_equal(gram.imag, walsh[1])


def cmd_mub(args) -> tuple[dict, bool]:
    spec = _chain_spec(args)
    k = 1 << (args.m - 1)
    if args.walsh_check and k ** 4 // 2 > cbk.MAX_WALSH_CHECK_ENTRIES:
        raise ValueError(f"mub --walsh-check at K = {k} builds about K^4/2 = {k ** 4 // 2} "
                         f"dense Gram entries, past the cap of {cbk.MAX_WALSH_CHECK_ENTRIES}")
    f = cn.chain_fn(spec)
    cb = cbk.build_mub(f)
    csv = _csv(args, cb.write_csv)
    rep = cbk.verify_mub(cb)
    ok = rep["complete"] and rep["orthonormal"] and rep["unbiased"]
    report = {"command": "mub", "k": cb.length, **rep, **csv}
    if args.walsh_check:
        k = cb.length
        # basis a against all later bases at once, split only past about
        # bf.BATCH_VALUES Gram entries
        step = max(1, bf.BATCH_VALUES // (k * k))
        agree = True
        for a in range(k):
            for lo in range(a + 1, k, step):
                later = range(lo, min(k, lo + step))
                # both stacks live only in this statement, so one batch's are held at a time
                same = _same_gram(_dense_gram(cb, a, later), cbk.mub_gram_via_walsh(f, a, later))
                agree = agree and same
        report["walsh_route_agrees"] = agree
        ok = ok and agree
    report["status"] = "PASS" if ok else "FAIL"
    return report, ok


def cmd_seqfam(args) -> tuple[dict, bool]:
    if args.kind == "semibent":
        fn, size = _semibent_input(args), args.n
    else:
        fn, size = cn.chain_fn(_chain_spec(args)), args.m
    # each kind names its builder and its closed form
    fam = getattr(sf, f"{args.kind}_family")(fn)
    expected = getattr(sf, f"expected_{args.kind}_distribution")(size)
    csv = _csv(args, fam.write_csv)
    dist = sf.full_distribution(fam)
    report = {
        "command": "seqfam",
        "kind": args.kind,
        "family_size": fam.size,
        "period": fam.period,
        "r_max_sq": dist.r_max_sq,
        "distribution": json.loads(dist.to_json()),
    }
    passed = not args.table_check or dist.counts == expected
    if args.table_check:
        report["table_check"] = "PASS" if passed else "FAIL"
        report["expected"] = [
            {"value": sf.format_gaussian(v), "count": c} for v, c in sorted(expected.items())
        ]
    report.update(csv)
    return report, passed


def _code_fn(args) -> bf.BoolFun:
    """g of --n or f of --m, the function whose code C(g) or C(f) is read."""
    return _semibent_input(args) if args.n is not None else cn.chain_fn(_chain_spec(args))


def _code_of(args, fn: bf.BoolFun) -> cd.NonlinearCode:
    return (cd.build_code_g if args.n is not None else cd.build_code_f)(fn)


def cmd_code(args) -> tuple[dict, bool]:
    code = _code_of(args, _code_fn(args))
    expected_weight = (cd.expected_weights_g(args.n) if args.n is not None
                       else cd.expected_weights_f(args.m))
    rep = cd.weight_distance_distributions(code)
    weight_ok = rep.weight == expected_weight
    dist_ok = rep.distance == rep.weight
    report = {
        "command": "code",
        "length": code.length,
        "size": code.size,
        "min_distance": rep.min_distance(),
        "weight_distribution": {str(k): v for k, v in sorted(rep.weight.items())},
        "distance_equals_weight": dist_ok,
        "closed_form_check": "PASS" if weight_ok else "FAIL",
        "linear": code.is_linear(),
    }
    return report, weight_ok and dist_ok


def cmd_design(args) -> tuple[dict, bool]:
    fn = _code_fn(args)
    # the caps that need only v, k and t, before the code is built
    cd.check_design_work(fn.domain.size, args.k, args.t)
    res = cd.support_design(_code_of(args, fn), args.k, args.t)
    return {"command": "design", **res.to_json_obj(),
            "status": "DESIGN" if res.passed else "NOT A DESIGN"}, res.passed


def cmd_charquad(args) -> tuple[dict, bool]:
    if args.walsh_check:
        cn.check_reduced_cap(args.m, bent=False)  # before the tau scans
    ctx = mk_field(args.m)
    L = _parse_linpoly(ctx, args.L)
    ok_gcrd, rep_gcrd = lp.is_cyclic_semibent_quadratic(L, path="gcrd")
    ok_rank, rep_rank = lp.is_cyclic_semibent_quadratic(L, path="rank")
    agree = ok_gcrd == ok_rank
    report = {
        "command": "charquad",
        "m": args.m,
        "L": list(L.coeffs),
        "cyclic_semibent": ok_gcrd,
        "gcrd_path": rep_gcrd,
        "rank_path": rep_rank,
        "paths_agree": agree,
    }
    if args.walsh_check:
        cert = cn.is_cyclic_semibent(lp.quad_form(L), "reduced")
        report["walsh_verdict"] = cert.passed
        agree = agree and (cert.passed == ok_gcrd)
        report["paths_agree"] = agree
    return report, agree


# Each selftest line: its label, and the subcommands it runs through main,
# each with the entries its JSON report must hold beyond a zero exit code.
_SELFTEST = [
    ("cyclic-bent full certification (m=4)", {"verify --m 4 --mode full": {}}),
    ("cyclic-bent reduced == full (m=4)", {"verify --m 4 --mode reduced": {}}),
    ("real codebook (144,16) meets bound 1/16", {"codebook --m 4": {"imax_sq": "1/16"}}),
    ("complete MUB set of 9 bases in C^8", {"mub --m 4": {}}),
    ("complex codebook (72,8) meets bound 1/8, alphabet 6",
     {"codebook --m 4 --kind complex": {"alphabet_size": 6, "imax_sq": "1/8"}}),
    ("quaternary family distribution matches closed form (m=4)",
     {"seqfam --kind quaternary --m 4 --table-check": {}}),
    ("binary family distribution matches closed form (m=4)",
     {"seqfam --kind binary --m 4 --table-check": {}}),
    ("semi-bent family distribution matches closed form (n=3)",
     {"seqfam --kind semibent --n 3 --table-check": {}}),
    ("code C(f) at m=4 is (16,256,6) with the closed-form weights",
     {"code --m 4": {"length": 16, "size": 256, "min_distance": 6}}),
    ("support designs 3-(16,6,4), 3-(16,8,3), 3-(16,10,24)",
     {f"design --m 4 --k {k} --t 3": {"lambda": lam} for k, lam in ((6, 4), (8, 3), (10, 24))}),
    ("gcrd characterization agrees with Walsh route (m=5, x^4)",
     {"charquad --m 5 --L x^4 --walsh-check": {"cyclic_semibent": True},
      "verify --n 5 --gold 2 --mode full": {}}),
]


def _selftest_call(argv: str, want: dict) -> bool:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv.split())
    return rc == 0 and want.items() <= json.loads(out.getvalue()).items()


def cmd_selftest(args) -> tuple[None, bool]:
    """Print one line per check; the lines are the report, so there is no JSON."""
    passed = 0
    for label, calls in _SELFTEST:
        ok = all(_selftest_call(argv, want) for argv, want in calls.items())
        passed += ok
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    print(f"{passed}/{len(_SELFTEST)} selftest checks passed")
    return None, passed == len(_SELFTEST)


# -- argument wiring -----------------------------------------------------------------


def _add_common(p, with_m=True, with_n=False, with_csv=False):
    p.add_argument("--out", help="write the JSON report (or CSV data) to this path")
    if with_csv:
        p.add_argument("--format", choices=["json", "csv"], default="json")
    if with_m:
        p.add_argument("--m", type=int, help="even m: functions live on GF(2^{m-1}) x GF(2)")
        p.add_argument("--chain", help="divisor chain e_0,..,e_l (default 1,m-1)")
        p.add_argument("--gamma", help="gamma vector as big-field element indices")
    if with_n:
        p.add_argument("--n", type=int, help="odd n: semi-bent functions on GF(2^n)")
        p.add_argument("--gold", type=int, default=1,
                       help="use g = tr(x^{2^i+1}) with this i (default 1)")
        p.add_argument("--restrict-bent", action="store_true",
                       help="derive g by restricting the m = n+1 chain function")
        p.add_argument("--eps-bit", type=int, default=0, choices=[0, 1])


def _add_ignored_threads(p):
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: the command runs on one thread")


class _JsonErrorParser(argparse.ArgumentParser):
    """Reports a usage error as {"error": message} on stderr, with exit code 2."""

    def error(self, message):
        self.exit(2, json.dumps({"error": message}) + "\n")


@functools.cache
def _parser() -> _JsonErrorParser:
    """The whole argument tree, built on the first main() call (not at import)
    and reused by every later call in the process."""
    ap = _JsonErrorParser(
        prog="cyclicbent",
        description="exact pipelines for cyclic bent/semi-bent functions and "
        "their codebooks, MUBs, sequence families, codes and designs",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("construct", help="build a chain function and certify it")
    _add_common(p)
    p.add_argument("--mode", choices=["auto", "full", "reduced"], default="auto")
    p.add_argument("--enumerate-gamma", action="store_true",
                   help="run every admissible gamma vector for the chain")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="certify cyclic bentness / semi-bentness")
    _add_common(p, with_n=True)
    p.add_argument("--mode", choices=["auto", "full", "reduced"], default="auto")
    _add_ignored_threads(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("codebook", help="build a codebook and compare to the bound")
    _add_common(p, with_n=True, with_csv=True)
    p.add_argument("--kind", choices=["real", "complex", "semibent"], default="real")
    p.add_argument("--eps", choices=["zeros", "ones", "random"], default="zeros")
    p.add_argument("--seed", type=int, default=2024, help="seed for --eps random")
    _add_ignored_threads(p)
    p.set_defaults(fn=cmd_codebook)

    p = sub.add_parser("mub", help="build and verify the complete MUB set")
    _add_common(p, with_csv=True)
    p.add_argument("--walsh-check", action="store_true",
                   help="also verify every cross Gram via the Walsh route (m <= 8)")
    p.set_defaults(fn=cmd_mub)

    p = sub.add_parser("seqfam", help="build a sequence family and its distribution")
    _add_common(p, with_n=True, with_csv=True)
    p.add_argument("--kind", choices=["quaternary", "binary", "semibent"], required=True)
    p.add_argument("--table-check", action="store_true",
                   help="compare the measured distribution to the closed form")
    p.set_defaults(fn=cmd_seqfam)

    p = sub.add_parser("code", help="build C(f) or C(g) and check distributions")
    _add_common(p, with_n=True)
    p.set_defaults(fn=cmd_code)

    p = sub.add_parser("design", help="support-design coverage check")
    _add_common(p, with_n=True)
    p.add_argument("--k", type=int, required=True, help="block weight")
    p.add_argument("--t", type=int, required=True, help="design strength")
    p.set_defaults(fn=cmd_design)

    p = sub.add_parser("charquad", help="gcrd characterization of quadratic forms")
    _add_common(p, with_m=False)
    p.add_argument("--m", type=int, required=True, help="odd extension degree")
    p.add_argument("--L", required=True,
                   help="linearized polynomial, e.g. 'x^4' or '3*x^2+x^4'")
    p.add_argument("--walsh-check", action="store_true",
                   help="also run the Walsh-based certifier on tr(x L(x))")
    p.set_defaults(fn=cmd_charquad)

    p = sub.add_parser("selftest", help="run the subcommands' checks at m=4 / n=3, 5")
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if getattr(args, "m", None) is None and getattr(args, "n", None) is None \
            and args.cmd in ("construct", "verify", "codebook", "mub", "seqfam", "code", "design"):
        ap.error(f"{args.cmd} needs --m (or --n where applicable)")
    try:
        if getattr(args, "m", None) is not None and getattr(args, "n", None) is not None:
            raise ValueError(f"{args.cmd} takes --m or --n, not both")
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        if getattr(args, "format", "json") == "csv" and not args.out:
            raise ValueError("--format csv needs --out")
        report, passed = args.fn(args)
        if report is not None:
            _emit(report, args)
        return 0 if passed else 1
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
