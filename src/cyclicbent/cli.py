"""Batch command-line front end.

Every subcommand emits a JSON report (stdout or --out); sequence families
and codebooks can be exported as CSV with --format csv.  Reports embed
exact rationals as "num/den" strings next to float renderings.  Exit code
0 means every check the invocation requested passed.

Subcommands: construct, verify, codebook, mub, seqfam, code, design,
charquad, selftest.
"""

from __future__ import annotations

import argparse
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


def _fraction_fields(name: str, value: Fraction) -> dict:
    return {name: str(value), f"{name}_float": float(value)}


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in s.split(",") if tok != "")


def _chain_spec(args) -> cn.ChainSpec:
    m = args.m
    if m is None:
        raise ValueError("a bent input needs --m")
    e = _parse_ints(args.chain) if args.chain else (1, m - 1)
    gamma = _parse_ints(args.gamma) if args.gamma else (1,) * (len(e) - 1)
    return cn.ChainSpec(m, e, gamma)


def _eps_vector(args, q: int) -> list[int]:
    mode = getattr(args, "eps", "zeros") or "zeros"
    if mode == "zeros":
        return [0] * (q - 1)
    if mode == "ones":
        return [1] * (q - 1)
    if mode == "random":
        rng = np.random.default_rng(args.seed)
        return [int(b) for b in rng.integers(0, 2, q - 1)]
    raise SystemExit(f"unknown eps mode {mode!r}")


def _semibent_input(args) -> bf.BoolFun:
    n = args.n
    if n is None:
        raise ValueError("a semi-bent input needs --n")
    ctx = mk_field(n)
    if getattr(args, "restrict_bent", False):
        f = cn.kerdock_fn(n + 1)
        return cn.derive_semibent(f, getattr(args, "eps_bit", 0))
    i = getattr(args, "gold", 1)
    return bf.from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, (1 << i) + 1)))


def _parse_linpoly(ctx, text: str) -> lp.LinPoly:
    """Parse sums like "x^4", "x^2+x^4", "3*x^2+x" (coefficients are field
    element indices; exponents must be powers of two)."""
    terms: dict[int, int] = {}
    for raw in text.replace(" ", "").split("+"):
        if not raw:
            continue
        coef = 1
        body = raw
        if "*" in raw:
            c, body = raw.split("*", 1)
            coef = int(c, 0)
        if body == "x":
            exp = 1
        elif body.startswith("x^"):
            exp = int(body[2:], 0)
        else:
            raise SystemExit(f"cannot parse linearized term {raw!r}")
        i = exp.bit_length() - 1
        if 1 << i != exp:
            raise SystemExit(f"exponent {exp} is not a power of two")
        terms[i] = terms.get(i, 0) ^ coef
    return lp.LinPoly.from_dict(ctx, terms)


# -- subcommands ---------------------------------------------------------------------


def cmd_construct(args) -> int:
    if args.enumerate_gamma:
        m = args.m
        e = _parse_ints(args.chain) if args.chain else (1, m - 1)
        rows = []
        ok = True
        for gamma in cn.admissible_gammas(m, e):
            spec = cn.ChainSpec(m, e, gamma)
            f = cn.chain_fn(spec)
            cert = cn.certify_cyclic_bent(f, args.mode)
            ok = ok and cert.passed
            rows.append({"spec": spec.to_json_obj(), "certificate": cert.to_json_obj()})
        _emit({"command": "construct", "chains": rows, "all_passed": ok}, args)
        return 0 if ok else 1
    spec = _chain_spec(args)
    f = cn.chain_fn(spec)
    cert = cn.certify_cyclic_bent(f, args.mode)
    report = {
        "command": "construct",
        "spec": spec.to_json_obj(),
        "certificate": cert.to_json_obj(),
        "truth_table": json.loads(f.to_json()),
    }
    _emit(report, args)
    return 0 if cert.passed else 1


def cmd_verify(args) -> int:
    if args.n is not None:
        g = _semibent_input(args)
        cert = cn.is_cyclic_semibent(g, "full" if args.mode == "full" else "reduced",
                                     threads=args.threads)
        agree = None
        if args.mode == "auto":
            agree = cn.is_cyclic_semibent(g, "full", threads=args.threads).passed == cert.passed
        report = {"command": "verify", "n": args.n, "certificate": cert.to_json_obj()}
        if agree is not None:
            report["full_reduced_agree"] = agree
        _emit(report, args)
        return 0 if cert.passed and agree in (None, True) else 1
    spec = _chain_spec(args)
    f = cn.chain_fn(spec)
    if args.mode == "full":
        cert = cn.is_cyclic_bent_full(f, threads=args.threads)
    elif args.mode == "reduced":
        cert = cn.is_cyclic_bent_reduced(f)
    else:
        cert = cn.certify_cyclic_bent(f, "auto")
    _emit({"command": "verify", "spec": spec.to_json_obj(),
           "certificate": cert.to_json_obj()}, args)
    return 0 if cert.passed else 1


def cmd_codebook(args) -> int:
    if args.kind == "semibent":
        g = _semibent_input(args)
        cert = cn.is_cyclic_semibent(g, "reduced")
        cb = cbk.build_semibent_codebook(g, cert)
        rep = cbk.optimality_report(cb, "real", threads=args.threads)
        expected_sq = Fraction(1, 1 << (args.n - 1))  # exact 2^{1-n}
        status = "ALMOST (exact imax_sq = 2^(1-n))" if Fraction(rep["imax_sq"]) == expected_sq else "UNEXPECTED"
        report = {"command": "codebook", "kind": "semibent", **rep, "status": status}
        passed = Fraction(rep["imax_sq"]) == expected_sq
    else:
        spec = _chain_spec(args)
        f = cn.chain_fn(spec)
        cert = cn.certify_cyclic_bent(f, "auto")
        if args.kind == "real":
            cb = cbk.build_real_codebook(f, _eps_vector(args, f.domain.ctx.order), cert)
            rep = cbk.optimality_report(cb, "real", threads=args.threads)
        else:
            cb = cbk.mub_to_codebook(cbk.build_mub(f, cert))
            rep = cbk.optimality_report(cb, "complex", threads=args.threads)
        report = {"command": "codebook", "kind": args.kind,
                  "status": "OPTIMAL" if rep["optimal"] else "NOT OPTIMAL", **rep}
        passed = rep["optimal"]
    if args.format == "csv":
        if not args.out:
            raise SystemExit("--format csv needs --out")
        cb.write_csv(args.out)
        report["csv"] = args.out
    _emit(report, args)
    return 0 if passed else 1


def cmd_mub(args) -> int:
    spec = _chain_spec(args)
    f = cn.chain_fn(spec)
    cert = cn.certify_cyclic_bent(f, "auto")
    mubs = cbk.build_mub(f, cert)
    rep = cbk.verify_mub(mubs)
    ok = rep["complete"] and rep["orthonormal"] and rep["unbiased"]
    report = {"command": "mub", "k": mubs.k, **rep}
    if args.format == "csv":
        if not args.out:
            raise SystemExit("--format csv needs --out")
        cbk.mub_to_codebook(mubs).write_csv(args.out)
        report["csv"] = args.out
    if args.walsh_check:
        agree = True
        for a in range(mubs.k):
            for a2 in range(a + 1, mubs.k):
                gre, gim = cbk._gram(mubs.bases_re[1 + a], mubs.bases_im[1 + a],
                                     mubs.bases_re[1 + a2], mubs.bases_im[1 + a2])
                wre, wim = cbk.mub_gram_via_walsh(f, a, a2)
                agree = agree and np.array_equal(gre, wre) and np.array_equal(gim, wim)
        report["walsh_route_agrees"] = agree
        ok = ok and agree
    report["status"] = "PASS" if ok else "FAIL"
    _emit(report, args)
    return 0 if ok else 1


def cmd_seqfam(args) -> int:
    if args.kind == "semibent":
        g = _semibent_input(args)
        fam = sf.semibent_family(g)
        expected = sf.expected_semibent_distribution(args.n)
    else:
        spec = _chain_spec(args)
        f = cn.chain_fn(spec)
        cert = cn.certify_cyclic_bent(f, "auto")
        if args.kind == "quaternary":
            fam = sf.quaternary_family(f, cert)
            expected = sf.expected_quaternary_distribution(args.m)
        else:
            fam = sf.binary_family(f, cert)
            expected = sf.expected_binary_distribution(args.m)
    dist = sf.full_distribution(fam)
    report = {
        "command": "seqfam",
        "kind": args.kind,
        "family_size": fam.size,
        "period": fam.period,
        "r_max_sq": dist.r_max_sq,
        "distribution": json.loads(dist.to_json()),
    }
    passed = True
    if args.table_check:
        match = dist.counts == expected
        report["table_check"] = "PASS" if match else "FAIL"
        report["expected"] = [
            {"value": sf.format_gaussian(v), "count": c} for v, c in sorted(expected.items())
        ]
        passed = match
    if args.format == "csv":
        if not args.out:
            raise SystemExit("--format csv needs --out")
        fam.write_csv(args.out)
        report["csv"] = args.out
    _emit(report, args)
    return 0 if passed else 1


def cmd_code(args) -> int:
    if args.n is not None:
        g = _semibent_input(args)
        code = cd.build_code_g(g)
        n = args.n
        expected_weight = {
            0: 1,
            1 << n: 1,
            1 << (n - 1): (1 << (2 * n)) + (1 << n) - 2,
            (1 << (n - 1)) + (1 << ((n - 1) // 2)): (1 << (2 * n - 1)) - (1 << (n - 1)),
            (1 << (n - 1)) - (1 << ((n - 1) // 2)): (1 << (2 * n - 1)) - (1 << (n - 1)),
        }
    else:
        spec = _chain_spec(args)
        f = cn.chain_fn(spec)
        code = cd.build_code_f(f, cn.certify_cyclic_bent(f, "auto"))
        m = args.m
        expected_weight = {
            0: 1,
            1 << m: 1,
            1 << (m - 1): (1 << (m + 1)) - 2,
            (1 << (m - 1)) + (1 << ((m - 2) // 2)): (1 << m) * ((1 << (m - 1)) - 1),
            (1 << (m - 1)) - (1 << ((m - 2) // 2)): (1 << m) * ((1 << (m - 1)) - 1),
        }
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
    _emit(report, args)
    return 0 if weight_ok and dist_ok else 1


def cmd_design(args) -> int:
    if args.n is not None:
        code = cd.build_code_g(_semibent_input(args))
    else:
        spec = _chain_spec(args)
        f = cn.chain_fn(spec)
        code = cd.build_code_f(f, cn.certify_cyclic_bent(f, "auto"))
    res = cd.support_design(code, args.k, args.t)
    report = {"command": "design", **res.to_json_obj(),
              "status": "DESIGN" if res.passed else "NOT A DESIGN"}
    _emit(report, args)
    return 0 if res.passed else 1


def cmd_charquad(args) -> int:
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
    _emit(report, args)
    return 0 if agree else 1


def cmd_selftest(args) -> int:
    checks: list[tuple[str, bool]] = []

    def check(label, ok):
        checks.append((label, bool(ok)))
        print(f"{'PASS' if ok else 'FAIL'}  {label}")

    f4 = cn.kerdock_fn(4)
    check("cyclic-bent full certification (m=4)", cn.is_cyclic_bent_full(f4).passed)
    check("cyclic-bent reduced == full (m=4)", cn.is_cyclic_bent_reduced(f4).passed)
    cb = cbk.build_real_codebook(f4)
    check(
        "real codebook (144,16) meets bound 1/16",
        cbk.imax_sq(cb) == cbk.levenshtein_real_sq(144, 16) == Fraction(1, 16),
    )
    mubs = cbk.build_mub(f4)
    rep = cbk.verify_mub(mubs)
    check("complete MUB set of 9 bases in C^8", rep["complete"] and rep["orthonormal"] and rep["unbiased"])
    ccb = cbk.mub_to_codebook(mubs)
    check(
        "complex codebook (72,8) meets bound 1/8, alphabet 6",
        cbk.imax_sq(ccb) == Fraction(1, 8) and ccb.alphabet_size == 6,
    )
    fam = sf.quaternary_family(f4)
    check(
        "quaternary family distribution matches closed form (m=4)",
        sf.full_distribution(fam).counts == sf.expected_quaternary_distribution(4),
    )
    famb = sf.binary_family(f4)
    check(
        "binary family distribution matches closed form (m=4)",
        sf.full_distribution(famb).counts == sf.expected_binary_distribution(4),
    )
    ctx3 = mk_field(3)
    g3 = bf.from_field_fn(ctx3, lambda x: ctx3.trace(ctx3.pow(x, 3)))
    famg = sf.semibent_family(g3)
    check(
        "semi-bent family distribution matches closed form (n=3)",
        sf.full_distribution(famg).counts == sf.expected_semibent_distribution(3),
    )
    code = cd.build_code_f(f4)
    repc = cd.weight_distance_distributions(code)
    check(
        "code C(f) at m=4 is (16,256,6) with the closed-form weights",
        (code.length, code.size, repc.min_distance()) == (16, 256, 6)
        and repc.weight == {0: 1, 6: 112, 8: 30, 10: 112, 16: 1},
    )
    check(
        "support designs 3-(16,6,4), 3-(16,8,3), 3-(16,10,24)",
        cd.support_design(code, 6, 3).lam == 4
        and cd.support_design(code, 8, 3).lam == 3
        and cd.support_design(code, 10, 3).lam == 24,
    )
    L = lp.LinPoly.from_dict(mk_field(5), {2: 1})
    ok_g, _ = lp.is_cyclic_semibent_quadratic(L)
    ok_r, _ = lp.is_cyclic_semibent_quadratic(L, path="rank")
    walsh_ok = cn.is_cyclic_semibent(lp.quad_form(L), "full").passed
    check("gcrd characterization agrees with Walsh route (m=5, x^4)", ok_g and ok_r and walsh_ok)
    failed = [label for label, ok in checks if not ok]
    print(f"{len(checks) - len(failed)}/{len(checks)} selftest checks passed")
    return 0 if not failed else 1


# -- argument wiring -----------------------------------------------------------------


def _add_common(p, with_m=True, with_n=False):
    p.add_argument("--out", help="write the JSON report (or CSV data) to this path")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=2024, help="seed for randomized choices")
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
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
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("codebook", help="build a codebook and compare to the bound")
    _add_common(p, with_n=True)
    p.add_argument("--kind", choices=["real", "complex", "semibent"], default="real")
    p.add_argument("--eps", choices=["zeros", "ones", "random"], default="zeros")
    p.set_defaults(fn=cmd_codebook)

    p = sub.add_parser("mub", help="build and verify the complete MUB set")
    _add_common(p)
    p.add_argument("--walsh-check", action="store_true",
                   help="also verify every cross Gram via the Walsh route")
    p.set_defaults(fn=cmd_mub)

    p = sub.add_parser("seqfam", help="build a sequence family and its distribution")
    _add_common(p, with_n=True)
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

    p = sub.add_parser("selftest", help="compact end-to-end battery at m=4 / n=3")
    _add_common(p, with_m=False)
    p.set_defaults(fn=cmd_selftest)

    args = ap.parse_args(argv)
    if getattr(args, "m", None) is None and getattr(args, "n", None) is None \
            and args.cmd in ("construct", "verify", "codebook", "mub", "seqfam", "code", "design"):
        ap.error(f"{args.cmd} needs --m (or --n where applicable)")
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
