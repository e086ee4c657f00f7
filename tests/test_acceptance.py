"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
All comparisons are exact (integers, Gaussian integers, fractions).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cyclicbent import boolfun as bf
from cyclicbent import codebook as cbk
from cyclicbent import codes as cd
from cyclicbent import construct as cn
from cyclicbent import linpoly as lp
from cyclicbent import seqfam as sf
from cyclicbent.gf2 import mk_field

from oracles import (divisor_chains, expected_semibent_walsh_distribution, from_field_fn,
                     gcrd_kernel_dim)

import test_spectral_identities


def criterion(num, desc, ok, t0):
    line = f"ACCEPT {num:>2}  {'PASS' if ok else 'FAIL'}  [{time.time() - t0:6.2f}s]  {desc}"
    print(line, flush=True)
    assert ok, line


def gold(n, i=1):
    ctx = mk_field(n)
    return from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, (1 << i) + 1)))


def test_c1_cyclic_bent_certification():
    t0 = time.time()
    ok = cn.is_cyclic_bent_full(cn.kerdock_fn(4)).passed
    ok = ok and cn.is_cyclic_bent_full(cn.kerdock_fn(6)).passed
    for m in (4, 6, 8):
        for e in divisor_chains(m - 1):
            for gamma in cn.admissible_gammas(m, e):
                f = cn.chain_fn(cn.ChainSpec(m, e, gamma))
                ok = ok and cn.is_cyclic_bent_reduced(f).passed
    for m in (4, 6):
        f = cn.kerdock_fn(m)
        ok = ok and (cn.is_cyclic_bent_full(f).passed == cn.is_cyclic_bent_reduced(f).passed)
    criterion(1, "cyclic-bent certification: full m=4,6; reduced all chains m=4,6,8; modes agree", ok, t0)


def test_c2_chain_breadth_m10():
    t0 = time.time()
    ok = cn.is_cyclic_bent_reduced(cn.chain_fn(cn.ChainSpec(10, (1, 9), (1,)))).passed
    gammas = cn.admissible_gammas(10, (1, 3, 9))
    ok = ok and len(gammas) == 7
    for gamma in gammas:
        f = cn.chain_fn(cn.ChainSpec(10, (1, 3, 9), gamma))
        ok = ok and cn.is_cyclic_bent_reduced(f).passed
    criterion(2, "m=10 chains (1,9) and all 7 gamma choices of (1,3,9) certified", ok, t0)


def test_c3_real_codebook_optimal():
    t0 = time.time()
    cb4 = cbk.build_real_codebook(cn.kerdock_fn(4))
    ok = (cb4.n_rows, cb4.length) == (144, 16)
    ok = ok and cbk.imax_sq(cb4) == cbk.levenshtein_real_sq(144, 16) == Fraction(1, 16)
    cb6 = cbk.build_real_codebook(cn.kerdock_fn(6))
    ok = ok and (cb6.n_rows, cb6.length) == (2112, 64)
    ok = ok and cbk.imax_sq(cb6) == cbk.levenshtein_real_sq(2112, 64) == Fraction(1, 64)
    ok = ok and cb4.alphabet_size == cb6.alphabet_size == 4
    criterion(3, "real codebooks meet the bound exactly: (144,16) at 1/16, (2112,64) at 1/64", ok, t0)


def test_c4_mub_completeness():
    t0 = time.time()
    ok = True
    for m in (4, 6):
        mubs = cbk.build_mub(cn.kerdock_fn(m))
        rep = cbk.verify_mub(mubs)
        ok = ok and mubs.n_blocks + 1 == (1 << (m - 1)) + 1
        ok = ok and rep["complete"] and rep["orthonormal"] and rep["unbiased"]
    criterion(4, "complete MUB sets at m=4 (9 bases of C^8) and m=6 (33 bases of C^32), exact", ok, t0)


def test_c5_complex_codebook_optimal():
    t0 = time.time()
    cb4 = cbk.build_mub(cn.kerdock_fn(4))
    ok = (cb4.n_rows, cb4.length) == (72, 8)
    ok = ok and cbk.imax_sq(cb4) == cbk.levenshtein_complex_sq(72, 8) == Fraction(1, 8)
    cb6 = cbk.build_mub(cn.kerdock_fn(6))
    ok = ok and (cb6.n_rows, cb6.length) == (1056, 32)
    ok = ok and cbk.imax_sq(cb6) == cbk.levenshtein_complex_sq(1056, 32) == Fraction(1, 32)
    ok = ok and cb4.alphabet_size == cb6.alphabet_size == 6
    criterion(5, "complex codebooks meet the bound exactly: (72,8) at 1/8, (1056,32) at 1/32; alphabet 6", ok, t0)


def test_c6_quaternary_table():
    t0 = time.time()
    d4 = sf.full_distribution(sf.quaternary_family(cn.kerdock_fn(4)))
    frozen = {(7, 0): 9, (-1, 0): 62, (1, 2): 186, (1, -2): 186, (-3, 2): 62, (-3, -2): 62}
    ok = d4.counts == frozen and d4.total == 567
    d6 = sf.full_distribution(sf.quaternary_family(cn.kerdock_fn(6)))
    ok = ok and d6.counts == sf.expected_quaternary_distribution(6)
    ok = ok and d6.total == 33 * 33 * 31
    criterion(6, "quaternary distribution: frozen m=4 table and closed form at m=6 (total 33^2*31)", ok, t0)


def test_c7_binary_table_m6():
    t0 = time.time()
    fam = sf.binary_family(cn.kerdock_fn(6))
    dist = sf.full_distribution(fam)
    frozen = {
        (62, 0): 32, (-2, 0): 736, (0, 0): 1024, (2, 0): 256,
        (6, 0): 14400, (8, 0): 15360, (10, 0): 2880,
        (-10, 0): 8640, (-8, 0): 15360, (-6, 0): 4800,
    }
    ok = dist.counts == frozen and dist.total == 63488
    ok = ok and sf.r_max_sq(fam) == 100  # R_max = 2^{m/2} + 2 = 10
    criterion(7, "binary family at m=6: ten-row frozen distribution, total 63488, R_max = 10", ok, t0)


def test_c8_semibent_sequence_table():
    t0 = time.time()
    d3 = sf.full_distribution(sf.semibent_family(gold(3)))
    ok = d3.counts == {(7, 0): 9, (-1, 0): 310, (3, 0): 186, (-5, 0): 62}
    fam5 = sf.semibent_family(gold(5))
    d5 = sf.full_distribution(fam5)
    ok = ok and d5.counts == sf.expected_semibent_distribution(5)
    for n, dist, fam in ((3, d3, sf.semibent_family(gold(3))), (5, d5, fam5)):
        peak = 1 << ((n + 1) // 2)
        off_peak = set(dist.counts) - {((1 << n) - 1, 0)}
        ok = ok and off_peak == {(-1, 0), (peak - 1, 0), (-peak - 1, 0)}
        ok = ok and sf.r_max_sq(fam) == (1 + peak) ** 2
    criterion(8, "semi-bent family: frozen n=3 table, closed form n=5, values in {-1, -1±2^{(n+1)/2}}", ok, t0)


def test_c9_code_f():
    t0 = time.time()
    code4 = cd.build_code_f(cn.kerdock_fn(4))
    rep4 = cd.weight_distance_distributions(code4)
    ok = (code4.length, code4.size, rep4.min_distance()) == (16, 256, 6)
    ok = ok and rep4.weight == {0: 1, 6: 112, 8: 30, 10: 112, 16: 1}
    ok = ok and rep4.distance == rep4.weight
    ok = ok and cd.support_design(code4, 6, 3).lam == 4
    ok = ok and cd.support_design(code4, 8, 3).lam == 3
    ok = ok and cd.support_design(code4, 10, 3).lam == 24
    code6 = cd.build_code_f(cn.kerdock_fn(6))
    rep6 = cd.weight_distance_distributions(code6)
    ok = ok and (code6.length, code6.size, rep6.min_distance()) == (64, 4096, 28)
    ok = ok and rep6.weight == {0: 1, 28: 1984, 32: 126, 36: 1984, 64: 1}
    ok = ok and rep6.distance == rep6.weight
    d28 = cd.support_design(code6, 28, 3)
    d32 = cd.support_design(code6, 32, 3)
    d36 = cd.support_design(code6, 36, 3)
    ok = ok and (d28.lam, d32.lam, d36.lam) == (156, 15, 340)
    criterion(9, "C(f): (16,256,6) with 3-designs 4/3/24; (64,4096,28) with 3-designs 156/15/340", ok, t0)


def test_c10_code_g():
    t0 = time.time()
    code3 = cd.build_code_g(gold(3))
    rep3 = cd.weight_distance_distributions(code3)
    ok = (code3.length, code3.size, rep3.min_distance()) == (8, 128, 2)
    ok = ok and rep3.weight == {0: 1, 2: 28, 4: 70, 6: 28, 8: 1}
    code5 = cd.build_code_g(gold(5))
    rep5 = cd.weight_distance_distributions(code5)
    ok = ok and (code5.length, code5.size, rep5.min_distance()) == (32, 2048, 12)
    ok = ok and rep5.weight == {0: 1, 12: 496, 16: 1054, 20: 496, 32: 1}
    ok = ok and rep5.weight[16] == 2 ** 10 + 2 ** 5 - 2
    criterion(10, "C(g): (8,128,2) with A=(1,28,70,28,1); (32,2048,12) with A_16=1054, A_12=A_20=496", ok, t0)


def test_c11_semibent_walsh_distribution():
    t0 = time.time()
    ok = True
    cases = []
    for m in (4, 6, 8):
        f = cn.kerdock_fn(m)
        for eps in (0, 1):
            cases.append(cn.derive_semibent(f, eps))
    for n, i in ((3, 1), (5, 1), (5, 2), (7, 1), (7, 2), (7, 3)):
        cases.append(gold(n, i))
    for g in cases:
        n = g.n_vars
        if int(g.table[0]) != 0:
            g = bf.BoolFun(g.domain, g.table ^ 1)
        cert = cn.is_cyclic_semibent(g, "reduced")
        ok = ok and cert.passed
        vals, counts = np.unique(bf.walsh(g).values, return_counts=True)
        dist = dict(zip(vals.tolist(), counts.tolist()))
        ok = ok and dist == expected_semibent_walsh_distribution(n)
    criterion(11, "certified semi-bents at n=3,5,7 have the exact Walsh histogram {0, ±2^{(n+1)/2}}", ok, t0)


def test_c12_gcrd_characterization():
    t0 = time.time()
    ok = True
    for m in (3, 5, 7, 9):
        ctx = mk_field(m)
        rng = np.random.default_rng(500 + m)
        for _ in range(200):
            L = lp.LinPoly(ctx, tuple(int(rng.integers(0, ctx.order)) for _ in range(m)))
            ok = ok and gcrd_kernel_dim(L) == lp.kernel_dim(L)
    ctx3 = mk_field(3)
    for a1 in range(8):
        for a2 in range(8):
            L = lp.LinPoly(ctx3, (0, a1, a2))
            verdict, _ = lp.is_cyclic_semibent_quadratic(L)
            ok = ok and verdict == cn.is_cyclic_semibent(lp.quad_form(L), "full").passed
    for m in (5, 7):
        ctx = mk_field(m)
        rng = np.random.default_rng(900 + m)
        for _ in range(50):
            L = lp.LinPoly(ctx, tuple(int(rng.integers(0, ctx.order)) for _ in range(m)))
            verdict, _ = lp.is_cyclic_semibent_quadratic(L)
            rank_verdict, _ = lp.is_cyclic_semibent_quadratic(L, path="rank")
            walsh_verdict = cn.is_cyclic_semibent(lp.quad_form(L), "reduced").passed
            ok = ok and verdict == rank_verdict == walsh_verdict
    criterion(12, "kernel_dim == deg gcrd on 200 random L per m=3,5,7,9; verdicts match Walsh route", ok, t0)


def test_c13_spectral_identity_suite():
    t0 = time.time()
    ok = True
    try:
        for m in (4, 6):
            test_spectral_identities.test_bent_restriction_split(m)
            test_spectral_identities.test_halfspectrum_sums_shifted_pairs(m)
            test_spectral_identities.test_halfspectrum_sums_scaled_copies(m)
            test_spectral_identities.test_joint_sign_counts(m)
            test_spectral_identities.test_single_sign_counts(m)
            test_spectral_identities.test_hyperplane_pair_counts(m)
    except AssertionError:
        ok = False
    criterion(13, "spectral counting identities (splits, sums, joint/single/hyperplane counts) at m=4 and m=6", ok, t0)
