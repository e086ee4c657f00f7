"""Linearized/skew polynomial tests.

Hand-worked skew-ring examples in GF(8)[x; Frobenius] (all divisions are
right divisions):
    x^3 + 1 = (x + 1)(x^2 + x) + (x + 1)  and then x^2 + x = x(x + 1) + 0,
    so gcrd(x + 1, x^3 + 1) = x + 1 and gcrd(x^2 + x, x^3 + 1) = x + 1.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicbent import construct as cn
from cyclicbent import linpoly as lp
from cyclicbent.cli import main
from cyclicbent.gf2 import mk_field

from oracles import (
    cyclic_semibent_quadratic_by_tau,
    from_field_fn,
    is_semibent,
    kernel_dim_by_elimination,
    linpoly_eval_by_squaring,
    phi_l_tau,
    quad_form_by_points,
)


def monomial(ctx, i, c=1):
    return lp.LinPoly.from_dict(ctx, {i: c})


def test_evaluate_and_quad_form():
    ctx = mk_field(3)
    L = monomial(ctx, 1)  # x^2
    q = lp.quad_form(L)  # tr(x * x^2) = tr(x^3)
    g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
    assert q == g
    assert q.value(0) == 0
    ident = monomial(ctx, 0)
    q2 = lp.quad_form(ident)  # tr(x^2) = tr(x)
    assert q2 == from_field_fn(ctx, lambda x: ctx.trace(x))


def test_adjoint_monomials_and_involution():
    for m in (3, 5, 7):
        ctx = mk_field(m)
        for i in range(m):
            Ls = lp.adjoint(monomial(ctx, i))
            # (x^{2^i})* = x^{2^{m-i}}
            expect = monomial(ctx, (m - i) % m)
            assert Ls.coeffs == expect.coeffs
        rng = np.random.default_rng(m)
        L = lp.LinPoly(ctx, tuple(int(rng.integers(0, ctx.order)) for _ in range(m)))
        assert lp.adjoint(lp.adjoint(L)).coeffs == L.coeffs
    ctx = mk_field(5)
    ident = monomial(ctx, 0)
    assert lp.adjoint(ident).coeffs == ident.coeffs


def test_adjoint_bilinear_identity():
    # tr(x L(y)) = tr(y L*(x)): exhaustive for m <= 6, random pairs at m = 8
    for m in (3, 4, 6):
        ctx = mk_field(m)
        rng = np.random.default_rng(10 + m)
        L = lp.LinPoly(ctx, tuple(int(rng.integers(0, ctx.order)) for _ in range(m)))
        Ls = lp.adjoint(L)
        for x in range(ctx.order):
            for y in range(ctx.order):
                assert ctx.trace(ctx.mul(x, L.evaluate(y))) == ctx.trace(
                    ctx.mul(y, Ls.evaluate(x))
                )
    ctx = mk_field(8)
    rng = np.random.default_rng(88)
    L = lp.LinPoly(ctx, tuple(int(rng.integers(0, ctx.order)) for _ in range(8)))
    Ls = lp.adjoint(L)
    for _ in range(500):
        x = int(rng.integers(0, ctx.order))
        y = int(rng.integers(0, ctx.order))
        assert ctx.trace(ctx.mul(x, L.evaluate(y))) == ctx.trace(ctx.mul(y, Ls.evaluate(x)))


def test_kernel_dim_basics():
    ctx = mk_field(5)
    zero = lp.LinPoly(ctx, (0,) * 5)
    assert lp.kernel_dim(zero) == 5
    frob_minus_id = lp.LinPoly.from_dict(ctx, {0: 1, 1: 1})  # x + x^2
    assert lp.kernel_dim(frob_minus_id) == 1  # kernel is GF(2)
    ctx3 = mk_field(3)
    L = lp.LinPoly.from_dict(ctx3, {1: 1, 2: 1})  # x^2 + x^4
    assert lp.kernel_dim(L) == 1


@st.composite
def linpolys(draw, max_degree: int):
    """A linearized polynomial over GF(2^m), 1 <= m <= max_degree, about half
    of whose coefficients are zero."""
    ctx = mk_field(draw(st.integers(1, max_degree)))
    coef = st.one_of(st.just(0), st.integers(0, ctx.order - 1))
    return lp.LinPoly(ctx, tuple(draw(coef) for _ in range(ctx.degree)))


@settings(max_examples=200, deadline=None)
@given(L=linpolys(12), data=st.data())
def test_evaluate_matches_the_squaring_chain(L, data):
    x = data.draw(st.integers(0, L.ctx.order - 1))
    assert L.evaluate(x) == linpoly_eval_by_squaring(L, x)


@settings(max_examples=200, deadline=None)
@given(L=linpolys(12))
def test_kernel_dim_matches_elimination(L):
    assert lp.kernel_dim(L) == kernel_dim_by_elimination(L)


@pytest.mark.parametrize("m", range(1, 13))
def test_kernel_dim_of_zero_identity_and_x_plus_x2(m):
    ctx = mk_field(m)
    # x + x^2 has kernel GF(2); at m = 1 it is the zero map on GF(2)
    for terms, dim in (({}, m), ({0: 1}, 0), ({0: 1, 1: 1}, 1)):
        L = lp.LinPoly.from_dict(ctx, terms)
        assert lp.kernel_dim(L) == kernel_dim_by_elimination(L) == dim


@settings(max_examples=40, deadline=None)
@given(L=linpolys(11))
def test_quad_form_matches_the_per_point_form(L):
    assert lp.quad_form(L) == quad_form_by_points(L)


def test_skew_mul_twist():
    ctx = mk_field(3)
    b = ctx.generator
    # x * b = b^2 x
    left = lp.SkewPoly.make(ctx, [0, 1])
    right = lp.SkewPoly.make(ctx, [b])
    assert left.mul(right).coeffs == (0, ctx.sqr(b))
    # associativity on a few random triples
    rng = np.random.default_rng(4)
    for _ in range(20):
        ps = [
            lp.SkewPoly.make(ctx, [int(rng.integers(0, 8)) for _ in range(3)])
            for _ in range(3)
        ]
        a, b2, c = ps
        assert a.mul(b2).mul(c).coeffs == a.mul(b2.mul(c)).coeffs


def test_rdivmod_reconstructs():
    ctx = mk_field(5)
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = lp.SkewPoly.make(ctx, [int(rng.integers(0, 32)) for _ in range(6)])
        b = lp.SkewPoly.make(ctx, [int(rng.integers(0, 32)) for _ in range(3)])
        if b.is_zero():
            continue
        q, r = lp.rdivmod(a, b)
        assert r.degree < b.degree or r.is_zero()
        recon = q.mul(b)
        out = list(recon.coeffs) + [0] * 8
        for i, c in enumerate(r.coeffs):
            out[i] ^= c
        assert lp.SkewPoly.make(ctx, out).coeffs == a.coeffs
    with pytest.raises(ZeroDivisionError):
        lp.rdivmod(a, lp.SkewPoly(ctx, ()))


def _skew_poly(data, ctx, max_degree):
    coeffs = data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=max_degree + 1))
    return lp.SkewPoly.make(ctx, coeffs)


def _add(p, r):
    out = [0] * max(len(p.coeffs), len(r.coeffs))
    for c in (p.coeffs, r.coeffs):
        for i, v in enumerate(c):
            out[i] ^= v
    return lp.SkewPoly.make(p.ctx, out)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rdivmod_property(data):
    # a = q b + r with deg r < deg b, for every nonzero b
    ctx = mk_field(data.draw(st.integers(1, 8)))
    a = _skew_poly(data, ctx, 10)
    b = _skew_poly(data, ctx, 6)
    if b.is_zero():
        b = lp.SkewPoly.make(ctx, b.coeffs + (data.draw(st.integers(1, ctx.order - 1)),))
    q, r = lp.rdivmod(a, b)
    assert r.degree < b.degree
    assert _add(q.mul(b), r) == a


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_skew_mul_is_associative(data):
    ctx = mk_field(data.draw(st.integers(1, 6)))
    a, b, c = (_skew_poly(data, ctx, 6) for _ in range(3))
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_gcrd_hand_examples_gf8():
    ctx = mk_field(3)
    xm1 = lp.x_pow_m_minus_1(ctx)
    x_plus_1 = lp.SkewPoly.make(ctx, [1, 1])
    g = lp.skew_gcrd(x_plus_1, xm1)
    assert g.coeffs == (1, 1) and g.degree == 1
    # gcrd(p, 0) = monic(p)
    p = lp.SkewPoly.make(ctx, [ctx.generator, 0, 1, 1])
    assert lp.skew_gcrd(p, lp.SkewPoly(ctx, ())).coeffs == p.monic().coeffs
    # L = x^2 + x^4 has assoc x + x^2; gcrd degree 1 = kernel_dim
    L = lp.LinPoly.from_dict(ctx, {1: 1, 2: 1})
    assert lp.gcrd_kernel_dim(L) == 1 == lp.kernel_dim(L)


def test_gcrd_degree_equals_rank_kernel_random():
    for m in (3, 5, 7, 9):
        ctx = mk_field(m)
        rng = np.random.default_rng(100 + m)
        for _ in range(200):
            L = lp.LinPoly(ctx, tuple(int(rng.integers(0, ctx.order)) for _ in range(m)))
            assert lp.gcrd_kernel_dim(L) == lp.kernel_dim(L)
    # structured examples: Frobenius powers minus identity
    ctx = mk_field(9)
    for i in range(1, 9):
        L = lp.LinPoly.from_dict(ctx, {0: 1, i: 1})
        assert lp.gcrd_kernel_dim(L) == lp.kernel_dim(L)


def test_phi_l_tau_values():
    ctx = mk_field(3)
    L = monomial(ctx, 1)  # x^2, so L + L* = x^2 + x^4
    with pytest.raises(ValueError):
        phi_l_tau(L, 1)
    tau = ctx.generator
    phi = phi_l_tau(L, tau)
    # coefficients: (a_i + a_{m-i}^{2^i})(1 + tau^{2^i+1})
    base = L.add(lp.adjoint(L))
    for i in range(1, 3):
        expect = ctx.mul(base.coeffs[i], 1 ^ ctx.pow(tau, (1 << i) + 1))
        assert phi.coeffs[i] == expect
    assert lp.kernel_dim(phi) == 1
    # defining formula agrees pointwise
    for x in range(8):
        direct = base.evaluate(x) ^ ctx.mul(tau, base.evaluate(ctx.mul(tau, x)))
        assert phi.evaluate(x) == direct


def test_one_plus_tau_power_nonzero_for_gold_exponents():
    # 1 + tau^{2^i+1} != 0 for tau outside GF(2) when gcd(i, m) = 1
    for m, i in [(3, 1), (5, 1), (5, 2), (7, 3)]:
        ctx = mk_field(m)
        for tau in range(2, ctx.order):
            assert ctx.pow(tau, (1 << i) + 1) != 1


def test_characterization_gold_monomials():
    # q(x) = x^{2^i+1}: cyclic semi-bent iff gcd(i, m) = 1 (m odd)
    import math

    for m in (3, 5, 7):
        ctx = mk_field(m)
        for i in range(1, m):
            L = monomial(ctx, i)
            ok, _ = lp.is_cyclic_semibent_quadratic(L)
            assert ok == (math.gcd(i, m) == 1)
            ok_rank, _ = lp.is_cyclic_semibent_quadratic(L, path="rank")
            assert ok_rank == ok


def test_characterization_even_m_rejected():
    ctx = mk_field(4)
    with pytest.raises(ValueError, match="odd"):
        lp.is_cyclic_semibent_quadratic(monomial(ctx, 1))


def test_characterization_matches_walsh_certifier_m3_exhaustive():
    # all quadratic L with a_0 = 0 (a_0 only shifts by a linear term)
    ctx = mk_field(3)
    for a1 in range(8):
        for a2 in range(8):
            L = lp.LinPoly(ctx, (0, a1, a2))
            ok, _ = lp.is_cyclic_semibent_quadratic(L)
            walsh_ok = cn.is_cyclic_semibent(lp.quad_form(L), "full").passed
            assert ok == walsh_ok
            ok_rank, _ = lp.is_cyclic_semibent_quadratic(L, path="rank")
            assert ok_rank == ok


def test_characterization_matches_walsh_certifier_random_m5_m7():
    for m, n_samples in [(5, 50), (7, 50)]:
        ctx = mk_field(m)
        rng = np.random.default_rng(31 * m)
        for _ in range(n_samples):
            L = lp.LinPoly(ctx, tuple(int(rng.integers(0, ctx.order)) for _ in range(m)))
            ok, _ = lp.is_cyclic_semibent_quadratic(L)
            assert ok == cn.is_cyclic_semibent(lp.quad_form(L), "reduced").passed
            ok_rank, _ = lp.is_cyclic_semibent_quadratic(L, path="rank")
            assert ok_rank == ok


def test_characterization_paths_agree_m9_samples():
    # no Walsh cross-check at m=9 (too large for the certifier caps in tests);
    # the gcrd and rank routes must still agree verdict for verdict
    ctx = mk_field(9)
    rng = np.random.default_rng(279)
    hits = 0
    for _ in range(20):
        L = lp.LinPoly(ctx, tuple(int(rng.integers(0, ctx.order)) for _ in range(9)))
        ok, rep = lp.is_cyclic_semibent_quadratic(L)
        ok_rank, _ = lp.is_cyclic_semibent_quadratic(L, path="rank")
        assert ok == ok_rank
        hits += ok
    # structured positive case: Gold exponent with gcd(i, 9) = 1
    ok, _ = lp.is_cyclic_semibent_quadratic(monomial(ctx, 2))
    assert ok and lp.is_cyclic_semibent_quadratic(monomial(ctx, 2), path="rank")[0]
    # and a degenerate one: gcd(3, 9) = 3
    assert not lp.is_cyclic_semibent_quadratic(monomial(ctx, 3))[0]


def test_semibent_classification_equals_kernel_one():
    # classify(quad_form(L)) == SemiBent iff kernel_dim(L + L*) == 1 (m odd)
    for m in (3, 5, 7):
        ctx = mk_field(m)
        rng = np.random.default_rng(m * 7)
        for _ in range(60):
            L = lp.LinPoly(ctx, tuple(int(rng.integers(0, ctx.order)) for _ in range(m)))
            semi = is_semibent(lp.quad_form(L))
            assert semi == (lp.kernel_dim(L.add(lp.adjoint(L))) == 1)


@st.composite
def odd_linpolys(draw):
    """A linearized polynomial over GF(2^m), m in {1, 3, 5, 7, 9}, most of
    whose coefficients are zero or one, so that both verdicts and failures
    at small and large tau all occur."""
    ctx = mk_field(draw(st.sampled_from([1, 3, 5, 7, 9])))
    coef = st.one_of(st.just(0), st.just(1), st.integers(0, ctx.order - 1))
    return lp.LinPoly(ctx, tuple(draw(coef) for _ in range(ctx.degree)))


@st.composite
def gf8_linpolys(draw):
    """A linearized polynomial over GF(2^9) whose coefficients are zero or
    lie in GF(8), so L + L* does too: the scan reads one tau per orbit of
    tau -> tau^8 (e = 3), or of tau -> tau^2 when they all fall in GF(2)."""
    ctx = mk_field(9)
    coef = st.one_of(st.just(0), st.sampled_from(ctx.subfield_elements(3)))
    return lp.LinPoly(ctx, tuple(draw(coef) for _ in range(ctx.degree)))


@settings(max_examples=80, deadline=None)
@given(L=st.one_of(odd_linpolys(), gf8_linpolys()), chunk=st.sampled_from([1, 7, 64, 1 << 12]))
def test_batched_tau_scan_matches_the_per_tau_routes(L, chunk):
    taus = np.arange(2, L.ctx.order)
    phis = [phi_l_tau(L, int(tau)) for tau in taus]
    assert lp.phi_kernel_dims(L, taus, "gcrd").tolist() == [lp.gcrd_kernel_dim(p) for p in phis]
    assert lp.phi_kernel_dims(L, taus, "rank").tolist() == [lp.kernel_dim(p) for p in phis]
    with mock.patch.object(lp, "_SCAN_TAUS", chunk):
        for path in ("gcrd", "rank"):
            assert lp.is_cyclic_semibent_quadratic(L, path) == cyclic_semibent_quadratic_by_tau(L, path)


@pytest.mark.parametrize("m, terms, decided", [
    # x^4: L + L* = x^4 + x^{2^{m-2}} lies over GF(2), e = 1, one tau per
    # orbit of tau -> tau^2: (2^m - 2)/m at prime m, and at m = 15 the
    # orbits of GF(8) and GF(32) outside GF(2) (2 and 6) plus 32730/15
    (7, {2: 1}, 18), (11, {2: 1}, 186), (13, {2: 1}, 630), (15, {2: 1}, 2190),
    # 28 lies in GF(8) but not GF(2), e = 3: the 6 taus of GF(8) outside
    # GF(2) each alone, and the other 504 in orbits of 3
    (9, {1: 28}, 174),
    # 2 = x lies in no proper subfield of GF(2^9), e = 9: every tau
    (9, {1: 2}, 510),
])
def test_tau_scan_decides_one_tau_per_frobenius_orbit(m, terms, decided):
    # every L here is cyclic semi-bent, so the scan decides every representative
    L = lp.LinPoly.from_dict(mk_field(m), terms)
    phi_dims = lp._phi_dims
    for path in ("gcrd", "rank"):
        seen = []
        with mock.patch.object(lp, "_phi_dims",
                               lambda c, taus, *rest: seen.append(len(taus)) or phi_dims(c, taus, *rest)):
            assert lp.is_cyclic_semibent_quadratic(L, path)[0]
        assert sum(seen) == decided


@pytest.mark.parametrize("m", [2, 4, 6])
def test_batched_tau_scan_at_even_m(m):
    # phi_{L,tau} is defined for every m; only the characterization needs m odd
    ctx = mk_field(m)
    rng = np.random.default_rng(m)
    taus = np.arange(2, ctx.order)
    for _ in range(10):
        L = lp.LinPoly(ctx, tuple(int(rng.integers(0, ctx.order)) for _ in range(m)))
        phis = [phi_l_tau(L, int(tau)) for tau in taus]
        assert lp.phi_kernel_dims(L, taus, "gcrd").tolist() == [lp.gcrd_kernel_dim(p) for p in phis]
        assert lp.phi_kernel_dims(L, taus, "rank").tolist() == [lp.kernel_dim(p) for p in phis]


def test_tau_scan_routes_agree_where_the_log_sums_are_widest():
    # at m = 19 the rank route's log sums c_i + 2^i log 2^j reach 2 (2^19 - 2)
    ctx = mk_field(19)
    rng = np.random.default_rng(19)
    L = lp.LinPoly(ctx, tuple(int(rng.integers(1, ctx.order)) for _ in range(19)))
    taus = np.concatenate([np.arange(2, 258), np.arange(ctx.order - 768, ctx.order)])
    rank = lp.phi_kernel_dims(L, taus, "rank")
    assert rank.tolist() == lp.phi_kernel_dims(L, taus, "gcrd").tolist()
    assert len(set(rank.tolist())) > 1  # both verdicts occur
    for tau in taus[::64]:
        assert rank[taus.tolist().index(tau)] == lp.kernel_dim(phi_l_tau(L, int(tau)))


def test_rank_route_memory_is_bounded():
    # the rank route keeps (T, m) arrays; a (T, m, m) int64 block of its
    # basis-image terms would alone take 2 MB at m = 11 (T = 2046)
    L = lp.LinPoly.from_dict(mk_field(11), {2: 1})
    tracemalloc.start()
    try:
        assert lp.is_cyclic_semibent_quadratic(L, "rank")[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2046 * 11 * 11 * 8


def test_tau_scan_memory_is_bounded_at_m19():
    # the orbit arrays are int32, and orbit_minima drops its working arrays
    # before its int64 counts: the scan of x^4 (e = 1) on either route, and
    # the representatives of an L with e = m (all 2^19 - 2 tau), each stay
    # near the 32 bytes per field element of the int64 log, antilog and
    # power tables they read (16 MB)
    ctx = mk_field(19)
    gold, dense = lp.LinPoly.from_dict(ctx, {2: 1}), lp.LinPoly.from_dict(ctx, {1: 2})
    for run in (lambda: lp.is_cyclic_semibent_quadratic(gold, "gcrd")[0],
                lambda: lp.is_cyclic_semibent_quadratic(gold, "rank")[0],
                lambda: len(lp._tau_representatives(dense.add(lp.adjoint(dense)))) == ctx.order - 2):
        tracemalloc.start()
        try:
            assert run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 33 << 19


def test_batched_tau_scan_rejects_bad_input():
    L = monomial(mk_field(5), 1)
    for taus in ([0, 5], [1], [32]):
        with pytest.raises(ValueError, match="outside GF"):
            lp.phi_kernel_dims(L, taus)
    with pytest.raises(ValueError, match="unknown path"):
        lp.phi_kernel_dims(L, [2], "walsh")
    # no field past the log tables, so no characterization there either
    for m in (21, 23):
        with pytest.raises(ValueError, match=rf"degree must be in \[1, 20\], got {m}"):
            mk_field(m)


def test_first_failure_is_reported_as_plain_ints(capsys):
    # x^2 + x^4 at m = 7 passes the base condition and first fails at tau = 12
    L = lp.LinPoly.from_dict(mk_field(7), {1: 1, 2: 1})
    for path in ("gcrd", "rank"):
        ok, rep = lp.is_cyclic_semibent_quadratic(L, path)
        assert not ok and rep["base_dim"] == 1 and rep["tau_failures"] == [(12, 3)]
        assert all(type(v) is int for v in rep["tau_failures"][0])
        assert (ok, rep) == cyclic_semibent_quadratic_by_tau(L, path)
    assert main(["charquad", "--m", "7", "--L", "x^2+x^4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["cyclic_semibent"] is False and rep["paths_agree"] is True
    for path in ("gcrd_path", "rank_path"):
        assert rep[path]["base_dim"] == 1 and rep[path]["tau_failures"] == [[12, 3]]
