"""Spectral counting identities behind the sequence distribution proofs,
checked exhaustively at m = 4 and by full scan at m = 6 on the chain
functions.

Notation used below for a cyclic bent f with f(0,.) = 0:
    f_b        = f(b x1, x2)
    f_{1,b,e}  = f(x1, x2) + f(b x1, x2 + e)
    J_{g,h}(e1, e2) = #{mu : W_g(mu, 0) = (-1)^{e1} peak,
                        W_h(mu, 1) = (-1)^{e2} peak}
    N_{g,e}    = #{mu : W_g(mu, 0) = (-1)^e peak}   (and the (mu,1) variant)
    T_{u,e}    = #{(l1, l2) in H x H : W_g(b l1 + l2, u) = (-1)^e peak}
with peak = 2^{m/2} and H the trace-zero hyperplane.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclicbent import boolfun as bf
from cyclicbent import construct as cn
from cyclicbent.gf2 import mk_field

from oracles import _first_non_bent, _first_non_semibent, from_field_fn, is_bent
from test_construct import WIDE_N5


def chain_function(m):
    return cn.chain_fn(cn.ChainSpec(m, (1, m - 1), (1,)))


def f_1be(f, b, e):
    return bf.xor(f, bf.scale_compose(f, b, e))


def spectra_tables(f):
    """(W(mu,0))_mu and (W(mu,1))_mu as integer vectors."""
    spec = bf.walsh(f)
    q = f.domain.ctx.order
    return spec.values[:q], spec.values[q:]


@pytest.mark.parametrize("m", [4, 6])
def test_bent_restriction_split(m):
    # for bent g and every lam: {|W_{g(.,0)}(lam)|, |W_{g(.,1)}(lam)|} = {0, 2^{m/2}}
    f = chain_function(m)
    ctx = f.domain.ctx
    peak = 1 << (m // 2)
    cases = [(1, b, e) for b in range(2, 5) for e in (0, 1)] + [(1, 0, 0), (1, 0, 1)]
    for a, b, e in cases:
        g = bf.xor(bf.scale_compose(f, a, 0), bf.scale_compose(f, b, e))
        assert is_bent(g)
        w0 = bf.walsh(bf.restrict(g, 0)).values
        w1 = bf.walsh(bf.restrict(g, 1)).values
        for lam in range(ctx.order):
            assert {abs(int(w0[lam])), abs(int(w1[lam]))} == {0, peak}


@pytest.mark.parametrize("m", [4, 6])
def test_halfspectrum_sums_shifted_pairs(m):
    # b != 1: sum W_{f_{1,b,0}}(mu,0) = 2^m, sum W_{f_{1,b,1}}(mu,1) = 0,
    # and the cross sum of products vanishes
    f = chain_function(m)
    q = f.domain.ctx.order
    for b in range(q):
        if b == 1:
            continue
        w0, _ = spectra_tables(f_1be(f, b, 0))
        _, w1 = spectra_tables(f_1be(f, b, 1))
        assert int(w0.sum()) == 1 << m
        assert int(w1.sum()) == 0
        assert int((w0 * w1).sum()) == 0


@pytest.mark.parametrize("m", [4, 6])
def test_halfspectrum_sums_scaled_copies(m):
    # b != 0: the same three sums for f_b = f(b x1, x2)
    f = chain_function(m)
    q = f.domain.ctx.order
    for b in range(1, q):
        fb = bf.scale_compose(f, b, 0)
        w0, w1 = spectra_tables(fb)
        assert int(w0.sum()) == 1 << m
        assert int(w1.sum()) == 0
        assert int((w0 * w1).sum()) == 0


def j_count(w0, w1, peak, e1, e2):
    return int(np.count_nonzero((w0 == (-1) ** e1 * peak) & (w1 == (-1) ** e2 * peak)))


@pytest.mark.parametrize("m", [4, 6])
def test_joint_sign_counts(m):
    # under the three sum conditions: #J(e1,e2) = 2^{m-3} + (-1)^{e1} 2^{(m-4)/2}
    f = chain_function(m)
    q = f.domain.ctx.order
    peak = 1 << (m // 2)
    expect = lambda e1: (1 << (m - 3)) + (-1) ** e1 * (1 << ((m - 4) // 2))
    for b in range(q):
        if b != 1:
            w0, _ = spectra_tables(f_1be(f, b, 0))
            _, w1 = spectra_tables(f_1be(f, b, 1))
            for e1 in (0, 1):
                for e2 in (0, 1):
                    assert j_count(w0, w1, peak, e1, e2) == expect(e1)
        if b != 0:
            w0, w1 = spectra_tables(bf.scale_compose(f, b, 0))
            for e1 in (0, 1):
                for e2 in (0, 1):
                    assert j_count(w0, w1, peak, e1, e2) == expect(e1)


@pytest.mark.parametrize("m", [4, 6])
def test_single_sign_counts(m):
    # bent g with g(0,.) = 0: N_{g,e} = 2^{m-2} + (-1)^e 2^{(m-2)/2}.
    # The (mu,1)-half splits evenly instead: its column sum is 0, not 2^m,
    # so both signs occur exactly 2^{m-2} times.
    f = chain_function(m)
    peak = 1 << (m // 2)
    gs = [f] + [f_1be(f, b, 0) for b in (0, 2, 3)] + [bf.scale_compose(f, b, 0) for b in (2, 5)]
    for g in gs:
        assert is_bent(g)
        w0, w1 = spectra_tables(g)
        for e in (0, 1):
            want = (1 << (m - 2)) + (-1) ** e * (1 << ((m - 2) // 2))
            assert int(np.count_nonzero(w0 == (-1) ** e * peak)) == want
            assert int(np.count_nonzero(w1 == (-1) ** e * peak)) == 1 << (m - 2)


@pytest.mark.parametrize("m", [4, 6])
def test_hyperplane_pair_counts(m):
    # b outside GF(2): #T_{u,e} over the trace-zero hyperplane squared
    f = chain_function(m)
    ctx = f.domain.ctx
    q = ctx.order
    peak = 1 << (m // 2)
    tr1 = ctx.trace_table(1)
    H = np.nonzero(tr1 == 0)[0]
    w0, w1 = spectra_tables(f)
    w = {0: w0, 1: w1}
    for b in range(2, q):
        mixed = ctx.mul_table(b)[H][:, None] ^ H[None, :]
        for u in (0, 1):
            vals = w[u][mixed]
            for e in (0, 1):
                got = int(np.count_nonzero(vals == (-1) ** e * peak))
                if u == 0:
                    want = (1 << (m - 2)) * ((1 << (m - 3)) + (-1) ** e * (1 << ((m - 4) // 2)))
                else:
                    want = (1 << (m - 2)) * (1 << (m - 3))
                assert got == want


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_walsh_of_a_01_row_is_minus_half_its_sign_spectrum(data):
    # H t = 2^{n-1} delta_0 - W/2 for a 0/1 row t and W = H (1 - 2t): the
    # certifiers transform the truth tables of the pair sums as they are
    n = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    t = rng.integers(0, 2, (data.draw(st.integers(1, 4)), 1 << n)).astype(np.float32)
    v = bf.walsh_many(t)
    v[:, 0] -= 1 << (n - 1)
    assert np.array_equal(v, -bf.walsh_many(1 - 2 * t) / 2)


@cache
def _passing_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bent (even n) or semi-bent (odd n) 0/1 rows, f(c x1, x2 + eps) for the
    Kerdock function or g(c x) for g = tr(x^3), and the affine functions
    without their constant: each row plus each affine function passes."""
    if n % 2 == 0:
        f = cn.kerdock_fn(n)
        q = f.domain.ctx.order
        rows = bf.orbit_tables(f, np.repeat(np.arange(1, q), 2), np.tile([0, 1], q - 1))
    else:
        ctx = mk_field(n)
        f = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
        rows = bf.orbit_tables(f, range(1, ctx.order))
    return rows, bf.char_bits(f.domain)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batch_test_finds_the_first_failing_row_of_the_per_row_oracle(data):
    n = data.draw(st.sampled_from([4, 5, 6, 7, 8, 9]))
    good, chars = _passing_rows(n)
    # "wide" is WIDE_N5: every |V| <= p, yet not semi-bent
    choices = ["pass"] * 6 + ["flip", "random"] + ["wide"] * (n == 5)
    kinds = data.draw(st.lists(st.sampled_from(choices), min_size=1, max_size=40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        row = (good[data.draw(st.integers(0, len(good) - 1))]
               ^ chars[data.draw(st.integers(0, len(chars) - 1))] ^ data.draw(st.integers(0, 1)))
        if kind == "flip":  # one bit moves every |W| by 2
            row[data.draw(st.integers(0, len(row) - 1))] ^= 1
        elif kind == "random":
            row = rng.integers(0, 2, len(row), dtype=np.uint8)
        elif kind == "wide":
            row = WIDE_N5
        rows.append(row)
    rows = np.array(rows)
    oracle = _first_non_semibent if n % 2 else _first_non_bent
    want = oracle(1 - 2 * rows.astype(np.int64), n)
    budget = data.draw(st.sampled_from([1, 3 << n, bf.BATCH_VALUES]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bf, "BATCH_VALUES", budget)
        assert cn._first_failure(len(rows), lambda start, stop: rows[start:stop], n) == want
