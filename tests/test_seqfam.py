"""Sequence family tests.

The frozen m=4 / n=3 histograms below are the closed-form tables evaluated
by hand:
    quaternary, m=4:  7 -> 9, -1 -> 62, 1+2i / 1-2i -> 186, -3+2i / -3-2i -> 62
    semi-bent, n=3:   7 -> 9, -1 -> 310, 3 -> 186, -5 -> 62
Each total is (family size)^2 * period = 81*7 = 567 = 567.

Each family stores one block, s_0 over its domain, and derives its
members from it.  ``full_distribution`` reads each distribution off one
Walsh transform per shift of that block.  Its oracle is the direct scan
over all member pairs and shifts (``_scan``), whose oracle in turn is the
per-pair loop of ``correlate``; both also run on stand-ins for member sets
that no builder makes.  The Walsh-identity tests pin the maps both rest
on: every correlation value is recomputed from spectra of f(x1,x2)+f(b x1,x2+eps)
(quaternary / binary) or g(x)+g(beta^tau x) (semi-bent) and compared
entry for entry at m=4 / n=3.
"""

import csv
import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicbent import boolfun as bf
from cyclicbent import codebook as cbk
from cyclicbent import construct as cn
from cyclicbent import seqfam as sf
from cyclicbent.gf2 import mk_field

from oracles import (
    correlate,
    correlation_scan_by_pairs,
    from_field_bit_fn,
    from_field_fn,
    members_by_basis,
    write_family_csv_by_symbols,
)


def kerdock(m):
    return cn.kerdock_fn(m)


def trace_cube(n):
    ctx = mk_field(n)
    return from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))


# -- construction shapes -------------------------------------------------------------


def test_quaternary_shape_and_values():
    fam = sf.quaternary_family(kerdock(4))
    assert fam.size == 9 and fam.period == 7
    for mem in fam.members[:-1]:
        mag = mem.re.astype(int) ** 2 + mem.im.astype(int) ** 2
        assert np.all(mag == 1)  # unit Gaussian integers
    inf = fam.members[-1]
    assert inf.label == "inf" and not inf.im.any()


def test_quaternary_inf_autocorrelation():
    fam = sf.quaternary_family(kerdock(4))
    inf = fam.members[-1]
    assert correlate(inf, inf, 0) == (7, 0)
    for tau in range(1, 7):
        assert correlate(inf, inf, tau) == (-1, 0)


def test_quaternary_zero_shift_cross_correlations():
    # distinct lam, lam' at shift 0 always give -1
    members = sf.quaternary_family(kerdock(4)).members
    for i in range(8):
        for j in range(8):
            want = (7, 0) if i == j else (-1, 0)
            assert correlate(members[i], members[j], 0) == want


def test_quaternary_requires_normalization():
    k = kerdock(4)
    f = bf.BoolFun(k.domain, k.table ^ 1)
    with pytest.raises(ValueError, match="normalize"):
        sf.quaternary_family(f)
    assert sf.quaternary_family(cn.normalize_zero(f)).size == 9


def test_binary_shape_and_hypothesis():
    fam = sf.binary_family(kerdock(4))
    assert fam.size == 8 and fam.period == 14
    ctx = mk_field(5)
    # a cyclic bent function violating the x2-difference hypothesis:
    # scale the linear part by a constant c != 1
    c = ctx.generator
    f = from_field_bit_fn(
        ctx,
        lambda x1, x2: _kerdock_quad(ctx, x1) ^ (x2 & ctx.trace(ctx.mul(c, x1))),
    )
    with pytest.raises(ValueError, match="tr"):
        sf.binary_family(f)


def _kerdock_quad(ctx, x1):
    acc = 0
    for i in range(1, (ctx.degree + 1 - 2) // 2 + 1):
        acc ^= ctx.trace(ctx.pow(x1, (1 << i) + 1))
    return acc


def test_chain_functions_satisfy_binary_hypothesis():
    for m in (4, 6):
        f = cn.chain_fn(cn.ChainSpec(m, (1, m - 1), (1,)))
        half = f.domain.ctx.order
        diff = f.table[:half] ^ f.table[half:]
        tr1 = f.domain.ctx.trace_table(1)
        assert np.array_equal(diff.astype(np.int64), tr1)


def test_semibent_family_shape():
    fam = sf.semibent_family(trace_cube(3))
    assert fam.size == 9 and fam.period == 7
    for mem in fam.members:
        assert not mem.im.any()
        assert set(np.unique(mem.re)) <= {-1, 1}
    inf = fam.members[-1]
    for tau in range(1, 7):
        assert correlate(inf, inf, tau) == (-1, 0)


def test_semibent_family_requires_zero_at_zero():
    ctx = mk_field(3)
    g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)) ^ 1)
    with pytest.raises(ValueError, match="g\\(0\\)"):
        sf.semibent_family(g)


# -- frozen distributions ------------------------------------------------------------


def test_quaternary_distribution_m4_frozen():
    dist = sf.full_distribution(sf.quaternary_family(kerdock(4)))
    expected = {
        (7, 0): 9,
        (-1, 0): 62,
        (1, 2): 186,
        (1, -2): 186,
        (-3, 2): 62,
        (-3, -2): 62,
    }
    assert dist.counts == expected
    assert dist.total == 567
    assert sf.expected_quaternary_distribution(4) == expected


def test_quaternary_distribution_m6_closed_form():
    dist = sf.full_distribution(sf.quaternary_family(kerdock(6)))
    assert dist.counts == sf.expected_quaternary_distribution(6)
    assert dist.total == 33 * 33 * 31


def test_quaternary_value_set():
    # observed values stay in {-1, -1+2^{m-1}, -1 + (+-1 +-i) 2^{(m-2)/2}}
    for m in (4, 6):
        dist = sf.full_distribution(sf.quaternary_family(kerdock(m)))
        r = 1 << ((m - 2) // 2)
        allowed = {(-1, 0), ((1 << (m - 1)) - 1, 0)}
        for s1 in (1, -1):
            for s2 in (1, -1):
                allowed.add((-1 + s1 * r, s2 * r))
        assert set(dist.counts) <= allowed


def test_quaternary_rmax_bound():
    # |R| <= 1 + sqrt(2^{m-1}) off the trivial peak, checked exactly:
    # r^2 <= (1+sqrt(h))^2  <=>  (r^2 - 1 - h)^2 <= 4h or r^2 <= 1 + h
    for m in (4, 6):
        fam = sf.quaternary_family(kerdock(m))
        rsq = sf.r_max_sq(fam)
        h = 1 << (m - 1)
        excess = rsq - 1 - h
        assert excess <= 0 or excess * excess <= 4 * h


def test_binary_distribution_m4_and_m6():
    d4 = sf.full_distribution(sf.binary_family(kerdock(4)))
    assert d4.total == 8 * 8 * 14
    assert d4.counts == sf.expected_binary_distribution(4)
    d6 = sf.full_distribution(sf.binary_family(kerdock(6)))
    assert d6.total == 32 * 32 * 62 == 63488
    expected6 = sf.expected_binary_distribution(6)
    assert d6.counts == expected6
    # the ten frozen frequencies of the m=6 table
    assert expected6[(62, 0)] == 32
    assert expected6[(-2, 0)] == 736
    assert expected6[(0, 0)] == 1024
    assert expected6[(2, 0)] == 256
    assert expected6[(6, 0)] == 14400
    assert expected6[(8, 0)] == 15360
    assert expected6[(10, 0)] == 2880
    assert expected6[(-10, 0)] == 8640
    assert expected6[(-8, 0)] == 15360
    assert expected6[(-6, 0)] == 4800


def test_binary_peak_count_and_rmax():
    for m in (4, 6):
        fam = sf.binary_family(kerdock(m))
        dist = sf.full_distribution(fam)
        peak = 2 * ((1 << (m - 1)) - 1)
        assert dist.counts[(peak, 0)] == 1 << (m - 1)  # trivial peaks only
        assert sf.r_max_sq(fam) == ((1 << (m // 2)) + 2) ** 2


def test_semibent_distribution_n3_frozen():
    dist = sf.full_distribution(sf.semibent_family(trace_cube(3)))
    expected = {(7, 0): 9, (-1, 0): 310, (3, 0): 186, (-5, 0): 62}
    assert dist.counts == expected
    assert sf.expected_semibent_distribution(3) == expected


def test_semibent_distribution_n5_closed_form():
    dist = sf.full_distribution(sf.semibent_family(trace_cube(5)))
    assert dist.counts == sf.expected_semibent_distribution(5)
    assert dist.total == 33 * 33 * 31
    fam = sf.semibent_family(trace_cube(5))
    assert sf.r_max_sq(fam) == (1 + (1 << 3)) ** 2  # (1 + sqrt(2^{n+1}))^2
    values = set(d for d in dist.counts)
    off_peak = {(-1, 0), (7, 0), (-9, 0)}
    assert values == off_peak | {(31, 0)}


# -- one-pass scan against the per-pair oracle --------------------------------------


def _stand_in(period, *members):
    """What _scan and the per-pair oracle read of a family, for a member set
    that no builder makes."""
    return SimpleNamespace(members=list(members), size=len(members), period=period)


def _identical_pair():
    # the zero-shift cross peak R = k between two equal members must count
    mem = sf.quaternary_family(kerdock(4)).members[1]
    return _stand_in(7, mem, sf.Member("copy", mem.re, mem.im))


def _single_member():
    return _stand_in(7, sf.quaternary_family(kerdock(4)).members[-1])


STAND_INS = {"identical-pair": _identical_pair, "single-member": _single_member}

SCAN_FAMILIES = {
    "quaternary-m4": lambda: sf.quaternary_family(kerdock(4)),
    "quaternary-m6": lambda: sf.quaternary_family(kerdock(6)),
    "binary-m4": lambda: sf.binary_family(kerdock(4)),
    "binary-m6": lambda: sf.binary_family(kerdock(6)),
    "semibent-n3": lambda: sf.semibent_family(trace_cube(3)),
    "semibent-n5": lambda: sf.semibent_family(trace_cube(5)),
}


def _key(dist):
    return dist.counts, dist.total, dist.r_max_sq


@pytest.mark.parametrize("name", sorted(SCAN_FAMILIES | STAND_INS))
def test_scan_matches_per_pair_oracle(name):
    fam = (SCAN_FAMILIES | STAND_INS)[name]()
    assert _key(sf._scan(fam)) == correlation_scan_by_pairs(fam)


def test_scan_masks_only_each_members_own_zero_shift():
    assert sf._scan(_identical_pair()).r_max_sq == 7 * 7
    assert sf._scan(_single_member()).r_max_sq == 1  # m-sequence: -1 off the peak


def test_scan_rejects_non_unit_symbols():
    fam = _single_member()
    mem = fam.members[0]
    re = mem.re.copy()
    re[3] = 2
    fam.members[0] = sf.Member("bad", re, mem.im)
    with pytest.raises(ValueError, match="symbols"):
        sf._scan(fam)


# -- shift-product distributions against the scan -----------------------------------


@pytest.mark.parametrize("name", sorted(SCAN_FAMILIES))
def test_spectral_distribution_matches_scan(name):
    fam = SCAN_FAMILIES[name]()
    dist = sf.full_distribution(fam)
    assert _key(dist) == _key(sf._scan(fam))
    assert sf.r_max_sq(fam) == dist.r_max_sq


@pytest.mark.parametrize("build", [
    lambda: sf.quaternary_family(kerdock(8)),
    lambda: sf.binary_family(kerdock(8)),
    lambda: sf.semibent_family(trace_cube(7)),
], ids=["quaternary-m8", "binary-m8", "semibent-n7"])
def test_spectral_distribution_matches_scan_at_the_largest_scanned_sizes(build):
    fam = build()
    assert _key(sf.full_distribution(fam)) == _key(sf._scan(fam))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_quaternary_spectra_of_scaled_generators_match_scan(data):
    # f(d x1, x2) has x2-difference tr(d x1): lam0 = d shifts the e = 1 spectra
    m = data.draw(st.sampled_from([4, 6]))
    f = kerdock(m)
    d = data.draw(st.integers(1, f.domain.ctx.order - 1))
    fd = cn.normalize_zero(bf.scale_compose(f, d, 0))
    assert cn.affine_bit_difference(fd) == (d, 0)
    fam = sf.quaternary_family(fd)
    assert _key(sf.full_distribution(fam)) == _key(sf._scan(fam))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_spectral_distributions_match_scan_on_functions_that_are_not_bent(data):
    # The shift-product scan needs the family's layout, not bentness.  The
    # spectra of random functions take many values, so a wrong pairing of
    # values (a missing conjugate, a wrong multiplicity) shows, where the few
    # values of bent spectra can hide it.  The quaternary generator's
    # x2-difference is arbitrary.
    kind = data.draw(st.sampled_from(["quaternary", "binary", "semibent"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ctx = mk_field(data.draw(st.sampled_from([3, 5])))
    q = ctx.order
    table = rng.integers(0, 2, (2, q)).astype(np.uint8)
    table[:, 0] = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cn, "require_cyclic_bent", lambda f: None)
        mp.setattr(cn, "require_cyclic_semibent", lambda g: None)
        if kind == "semibent":
            fam = sf.semibent_family(bf.BoolFun(bf.Domain(ctx), table[0]))
        else:
            if kind == "binary":
                table[1] = table[0] ^ ctx.trace_table(1)
            f = bf.BoolFun(bf.Domain(ctx, with_bit=True), table.ravel())
            fam = (sf.binary_family if kind == "binary" else sf.quaternary_family)(f)
    assert _key(sf.full_distribution(fam)) == _key(sf._scan(fam))


@pytest.mark.parametrize("m", [4, 6])
def test_quaternary_outside_reduced_hypothesis_carries_its_distribution(monkeypatch, m):
    # f is certified in full mode; its family's distribution is read off the
    # stored block all the same, and no direct scan runs
    monkeypatch.setattr(cn, "affine_bit_difference", lambda f: None)
    assert cn.certify_cyclic_bent(kerdock(m)).mode == "full"
    scans = []
    scan = sf._scan
    monkeypatch.setattr(sf, "_scan", lambda fam: scans.append(fam.size) or scan(fam))
    fam = sf.quaternary_family(kerdock(m))
    dist = sf.full_distribution(fam)
    assert scans == []
    assert dist.counts == sf.expected_quaternary_distribution(m)
    assert _key(dist) == _key(scan(fam))


@pytest.mark.parametrize("m", [4, 6, 8, 10])
def test_bent_families_meet_closed_forms(m):
    h = 1 << (m - 1)
    r = 1 << ((m - 2) // 2)
    dist = sf.full_distribution(sf.quaternary_family(kerdock(m)))
    assert dist.counts == sf.expected_quaternary_distribution(m)
    assert dist.total == (h + 1) ** 2 * (h - 1)
    assert dist.r_max_sq == (r + 1) ** 2 + r * r
    dist = sf.full_distribution(sf.binary_family(kerdock(m)))
    assert dist.counts == sf.expected_binary_distribution(m)
    assert dist.total == h * h * 2 * (h - 1)
    assert dist.r_max_sq == ((1 << (m // 2)) + 2) ** 2


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_semibent_family_meets_closed_form(n):
    q = 1 << n
    dist = sf.full_distribution(sf.semibent_family(trace_cube(n)))
    assert dist.counts == sf.expected_semibent_distribution(n)
    assert dist.total == (q + 1) ** 2 * (q - 1)
    assert dist.r_max_sq == (1 + (1 << ((n + 1) // 2))) ** 2


def _every_shift(fam):
    """What ``_shift_orbits`` returns when s_0 is invariant only at k = d:
    every shift, an orbit of its own."""
    return np.arange(fam.period), np.ones(fam.period, dtype=np.int64)


def _by_every_shift(fam):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sf, "_shift_orbits", _every_shift)
        return sf.full_distribution(fam)


@pytest.mark.parametrize("build", [
    lambda: sf.quaternary_family(kerdock(10)),
    lambda: sf.binary_family(kerdock(10)),
    lambda: sf.semibent_family(trace_cube(9)),
], ids=["quaternary-m10", "binary-m10", "semibent-n9"])
def test_shift_orbits_match_every_shift_past_the_scanned_sizes(build):
    # _scan takes minutes here; the scan of every shift is the route the
    # orbits replace, and _scan's match at m <= 8 and n <= 7 pins it
    fam = build()
    taus, sizes = sf._shift_orbits(fam)
    assert sizes.sum() == fam.period and len(taus) < fam.period
    assert _key(sf.full_distribution(fam)) == _key(_by_every_shift(fam))


@pytest.mark.parametrize("kind", ["quaternary", "binary"])
def test_chain_function_outside_gf2_orbits_at_its_subfield(kind):
    # gamma_1 in GF(8) but not GF(2): s_0(y^2) != s_0(y), s_0(y^8) = s_0(y),
    # so the shifts fall into orbits of tau -> 8 tau, of size 1 or 3
    gamma = next(g for g in cn.admissible_gammas(10, (1, 3, 9)) if g[1] > 1)
    f = cn.chain_fn(cn.ChainSpec(10, (1, 3, 9), gamma))
    fam = getattr(sf, f"{kind}_family")(f)
    taus, sizes = sf._shift_orbits(fam)
    assert sorted(set(sizes.tolist())) == [1, 3]
    assert not np.array_equal(fam.block.re[0, fam.pos][sf._frobenius_map(fam, 1)],
                              fam.block.re[0, fam.pos])
    dist = sf.full_distribution(fam)
    assert _key(dist) == _key(_by_every_shift(fam))
    assert dist.counts == getattr(sf, f"expected_{kind}_distribution")(10)


@pytest.mark.parametrize("kind", ["quaternary", "binary", "semibent"])
def test_non_invariant_block_scans_every_shift(monkeypatch, kind):
    # a random s_0 is invariant only at k = d: the scan of every shift,
    # against the direct scan
    monkeypatch.setattr(cn, "require_cyclic_bent", lambda f: None)
    monkeypatch.setattr(cn, "require_cyclic_semibent", lambda g: None)
    ctx = mk_field(5)
    table = np.random.default_rng(11).integers(0, 2, (2, ctx.order)).astype(np.uint8)
    table[:, 0] = 0
    if kind == "semibent":
        fam = sf.semibent_family(bf.BoolFun(bf.Domain(ctx), table[0]))
    else:
        table[1] = table[0] ^ ctx.trace_table(1)
        fam = getattr(sf, f"{kind}_family")(bf.BoolFun(bf.Domain(ctx, True), table.ravel()))
    taus, sizes = sf._shift_orbits(fam)
    assert np.array_equal(taus, np.arange(fam.period)) and (sizes == 1).all()
    assert _key(sf.full_distribution(fam)) == _key(sf._scan(fam))


def test_spectral_distributions_do_not_depend_on_the_batch_schedule(monkeypatch):
    fams = [sf.quaternary_family(kerdock(6)), sf.binary_family(kerdock(6)),
            sf.semibent_family(trace_cube(5))]
    whole = [_key(sf.full_distribution(fam)) for fam in fams]
    # from one to nine shifts per kernel call and rows per count (rows of 32
    # or 64 values), with ragged last batches
    for batch in (1, 100, 300):
        monkeypatch.setattr(bf, "BATCH_VALUES", batch)
        monkeypatch.setattr(bf, "_COUNT_VALUES", batch)
        assert [_key(sf.full_distribution(fam)) for fam in fams] == whole


def test_semibent_family_needs_three_variables():
    with pytest.raises(ValueError, match="n >= 3"):
        sf.semibent_family(trace_cube(1))


# -- Walsh-identity oracles ----------------------------------------------------------


def test_quaternary_correlations_match_walsh_identity_m4():
    f = kerdock(4)
    ctx = f.domain.ctx
    members = sf.quaternary_family(f).members
    q = ctx.order
    period = q - 1
    for tau in range(period):
        bt = ctx.pow(ctx.generator, tau)
        f0 = bf.xor(f, bf.scale_compose(f, bt, 0))
        f1 = bf.xor(f, bf.scale_compose(f, bt, 1))
        w0 = bf.walsh(f0)
        w1 = bf.walsh(f1)
        fbt = bf.scale_compose(f, bt, 0)
        wb = bf.walsh(fbt)
        wf = bf.walsh(f)
        for li, lam in enumerate(range(q)):
            for lj, lam2 in enumerate(range(q)):
                got = correlate(members[li], members[lj], tau)
                mix = ctx.mul(lam, bt) ^ lam2
                want_re = w0.values[w0.domain.index(mix, 0)] // 2 - 1
                want_im = -w1.values[w1.domain.index(mix, 1)] // 2
                assert got == (want_re + 0, want_im)
            # lam against infinity
            got = correlate(members[li], members[-1], tau)
            mix = ctx.mul(lam, bt) ^ 1
            assert got == (
                wb.values[wb.domain.index(mix, 0)] // 2 - 1,
                wb.values[wb.domain.index(mix, 1)] // 2,
            )
            # infinity against lam
            got = correlate(members[-1], members[li], tau)
            mix = lam ^ bt
            assert got == (
                wf.values[wf.domain.index(mix, 0)] // 2 - 1,
                -wf.values[wf.domain.index(mix, 1)] // 2,
            )


def test_binary_correlations_match_walsh_identity_m4():
    f = kerdock(4)
    ctx = f.domain.ctx
    members = sf.binary_family(f).members
    q = ctx.order
    half = q - 1
    labels = [tuple(int(v) for v in mem.label.split(",")) for mem in members]
    off = 1 << (f.n_vars - 2)
    for (lam, nu), mem in zip(labels, members):
        for (lam2, nu2), mem2 in zip(labels, members):
            for tau0 in range(half):
                # even shift
                b = ctx.pow(ctx.generator, tau0)
                g0 = bf.xor(f, bf.scale_compose(f, b, 0))
                w = bf.walsh(g0)
                mix = ctx.mul(lam, b) ^ lam2
                want = w.values[w.domain.index(mix, (nu + nu2) % 2)] - 1 - (-1) ** ((nu + nu2) % 2)
                assert correlate(mem, mem2, 2 * tau0) == (want, 0)
                # odd shift
                b1 = ctx.pow(ctx.generator, tau0 + off)
                g1 = bf.xor(f, bf.scale_compose(f, b1, 1))
                w1 = bf.walsh(g1)
                mix1 = ctx.mul(lam, b1) ^ lam2
                want1 = (
                    (-1) ** nu * w1.values[w1.domain.index(mix1, (nu + nu2) % 2)]
                    - (-1) ** nu
                    - (-1) ** nu2
                )
                assert correlate(mem, mem2, 2 * tau0 + 1) == (want1, 0)


def test_semibent_correlations_match_walsh_identity_n3():
    g = trace_cube(3)
    ctx = g.domain.ctx
    members = sf.semibent_family(g).members
    q = ctx.order
    wg = bf.walsh(g)
    for tau in range(q - 1):
        bt = ctx.pow(ctx.generator, tau)
        gd = bf.xor(g, bf.scale_field(g, bt))
        w = bf.walsh(gd)
        for lam in range(q):
            for lam2 in range(q):
                got = correlate(members[lam], members[lam2], tau)
                assert got == (w.values[ctx.mul(lam, bt) ^ lam2] - 1, 0)
            got = correlate(members[lam], members[-1], tau)
            binv = ctx.inv(bt)
            assert got == (wg.values[lam ^ binv] - 1, 0)
            got = correlate(members[-1], members[lam], tau)
            assert got == (wg.values[lam ^ bt] - 1, 0)


def test_csv_export_and_dist_json(tmp_path):
    fam = sf.quaternary_family(kerdock(4))
    p = tmp_path / "fam.csv"
    fam.write_csv(str(p))
    lines = p.read_text().strip().split("\n")
    assert len(lines) == 9
    assert lines[0].split(",")[0] == "0"
    assert set(lines[0].split(",")[1:]) <= {"1", "-1", "i", "-i"}
    dist = sf.full_distribution(fam)
    js = dist.to_json()
    assert '"total": 567' in js
    # r_max_sq stays out of the JSON form and of equality
    assert "r_max_sq" not in js
    assert dist == sf.CorrDist(dict(dist.counts), dist.total, dist.r_max_sq + 1)


@pytest.mark.parametrize("name", sorted(SCAN_FAMILIES))
def test_csv_rows_are_the_label_then_one_field_per_symbol(tmp_path, name):
    # the binary kind's label "lam,nu" is one quoted field, not two
    fam = SCAN_FAMILIES[name]()
    p = tmp_path / "fam.csv"
    fam.write_csv(str(p))
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows] == [mem.label for mem in fam.members]
    assert {len(row) for row in rows} == {1 + fam.period}
    assert set().union(*(row[1:] for row in rows)) <= {"1", "-1", "i", "-i"}


# -- one-block storage ---------------------------------------------------------------


@pytest.mark.parametrize("build, kind, period", [
    (lambda: sf.quaternary_family(kerdock(6)), "quaternary", 31),
    (lambda: sf.binary_family(kerdock(6)), "binary", 62),
    (lambda: sf.semibent_family(trace_cube(5)), "semibent", 31),
], ids=["quaternary", "binary", "semibent"])
def test_families_store_one_block_and_derive_their_members(build, kind, period):
    fam = build()
    assert [fld.name for fld in fields(fam)] == ["kind", "block"]
    assert fam.kind == kind and fam.block.n_blocks == 1 and fam.period == period
    # member 0 (lam = 0, nu = 0) is s_0 read along y_t; that the others are
    # s_0 times their characters shows in the scan and Walsh-identity tests,
    # which read the members where full_distribution reads the block
    members = fam.members
    assert len(members) == fam.size
    assert np.array_equal(members[0].re, fam.block.re[0, fam.pos])
    assert np.array_equal(members[0].im, fam.block.im[0, fam.pos])
    if kind != "binary":
        assert members[-1].label == "inf" and np.array_equal(members[-1].re, fam.inf)


def test_csv_export_checks_the_output_cap_before_deriving_members(tmp_path, monkeypatch):
    fam = sf.semibent_family(trace_cube(3))  # 9 members of period 7
    monkeypatch.setattr(cbk, "MAX_ENTRIES", 9 * 7)
    fam.write_csv(str(tmp_path / "at.csv"))
    assert len((tmp_path / "at.csv").read_text().splitlines()) == 9
    monkeypatch.setattr(cbk, "MAX_ENTRIES", 9 * 7 - 1)
    monkeypatch.setattr(sf.SequenceFamily, "_member_batches",
                        lambda fam: pytest.fail("derived the members"))
    with pytest.raises(ValueError, match="output cap"):
        fam.write_csv(str(tmp_path / "over.csv"))
    assert not (tmp_path / "over.csv").exists()


@pytest.mark.parametrize("batch", [1, 100, bf.BATCH_VALUES])
@pytest.mark.parametrize("name", sorted(SCAN_FAMILIES))
def test_members_and_csv_match_the_dense_basis_route(tmp_path, monkeypatch, name, batch):
    # one member per batch, ragged batches, and the default schedule
    fam = SCAN_FAMILIES[name]()
    monkeypatch.setattr(bf, "BATCH_VALUES", batch)
    got, want = fam.members, members_by_basis(fam)
    assert [mem.label for mem in got] == [mem.label for mem in want]
    for mem, ref in zip(got, want):
        assert mem.re.dtype == mem.im.dtype == np.int8
        assert np.array_equal(mem.re, ref.re) and np.array_equal(mem.im, ref.im)
    fam.write_csv(str(tmp_path / "got.csv"))
    write_family_csv_by_symbols(fam, str(tmp_path / "want.csv"))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(SCAN_FAMILIES))
def test_members_and_csv_never_build_the_dense_basis(tmp_path, monkeypatch, name):
    fam = SCAN_FAMILIES[name]()
    monkeypatch.setattr(cbk.Codebook, "basis", lambda *a: pytest.fail("called basis"))
    monkeypatch.setattr(cbk.Codebook, "_chars", property(lambda cb: pytest.fail("built _chars")))
    assert len(fam.members) == fam.size
    fam.write_csv(str(tmp_path / "fam.csv"))
    assert len((tmp_path / "fam.csv").read_text().splitlines()) == fam.size
