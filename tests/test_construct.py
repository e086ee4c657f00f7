"""Construction and certification tests.

The independent oracles here are the two published formulas implemented
point-by-point (Kerdock-style and the two-level variant with an extra
gamma-twisted quadratic part); chain_fn must reproduce both truth tables
exactly at the matching parameters.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclicbent import boolfun as bf
from cyclicbent import construct as cn
from cyclicbent import linpoly as lp
from cyclicbent.gf2 import mk_field

from oracles import (
    bilinear_kernel_dim,
    cyclic_bent_full_by_cases,
    cyclic_bent_reduced_by_rows,
    cyclic_semibent_by_cases,
    from_field_bit_fn,
    from_field_fn,
    is_bent,
    is_semibent,
    scale_compose_by_halves,
    scale_field_by_perm,
)


def kerdock_pointwise(m):
    """Independent point-by-point evaluation of the Kerdock-code function."""
    ctx = mk_field(m - 1)

    def fn(x1, x2):
        acc = 0
        for i in range(1, (m - 2) // 2 + 1):
            acc ^= ctx.trace(ctx.pow(x1, (1 << i) + 1))
        return acc ^ (x2 & ctx.trace(x1))

    return from_field_bit_fn(ctx, fn)


def zhou_pointwise(m, e, gamma):
    """Two-level variant: sum tr(x1^{2^i+1}) + sum tr((gamma x1)^{2^{ei}+1}) + x2 tr(x1)."""
    ctx = mk_field(m - 1)
    ell = (m - 1) // e

    def fn(x1, x2):
        acc = 0
        for i in range(1, (m - 2) // 2 + 1):
            acc ^= ctx.trace(ctx.pow(x1, (1 << i) + 1))
        gx = ctx.mul(gamma, x1)
        for i in range(1, (ell - 1) // 2 + 1):
            acc ^= ctx.trace(ctx.pow(gx, (1 << (e * i)) + 1))
        return acc ^ (x2 & ctx.trace(x1))

    return from_field_bit_fn(ctx, fn)


def test_kerdock_values_m4():
    K = cn.kerdock_fn(4)
    assert K.value(0, 0) == 0 and K.value(0, 1) == 0
    assert K.value(1, 0) == 1  # tr(1) = 1 on GF(8)


def test_kerdock_matches_pointwise():
    for m in (4, 6, 8):
        assert cn.kerdock_fn(m) == kerdock_pointwise(m)
    with pytest.raises(ValueError):
        cn.kerdock_fn(5)


def test_chain_l1_reproduces_kerdock():
    for m in (4, 6, 8, 10):
        spec = cn.ChainSpec(m, (1, m - 1), (1,))
        assert cn.chain_fn(spec) == kerdock_pointwise(m)


def test_chain_l2_reproduces_two_level_formula():
    m = 10
    ctx = mk_field(9)
    for gamma in ctx.subfield_elements(3):
        if gamma in (0, 1):
            continue
        spec = cn.ChainSpec(m, (1, 3, 9), (1, gamma))
        assert cn.chain_fn(spec) == zhou_pointwise(m, 3, gamma)
    # gamma_1 = 0 is admissible for the chain (partial sum 1 + 0 != 0) and
    # reduces to the plain Kerdock function
    assert cn.chain_fn(cn.ChainSpec(m, (1, 3, 9), (1, 0))) == cn.kerdock_fn(10)


def test_chain_spec_validation():
    with pytest.raises(ValueError, match="partial sum"):
        cn.ChainSpec(4, (1, 3), (0,))
    with pytest.raises(ValueError, match="e_0 = 1"):
        cn.ChainSpec(4, (2, 3), (1,))
    with pytest.raises(ValueError, match="divide"):
        cn.ChainSpec(12, (1, 2, 5, 11), (1, 0, 0))
    # 1 | 0 and -1 | 9, but a chain's levels increase from 1
    for e in ((1, 0, 3), (1, -1, 3)):
        with pytest.raises(ValueError, match="divide"):
            cn.ChainSpec(4, e, (1, 1))
    with pytest.raises(ValueError, match="not in GF"):
        cn.ChainSpec(10, (1, 3, 9), (1, 2))  # index 2 = beta is not in GF(8)
    with pytest.raises(ValueError, match="even"):
        cn.ChainSpec(5, (1, 4), (1,))
    # json round trip
    spec = cn.ChainSpec(10, (1, 3, 9), (1, 0))
    assert cn.ChainSpec.from_json_obj(spec.to_json_obj()) == spec


def _chain_conditions_hold(m, e, gamma) -> bool:
    """The documented ChainSpec conditions, decided through the enumerations:
    m even and >= 4, e one of divisor_chains(m - 1), one gamma_j per level in
    subfield_elements(e_j), and every partial sum nonzero."""
    if m % 2 or m < 4 or e not in cn.divisor_chains(m - 1) or len(gamma) != len(e) - 1:
        return False
    ctx = mk_field(m - 1)
    if any(g not in ctx.subfield_elements(ej) for ej, g in zip(e, gamma)):
        return False
    return bool(np.all(np.bitwise_xor.accumulate(gamma) != 0))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chain_spec_accepts_exactly_the_documented_parameters(data):
    draw = data.draw
    m = draw(st.integers(1, 17), label="m")
    e, gamma = [1, m - 1], [1]
    if m >= 4 and m % 2 == 0:
        e = list(draw(st.sampled_from(cn.divisor_chains(m - 1)), label="chain"))
        gamma = list(draw(st.sampled_from(cn.admissible_gammas(m, tuple(e))), label="gamma"))
    # at most one edit: a level of e or an entry of gamma inserted, replaced
    # or dropped (zero, negative, repeated, out of order or out of range)
    edit = draw(st.sampled_from([None, "e", "gamma"]), label="edit")
    if edit:
        seq = e if edit == "e" else gamma
        top = 17 if edit == "e" else 1 << max(m - 1, 1)
        j = draw(st.integers(0, len(seq)), label="at")
        value = draw(st.one_of(st.integers(-1, 1), st.integers(-1, top)), label="value")
        op = draw(st.sampled_from(["insert", "replace", "drop"]), label="op")
        if op == "insert":
            seq.insert(j, value)
        elif j < len(seq):
            seq[j: j + 1] = [value] if op == "replace" else []
    e, gamma = tuple(e), tuple(gamma)
    if _chain_conditions_hold(m, e, gamma):
        assert cn.chain_fn(cn.ChainSpec(m, e, gamma)).n_vars == m
    else:
        with pytest.raises(ValueError):
            cn.ChainSpec(m, e, gamma)


def test_divisor_chains_and_gamma_enumeration():
    assert cn.divisor_chains(3) == [(1, 3)]
    assert sorted(cn.divisor_chains(9)) == [(1, 3, 9), (1, 9)]
    gammas = cn.admissible_gammas(10, (1, 3, 9))
    assert len(gammas) == 7  # gamma_0 = 1, gamma_1 in GF(8) \ {1}
    assert all(g[0] == 1 for g in gammas)
    assert cn.admissible_gammas(4, (1, 3)) == [(1,)]


def test_full_certification_kerdock_m4():
    cert = cn.is_cyclic_bent_full(cn.kerdock_fn(4))
    assert cert.passed and cert.witness is None
    assert cert.verified_pairs == 8 * 7 * 2  # all ordered (a, b), both eps


def test_full_certification_rejects_linear_part_alone():
    ctx = mk_field(3)
    f = from_field_bit_fn(ctx, lambda x1, x2: x2 & ctx.trace(x1))
    cert = cn.is_cyclic_bent_full(f)
    assert not cert.passed
    a, b, eps = cert.witness
    assert a != b
    # the witness really is a non-bent sum
    g = bf.xor(bf.scale_compose(f, a, 0), bf.scale_compose(f, b, eps))
    assert not is_bent(g)


def test_full_certification_m6():
    cert = cn.is_cyclic_bent_full(cn.kerdock_fn(6))
    assert cert.passed


def test_reduced_hypothesis_and_pass_m4():
    K = cn.kerdock_fn(4)
    assert cn.affine_bit_difference(K) == (1, 0)
    cert = cn.is_cyclic_bent_reduced(K)
    assert cert.passed
    assert cert.verified_pairs == 1 + (8 - 2)


def test_reduced_raises_on_hypothesis_violation():
    ctx = mk_field(3)
    # difference f(x1,1)+f(x1,0) = tr(x1^3): quadratic, not affine-in-trace
    f = from_field_bit_fn(ctx, lambda x1, x2: x2 & ctx.trace(ctx.pow(x1, 3)))
    with pytest.raises(cn.AffineDifferenceError):
        cn.is_cyclic_bent_reduced(f)


def _random_hypothesis_quadratic(ctx, rng):
    """Random quadratic on GF(2^{m-1}) x GF(2) satisfying the reduced-mode
    hypothesis: Q(x1) + x2 tr(lam0 x1) + affine."""
    d = ctx.degree
    coeffs = [(i, j, int(rng.integers(0, 2))) for i in range(d) for j in range(i + 1, d)]
    lin = int(rng.integers(0, ctx.order))
    lam0 = int(rng.integers(0, ctx.order))
    nu = int(rng.integers(0, 2))
    const = int(rng.integers(0, 2))

    def fn(x1, x2):
        v = const ^ (x2 & nu) ^ ctx.trace(ctx.mul(lin, x1))
        for i, j, c in coeffs:
            if c:
                v ^= ((x1 >> i) & 1) & ((x1 >> j) & 1)
        v ^= x2 & ctx.trace(ctx.mul(lam0, x1))
        return v

    return from_field_bit_fn(ctx, fn)


def test_full_reduced_agreement_random_corpus():
    ctx = mk_field(3)
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(100):
        f = _random_hypothesis_quadratic(ctx, rng)
        full = cn.is_cyclic_bent_full(f)
        red = cn.is_cyclic_bent_reduced(f)
        assert full.passed == red.passed
        agree += 1
    assert agree == 100


def test_quadratic_bentness_equals_kernel_criterion():
    # classify == bent iff dim ker B_f == 0, on the same random corpus
    ctx = mk_field(3)
    rng = np.random.default_rng(77)
    for _ in range(100):
        f = _random_hypothesis_quadratic(ctx, rng)
        assert is_bent(f) == (bilinear_kernel_dim(f) == 0)
    assert bilinear_kernel_dim(cn.kerdock_fn(4)) == 0


def test_reduced_fails_before_b_loop_on_non_bent():
    ctx = mk_field(3)
    # satisfies the hypothesis but is affine, hence not bent
    f = from_field_bit_fn(ctx, lambda x1, x2: x2 & ctx.trace(x1))
    cert = cn.is_cyclic_bent_reduced(f)
    assert not cert.passed and cert.witness == (1, 0, 0)


def test_certify_auto_dispatch():
    assert cn.certify_cyclic_bent(cn.kerdock_fn(4), "auto").passed
    ctx = mk_field(3)
    f = from_field_bit_fn(ctx, lambda x1, x2: x2 & ctx.trace(ctx.pow(x1, 3)))
    cert = cn.certify_cyclic_bent(f, "auto")  # hypothesis fails -> full route
    assert cert.mode == "full" and not cert.passed


def test_agreement_full_vs_reduced_on_constructed():
    for m in (4, 6):
        f = cn.chain_fn(cn.ChainSpec(m, (1, m - 1), (1,)))
        assert cn.is_cyclic_bent_full(f).passed == cn.is_cyclic_bent_reduced(f).passed


def test_cyclic_semibent_trace_cube():
    ctx = mk_field(3)
    g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
    full = cn.is_cyclic_semibent(g, "full")
    red = cn.is_cyclic_semibent(g, "reduced")
    assert full.passed and red.passed
    assert full.verified_pairs == 8 * 7


def test_cyclic_semibent_gold_n5():
    ctx = mk_field(5)
    g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
    assert cn.is_cyclic_semibent(g, "full").passed
    assert cn.is_cyclic_semibent(g, "reduced").passed


def test_cyclic_semibent_rejects_affine():
    ctx = mk_field(3)
    g = from_field_fn(ctx, lambda x: ctx.trace(x))
    for mode in ("full", "reduced"):
        cert = cn.is_cyclic_semibent(g, mode)
        assert not cert.passed and cert.witness is not None


def test_bent_family_m4():
    K = cn.kerdock_fn(4)
    fam = cn.bent_family(K, [0] * 7)
    assert len(fam) == 7
    for i in range(7):
        assert is_bent(fam[i])
        for j in range(i + 1, 7):
            assert is_bent(bf.xor(fam[i], fam[j]))
    fam2 = cn.bent_family(K, [1] + [0] * 6)
    assert fam2[0] != fam[0]


def test_semibent_family_and_derive():
    K = cn.kerdock_fn(4)
    ctx = K.domain.ctx
    g = cn.derive_semibent(K, 0)
    assert g == from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
    assert cn.is_cyclic_semibent(g, "full").passed
    assert cn.is_cyclic_semibent(cn.derive_semibent(K, 1), "full").passed
    fam = cn.derived_semibent_family(K, [0] * 7)
    assert len(fam) == 7
    for i in range(7):
        assert is_semibent(fam[i])
        for j in range(i + 1, 7):
            assert is_semibent(bf.xor(fam[i], fam[j]))


def test_normalize_zero():
    K = cn.kerdock_fn(4)
    assert cn.normalize_zero(K) == K  # already normalized
    K1 = bf.BoolFun(K.domain, K.table ^ 1)
    assert cn.normalize_zero(K1) == K
    rng = np.random.default_rng(9)
    f = bf.BoolFun(K.domain, rng.integers(0, 2, K.domain.size).astype(np.uint8))
    g = cn.normalize_zero(f)
    assert g.value(0, 0) == 0 and g.value(0, 1) == 0


def test_all_chains_small_m_certify_reduced():
    for m in (4, 6, 8):
        for e in cn.divisor_chains(m - 1):
            for gamma in cn.admissible_gammas(m, e):
                f = cn.chain_fn(cn.ChainSpec(m, e, gamma))
                assert cn.is_cyclic_bent_reduced(f).passed


# -- the batched pair-sum scan against the per-case routes ----------------------------


def _random_quadratic_field_fn(ctx, rng):
    """Random quadratic on GF(2^n) with g(0) = 0, as a sum of bit products."""
    d = ctx.degree
    coeffs = [(i, j) for i in range(d) for j in range(i + 1, d) if rng.integers(0, 2)]
    lin = int(rng.integers(0, ctx.order))
    return from_field_fn(
        ctx,
        lambda x: ctx.trace(ctx.mul(lin, x))
        ^ sum((x >> i) & (x >> j) & 1 for i, j in coeffs),
    )


def _bent_scan_corpus():
    ctx = mk_field(3)
    rng = np.random.default_rng(2024)
    corpus = [_random_hypothesis_quadratic(ctx, rng) for _ in range(100)]
    affine = from_field_bit_fn(ctx, lambda x1, x2: x2 & ctx.trace(x1))
    return corpus + [cn.kerdock_fn(4), cn.kerdock_fn(6), affine, _late_failure()]


def _late_failure():
    """Bent, but f + f(4 x1, x2) is not: the reduced scan fails at its third
    sum and the full scan at its case 68, (a, b, eps) = (1, 4, 0)."""
    ctx5 = mk_field(5)
    return from_field_bit_fn(
        ctx5, lambda x1, x2: ctx5.trace(ctx5.pow(x1, 5)) ^ (x2 & ctx5.trace(ctx5.mul(3, x1)))
    )


def _semibent_scan_corpus():
    out = []
    rng = np.random.default_rng(11)
    for n in (3, 5):
        ctx = mk_field(n)
        # the trace cube (i = 1) and the Gold function with i = 2
        out += [from_field_fn(ctx, lambda x, i=i: ctx.trace(ctx.pow(x, (1 << i) + 1)))
                for i in (1, 2)]
        out.append(from_field_fn(ctx, lambda x: ctx.trace(x)))  # affine
        out += [_random_quadratic_field_fn(ctx, rng) for _ in range(20)]
    return out


def _same(cert, expected):
    assert cert == expected
    assert all(type(v) is int for v in cert.witness or ())  # plain ints for the JSON


@pytest.mark.parametrize("small_batches", [False, True])
def test_scan_matches_per_case_routes(monkeypatch, small_batches):
    if small_batches:
        # 100 values: between one and twelve rows per batch at these sizes
        monkeypatch.setattr(bf, "BATCH_VALUES", 100)
    late = set()  # routes seen failing after their first case
    for f in _bent_scan_corpus():
        full = cn.is_cyclic_bent_full(f)
        _same(full, cyclic_bent_full_by_cases(f))
        reduced = cn.is_cyclic_bent_reduced(f)
        _same(reduced, cyclic_bent_reduced_by_rows(f))
        late |= {f"bent {c.mode}" for c in (full, reduced) if not c.passed and c.verified_pairs > 1}
    for g in _semibent_scan_corpus():
        for mode in ("full", "reduced"):
            cert = cn.is_cyclic_semibent(g, mode)
            _same(cert, cyclic_semibent_by_cases(g, mode))
            if not cert.passed and cert.verified_pairs > 1:
                late.add(f"semi-bent {mode}")
    assert late == {"bent full", "bent reduced", "semi-bent full", "semi-bent reduced"}
    for f in _outside_reduced_hypothesis():
        full = cn.is_cyclic_bent_full(f)
        _same(full, cyclic_bent_full_by_cases(f))
        for reduced in (cn.is_cyclic_bent_reduced, cyclic_bent_reduced_by_rows):
            with pytest.raises(cn.AffineDifferenceError):
                reduced(f)
    assert full.witness == (1, 2, 1)  # eps = 1 is the first sum that is not bent


def _outside_reduced_hypothesis():
    """Functions whose x2-difference is not tr(lam x1) + nu."""
    ctx = mk_field(3)
    violating = from_field_bit_fn(ctx, lambda x1, x2: x2 & ctx.trace(ctx.pow(x1, 3)))
    # a cubic Maiorana-McFarland bent function <u, pi(v)> + h(v) of the index
    # bits u = 0..2, v = 3..5: f + f(2 x1, x2) is bent, f + f(2 x1, x2 + 1) is not
    u, v = np.arange(64) & 7, np.arange(64) >> 3
    pi = np.array([6, 2, 3, 4, 0, 5, 1, 7])
    h = np.array([0, 1, 1, 1, 0, 0, 1, 0])
    table = (np.bitwise_count(u & pi[v]) & 1) ^ h[v]
    return [violating, bf.BoolFun(bf.Domain(mk_field(5), True), table.astype(np.uint8))]


def _certifier_peak(certify, f) -> int:
    """Peak traced bytes of one passing certifier call on a prebuilt f."""
    tracemalloc.start()
    try:
        assert certify(f).passed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _batch_bound() -> int:
    # the scan holds two float32 buffers of bf.BATCH_VALUES values and, per
    # batch, the uint8 rows (in one reused buffer for the full scan, from
    # their log-order windows for the reduced one); a passing batch is
    # decided by whole-batch reductions and allocates no mask: six
    # batches' worth is ample; the O(2^n) tables fit in 1 MB here.  At
    # m = 12 (reduced) and m = 8 (full) the peaks were 2.5 and 2.3 MB, and
    # a 2^22-value budget would take them to 44 and 45 MB
    return 6 * 4 * bf.BATCH_VALUES + (1 << 20)


def test_reduced_certifier_memory_is_bounded():
    assert _certifier_peak(cn.is_cyclic_bent_reduced, cn.kerdock_fn(12)) < _batch_bound()


def test_full_certifier_memory_is_bounded():
    assert _certifier_peak(cn.is_cyclic_bent_full, cn.kerdock_fn(8)) < _batch_bound()


def test_scan_reuses_one_buffer_pair(monkeypatch):
    # every batch of a scan is transformed in the same (rows, X H') pair:
    # the first buffer holds the batch's 0/1 pair sums, and their spectra
    # overwrite them
    seen = set()
    walsh_many = bf.walsh_many

    def recorded(rows, out=None, work=None):
        assert out is rows
        seen.add(tuple(a.__array_interface__["data"][0] for a in (rows, work)))
        return walsh_many(rows, out=out, work=work)

    f, late = cn.kerdock_fn(6), _late_failure()  # late fails in its second batch
    expected = cyclic_bent_full_by_cases(late)
    monkeypatch.setattr(bf, "walsh_many", recorded)
    monkeypatch.setattr(bf, "BATCH_VALUES", 1 << 12)  # 31 batches of 64 rows
    assert cn.is_cyclic_bent_full(f).passed
    assert len(seen) == 1
    seen.clear()
    assert cn.is_cyclic_bent_full(late) == expected
    assert len(seen) == 1


@pytest.mark.parametrize("with_bit, degree", [(True, 3), (True, 4), (False, 3), (False, 5)])
def test_full_scan_rows_are_the_cases_in_order(monkeypatch, with_bit, degree):
    # the batches, filled from slices of the orbit table, hold f(a .) +
    # f(b ., . + eps) for a != b, a-major, at every batch size, so a
    # witness with b < a is found at its own case
    rng = np.random.default_rng(degree)
    dom = bf.Domain(mk_field(degree), with_bit)
    f = bf.BoolFun(dom, rng.integers(0, 2, dom.size, dtype=np.uint8))
    q = dom.ctx.order
    if with_bit:
        want = [scale_compose_by_halves(f, a).table ^ scale_compose_by_halves(f, b, eps).table
                for a in range(q) for b in range(q) if a != b for eps in (0, 1)]
    else:
        want = [scale_field_by_perm(f, a).table ^ scale_field_by_perm(f, b).table
                for a in range(q) for b in range(q) if a != b]
    for per_batch in (1, 3, 7, len(want)):
        got = []

        def scan(n_cases, sum_rows, n_vars):
            for start in range(0, n_cases, per_batch):
                got.extend(sum_rows(start, min(start + per_batch, n_cases)).copy())
            return -1

        monkeypatch.setattr(cn, "_first_failure", scan)
        cn._certify_full(f)
        assert np.array_equal(got, want)


def _flipped_kerdock8():
    """kerdock_fn(8) with one table bit flipped: its full scan fails at case 0."""
    f = cn.kerdock_fn(8)
    table = f.table.copy()
    table[5] ^= 1
    return bf.BoolFun(f.domain, table)


def test_scan_stops_at_its_first_failing_batch(monkeypatch):
    # the scan transforms every batch up to the first failing one, and no more
    rows = []
    walsh_many = bf.walsh_many
    monkeypatch.setattr(bf, "walsh_many",
                        lambda s, **kw: rows.append(len(s)) or walsh_many(s, **kw))
    gold3 = lp.quad_form(lp.LinPoly.from_dict(mk_field(9), {3: 1}))  # gcd(3, 9) > 1
    cases = [  # (function, certifier, batch budget, index of the first failing batch,
        # witness, verified pairs)
        (_flipped_kerdock8(), cn.is_cyclic_bent_full, bf.BATCH_VALUES, 0, (0, 1, 0), 0),
        (gold3, lambda g: cn.is_cyclic_semibent(g, "full"), bf.BATCH_VALUES, 0, (0, 1), 0),
        (_late_failure(), cn.is_cyclic_bent_full, 1 << 10, 68 // 16, (1, 4, 0), 68),  # 16 rows a batch
    ]
    for f, certify, budget, first, witness, verified in cases:
        monkeypatch.setattr(bf, "BATCH_VALUES", budget)
        batch = budget >> f.n_vars
        rows.clear()
        cert = certify(f)
        assert (cert.passed, cert.witness, cert.verified_pairs) == (False, witness, verified)
        assert sum(rows) == (first + 1) * batch


# A 0/1 row at n = 5 with |W| in {0, 4, 8}: every |V| = |W|/2 is at most
# p = 4, so only its row sum, 80 against 4^4/p = 64, shows that it is not
# semi-bent
WIDE_N5 = np.array([1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0,
                    0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1], dtype=np.uint8)


def test_semibent_batches_are_decided_by_their_row_sums(monkeypatch):
    w = bf.walsh_many(1 - 2 * WIDE_N5[None].astype(np.float32))[0]
    assert set(np.abs(w).tolist()) == {0, 4, 8}
    v = bf.walsh_many(WIDE_N5[None].astype(np.float32))[0]
    v[0] -= 16
    assert np.abs(v).max() <= 4  # a max-only batch test would pass it
    assert np.abs(v).sum() == 80
    assert cn._first_failure(1, lambda start, stop: WIDE_N5[None], 5) == 0
    # planted among the 31 semi-bent rows tr((c x)^3), c != 0, in batches of 4
    ctx = mk_field(5)
    g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
    semi = bf.orbit_tables(g, range(1, 32))
    assert cn._first_failure(len(semi), lambda start, stop: semi[start:stop], 5) == -1
    monkeypatch.setattr(bf, "BATCH_VALUES", 4 * 32)
    for at in (0, 13, 22, 31):
        rows = np.insert(semi, at, WIDE_N5, axis=0)
        assert cn._first_failure(len(rows), lambda start, stop: rows[start:stop], 5) == at


@pytest.mark.parametrize("small_batches", [False, True])
def test_walsh_rows_match_closed_forms(monkeypatch, small_batches):
    if small_batches:
        monkeypatch.setattr(bf, "BATCH_VALUES", 100)
    rows = []
    walsh, walsh_many = bf.walsh, bf.walsh_many
    monkeypatch.setattr(bf, "walsh", lambda f: rows.append(1) or walsh(f))
    monkeypatch.setattr(bf, "walsh_many",
                        lambda s, **kw: rows.append(len(s)) or walsh_many(s, **kw))

    def transformed(certify, *args):
        rows.clear()
        assert certify(*args).passed
        return sum(rows)

    for m in (4, 6):
        q = 1 << (m - 1)
        f = cn.kerdock_fn(m)
        assert transformed(cn.is_cyclic_bent_reduced, f) == (1 << (m - 1)) - 1
        assert transformed(cn.is_cyclic_bent_full, f) == 2 * q * (q - 1)
    for n in (3, 5):
        ctx = mk_field(n)
        g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
        q = ctx.order
        assert transformed(cn.is_cyclic_semibent, g, "reduced") == q - 1
        assert transformed(cn.is_cyclic_semibent, g, "full") == q * (q - 1)
