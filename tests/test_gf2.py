"""Field arithmetic tests.

Expected values for GF(8) were derived by hand-reduction modulo x^3 + x + 1
(indices: 1 -> 1, 2 -> x, 4 -> x^2):
    x * x^2   = x^3       = x + 1        -> index 3
    inv(x)    = x^2 + 1   (x*(x^2+1) = x^3 + x = 1)      -> index 5
    tr(x)     = x + x^2 + x^4 = x + x^2 + (x^2 + x) = 0
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclicbent import boolfun as bf
from cyclicbent import construct as cn
from cyclicbent.gf2 import DEFAULT_MODULUS, MAX_DEGREE, GF2m, is_irreducible, mk_field

from oracles import (
    dual_index_table_by_points,
    generator_powers_by_pow,
    log_tables_by_loop,
    mul_by_clmul,
    pow_by_squaring,
    trace_pairing_by_rows,
    trace_table_by_points,
)


def test_default_table_every_degree_validates():
    assert MAX_DEGREE == 20 and sorted(DEFAULT_MODULUS) == list(range(1, 21))
    for d in range(1, 21):
        ctx = GF2m(d)
        assert ctx.order == 1 << d
        assert ctx.modulus == DEFAULT_MODULUS[d]
    # past the log tables: x^21 + x^2 + 1 is primitive, but 21 is no degree
    for d, modulus in ((0, None), (21, None), (21, 0b1000000000000000000101)):
        with pytest.raises(ValueError, match=r"degree must be in \[1, 20\], got"):
            GF2m(d, modulus)


def test_library_calls_past_the_log_tables_raise():
    table = {"n": 21, "domain": "field", "degree": 21, "modulus": 0b1000000000000000000101,
             "table_hex": ""}
    with pytest.raises(ValueError, match="got 21"):
        bf.BoolFun.from_json(json.dumps(table))
    with pytest.raises(ValueError, match="got 21"):
        cn.kerdock_fn(22)


def test_gf8_default_modulus_and_generator_order():
    ctx = mk_field(3)
    assert ctx.modulus == 0b1011  # x^3 + x + 1
    # beta = x has order 7: x^k != 1 for all k < 7 (exhaustive)
    for k in range(1, 7):
        assert ctx.pow(ctx.generator, k) != 1
    assert ctx.pow(ctx.generator, 7) == 1


def test_gf2_degree_one():
    ctx = mk_field(1)
    assert ctx.generator == 1
    assert ctx.mul(1, 1) == 1
    assert ctx.trace(1) == 1 and ctx.trace(0) == 0


def test_reducible_modulus_rejected():
    # x^3 + x^2 + x + 1 = (x+1)(x^2+1)
    with pytest.raises(ValueError, match="reducible"):
        GF2m(3, 0b1111)


def test_irreducible_but_imprimitive_modulus_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5 < 15.
    assert is_irreducible(0b11111, 4)
    with pytest.raises(ValueError, match="primitive"):
        GF2m(4, 0b11111)


@pytest.mark.parametrize("d, modulus, order", [
    (4, 0b11111, 5),
    (6, 0b1001001, 9),
    (8, 0b100011011, 51),  # the AES modulus
])
def test_imprimitive_modulus_reports_the_order_of_x(d, modulus, order):
    # the repeat lies past the first block of 2^ceil(d/2) powers
    assert is_irreducible(modulus, d)
    with pytest.raises(ValueError, match=f"has order {order} < {(1 << d) - 1};"):
        GF2m(d, modulus)


@pytest.mark.parametrize("d", [*range(1, 17), 20])
def test_log_tables_match_the_sequential_loop(d):
    ctx = mk_field(d)
    exp, log = log_tables_by_loop(ctx)
    assert np.array_equal(ctx._exp, exp) and np.array_equal(ctx._log, log)


def test_gf8_mul_inv_add():
    ctx = mk_field(3)
    b = ctx.generator
    assert ctx.mul(b, ctx.sqr(b)) == 3  # x * x^2 = x + 1
    assert ctx.inv(b) == 5  # x^2 + 1
    assert ctx.mul(b, 5) == 1
    for x in range(8):
        assert ctx.add(x, x) == 0  # characteristic 2
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_field_laws_exhaustive_small():
    for d in (2, 3, 4):
        ctx = mk_field(d)
        n = ctx.order
        for a in range(n):
            for b in range(n):
                assert ctx.mul(a, b) == ctx.mul(b, a)
                if b:
                    assert ctx.mul(ctx.div(a, b), b) == a
            if a:
                assert ctx.mul(a, ctx.inv(a)) == 1
        # distributivity on a sample
        for a in range(n):
            for b in range(0, n, 3):
                for c in range(0, n, 2):
                    assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)


def test_trace_gf8_values():
    ctx = mk_field(3)
    assert ctx.trace(0) == 0
    assert ctx.trace(1) == 1  # three summands in characteristic 2
    assert ctx.trace(ctx.generator) == 0  # beta + beta^2 + beta^4 = 0


def test_trace_linear_and_onto():
    for d in (4, 6, 9):
        ctx = mk_field(d)
        for r in [r for r in range(1, d + 1) if d % r == 0]:
            tab = ctx.trace_table(r)
            seen = set()
            for x in range(ctx.order):
                tx = int(tab[x])
                assert tx == ctx.trace(x, r)
                assert ctx.subfield_test(tx, r)
                seen.add(tx)
            assert len(seen) == 1 << r  # onto GF(2^r)
            # additivity on a grid
            for x in range(0, ctx.order, 7):
                for y in range(0, ctx.order, 5):
                    assert tab[x ^ y] == tab[x] ^ tab[y]


def test_trace_transitivity_exhaustive():
    # tr_1^d = tr_1^r o tr_r^d for all r | d, exhaustive for d <= 12.
    # For y in GF(2^r) the inner absolute trace is sum of y^{2^i}, i < r,
    # evaluated inside the big field.
    for d in (4, 6, 9, 12):
        ctx = mk_field(d)
        for r in [r for r in range(2, d) if d % r == 0]:
            tab = ctx.trace_table(r)
            for x in range(ctx.order):
                t, z = 0, int(tab[x])
                for _ in range(r):
                    t ^= z
                    z = ctx.sqr(z)
                assert t in (0, 1)
                assert t == ctx.trace(x, 1)


def test_frobenius_fixes_exactly_gf2():
    for d in (3, 5, 6):
        ctx = mk_field(d)
        fixed = [x for x in range(ctx.order) if ctx.sqr(x) == x]
        assert fixed == [0, 1]
        # automorphism
        for a in range(0, ctx.order, 3):
            for b in range(0, ctx.order, 5):
                assert ctx.sqr(ctx.mul(a, b)) == ctx.mul(ctx.sqr(a), ctx.sqr(b))
                assert ctx.sqr(a ^ b) == ctx.sqr(a) ^ ctx.sqr(b)


def test_subfield_membership():
    ctx = mk_field(9)
    b73 = ctx.pow(ctx.generator, 73)  # 73 = (2^9-1)/(2^3-1)
    assert ctx.subfield_test(b73, 3)
    assert not ctx.subfield_test(ctx.generator, 3)
    assert ctx.subfield_test(1, 1) and ctx.subfield_test(0, 1)
    sub3 = ctx.subfield_elements(3)
    assert len(sub3) == 8
    assert all(ctx.subfield_test(z, 3) for z in sub3)
    # subfield is closed under multiplication
    for a in sub3:
        for b in sub3:
            assert ctx.mul(a, b) in sub3


def test_beta_not_in_gf2():
    ctx = mk_field(3)
    assert not ctx.subfield_test(ctx.generator, 1)


def test_vector_tables_match_scalars():
    for d in (3, 5, 8):
        ctx = mk_field(d)
        for b in (0, 1, ctx.generator, ctx.order - 1):
            mt = ctx.mul_table(b)
            for x in range(ctx.order):
                assert mt[x] == ctx.mul(b, x)
        for e in (2, 3, 5, 2 ** (d - 1) + 1):
            pt = ctx.pow_table(e)
            for x in range(ctx.order):
                assert pt[x] == ctx.pow(x, e)


def test_trace_pairing_and_generator_powers_match_loops():
    for d in range(1, 13):
        ctx = mk_field(d)
        pairing = ctx.trace_pairing()
        assert pairing.dtype == np.uint8 and pairing.shape == (ctx.order, ctx.order)
        assert np.array_equal(pairing, trace_pairing_by_rows(ctx))
        t = np.arange(-2, 2 * ctx.order + 3)  # wraps past the period both ways
        assert np.array_equal(ctx.generator_powers(t), generator_powers_by_pow(ctx, t))


@pytest.mark.parametrize("d", [1, 2, 5, 8, 12])
def test_discrete_logs_invert_generator_powers(d):
    ctx = mk_field(d)
    x = np.arange(ctx.order).reshape(-1, 1 << (d // 2))
    logs = ctx.discrete_logs(x)
    assert logs.shape == x.shape and logs[0, 0] == -1
    assert np.all((logs.ravel()[1:] >= 0) & (logs.ravel()[1:] < ctx.order - 1))
    assert np.array_equal(ctx.generator_powers(logs.ravel()[1:]), x.ravel()[1:])
    assert [int(v) for v in logs.ravel()[1:20]] == [
        next(t for t in range(ctx.order - 1) if ctx.pow(ctx.generator, t) == v)
        for v in range(1, min(20, ctx.order))]
    for bad in ([ctx.order], [-1, 1]):
        with pytest.raises(ValueError, match="outside"):
            ctx.discrete_logs(bad)


@pytest.mark.parametrize("d", [1, 2, 3, 6, 9])
def test_log_window_tables_multiply_without_a_reduction(d):
    ctx = mk_field(d)
    antilog, log = ctx.log_window_tables()
    assert ctx.log_window_tables()[0] is antilog  # cached
    assert antilog.shape == (2 * (ctx.order - 1),) and log[0] == 0
    assert not antilog.flags.writeable and not log.flags.writeable
    x = np.arange(1, ctx.order)
    prod = antilog[log[x][:, None] + log[x][None, :]]
    assert prod.tolist() == [[ctx.mul(a, b) for b in range(1, ctx.order)]
                             for a in range(1, ctx.order)]


@pytest.mark.parametrize("d", range(1, 17))
def test_linear_tables_match_the_per_point_loops(d):
    ctx = mk_field(d)
    for r in [r for r in range(1, d + 1) if d % r == 0]:
        t = ctx.trace_table(r)
        assert t.dtype == np.int64 and np.array_equal(t, trace_table_by_points(ctx, r))
    dual = ctx.dual_index_table()
    assert dual.dtype == np.int64 and np.array_equal(dual, dual_index_table_by_points(ctx))


def test_mk_field_caches():
    assert mk_field(5) is mk_field(5)


def test_trace_subfield_linear():
    # tr_r^d(alpha x) = alpha tr_r^d(x) for alpha in GF(2^r)
    ctx = mk_field(6)
    for r in (2, 3):
        for alpha in ctx.subfield_elements(r):
            for x in range(0, ctx.order, 5):
                assert ctx.trace(ctx.mul(alpha, x), r) == ctx.mul(alpha, ctx.trace(x, r))


@st.composite
def field_elements(draw, count: int):
    """A default-modulus field of degree 1..12 and count of its elements."""
    ctx = mk_field(draw(st.integers(1, 12)))
    elem = st.integers(0, ctx.order - 1)
    return ctx, [draw(elem) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(case=field_elements(3), e=st.integers(-40, 40), k=st.integers(0, 30))
def test_field_axioms_at_every_default_modulus(case, e, k):
    ctx, (a, b, c) = case
    mul = ctx.mul
    assert 0 <= mul(a, b) < ctx.order
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
    assert mul(a, 1) == a and mul(a, 0) == 0
    assert int(ctx.mul_table(a)[b]) == mul(a, b)
    if b:
        assert mul(b, ctx.inv(b)) == 1
        assert mul(ctx.div(a, b), b) == a
    if a:
        assert mul(ctx.pow(a, e), ctx.pow(a, -e)) == 1
    assert ctx.pow(a, k + 1) == mul(ctx.pow(a, k), a)
    # Frobenius is the additive map a -> a^{2^k}; the trace is GF(2)-linear
    # and Frobenius-invariant
    assert ctx.frobenius(a, k) == ctx.pow(a, 1 << k)
    assert ctx.frobenius(a ^ b, k) == ctx.frobenius(a, k) ^ ctx.frobenius(b, k)
    assert ctx.trace(a ^ b) == ctx.trace(a) ^ ctx.trace(b)
    assert ctx.trace(ctx.frobenius(a, k)) == ctx.trace(a) in (0, 1)


@pytest.mark.parametrize("d", range(1, MAX_DEGREE + 1))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_log_table_arithmetic_matches_the_carry_less_route(d, data):
    # the tables are the one multiply path; the carry-less product and
    # square-and-multiply over it are the reference at every default degree
    ctx = mk_field(d)
    a, b = (data.draw(st.integers(0, ctx.order - 1)) for _ in range(2))
    e = data.draw(st.integers(0, 1 << 40))
    assert ctx.mul(a, b) == mul_by_clmul(ctx, a, b)
    assert ctx.pow(a, e) == pow_by_squaring(ctx, a, e)
    if a:
        assert ctx.inv(a) == pow_by_squaring(ctx, a, ctx.order - 2)


@st.composite
def field_and_bad_index(draw):
    ctx = mk_field(draw(st.sampled_from([*range(1, 13), 20])))
    bad = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=ctx.order)))
    return ctx, bad


@settings(max_examples=100, deadline=None)
@given(case=field_and_bad_index())
@example(case=(mk_field(5), -1))  # unchecked, -1 would index the last log entry
@example(case=(mk_field(5), -3))  # and mul_table(-3) a wrong permutation
def test_element_indices_outside_the_field_are_rejected(case):
    ctx, bad = case
    calls = [
        lambda: ctx.mul(bad, 1), lambda: ctx.mul(1, bad), lambda: ctx.pow(bad, 2),
        lambda: ctx.inv(bad), lambda: ctx.div(bad, 1), lambda: ctx.div(1, bad),
        lambda: ctx.frobenius(bad, 0), lambda: ctx.frobenius(bad, 1),
        lambda: ctx.trace(bad), lambda: ctx.mul_table(bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="outside"):
            call()

