"""Walsh transform and classification tests against brute-force oracles."""

from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cyclicbent import boolfun as bf
from cyclicbent.gf2 import mk_field

from oracles import (
    from_field_bit_fn,
    from_field_fn,
    is_semibent,
    orbit_tables_by_mul_table,
    scale_compose_by_halves,
    scale_field_by_perm,
    trace_pairing_by_rows,
    walsh_bruteforce,
    walsh_spectrum_bruteforce,
    wht_inplace,
)


def tr_cube(ctx):
    """g(x) = tr(x^3), the classic quadratic on GF(2^n)."""
    return from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))


def test_zero_function_delta_spectrum():
    ctx = mk_field(3)
    f = from_field_fn(ctx, lambda x: 0)
    spec = bf.walsh(f)
    assert spec.values[0] == 8
    assert all(spec.values[a] == 0 for a in range(1, 8))


def test_two_variable_product_is_bent():
    ctx = mk_field(1)
    f = from_field_bit_fn(ctx, lambda x1, x2: x1 & x2)
    spec = bf.walsh(f)
    assert sorted(int(v) for v in spec.values) == [-2, 2, 2, 2]
    assert bf.classify(spec) is bf.WalshClass.BENT


def test_trace_cube_gf8_semibent_distribution():
    ctx = mk_field(3)
    spec = bf.walsh(tr_cube(ctx))
    vals, counts = np.unique(spec.values, return_counts=True)
    dist = dict(zip(vals.tolist(), counts.tolist()))
    assert dist[0] == 4
    assert sorted(c for v, c in dist.items() if v != 0) == [1, 3]
    assert {abs(v) for v in dist if v != 0} == {4}
    assert bf.classify(spec) is bf.WalshClass.SEMI_BENT


def test_affine_even_n_is_neither():
    ctx = mk_field(4)
    f = from_field_fn(ctx, lambda x: ctx.trace(x))
    spec = bf.walsh(f)
    assert max(abs(int(v)) for v in spec.values) == 16
    assert bf.classify(spec) is bf.WalshClass.NEITHER


@pytest.mark.parametrize("with_bit", [False, True])
def test_walsh_matches_bruteforce(with_bit):
    ctx = mk_field(3)
    rng = np.random.default_rng(7)
    dom = bf.Domain(ctx, with_bit)
    for _ in range(5):
        f = bf.BoolFun(dom, rng.integers(0, 2, dom.size).astype(np.uint8))
        spec = bf.walsh(f)
        assert list(spec.values) == walsh_spectrum_bruteforce(f)


def test_walsh_dual_indexing_field_inner_product():
    # W at (lam, nu) must use <(lam,nu),(x1,x2)> = tr(lam x1) + nu x2
    ctx = mk_field(4)
    rng = np.random.default_rng(11)
    dom = bf.Domain(ctx, with_bit=True)
    f = bf.BoolFun(dom, rng.integers(0, 2, dom.size).astype(np.uint8))
    spec = bf.walsh(f)
    for lam in (0, 1, 5, 9):
        for nu in (0, 1):
            assert spec.values[spec.domain.index(lam, nu)] == walsh_bruteforce(f, lam, nu)


def test_parseval_exact():
    for d, with_bit in [(3, False), (3, True), (5, False)]:
        ctx = mk_field(d)
        dom = bf.Domain(ctx, with_bit)
        rng = np.random.default_rng(d)
        f = bf.BoolFun(dom, rng.integers(0, 2, dom.size).astype(np.uint8))
        spec = bf.walsh(f)
        n = dom.n_vars
        assert int(np.sum(spec.values.astype(object) ** 2)) == 1 << (2 * n)


def test_inverse_transform_recovers_signs():
    ctx = mk_field(4)
    dom = bf.Domain(ctx, with_bit=True)
    rng = np.random.default_rng(3)
    f = bf.BoolFun(dom, rng.integers(0, 2, dom.size).astype(np.uint8))
    w = bf.walsh_many(f.signs())
    again = wht_inplace(w.astype(np.int64))
    assert np.array_equal(again // dom.size, f.signs())


def random_signs(n: int, rows: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (1 - 2 * rng.integers(0, 2, (rows, 1 << n))).astype(np.int64)


def random_boolfun(d: int, with_bit: bool, seed: int) -> bf.BoolFun:
    dom = bf.Domain(mk_field(d), with_bit)
    rng = np.random.default_rng(seed)
    return bf.BoolFun(dom, rng.integers(0, 2, dom.size).astype(np.uint8))


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 14), rows=st.integers(1, 5), seed=SEEDS)
def test_walsh_many_matches_int64_butterfly(n, rows, seed):
    signs = random_signs(n, rows, seed)
    w = bf.walsh_many(signs)
    assert w.shape == signs.shape
    assert np.array_equal(w, wht_inplace(signs.copy()))
    assert np.array_equal(bf.walsh_many(signs[0]), w[0])  # a single 1-D row
    # Parseval: every row carries 4^n of energy
    assert np.all(np.sum(w.astype(np.int64) ** 2, axis=1) == 1 << (2 * n))


@st.composite
def _ternary_rows(draw):
    n = draw(st.integers(0, 10))
    rows = draw(st.integers(1, 4))
    return draw(hnp.arrays(np.int8, (rows, 1 << n), elements=st.integers(-1, 1)))


@settings(max_examples=60, deadline=None)
@given(rows=_ternary_rows())
def test_walsh_many_is_exact_on_rows_with_zeros(rows):
    # the real and imaginary parts of a product of unit Gaussian-integer
    # vectors have entries in {-1, 0, 1}; every partial sum stays an integer
    # of size at most 2^n, so the float32 kernel is exact on them too
    w = bf.walsh_many(rows)
    assert np.array_equal(w, wht_inplace(rows.astype(np.int64)))
    full = bf.walsh_many(np.ones_like(rows))  # the largest partial sums, 2^n
    assert np.all(full[:, 0] == rows.shape[1])


# (re, im) of 1, -1, i, -i and 0: the first two and the last are real
_UNITS = np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [0, 0]], dtype=np.int8)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_product_spectra_match_int64_oracle(data):
    # budgets from one row per batch to a few rows with a ragged last batch:
    # every batch is copied as it comes, so a buffer that leaked from one
    # batch into the next would show against the int64 spectra
    n = data.draw(st.integers(0, 7), label="n")
    n_rows = data.draw(st.integers(1, 9), label="n_rows")
    real = data.draw(st.booleans(), label="real")
    length = 1 << n
    budget = data.draw(st.integers(1, 4 * length), label="budget")
    pick = st.sampled_from([0, 1, 4] if real else range(5))
    x, y = (_UNITS[data.draw(hnp.arrays(np.int64, (n_rows, length), elements=pick))]
            for _ in range(2))
    starts = []

    def pairs(start, rows):
        starts.append(start)
        sl = slice(start, start + rows)
        return x[sl, :, 0], None if real else x[sl, :, 1], y[sl, :, 0], None if real else y[sl, :, 1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bf, "BATCH_VALUES", budget)
        batches = [w.copy() for w in bf.product_spectra(n_rows, length, real, pairs)]
    parts = 1 if real else 2
    rows = max(1, min(n_rows, budget // (parts * length)))
    assert [len(w) for w in batches[:-1]] == [rows] * (len(batches) - 1)
    assert starts == list(range(0, n_rows, rows))
    (xr, xi), (yr, yi) = (np.moveaxis(v.astype(np.int64), -1, 0) for v in (x, y))
    want = np.stack([xr * yr + xi * yi, xi * yr - xr * yi][:parts], axis=1)
    got = np.concatenate(batches)
    assert got.dtype == np.float32 and got.shape == (n_rows, parts, length)
    assert np.array_equal(got, wht_inplace(want))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_count_values_matches_a_plain_counter(data):
    # one and two parts, every column or a strided slice of them, weights up
    # to 2^25 and step budgets from one value to the default: each
    # (row, column) entry adds its row's weight once, at (Re, Im) or (Re, 0)
    rows = data.draw(st.integers(1, 9), label="rows")
    parts = data.draw(st.integers(1, 2), label="parts")
    length = data.draw(st.integers(2, 40), label="length")
    batch = data.draw(hnp.arrays(np.float32, (rows, parts, length),
                                 elements=st.integers(-70, 70).map(float)), label="batch")
    weight = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(0, 1 << 25)),
                       label="weight")
    cols = data.draw(st.sampled_from([slice(None), slice(1, None, 2), slice(0, 3)]), label="cols")
    budget = data.draw(st.sampled_from([1, 100, bf._COUNT_VALUES]), label="budget")
    want = Counter()
    for r in range(rows):
        for j in range(length)[cols]:
            im = int(batch[r, 1, j]) if parts == 2 else 0
            want[(int(batch[r, 0, j]), im)] += int(weight[r])
    got = Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bf, "_COUNT_VALUES", budget)
        bf.count_values(got, batch, weight, cols)
    assert +got == +want


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 8), with_bit=st.booleans(), seed=SEEDS)
def test_walsh_is_the_reindexed_butterfly_in_int64(d, with_bit, seed):
    f = random_boolfun(d, with_bit, seed)
    spec = bf.walsh(f)
    assert spec.values.dtype == np.int64
    want = wht_inplace(f.signs())[bf._dual_permutation(f.domain)]
    assert np.array_equal(spec.values, want)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 7), with_bit=st.booleans(), seed=SEEDS)
def test_walsh_involution_and_parseval(d, with_bit, seed):
    # sum_(lam,nu) W(lam,nu) (-1)^{tr(lam x1) + nu x2} = 2^n (-1)^{f(x1,x2)}
    f = random_boolfun(d, with_bit, seed)
    w = bf.walsh(f).values
    chars = 1 - 2 * trace_pairing_by_rows(f.domain.ctx).astype(np.int64)
    if with_bit:
        chars = np.kron(np.array([[1, 1], [1, -1]]), chars)
    assert np.array_equal(chars.T @ w, f.domain.size * f.signs())
    assert int(np.sum(w * w)) == 1 << (2 * f.n_vars)


@cache
def _char_bits_by_rows(d: int, with_bit: bool) -> np.ndarray:
    t = trace_pairing_by_rows(mk_field(d))
    # nu = x2 = 1 is the one block where nu x2 flips the bit
    return np.block([[t, t], [t, t ^ 1]]) if with_bit else t


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 10), with_bit=st.booleans(), data=st.data())
def test_char_bits_reads_the_asked_rows_and_columns_of_the_trace_pairing(d, with_bit, data):
    dom = bf.Domain(mk_field(d), with_bit)
    want = _char_bits_by_rows(d, with_bit)
    index = st.integers(0, dom.size - 1)
    duals, points = (np.array(data.draw(st.lists(index, max_size=12), label=name), dtype=np.int64)
                     for name in ("duals", "points"))
    got = bf.char_bits(dom, duals, points)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want[np.ix_(duals, points)])
    # a scalar drops its axis; an omitted argument is every index
    lam = data.draw(index, label="lam")
    assert np.array_equal(bf.char_bits(dom, lam), want[lam])
    assert np.array_equal(bf.char_bits(dom, points=points), want[:, points])


@pytest.mark.parametrize("shape", [(1 << 25,), (2, 1 << 25), (3, 1000), (5,), (2, 0), ()])
def test_walsh_many_rejects_bad_lengths(shape):
    # zero-stride views: nothing of the nominal size is allocated
    signs = np.broadcast_to(np.float32(1), shape)
    with pytest.raises(ValueError):
        bf.walsh_many(signs)


def test_scale_compose_identity_and_zero():
    ctx = mk_field(3)
    rng = np.random.default_rng(5)
    dom = bf.Domain(ctx, with_bit=True)
    f = bf.BoolFun(dom, rng.integers(0, 2, dom.size).astype(np.uint8))
    assert bf.scale_compose(f, 1, 0) == f
    g = bf.scale_compose(f, 0, 1)
    for x2 in (0, 1):
        vals = {g.value(x1, x2) for x1 in range(8)}
        assert vals == {f.value(0, x2 ^ 1)}


def test_scale_compose_against_direct_evaluation():
    # m=4 Kerdock-style check: scale_compose(K, beta, 0) equals pointwise K(beta*x1, x2)
    ctx = mk_field(3)
    K = from_field_bit_fn(
        ctx,
        lambda x1, x2: ctx.trace(ctx.pow(x1, 3)) ^ (x2 & ctx.trace(x1)),
    )
    b = ctx.generator
    g = bf.scale_compose(K, b, 0)
    for x2 in (0, 1):
        for x1 in range(8):
            assert g.value(x1, x2) == K.value(ctx.mul(b, x1), x2)
    h = bf.scale_compose(K, b, 1)
    for x2 in (0, 1):
        for x1 in range(8):
            assert h.value(x1, x2) == K.value(ctx.mul(b, x1), x2 ^ 1)


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("with_bit", [False, True])
def test_orbit_tables_match_the_per_scalar_compositions(d, with_bit):
    ctx = mk_field(d)
    dom = bf.Domain(ctx, with_bit)
    rng = np.random.default_rng(d)
    f = bf.BoolFun(dom, rng.integers(0, 2, dom.size).astype(np.uint8))
    scalars = np.arange(ctx.order)  # c = 0 included
    rng.shuffle(scalars)
    if not with_bit:
        rows = bf.orbit_tables(f, scalars)
        assert rows.shape == (ctx.order, dom.size) and rows.dtype == np.uint8
        for c, row in zip(scalars.tolist(), rows):
            assert np.array_equal(row, scale_field_by_perm(f, c).table)
        assert bf.scale_field(f, 3 % ctx.order) == scale_field_by_perm(f, 3 % ctx.order)
        with pytest.raises(ValueError, match="eps"):
            bf.orbit_tables(f, scalars, 1)
        return
    eps_rows = rng.integers(0, 2, ctx.order)
    for eps in (0, 1, eps_rows):
        rows = bf.orbit_tables(f, scalars, eps)
        assert rows.shape == (ctx.order, dom.size) and rows.dtype == np.uint8
        for i, (c, row) in enumerate(zip(scalars.tolist(), rows)):
            e = int(np.broadcast_to(eps, scalars.shape)[i])
            assert np.array_equal(row, scale_compose_by_halves(f, c, e).table)
    # one scalar gives one row, without the leading axis
    c = int(scalars[0])
    assert bf.scale_compose(f, c, 1) == scale_compose_by_halves(f, c, 1)
    assert np.array_equal(bf.orbit_tables(f, c, 1), scale_compose_by_halves(f, c, 1).table)


@st.composite
def _orbit_cases(draw, degrees=st.integers(1, 12)):
    """A random f, scalars (one, a vector or a matrix; 0 and 1 among them
    when they fit) and eps (one bit, or one per scalar on field-times-bit
    domains)."""
    d = draw(degrees)
    with_bit = draw(st.booleans())
    dom = bf.Domain(mk_field(d), with_bit)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    f = bf.BoolFun(dom, rng.integers(0, 2, dom.size).astype(np.uint8))
    shape = draw(st.sampled_from([(), (1,), (5,), (2, 3), (4, 1)]))
    scalars = rng.integers(0, dom.ctx.order, shape)
    if scalars.size >= 2:
        scalars.flat[:2] = 0, 1
    per_scalar = with_bit and draw(st.booleans())
    eps = rng.integers(0, 2, shape) if per_scalar else draw(st.integers(0, 1)) * with_bit
    return f, scalars, eps


@settings(max_examples=200, deadline=None)
@given(case=_orbit_cases())
def test_orbit_tables_match_the_mul_table_gather(case):
    f, scalars, eps = case
    rows = bf.orbit_tables(f, scalars, eps)
    assert rows.dtype == np.uint8 and rows.shape == np.shape(scalars) + (f.domain.size,)
    assert np.array_equal(rows, orbit_tables_by_mul_table(f, scalars, eps))


@settings(max_examples=2, deadline=None)
@given(case=_orbit_cases(st.just(20)))
def test_orbit_tables_match_the_mul_table_gather_at_degree_20(case):
    f, scalars, eps = case
    assert np.array_equal(bf.orbit_tables(f, scalars, eps),
                          orbit_tables_by_mul_table(f, scalars, eps))


def test_xor_and_restrict():
    ctx = mk_field(3)
    K = from_field_bit_fn(
        ctx,
        lambda x1, x2: ctx.trace(ctx.pow(x1, 3)) ^ (x2 & ctx.trace(x1)),
    )
    assert np.all(bf.xor(K, K).table == 0)
    assert bf.restrict(K, 0) == tr_cube(ctx)
    assert is_semibent(bf.restrict(K, 0))
    with pytest.raises(ValueError, match="mismatch"):
        bf.xor(K, tr_cube(ctx))


def test_json_roundtrip():
    ctx = mk_field(4)
    dom = bf.Domain(ctx, with_bit=True)
    rng = np.random.default_rng(1)
    f = bf.BoolFun(dom, rng.integers(0, 2, dom.size).astype(np.uint8))
    g = bf.BoolFun.from_json(f.to_json())
    assert g == f
