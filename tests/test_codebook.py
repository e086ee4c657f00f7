"""Codebook and MUB tests, all in exact arithmetic.

Frozen bound values were derived by direct substitution into the two squared
bound formulas:
    real (144, 16):   (432 - 256 - 32) / (128 * 18) = 144/2304 = 1/16
    complex (72, 8):  (144 - 64 - 8) / (64 * 9)     = 72/576   = 1/8
    real (72, 8):     (216 - 64 - 16) / (64 * 10)   = 136/640  = 17/80
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cyclicbent import codebook as cbk
from cyclicbent import construct as cn
from cyclicbent.gf2 import mk_field
from cyclicbent import boolfun as bf

from oracles import (
    gram_int64,
    imax_sq_masked_tiles,
    mub_by_blocks,
    real_codebook_by_blocks,
    semibent_codebook_by_blocks,
    verify_mub_by_pairs,
    write_csv_by_cells,
)


def kerdock4():
    return cn.kerdock_fn(4)


def test_levenshtein_bounds_frozen_values():
    assert cbk.levenshtein_real_sq(144, 16) == Fraction(1, 16)
    assert cbk.levenshtein_complex_sq(72, 8) == Fraction(1, 8)
    assert cbk.levenshtein_real_sq(72, 8) == Fraction(17, 80)
    with pytest.raises(ValueError):
        cbk.levenshtein_real_sq(100, 16)  # N <= K(K+1)/2
    with pytest.raises(ValueError):
        cbk.levenshtein_complex_sq(64, 8)  # N <= K^2


def test_imax_sq_edge_cases():
    eye = np.eye(4, dtype=np.int8)
    cb = cbk.Codebook(eye, np.zeros_like(eye), np.ones(4, dtype=np.int64))
    assert cbk.imax_sq(cb) == 0
    two = np.ones((2, 4), dtype=np.int8)
    cb2 = cbk.Codebook(two, np.zeros_like(two), np.full(2, 4, dtype=np.int64))
    assert cbk.imax_sq(cb2) == 1  # identical rows


def test_real_codebook_m4_parameters_and_optimality():
    cb = cbk.build_real_codebook(kerdock4())
    assert (cb.n_rows, cb.length) == (144, 16)
    assert cb.alphabet_size == 4
    assert cb.is_real()
    actual = cbk.imax_sq(cb)
    assert actual == Fraction(1, 16)
    assert actual == cbk.levenshtein_real_sq(144, 16)
    rep = cbk.optimality_report(cb, "real")
    assert rep["optimal"] and rep["imax_sq"] == "1/16"


def test_real_codebook_eps_variants_stay_optimal():
    f = kerdock4()
    rng = np.random.default_rng(42)
    eps = [int(b) for b in rng.integers(0, 2, 7)]
    cb = cbk.build_real_codebook(f, eps)
    assert cbk.imax_sq(cb) == Fraction(1, 16)
    assert cb.alphabet_size == 4


def test_real_codebook_standard_rows_orthogonal():
    cb = cbk.build_real_codebook(kerdock4())
    k = cb.length
    gre, gim = cbk._gram(cb.re[:k], cb.im[:k], cb.re[:k], cb.im[:k])
    assert np.array_equal(gre, np.eye(k, dtype=np.int64))
    assert not gim.any()


def test_real_codebook_rejects_uncertified():
    ctx = mk_field(3)
    f = bf.from_field_bit_fn(ctx, lambda x1, x2: x2 & ctx.trace(x1))
    with pytest.raises(ValueError, match="not certified"):
        cbk.build_real_codebook(f)


def test_mub_m4_complete_and_exact():
    mubs = cbk.build_mub(kerdock4())
    assert mubs.n_bases == 9 and mubs.k == 8
    rep = cbk.verify_mub(mubs)
    assert rep == {"bases": 9, "complete": True, "orthonormal": True, "unbiased": True}


def test_mub_entries_are_unit_gaussian():
    mubs = cbk.build_mub(kerdock4())
    for i in range(1, mubs.n_bases):
        b = mubs.basis(i)
        mag = b.re.astype(np.int64) ** 2 + b.im.astype(np.int64) ** 2
        assert np.all(mag == 1) and np.all(b.norm_sq == 8)


def test_mub_gram_walsh_route_agrees():
    f = kerdock4()
    mubs = cbk.build_mub(f)
    for a in range(8):
        for a2 in range(8):
            if a == a2:
                continue
            b, b2 = mubs.basis(1 + a), mubs.basis(1 + a2)
            gre, gim = cbk._gram(b.re, b.im, b2.re, b2.im)
            wre, wim = cbk.mub_gram_via_walsh(f, a, a2)
            assert np.array_equal(gre, wre)
            assert np.array_equal(gim, wim)



# -- verify_mub (per-basis Grams plus one imax_sq) against the pairwise oracle ---------


def _mub_variants(m):
    """The built set and nine sets made from its rows, with their expected
    (complete, orthonormal, unbiased) verdicts."""
    mubs = cbk.build_mub(cn.kerdock_fn(m))
    k, cb, n = mubs.k, mubs.codebook, mubs.n_bases
    rng = np.random.default_rng(m)
    blocks = np.arange(n * k).reshape(n, k)

    def from_rows(order):
        order = np.ravel(order)
        return cbk.MubSet(k, cbk.Codebook(cb.re[order], cb.im[order], cb.norm_sq[order]))

    within = blocks.copy()
    within[3] = rng.permutation(within[3])
    swapped = blocks.copy()
    swapped[2, 0], swapped[n - 1, 5] = blocks[n - 1, 5], blocks[2, 0]
    flipped_re, flipped_im = cb.re.copy(), cb.im.copy()
    flipped_re[2 * k + 3, 1] *= -1  # one of the two parts is nonzero
    flipped_im[2 * k + 3, 1] *= -1
    flipped = cbk.MubSet(k, cbk.Codebook(flipped_re, flipped_im, cb.norm_sq))
    # row r + 1 of the last basis becomes i times row r: the pair's Gram
    # entry is i K, which only the imaginary part shows
    r = (n - 1) * k
    turned_re, turned_im = cb.re.copy(), cb.im.copy()
    turned_re[r + 1], turned_im[r + 1] = -cb.im[r], cb.re[r]
    turned = cbk.MubSet(k, cbk.Codebook(turned_re, turned_im, cb.norm_sq))
    relabelled_norm = cb.norm_sq.copy()
    relabelled_norm[:k] = k
    relabelled = cbk.MubSet(k, cbk.Codebook(cb.re, cb.im, relabelled_norm))
    return [
        ("built", mubs, (True, True, True)),
        ("rows permuted within a basis", from_rows(within), (True, True, True)),
        ("bases reordered", from_rows(blocks[rng.permutation(n)]), (True, True, True)),
        ("function basis copied", from_rows(np.vstack([blocks[:-1], blocks[2]])),
         (True, True, False)),
        ("standard basis duplicated", from_rows(np.vstack([blocks, blocks[:1]])),
         (False, True, False)),
        ("one entry's sign flipped", flipped, (True, False, False)),
        ("a vector turned into i times another of its basis", turned, (True, False, False)),
        ("standard basis labelled with norm K", relabelled, (True, False, False)),
        ("vectors swapped between bases", from_rows(swapped), (True, False, False)),
        ("first two bases", from_rows(blocks[:2]), (False, True, True)),
    ]


@pytest.mark.parametrize("m", [4, 6])
def test_verify_mub_matches_pairwise_oracle(m):
    for name, mubs, (complete, orthonormal, unbiased) in _mub_variants(m):
        got, want = cbk.verify_mub(mubs), verify_mub_by_pairs(mubs)
        assert (got["complete"], got["orthonormal"], got["unbiased"]) == (
            complete, orthonormal, unbiased), name
        # the pairwise route judges unbiasedness on its own; the stacked one
        # needs orthonormal bases for its Parseval step and says False without
        assert got == {**want, "unbiased": want["orthonormal"] and want["unbiased"]}, name


def test_mub_set_needs_whole_bases():
    cb = cbk.mub_to_codebook(cbk.build_mub(kerdock4()))
    for rows, k in ((slice(0, 12), 8), (slice(0, 0), 8), (slice(0, 16), 4)):
        with pytest.raises(ValueError, match="not whole bases"):
            cbk.MubSet(k, cbk.Codebook(cb.re[rows], cb.im[rows], cb.norm_sq[rows]))


def test_complex_codebook_m4():
    mubs = cbk.build_mub(kerdock4())
    cb = cbk.mub_to_codebook(mubs)
    assert (cb.n_rows, cb.length) == (72, 8)
    assert cbk.imax_sq(cb) == Fraction(1, 8) == cbk.levenshtein_complex_sq(72, 8)
    assert cb.alphabet_size == 6
    rep = cbk.optimality_report(cb, "complex")
    assert rep["optimal"]


def test_semibent_codebook_n3():
    ctx = mk_field(3)
    g = bf.from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
    cb = cbk.build_semibent_codebook(g)
    assert (cb.n_rows, cb.length) == (72, 8)
    assert cb.alphabet_size == 4
    actual = cbk.imax_sq(cb)
    assert actual == Fraction(1, 4)  # exact 2^{1-n}, not the bound 17/80
    assert actual / cbk.levenshtein_real_sq(72, 8) == Fraction(20, 17)
    rep = cbk.optimality_report(cb, "real")
    assert not rep["optimal"] and rep["ratio_sq"] == "20/17"


def test_semibent_codebook_rejects_uncertified():
    ctx = mk_field(3)
    g = bf.from_field_fn(ctx, lambda x: ctx.trace(x))
    with pytest.raises(ValueError, match="not certified"):
        cbk.build_semibent_codebook(g)


def test_codebook_csv_and_json(tmp_path):
    cb = cbk.build_real_codebook(kerdock4())
    obj = cb.to_json_obj()
    assert obj["n_rows"] == 144 and len(obj["rows_re"]) == 144
    p = tmp_path / "cb.csv"
    cb.write_csv(str(p))
    lines = p.read_text().strip().split("\n")
    assert len(lines) == 144
    assert lines[0].split(",")[0] == "1"  # standard basis row, unnormalized norm 1
    assert lines[-1].split(",")[0] in ("0.25", "-0.25")


def test_imax_sq_threads_deterministic(monkeypatch):
    cb = cbk.build_real_codebook(kerdock4())
    mcb = cbk.mub_to_codebook(cbk.build_mub(kerdock4()))
    assert cbk.imax_sq(cb) == Fraction(1, 16) and cbk.imax_sq(mcb) == Fraction(1, 8)
    monkeypatch.setattr(cbk, "_TILE_ROWS", 50)
    assert cbk.imax_sq(cb) == Fraction(1, 16)
    monkeypatch.setattr(cbk, "_TILE_ROWS", 17)
    assert cbk.imax_sq(mcb) == Fraction(1, 8)


# -- the float64 Gram kernel against the int64 oracle ---------------------------------


def _entries(shape):
    return hnp.arrays(np.int8, shape, elements=st.integers(-1, 1))


@st.composite
def _gram_operands(draw, im1_real: bool, im2_real: bool):
    k = draw(st.integers(1, 24))
    n1, n2 = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    re1, re2 = draw(_entries((n1, k))), draw(_entries((n2, k)))
    im1 = np.zeros((n1, k), np.int8) if im1_real else draw(_entries((n1, k)))
    im2 = np.zeros((n2, k), np.int8) if im2_real else draw(_entries((n2, k)))
    return re1, im1, re2, im2


@pytest.mark.parametrize("im1_real, im2_real", [
    (True, True), (False, False), (True, False), (False, True),
])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gram_matches_int64_oracle(im1_real, im2_real, data):
    ops = data.draw(_gram_operands(im1_real, im2_real))
    gre, gim = cbk._gram(*ops)
    ore, oim = gram_int64(*ops)
    assert gre.dtype == gim.dtype == np.int64
    assert np.array_equal(gre, ore) and np.array_equal(gim, oim)


def test_gram_rejects_rows_too_long_for_exact_float64():
    k = math.isqrt((1 << 51) - 1) + 1  # the least K with 4K^2 >= 2^53
    row = np.broadcast_to(np.int8(0), (1, k))  # zero strides: nothing allocated
    with pytest.raises(ValueError, match="too long"):
        cbk._gram(row, row, row, row)


# -- imax_sq on norm-grouped tiles against the masked-tile oracle ---------------------


def _hand_codebooks():
    rng = np.random.default_rng(7)
    re = rng.integers(-1, 2, (40, 9)).astype(np.int8)
    im = rng.integers(-1, 2, (40, 9)).astype(np.int8)
    re[5] = re[31]  # identical rows across the tiles
    im[5] = im[31]
    interleaved = np.tile(np.array([5, 1, 3], np.int64), 14)[:40]
    single = np.full(40, 4, np.int64)
    single[23] = 2  # a norm group of one row
    return [
        cbk.Codebook(re, im, interleaved),
        cbk.Codebook(re, np.zeros_like(im), interleaved),
        cbk.Codebook(re, im, single),
        cbk.Codebook(re[[5, 31, 31]], im[[5, 31, 31]], np.array([3, 1, 3], np.int64)),
    ]


def _stock_codebooks():
    f = kerdock4()
    rng = np.random.default_rng(3)
    ctx3 = mk_field(3)
    g = bf.from_field_fn(ctx3, lambda x: ctx3.trace(ctx3.pow(x, 3)))
    return [
        cbk.build_real_codebook(f),
        cbk.build_real_codebook(f, [int(b) for b in rng.integers(0, 2, 7)]),
        cbk.mub_to_codebook(cbk.build_mub(f)),
        cbk.build_semibent_codebook(g),
    ]


@pytest.mark.parametrize("block, seed", [(1024, 1), (17, 1), (17, 3), (50, 1), (50, 3)])
def test_imax_sq_matches_masked_tile_oracle(block, seed, monkeypatch):
    # each codebook as built and with its rows shuffled, which moves rows
    # across norm groups and tile edges but leaves the max over pairs alone
    monkeypatch.setattr(cbk, "_TILE_ROWS", block)
    rng = np.random.default_rng(seed)
    for cb in _hand_codebooks() + _stock_codebooks():
        expected = imax_sq_masked_tiles(cb)
        assert cbk.imax_sq(cb) == expected
        p = rng.permutation(cb.n_rows)
        shuffled = cbk.Codebook(cb.re[p], cb.im[p], cb.norm_sq[p])
        assert imax_sq_masked_tiles(shuffled) == expected
        assert cbk.imax_sq(shuffled) == expected


def test_write_csv_matches_cell_loop(tmp_path):
    # the real, random-eps real, complex and semi-bent codebooks at m = 4 /
    # n = 3, and hand-built ones with interleaved non-square norms
    for i, cb in enumerate(_stock_codebooks() + _hand_codebooks()):
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        cb.write_csv(str(got))
        write_csv_by_cells(cb, str(want))
        assert got.read_bytes() == want.read_bytes()


def test_imax_sq_matches_oracle_on_real_codebook_m6():
    cb = cbk.build_real_codebook(cn.kerdock_fn(6))
    assert cbk.imax_sq(cb) == imax_sq_masked_tiles(cb) == Fraction(1, 64)


def test_alphabet_of_hand_built_codebooks():
    for cb in _hand_codebooks():
        expected = {
            (0, 0, 1) if a == b == 0 else (int(a), int(b), int(n))
            for row_re, row_im, n in zip(cb.re, cb.im, cb.norm_sq)
            for a, b in zip(row_re, row_im)
        }
        assert cb.alphabet() == expected


# -- Codebook input validation ---------------------------------------------------------


@pytest.mark.parametrize("re, im, norm_sq, match", [
    (np.ones(4, np.int8), np.zeros(4, np.int8), np.ones(1, np.int64), "2-D"),
    (np.ones((2, 4), np.int8), np.zeros((2, 3), np.int8), np.ones(2, np.int64), "2-D"),
    (np.full((2, 4), -2, np.int8), np.zeros((2, 4), np.int8), np.ones(2, np.int64), "-1, 0, 1"),
    (np.ones((2, 4), np.int8), np.full((2, 4), 2, np.int8), np.ones(2, np.int64), "-1, 0, 1"),
    (np.ones((2, 4)), np.zeros((2, 4)), np.ones(2, np.int64), "integers"),
    (np.ones((2, 4), np.int8), np.zeros((2, 4), np.int8), np.ones(3, np.int64), "one value per row"),
    (np.ones((2, 4), np.int8), np.zeros((2, 4), np.int8), np.ones((2, 1), np.int64), "one value per row"),
    (np.ones((2, 4), np.int8), np.zeros((2, 4), np.int8), np.array([4, 0]), "positive"),
])
def test_codebook_rejects_malformed_input(re, im, norm_sq, match):
    with pytest.raises(ValueError, match=match):
        cbk.Codebook(re, im, norm_sq)


# -- the orbit-row builders against the per-block builders they replaced -------------


def _assert_same_codebook(got, want):
    for part in ("re", "im", "norm_sq"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part


@pytest.mark.parametrize("m", [4, 6])
def test_real_and_complex_codebooks_match_block_builders(m):
    f = cn.kerdock_fn(m)
    q = 1 << (m - 1)
    rng = np.random.default_rng(m)
    for eps in ([0] * (q - 1), [1] * (q - 1), [int(b) for b in rng.integers(0, 2, q - 1)]):
        _assert_same_codebook(cbk.build_real_codebook(f, eps), real_codebook_by_blocks(f, eps))
    mubs, want = cbk.build_mub(f), mub_by_blocks(f)
    assert mubs.to_json_obj() == want.to_json_obj()
    _assert_same_codebook(cbk.mub_to_codebook(mubs), cbk.mub_to_codebook(want))


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("i", [1, 2])
def test_semibent_codebook_matches_block_builder(n, i):
    ctx = mk_field(n)
    g = bf.from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, (1 << i) + 1)))
    _assert_same_codebook(cbk.build_semibent_codebook(g), semibent_codebook_by_blocks(g))


def test_sizes_past_the_entry_cap_are_rejected_before_certifying(monkeypatch):
    # the real codebook at m = 10, the largest advertised, fits under the cap
    assert (2**9 + 1) * 2**20 <= cbk.MAX_ENTRIES
    monkeypatch.setattr(cn, "certify_cyclic_bent", lambda *a, **k: pytest.fail("certified"))
    monkeypatch.setattr(cn, "is_cyclic_semibent", lambda *a, **k: pytest.fail("certified"))
    f = cn.kerdock_fn(12)
    ctx = mk_field(11)
    g = bf.from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
    for build, arg in ((cbk.build_real_codebook, f), (cbk.build_mub, f),
                       (cbk.build_semibent_codebook, g)):
        with pytest.raises(ValueError, match="cap"):
            build(arg)
