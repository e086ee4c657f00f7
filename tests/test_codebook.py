"""Codebook and MUB tests, all in exact arithmetic.

Frozen bound values were derived by direct substitution into the two squared
bound formulas:
    real (144, 16):   (432 - 256 - 32) / (128 * 18) = 144/2304 = 1/16
    complex (72, 8):  (144 - 64 - 8) / (64 * 9)     = 72/576   = 1/8
    real (72, 8):     (216 - 64 - 16) / (64 * 10)   = 136/640  = 17/80
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cyclicbent import codebook as cbk
from cyclicbent import codes as cd
from cyclicbent import construct as cn
from cyclicbent import seqfam as sf
from cyclicbent.gf2 import mk_field
from cyclicbent import boolfun as bf

from oracles import (
    dense_rows,
    distributions_by_popcount,
    from_field_bit_fn,
    from_field_fn,
    gram_int64,
    imax_sq_masked_tiles,
    mub_by_blocks,
    packed_words,
    real_codebook_by_blocks,
    semibent_codebook_by_blocks,
    verify_mub_by_pairs,
    write_csv_by_cells,
)

# the four units 1, -1, i, -i as (re, im) rows
_UNITS = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.int8)


def kerdock4():
    return cn.kerdock_fn(4)


def _blocks(domain, re, im=None):
    """A codebook from block vectors given as any integer arrays."""
    re = np.asarray(re, dtype=np.int8)
    im = np.zeros_like(re) if im is None else np.asarray(im, dtype=np.int8)
    return cbk.Codebook(domain, re, im)


def test_levenshtein_bounds_frozen_values():
    assert cbk.levenshtein_real_sq(144, 16) == Fraction(1, 16)
    assert cbk.levenshtein_complex_sq(72, 8) == Fraction(1, 8)
    assert cbk.levenshtein_real_sq(72, 8) == Fraction(17, 80)
    with pytest.raises(ValueError):
        cbk.levenshtein_real_sq(100, 16)  # N <= K(K+1)/2
    with pytest.raises(ValueError):
        cbk.levenshtein_complex_sq(64, 8)  # N <= K^2


def test_imax_sq_edge_cases():
    dom = bf.Domain(mk_field(2))  # K = 4
    assert cbk.imax_sq(_blocks(dom, np.ones((0, 4)))) == 0  # the standard basis alone
    assert cbk.imax_sq(_blocks(dom, np.ones((1, 4)))) == Fraction(1, 4)  # and one block
    assert cbk.imax_sq(_blocks(dom, np.ones((2, 4)))) == 1  # identical blocks
    assert cbk.imax_sq(_blocks(dom, [[1, 1, 1, 1], [1, 1, 1, -1]])) == Fraction(1, 4)


def test_real_codebook_m4_parameters_and_optimality():
    cb = cbk.build_real_codebook(kerdock4())
    assert (cb.n_rows, cb.length) == (144, 16)
    assert cb.alphabet_size == 4
    assert cb.is_real()
    actual = cbk.imax_sq(cb)
    assert actual == Fraction(1, 16)
    assert actual == cbk.levenshtein_real_sq(144, 16)
    rep = cbk.optimality_report(cb)
    assert rep["optimal"] and rep["imax_sq"] == "1/16"


def test_real_codebook_eps_variants_stay_optimal():
    f = kerdock4()
    rng = np.random.default_rng(42)
    eps = [int(b) for b in rng.integers(0, 2, 7)]
    cb = cbk.build_real_codebook(f, eps)
    assert cbk.imax_sq(cb) == Fraction(1, 16)
    assert cb.alphabet_size == 4


def test_real_codebook_standard_rows_orthogonal():
    # every basis of the stack, the standard one included, has Gram norm_sq I
    cb = cbk.build_real_codebook(kerdock4())
    k = cb.length
    for i in range(cb.n_blocks + 1):
        re, im, norm = cb.basis(i)
        gre, gim = gram_int64(re, im, re, im)
        assert norm == (1 if i == 0 else k)
        assert np.array_equal(gre, norm * np.eye(k, dtype=np.int64)) and not gim.any()


def test_real_codebook_rejects_uncertified():
    ctx = mk_field(3)
    f = from_field_bit_fn(ctx, lambda x1, x2: x2 & ctx.trace(x1))
    with pytest.raises(ValueError, match="not certified"):
        cbk.build_real_codebook(f)


def test_mub_m4_complete_and_exact():
    mubs = cbk.build_mub(kerdock4())
    assert mubs.n_blocks + 1 == 9 and mubs.length == 8
    rep = cbk.verify_mub(mubs)
    assert rep == {"bases": 9, "complete": True, "orthonormal": True, "unbiased": True}


def test_mub_entries_are_unit_gaussian():
    mubs = cbk.build_mub(kerdock4())
    for i in range(1, mubs.n_blocks + 1):
        re, im, norm = mubs.basis(i)
        mag = re.astype(np.int64) ** 2 + im.astype(np.int64) ** 2
        assert np.all(mag == 1) and norm == 8


def test_mub_gram_walsh_route_agrees():
    f = kerdock4()
    mubs = cbk.build_mub(f)
    for a in range(8):
        for a2 in range(8):
            if a == a2:
                continue
            (re, im, _), (re2, im2, _) = mubs.basis(1 + a), mubs.basis(1 + a2)
            gre, gim = gram_int64(re, im, re2, im2)
            wre, wim = cbk.mub_gram_via_walsh(f, a, a2)
            assert np.array_equal(gre, wre)
            assert np.array_equal(gim, wim)


# -- verify_mub (one imax_sq over the blocks) against the pairwise oracle -------------


def _mub_variants(m):
    """The built set and five sets made from its block vectors, with their
    expected (complete, orthonormal, unbiased) verdicts."""
    cb = cbk.build_mub(cn.kerdock_fn(m))
    n = cb.n_blocks
    rng = np.random.default_rng(m)

    def from_blocks(order):
        return cbk.Codebook(cb.domain, cb.re[order], cb.im[order])

    negated = from_blocks(np.arange(n))
    negated.re[2] *= -1
    negated.im[2] *= -1
    # one entry of the last block vector times i: (re, im) -> (-im, re)
    turned = from_blocks(np.arange(n))
    turned.re[n - 1, 3] = -cb.im[n - 1, 3]
    turned.im[n - 1, 3] = cb.re[n - 1, 3]
    return [
        ("built", cb, (True, True, True)),
        ("blocks reordered", from_blocks(rng.permutation(n)), (True, True, True)),
        ("a block copied", from_blocks(np.r_[0:n - 1, 2]), (True, True, False)),
        ("a block negated", negated, (True, True, True)),
        ("one entry of a block vector times i", turned, (True, True, False)),
        ("first two bases", from_blocks([0]), (False, True, True)),
    ]


@pytest.mark.parametrize("m", [4, 6])
def test_verify_mub_matches_pairwise_oracle(m):
    for name, mubs, (complete, orthonormal, unbiased) in _mub_variants(m):
        got = cbk.verify_mub(mubs)
        assert (got["complete"], got["orthonormal"], got["unbiased"]) == (
            complete, orthonormal, unbiased), name
        assert got == verify_mub_by_pairs(mubs), name


def test_mub_set_needs_whole_bases():
    # the bases of a MUB codebook are whole by construction: block vectors
    # must have the domain's length K, so every block is one basis of K rows
    cb = cbk.build_mub(kerdock4())
    assert cb.n_rows == (cb.n_blocks + 1) * cb.length == 72
    for cols in (slice(0, 4), slice(0, 0)):
        with pytest.raises(ValueError, match="block vectors"):
            cbk.Codebook(cb.domain, cb.re[:, cols], cb.im[:, cols])
    with pytest.raises(IndexError):
        cb.basis(cb.n_blocks + 1)


def test_complex_codebook_m4():
    cb = cbk.build_mub(kerdock4())
    assert (cb.n_rows, cb.length) == (72, 8)
    assert cbk.imax_sq(cb) == Fraction(1, 8) == cbk.levenshtein_complex_sq(72, 8)
    assert cb.alphabet_size == 6
    rep = cbk.optimality_report(cb)
    assert rep["optimal"]


def test_semibent_codebook_n3():
    ctx = mk_field(3)
    g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
    cb = cbk.build_semibent_codebook(g)
    assert (cb.n_rows, cb.length) == (72, 8)
    assert cb.alphabet_size == 4
    actual = cbk.imax_sq(cb)
    assert actual == Fraction(1, 4)  # exact 2^{1-n}, not the bound 17/80
    assert actual / cbk.levenshtein_real_sq(72, 8) == Fraction(20, 17)
    rep = cbk.optimality_report(cb)
    assert not rep["optimal"] and rep["ratio_sq"] == "20/17"


def test_optimality_report_takes_the_bound_of_the_entries():
    # real entries are measured against the real Levenshtein bound, the MUB
    # set's complex ones against the complex bound
    ctx = mk_field(3)
    g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
    for cb, bound in [(cbk.build_real_codebook(kerdock4()), cbk.levenshtein_real_sq),
                      (cbk.build_mub(kerdock4()), cbk.levenshtein_complex_sq),
                      (cbk.build_semibent_codebook(g), cbk.levenshtein_real_sq)]:
        assert cbk.optimality_report(cb)["bound_sq"] == str(bound(cb.n_rows, cb.length))


def test_semibent_codebook_rejects_uncertified():
    ctx = mk_field(3)
    g = from_field_fn(ctx, lambda x: ctx.trace(x))
    with pytest.raises(ValueError, match="not certified"):
        cbk.build_semibent_codebook(g)


def test_codebook_csv_and_basis(tmp_path):
    cb = cbk.build_real_codebook(kerdock4())
    assert cb.n_rows == 144 and sum(len(cb.basis(i)[0]) for i in range(cb.n_blocks + 1)) == 144
    p = tmp_path / "cb.csv"
    cb.write_csv(str(p))
    lines = p.read_text().strip().split("\n")
    assert len(lines) == 144
    assert lines[0].split(",")[0] == "1"  # standard basis row, unnormalized norm 1
    assert lines[-1].split(",")[0] in ("0.25", "-0.25")


def test_imax_sq_threads_deterministic(monkeypatch):
    # one value, however many block pairs go into one kernel call
    cb = cbk.build_real_codebook(kerdock4())
    mcb = cbk.build_mub(kerdock4())
    assert cbk.imax_sq(cb) == Fraction(1, 16) and cbk.imax_sq(mcb) == Fraction(1, 8)
    for batch in (50, 17, 1):
        monkeypatch.setattr(bf, "BATCH_VALUES", batch)
        assert cbk.imax_sq(cb) == Fraction(1, 16)
        assert cbk.imax_sq(mcb) == Fraction(1, 8)


def test_imax_sq_memory_is_bounded():
    # the engine's batch is 2^18 float32 values (1 MB); the scan of the
    # m = 10 real codebook's C(512, 2) block pairs peaked at 3.3 MB: its
    # two float32 buffers, the int8 products and the two int8 gathers
    cb = cbk.build_real_codebook(cn.kerdock_fn(10))
    tracemalloc.start()
    try:
        assert cbk.imax_sq(cb) == Fraction(1, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


def test_max_sq_is_exact_past_float32():
    # a complex batch of length 2^13 squares in float64: 8191^2 + 1 needs 26
    # bits, which float32 rounds; a real batch takes the largest |W| alone
    w = np.zeros((2, 2, 1 << 13), dtype=np.float32)
    w[1, :, 5] = 8191, 1
    assert cbk._max_sq(w) == 8191 ** 2 + 1
    assert cbk._max_sq(-w[:, :1]) == 8191 ** 2


# -- the block-pair spectrum against the int64 Gram oracle ----------------------------


def _unit_vector(draw, k: int, real: bool):
    idx = draw(hnp.arrays(np.int64, k, elements=st.integers(0, 1 if real else 3)))
    return _UNITS[idx, 0], _UNITS[idx, 1]


@pytest.mark.parametrize("im1_real, im2_real", [
    (True, True), (False, False), (True, False), (False, True),
])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gram_matches_int64_oracle(im1_real, im2_real, data):
    # the cross Gram of blocks a and b is chi diag(s_a conj(s_b)) chi^T: its
    # entry (lam, mu) is the Walsh value of s_a conj(s_b) at lam + mu, whose
    # dual index is the XOR of theirs
    domain = bf.Domain(mk_field(data.draw(st.integers(1, 4))), data.draw(st.booleans()))
    k = domain.size
    re1, im1 = _unit_vector(data.draw, k, im1_real)
    re2, im2 = _unit_vector(data.draw, k, im2_real)
    cb = cbk.Codebook(domain, np.stack([re1, re2]), np.stack([im1, im2]))
    gre, gim = gram_int64(*cb.basis(1)[:2], *cb.basis(2)[:2])
    a1, b1 = re1.astype(np.int64), im1.astype(np.int64)
    chars = 1 - 2 * bf.char_bits(domain).astype(np.int64)
    lam = np.arange(k)
    mix = lam[:, None] ^ lam[None, :]
    assert np.array_equal(gre, (chars @ (a1 * re2 + b1 * im2))[mix])
    assert np.array_equal(gim, (chars @ (b1 * re2 - a1 * im2))[mix])
    pairs = Fraction(int((gre * gre + gim * gim).max()), k * k)
    assert cbk.imax_sq(cb) == max(pairs, Fraction(1, k))


def _kernel_rows(monkeypatch) -> list:
    """Count the rows of each Walsh kernel call; fail on walsh or walsh_many."""
    rows = []
    kernel = bf._hadamard_rows

    def counted(x, *args, **kwargs):
        rows.append(int(np.prod(np.shape(x)[:-1])))
        return kernel(x, *args, **kwargs)

    def forbidden(*args):
        pytest.fail("a block scan called a Walsh entry point")

    monkeypatch.setattr(bf, "_hadamard_rows", counted)
    monkeypatch.setattr(bf, "walsh", forbidden)
    monkeypatch.setattr(bf, "walsh_many", forbidden)
    return rows


def _pair_classes_by_division(cb, eps) -> int:
    """1 + the classes (b / a, d_a + d_b) of the ordered pairs of blocks
    a != b >= 1 of the real codebook built with eps, d_a = eps_a + eps_1."""
    ctx = cb.domain.ctx
    d = [0] + [e ^ eps[0] for e in eps]
    nonzero = range(1, ctx.order)
    return 1 + len({(ctx.div(b, a), d[a] ^ d[b]) for a in nonzero for b in nonzero if a != b})


def test_imax_sq_transforms_one_row_per_block_pair(monkeypatch):
    # an orbit layout transforms one block pair per class: q - 1 kernel rows
    # for a real or semi-bent codebook on GF(2^d) with every d_a equal (eps
    # 0 or all ones), one more per extra class (c, d) for other eps, and
    # 2(q - 1) for the complex (MUB) stack; a hand-built codebook keeps
    # C(B, 2) rows, 2 C(B, 2) when complex; no call of walsh or walsh_many
    f6 = cn.kerdock_fn(6)
    eps = [int(b) for b in np.random.default_rng(3).integers(0, 2, 7)]
    stock = _stock_codebooks()
    cases = [*zip(stock, (7, 7, _pair_classes_by_division(stock[2], eps), 14, 7)),
             (cbk.build_real_codebook(f6), 31),
             (cbk.build_mub(f6), 62)]
    cases += [(cb, (1 if cb.is_real() else 2) * cb.n_blocks * (cb.n_blocks - 1) // 2)
              for cb in _hand_codebooks()]
    rows = _kernel_rows(monkeypatch)
    for cb, want in cases:
        rows.clear()
        cbk.imax_sq(cb)
        assert sum(rows) == want


def _necklaces(d: int) -> int:
    """Binary necklaces of length d, (1/d) sum_{j | d} phi(j) 2^{d/j}; the
    orbits of t -> 2t on Z/(2^d - 1) are one fewer (0 and 2^d - 1 meet)."""
    phi = [sum(math.gcd(i, j) == 1 for i in range(1, j + 1)) for j in range(d + 1)]
    return sum(phi[j] << (d // j) for j in range(1, d + 1) if d % j == 0) // d


def test_seqfam_scans_transform_closed_form_row_counts(monkeypatch):
    # each builder certifies its function with q - 1 rows through walsh and
    # walsh_many; full_distribution then scans one shift per orbit of
    # tau -> 2 tau mod q - 1, N(d) - 1 of them (N(d) binary necklaces: 3, 7
    # and 19 at d = 3, 5 and 7), plus one row for s_0: N(d) kernel rows for
    # the semi-bent family, twice that for the quaternary family (one per
    # part), and for the interleaved binary family tau = 0, q - 1 and the
    # even and odd lift of each other orbit, 2 N(d) - 2
    assert [_necklaces(d) - 1 for d in (3, 5, 7)] == [3, 7, 19]
    kernel_rows, walsh_rows = [], []
    kernel, walsh, walsh_many = bf._hadamard_rows, bf.walsh, bf.walsh_many
    monkeypatch.setattr(bf, "_hadamard_rows", lambda x, *args, **kwargs: kernel_rows.append(
        int(np.prod(np.shape(x)[:-1]))) or kernel(x, *args, **kwargs))
    monkeypatch.setattr(bf, "walsh", lambda f: walsh_rows.append(1) or walsh(f))
    monkeypatch.setattr(bf, "walsh_many",
                        lambda s, **kw: walsh_rows.append(len(s)) or walsh_many(s, **kw))
    cases = []
    for n in (3, 5, 7):
        ctx = mk_field(n)
        f = cn.kerdock_fn(n + 1)
        g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
        necklaces = _necklaces(n)
        cases += [(sf.quaternary_family, f, 2 * necklaces),
                  (sf.binary_family, f, 2 * necklaces - 2),
                  (sf.semibent_family, g, necklaces)]
    for build, fn, scan_rows in cases:
        kernel_rows.clear()
        walsh_rows.clear()
        sf.full_distribution(build(fn))
        assert sum(walsh_rows) == fn.domain.ctx.order - 1
        assert sum(kernel_rows) - sum(walsh_rows) == scan_rows


def test_code_scans_transform_closed_form_row_counts(monkeypatch):
    # the distributions of a code laid out as one orbit transform two block
    # rows for A_i and q - 1 block-pair rows for B_i, B + 1 in all; a
    # hand-built code keeps B + C(B, 2); a support design transforms B
    # rows; no call of walsh or walsh_many
    ctx = mk_field(5)
    codes = [cd.build_code_f(cn.kerdock_fn(4)), cd.build_code_f(cn.kerdock_fn(6)),
             cd.build_code_g(cn.derive_semibent(cn.kerdock_fn(4), 0)),
             cd.build_code_g(from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3))))]
    # C(f) at m = 4 with its blocks in reverse order: the same code, no layout
    cb = codes[0].codebook
    hand = cd.NonlinearCode(cbk.Codebook(cb.domain, cb.re[::-1].copy(), cb.im))
    rows = _kernel_rows(monkeypatch)
    for code, n_blocks, k in zip(codes, (8, 32, 8, 32), (6, 28, 4, 12)):
        assert code.codebook.n_blocks == n_blocks
        rows.clear()
        cd.weight_distance_distributions(code)
        assert sum(rows) == n_blocks + 1
        rows.clear()
        assert cd.support_design(code, k, 2).passed
        assert sum(rows) == n_blocks
    want = cd.weight_distance_distributions(codes[0])
    rows.clear()
    assert cd.weight_distance_distributions(hand) == want
    assert sum(rows) == 8 + 28


# -- orbit layouts against the C(B, 2) pair scan -------------------------------------


def _by_pair_scan(fn, *args):
    """fn(*args) with the orbit layout check failing, so every block pair a < b
    is transformed: the scan the layout route replaces, kept as its oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cbk, "_layout", lambda cb: None)
        return fn(*args)


def _assert_layout_matches_pair_scan(cb):
    assert cbk._layout(cb) is not None
    assert cbk.imax_sq(cb) == _by_pair_scan(cbk.imax_sq, cb)
    if cb.is_real():
        code = cd.NonlinearCode(cb)
        want = _by_pair_scan(cd.weight_distance_distributions, code)
        assert cd.weight_distance_distributions(code) == want


@pytest.mark.parametrize("m", [4, 6, 8, 10])
def test_layout_routes_match_the_pair_scan(m):
    # the real codebooks with eps 0, all ones and random, and the MUB stack
    f = cn.kerdock_fn(m)
    q = f.domain.ctx.order
    rng = np.random.default_rng(m)
    for eps in (None, [1] * (q - 1), [int(b) for b in rng.integers(0, 2, q - 1)]):
        _assert_layout_matches_pair_scan(cbk.build_real_codebook(f, eps))
    _assert_layout_matches_pair_scan(cbk.build_mub(f))


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_semibent_layout_route_matches_the_pair_scan(n):
    ctx = mk_field(n)
    g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
    _assert_layout_matches_pair_scan(cbk.build_semibent_codebook(g))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_layout_route_matches_the_pair_scan_for_any_eps(data):
    # and transforms one row per class (b / a, d_a + d_b) that occurs
    f = cn.kerdock_fn(data.draw(st.sampled_from([4, 6])))
    q = f.domain.ctx.order
    eps = data.draw(st.lists(st.integers(0, 1), min_size=q - 1, max_size=q - 1))
    cb = cbk.build_real_codebook(f, eps)
    _assert_layout_matches_pair_scan(cb)
    rows = len(cbk._block_pair_spectra(cb, cbk._layout(cb))[1])
    assert rows == _pair_classes_by_division(cb, eps)


def _broken_layouts():
    """The m = 4 real codebook (random eps) and MUB stack with two blocks
    swapped, one entry flipped (times -1 or i), or block 0 made
    non-constant: none is an orbit layout."""
    f = kerdock4()
    out = []
    for cb in (cbk.build_real_codebook(f, [1, 0, 0, 1, 1, 0, 1]), cbk.build_mub(f)):
        re, im = cb.re.copy(), cb.im.copy()
        re[[2, 5]], im[[2, 5]] = re[[5, 2]], im[[5, 2]]
        out.append(("swapped", cbk.Codebook(cb.domain, re, im)))
        re, im = cb.re.copy(), cb.im.copy()
        if cb.is_real():
            re[3, 5] *= -1
        else:
            re[3, 5], im[3, 5] = -im[3, 5], re[3, 5]
        out.append(("flipped", cbk.Codebook(cb.domain, re, im)))
        re, im = cb.re.copy(), cb.im.copy()
        re[0, 1], im[0, 1] = re[1, 1], im[1, 1]
        re[0, 2], im[0, 2] = -re[0, 2], -im[0, 2]
        out.append(("block 0", cbk.Codebook(cb.domain, re, im)))
    return out


def test_broken_layouts_take_the_pair_scan():
    for name, cb in _broken_layouts():
        assert cbk._layout(cb) is None, name
        assert cbk.imax_sq(cb) == imax_sq_masked_tiles(cb), name
        assert len(cbk._block_pair_spectra(cb, cbk._layout(cb))[1]) == 28, name
    # the swapped real codebook is the same code, block for block
    name, cb = _broken_layouts()[0]
    code = cd.NonlinearCode(cb)
    want = distributions_by_popcount(packed_words(code), code.length)
    assert cd.weight_distance_distributions(code) == want


def _dense_orbit_codebook(tables, domain):
    """The orbit codebook's arrays stored densely: an int8 B x K array of
    imaginary zeros beside the signs, each unit checked over the whole block
    array at once."""
    signs = np.ones((len(tables) + 1, domain.size), dtype=np.int8)
    signs[1:] -= 2 * tables.astype(np.int8)
    im = np.zeros_like(signs)
    assert np.all(np.abs(signs) + np.abs(im) == 1)
    return signs, im


def test_real_codebooks_store_no_imaginary_zeros():
    # one read-only zero-stride view: at m = 10 the build's tracemalloc
    # peak is lower than the dense build's by at least the B K bytes of zeros
    f = cn.kerdock_fn(10)
    tables = bf.orbit_tables(f, range(1, f.domain.ctx.order))

    def peak(build):
        tracemalloc.start()
        try:
            out = build(tables, f.domain)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cb, lean = peak(cbk._orbit_codebook)
    (re, im), dense = peak(_dense_orbit_codebook)
    assert cb.im.strides == (0, 0) and not cb.im.flags.writeable
    assert np.array_equal(cb.re, re) and np.array_equal(cb.im, im)
    assert lean + cb.n_blocks * cb.length <= dense
    ctx = mk_field(5)
    g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
    assert cbk.build_semibent_codebook(g).im.strides == (0, 0)


# -- imax_sq on block pairs against the masked-tile oracle on the dense rows ----------


def _hand_codebooks():
    """Factored codebooks with random unit block vectors on three domains:
    complex, real, and complex with one block equal to another but for one
    entry times i; then zero blocks and one block."""
    rng = np.random.default_rng(7)
    out = []
    for domain, n in ((bf.Domain(mk_field(3)), 6), (bf.Domain(mk_field(2), True), 5),
                      (bf.Domain(mk_field(4)), 9)):
        k = domain.size
        s = _UNITS[rng.integers(0, 4, (n, k))]
        re, im = s[..., 0].copy(), s[..., 1].copy()
        out.append(cbk.Codebook(domain, re, im))
        out.append(_blocks(domain, 1 - 2 * rng.integers(0, 2, (n, k))))
        re, im = re.copy(), im.copy()
        re[3], im[3] = re[1], im[1]
        re[3, 2], im[3, 2] = -im[1, 2], re[1, 2]
        out.append(cbk.Codebook(domain, re, im))
    dom = bf.Domain(mk_field(3))
    out += [_blocks(dom, np.ones((n, 8))) for n in (0, 1)]
    return out


def _stock_codebooks():
    f = kerdock4()
    rng = np.random.default_rng(3)
    ctx3 = mk_field(3)
    g = from_field_fn(ctx3, lambda x: ctx3.trace(ctx3.pow(x, 3)))
    return [
        cbk.build_real_codebook(f),
        cbk.build_real_codebook(f, [1] * 7),
        cbk.build_real_codebook(f, [int(b) for b in rng.integers(0, 2, 7)]),
        cbk.build_mub(f),
        cbk.build_semibent_codebook(g),
    ]


@pytest.mark.parametrize("block, seed", [(1024, 1), (17, 1), (17, 3), (50, 1), (50, 3)])
def test_imax_sq_matches_masked_tile_oracle(block, seed):
    # each codebook as built and with its blocks shuffled, which moves rows
    # across the oracle's tile edges but leaves the max over pairs alone
    rng = np.random.default_rng(seed)
    for cb in _hand_codebooks() + _stock_codebooks():
        expected = imax_sq_masked_tiles(cb, block)
        assert cbk.imax_sq(cb) == expected
        p = rng.permutation(cb.n_blocks)
        shuffled = cbk.Codebook(cb.domain, cb.re[p], cb.im[p])
        assert imax_sq_masked_tiles(shuffled, block) == expected
        assert cbk.imax_sq(shuffled) == expected


def test_write_csv_matches_cell_loop(tmp_path):
    # the real (zero, ones and random eps), complex and semi-bent codebooks
    # at m = 4 / n = 3, and the hand-built factored ones
    for i, cb in enumerate(_stock_codebooks() + _hand_codebooks()):
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        cb.write_csv(str(got))
        write_csv_by_cells(cb, str(want))
        assert got.read_bytes() == want.read_bytes()


def test_imax_sq_matches_oracle_on_real_codebook_m6():
    # and on the m = 6 real codebooks with zero, ones and random eps, the
    # m = 6 complex codebook and the n = 5 semi-bent one
    m, q = 6, 32
    f = cn.kerdock_fn(m)
    rng = np.random.default_rng(m)
    for eps in ([0] * (q - 1), [1] * (q - 1), [int(b) for b in rng.integers(0, 2, q - 1)]):
        cb = cbk.build_real_codebook(f, eps)
        assert cbk.imax_sq(cb) == imax_sq_masked_tiles(cb) == Fraction(1, 64)
    cb = cbk.build_mub(f)
    assert cbk.imax_sq(cb) == imax_sq_masked_tiles(cb) == Fraction(1, 32)
    ctx = mk_field(5)
    g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
    cb = cbk.build_semibent_codebook(g)
    assert cbk.imax_sq(cb) == imax_sq_masked_tiles(cb) == Fraction(1, 16)


def test_alphabet_of_hand_built_codebooks(monkeypatch):
    # with the default batch, then one block row at a time
    cbs = _hand_codebooks() + _stock_codebooks()
    expected = []
    for cb in cbs:
        re, im, norm_sq = dense_rows(cb)
        expected.append({
            (0, 0, 1) if a == b == 0 else (int(a), int(b), int(n))
            for row_re, row_im, n in zip(re, im, norm_sq)
            for a, b in zip(row_re, row_im)
        })
    assert [cb.alphabet() for cb in cbs] == expected
    monkeypatch.setattr(bf, "BATCH_VALUES", 1)
    assert [cb.alphabet() for cb in cbs] == expected


def test_alphabet_memory_is_bounded():
    # the m = 12 real codebook has 2^11 blocks of 2^12 entries; its columns
    # x != 0 are counted about bf.BATCH_VALUES entries at a time, so the
    # peak (2.25 MB measured) stays far below the 8 MB of one int8 key per
    # entry
    cb = cbk.build_real_codebook(cn.kerdock_fn(12))
    tracemalloc.start()
    try:
        alphabet = cb.alphabet()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alphabet == {(1, 0, 1), (0, 0, 1), (1, 0, 4096), (-1, 0, 4096)}
    assert peak < 4 << 20


# -- Codebook input validation ---------------------------------------------------------


def _one_entry(value, im=False):
    """Two all-ones block vectors of length 8 with entry (1, 2) of the real
    (or imaginary) part set to value."""
    re, part = np.ones((2, 8), np.int8), np.zeros((2, 8), np.int8)
    (part if im else re)[1, 2] = value
    return re, part


@pytest.mark.parametrize("re, im, match", [
    (np.ones(8, np.int8), np.zeros(8, np.int8), "block vectors"),
    (np.ones((2, 8), np.int8), np.zeros((2, 4), np.int8), "block vectors"),
    (np.ones((2, 4), np.int8), np.zeros((2, 4), np.int8), "block vectors"),
    (np.ones((2, 8)), np.zeros((2, 8)), "int8"),
    (np.ones((2, 8), np.int16), np.zeros((2, 8), np.int16), "int8"),
    (*_one_entry(0), "units"),
    (*_one_entry(2), "units"),
    (*_one_entry(-128), "units"),
    (*_one_entry(1, im=True), "units"),
])
def test_codebook_rejects_malformed_blocks(re, im, match):
    with pytest.raises(ValueError, match=match):
        cbk.Codebook(bf.Domain(mk_field(3)), re, im)


# -- the orbit-row builders against the per-block builders they replaced -------------


def _assert_same_rows(cb, want):
    """cb's rows, materialized by the oracle and by ``basis``, equal the
    dense (re, im, norm_sq) rows ``want``."""
    for a, b in zip(dense_rows(cb), want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    bases = [cb.basis(i) for i in range(cb.n_blocks + 1)]
    for part in range(2):
        assert np.array_equal(np.concatenate([b[part] for b in bases]), want[part])
    norms = np.repeat([b[2] for b in bases], [len(b[0]) for b in bases])
    assert np.array_equal(norms, want[2]) and cb.n_rows == len(want[0])


@pytest.mark.parametrize("m", [4, 6])
def test_real_and_complex_codebooks_match_block_builders(m):
    f = cn.kerdock_fn(m)
    q = 1 << (m - 1)
    rng = np.random.default_rng(m)
    for eps in ([0] * (q - 1), [1] * (q - 1), [int(b) for b in rng.integers(0, 2, q - 1)]):
        _assert_same_rows(cbk.build_real_codebook(f, eps), real_codebook_by_blocks(f, eps))
    mubs, want = cbk.build_mub(f), mub_by_blocks(f)
    _assert_same_rows(mubs, want)
    k = mubs.length
    assert mubs.n_blocks + 1 == k + 1
    for i in range(k + 1):
        r = slice(i * k, (i + 1) * k)
        re, im, norm = mubs.basis(i)
        assert np.array_equal(re, want[0][r]) and np.array_equal(im, want[1][r])
        assert norm == want[2][r][0] and np.all(want[2][r] == norm)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("i", [1, 2])
def test_semibent_codebook_matches_block_builder(n, i):
    ctx = mk_field(n)
    g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, (1 << i) + 1)))
    _assert_same_rows(cbk.build_semibent_codebook(g), semibent_codebook_by_blocks(g))


def test_sizes_past_the_entry_cap_are_rejected_before_certifying(monkeypatch):
    # the real codebook at m = 12, the largest advertised, fits under the cap
    assert 2**11 * 2**12 <= cbk.MAX_BLOCK_ENTRIES
    monkeypatch.setattr(cn, "certify_cyclic_bent", lambda *a, **k: pytest.fail("certified"))
    monkeypatch.setattr(cn, "is_cyclic_semibent", lambda *a, **k: pytest.fail("certified"))
    f = cn.kerdock_fn(14)
    ctx = mk_field(13)
    g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))
    for build, arg in ((cbk.build_real_codebook, f), (cbk.build_mub, f),
                       (cbk.build_semibent_codebook, g), (cd.build_code_f, f),
                       (cd.build_code_g, g)):
        with pytest.raises(ValueError, match="cap"):
            build(arg)


def test_dense_output_past_the_entry_cap_is_rejected_before_writing(tmp_path, monkeypatch):
    cb = cbk.build_real_codebook(kerdock4())  # 144 rows of 16
    mubs = cbk.build_mub(kerdock4())  # 72 rows of 8
    monkeypatch.setattr(cbk, "MAX_ENTRIES", 144 * 16 - 1)
    out = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="output cap"):
        cb.write_csv(str(out))
    assert not out.exists()
    mubs.write_csv(str(out))
    assert len(out.read_text().splitlines()) == 72
    out.unlink()
    monkeypatch.setattr(cbk, "MAX_ENTRIES", 72 * 8 - 1)
    with pytest.raises(ValueError, match="output cap"):
        mubs.write_csv(str(out))
    assert not out.exists()
