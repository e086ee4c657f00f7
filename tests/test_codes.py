"""Code and design tests.

The design lambdas below were frozen from the exhaustive coverage counts
(they also satisfy lambda * C(v,t) = b * C(k,t)):
    m=4: 3-(16, 6, 4), 3-(16, 8, 3), 3-(16, 10, 24)
    n=3: k=4 -> 3-(8,4,5), k=6 -> 3-(8,6,10), both also 2-designs
    n=5: k in {12, 16, 20} all 2- and 3-designs (22/119/114 at t=3);
         this holds even for the nonlinear member derived from the m=6
         Kerdock restriction, answering the strength-2 guess positively
         at desk scale.
"""

import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclicbent import boolfun as bf
from cyclicbent import codebook as cbk
from cyclicbent import codes as cd
from cyclicbent import construct as cn
from cyclicbent.gf2 import mk_field

from oracles import (
    code_f_by_labels,
    code_g_by_labels,
    distributions_by_popcount,
    from_field_bit_fn,
    from_field_fn,
    is_linear_by_pairs,
    packed_words,
    support_design_by_subsets,
)


def trace_cube(n):
    ctx = mk_field(n)
    return from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))


def test_code_f_m4_parameters():
    code = cd.build_code_f(cn.kerdock_fn(4))
    assert (code.length, code.size) == (16, 256)
    rep = cd.weight_distance_distributions(code)
    assert rep.min_distance() == 6
    assert rep.weight == {0: 1, 6: 112, 8: 30, 10: 112, 16: 1}
    assert rep.distance == rep.weight
    assert rep.weight[8] == 2 ** 5 - 2  # 2^{m+1} - 2
    assert rep.weight[6] == 2 ** 4 * (2 ** 3 - 1)  # 2^m (2^{m-1} - 1)


def test_code_f_requires_normalized_certified():
    with pytest.raises(ValueError, match="f\\(0,0\\)"):
        k = cn.kerdock_fn(4)
        cd.build_code_f(bf.BoolFun(k.domain, k.table ^ 1))
    ctx = mk_field(3)
    f = from_field_bit_fn(ctx, lambda x1, x2: x2 & ctx.trace(x1))
    with pytest.raises(ValueError, match="not certified"):
        cd.build_code_f(f)


def _is_self_complementary(code) -> bool:
    words = packed_words(code)
    return set(words ^ np.uint64((1 << code.length) - 1)) == set(words)


def _code(domain, tables) -> cd.NonlinearCode:
    """The code of the real codebook with the block tables t_b (0/1 rows)."""
    signs = (1 - 2 * np.asarray(tables, dtype=np.int8)).reshape(-1, domain.size)
    return cd.NonlinearCode(cbk.Codebook(domain, signs, np.zeros_like(signs)))


def test_code_f_self_complementary_distinct_labels():
    # the 256 labels (a, lam, u, v) give 256 distinct words
    f = cn.kerdock_fn(4)
    code = cd.build_code_f(f)
    assert _is_self_complementary(code)
    assert len(np.unique(code_f_by_labels(f))) == code.size == 256


def test_code_f_m4_designs():
    code = cd.build_code_f(cn.kerdock_fn(4))
    r6 = cd.support_design(code, 6, 3)
    assert (r6.blocks, r6.lam) == (112, 4)
    r8 = cd.support_design(code, 8, 3)
    assert (r8.blocks, r8.lam) == (30, 3)
    r10 = cd.support_design(code, 10, 3)
    assert (r10.blocks, r10.lam) == (112, 24)
    for r in (r6, r8, r10):
        assert r.passed and r.witness is None


def test_design_failure_witness():
    # one block, the indicator of the origin of GF(8): its weight-3 words
    # are the nonzero points of the seven hyperplanes, the lines of the Fano
    # plane, so no block meets the origin and every other pair lies on one
    code = _code(bf.Domain(mk_field(3)), np.eye(8, dtype=np.uint8)[:1])
    r = cd.support_design(code, 3, 2)
    assert not r.passed and r.lam is None and r.blocks == 7
    assert r.witness == ((1, 2), 1, 0)
    with pytest.raises(ValueError, match="no codewords"):
        cd.support_design(code, 4, 2)


def test_code_g_n3():
    code = cd.build_code_g(trace_cube(3))
    assert (code.length, code.size) == (8, 128)
    rep = cd.weight_distance_distributions(code)
    assert rep.min_distance() == 2
    assert rep.weight == {0: 1, 2: 28, 4: 70, 6: 28, 8: 1}
    assert rep.weight[4] == 2 ** 6 + 2 ** 3 - 2
    assert rep.weight[2] == 2 ** 5 - 2 ** 2
    assert code.is_linear()  # the trace-cube code is linear


def test_code_g_n3_requires_zero():
    ctx = mk_field(3)
    g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)) ^ 1)
    with pytest.raises(ValueError, match="g\\(0\\)"):
        cd.build_code_g(g)


def test_code_g_n5():
    code = cd.build_code_g(trace_cube(5))
    assert (code.length, code.size) == (32, 2048)
    rep = cd.weight_distance_distributions(code)
    assert rep.min_distance() == 12
    assert rep.weight == {0: 1, 12: 496, 16: 1054, 20: 496, 32: 1}
    assert rep.weight[16] == 2 ** 10 + 2 ** 5 - 2
    assert rep.weight[12] == 2 ** 9 - 2 ** 4


def test_code_g_design_strengths_n3():
    code = cd.build_code_g(trace_cube(3))
    assert cd.support_design(code, 4, 2).lam == 15
    assert cd.support_design(code, 4, 3).lam == 5
    assert cd.support_design(code, 6, 2).lam == 15
    assert cd.support_design(code, 6, 3).lam == 10


def test_code_g_design_strengths_n5_nonlinear_member():
    # the m=6 Kerdock restriction gives a nonlinear C(g) with the same
    # weight distribution; its supports still form 2- and 3-designs
    g = cn.derive_semibent(cn.kerdock_fn(6), 0)
    code = cd.build_code_g(g)
    assert not code.is_linear()
    rep = cd.weight_distance_distributions(code)
    assert rep.weight == {0: 1, 12: 496, 16: 1054, 20: 496, 32: 1}
    assert cd.support_design(code, 12, 3).lam == 22
    assert cd.support_design(code, 16, 3).lam == 119
    assert cd.support_design(code, 20, 3).lam == 114
    assert cd.support_design(code, 12, 2).lam == 66


def test_distribution_trivial_code():
    # the zero block on GF(2): RM(1) of length 2 is every word
    code = _code(bf.Domain(mk_field(1)), [[0, 0]])
    rep = cd.weight_distance_distributions(code)
    assert rep.weight == {0: 1, 1: 2, 2: 1}
    assert rep.distance == {0: 1, 1: 2, 2: 1}
    assert rep == distributions_by_popcount(packed_words(code), 2)
    assert code.is_linear()


def test_code_f_m6_self_complementary():
    code = cd.build_code_f(cn.kerdock_fn(6))
    assert _is_self_complementary(code)


@pytest.fixture(scope="module")
def stock_codes():
    """C(f) at m = 4, 6 (Kerdock) and C(g) at n = 3, 5 (trace cube, and the
    nonlinear restriction of the m = 6 Kerdock function at n = 5)."""
    out = {("f", m): cd.build_code_f(cn.kerdock_fn(m)) for m in (4, 6)}
    out.update({("g", n): cd.build_code_g(trace_cube(n)) for n in (3, 5)})
    out["g", "restricted"] = cd.build_code_g(cn.derive_semibent(cn.kerdock_fn(6), 0))
    return out


def test_closed_form_weights_match_computed_distributions(stock_codes):
    for (kind, _), code in stock_codes.items():
        n = code.length.bit_length() - 1
        want = cd.expected_weights_f(n) if kind == "f" else cd.expected_weights_g(n)
        assert cd.weight_distance_distributions(code).weight == want
        assert sum(want.values()) == code.size


def test_distributions_match_popcount_oracle(stock_codes):
    for code in stock_codes.values():
        want = distributions_by_popcount(packed_words(code), code.length)
        assert cd.weight_distance_distributions(code) == want


# every nonzero weight k of C(f) at m = 4, 6 and C(g) at n = 3, 5, with
# t = 1..4 (t <= k): 62 cases, each t = 4 case on 16 and more points fails
_DESIGN_CASES = [
    (kind, size, k, t)
    for kind, size in (("f", 4), ("f", 6), ("g", 3), ("g", 5))
    for k in sorted((cd.expected_weights_f if kind == "f" else cd.expected_weights_g)(size))
    for t in range(1, min(k, 4) + 1)
]


@pytest.mark.parametrize("kind, size, k, t", _DESIGN_CASES,
                         ids=[f"{kind}{size}-k{k}-t{t}" for kind, size, k, t in _DESIGN_CASES])
def test_support_design_matches_subset_oracle(stock_codes, kind, size, k, t):
    code = stock_codes[kind, size]
    got = cd.support_design(code, k, t)
    want = support_design_by_subsets(code, k, t)
    assert (got.blocks, got.lam, got.witness) == (want.blocks, want.lam, want.witness)


def test_support_design_sweep_covers_the_failing_t4_designs(stock_codes):
    assert len(_DESIGN_CASES) == 62
    r = cd.support_design(stock_codes["f", 6], 28, 4)
    assert (r.blocks, r.lam, r.witness) == (1984, None, ((0, 1, 2, 4), 64, 60))
    assert r == support_design_by_subsets(stock_codes["f", 6], 28, 4)


def test_support_design_caps_its_heads_before_the_words_and_its_work_before_the_first_head(
        stock_codes, monkeypatch):
    code = stock_codes["f", 6]
    # the shipped caps admit the t = 4 count of C(64, 3) heads of the 1984
    # weight-28 words
    assert comb(64, 3) <= cd.MAX_DESIGN_HEADS and comb(64, 3) * 1984 <= cd.MAX_DESIGN_WORK
    spectra = cd._block_spectra
    monkeypatch.setattr(cd, "_block_spectra", lambda *a: pytest.fail("read the words"))
    for k in (28, 64):
        with pytest.raises(ValueError, match=r"C\(64, 11\) = 743595781824 heads, past"):
            cd.support_design(code, k, 12)
    monkeypatch.setattr(cd, "_block_spectra", spectra)
    monkeypatch.setattr(cd, "MAX_DESIGN_WORK", 41664 * 1984 - 1)
    monkeypatch.setattr(cd, "combinations", lambda *a: pytest.fail("visited a head"))
    with pytest.raises(ValueError, match="41664 heads of 1984 words each"):
        cd.support_design(code, 28, 4)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_support_design_matches_subset_oracle_on_the_fano_code(t):
    # the seven lines of test_design_failure_witness, which miss the origin
    code = _code(bf.Domain(mk_field(3)), np.eye(8, dtype=np.uint8)[:1])
    got, want = cd.support_design(code, 3, t), support_design_by_subsets(code, 3, t)
    assert (got.blocks, got.lam, got.witness) == (want.blocks, want.lam, want.witness)
    assert not want.passed


def _hand_built_block_sets():
    """Block tables on GF(16), named by the set of their coset leaders read
    as words: the indicators of points off the origin and the unit vectors
    are leaders, independent modulo RM(1)."""
    dom = bf.Domain(mk_field(4))
    rng = np.random.default_rng(2024)
    e = np.eye(16, dtype=np.uint8)[[3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15]]
    basis = np.stack([e[0] ^ e[1] ^ e[4], e[2] ^ e[3], e[5] ^ e[6] ^ e[7] ^ e[8], e[9]])
    span = np.zeros((1, 16), dtype=np.uint8)
    for v in basis:
        span = np.concatenate([span, span ^ v])
    outside = e[10]  # not in the span: no basis table meets point 15
    chars = bf.char_bits(dom)
    moved = rng.permutation(span) ^ chars[rng.integers(0, 16, 16)] ^ rng.integers(0, 2, (16, 1))
    sets = {
        "linear": (span, True),
        "linear, shuffled with different coset representatives": (moved, True),
        "zero word alone": (span[:1], True),
        "one word added": (np.vstack([span, outside]), False),
        "one word replaced": (np.vstack([span[:-1], outside]), False),
        "coset, no zero word": (span ^ outside, False),
        "two nonzero words": (basis[:2], False),
        "dependent words and their sum missing":
            (np.stack([0 * e[0], e[0] ^ e[1], e[0] ^ e[2], e[1] ^ e[2], e[0] ^ e[3]]), False),
    }
    return dom, sets


@pytest.mark.parametrize("name", list(_hand_built_block_sets()[1]))
def test_is_linear_matches_pairwise_closure_on_hand_built_sets(name):
    dom, sets = _hand_built_block_sets()
    tables, linear = sets[name]
    code = _code(dom, tables)
    assert code.is_linear() is linear
    assert is_linear_by_pairs(packed_words(code)) is linear


def test_is_linear_matches_pairwise_closure_on_stock_codes(stock_codes):
    for code in stock_codes.values():
        assert code.is_linear() == is_linear_by_pairs(packed_words(code))


def test_code_holds_only_its_packed_leaders():
    # at m = 10 the code keeps one bit per leader entry, B K / 8 = 64 KB,
    # and is_linear reads those rows without keeping anything; a first
    # build outside the trace pays numpy's lazy imports
    cb = cbk.build_real_codebook(cn.kerdock_fn(10))
    cd.NonlinearCode(cb)
    tracemalloc.start()
    try:
        code = cd.NonlinearCode(cb)
        assert not code.is_linear()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    packed = cb.n_blocks * cb.length // 8
    assert packed <= held <= packed + 4096


def test_code_rejects_duplicate_cosets_and_complex_codebooks():
    dom = bf.Domain(mk_field(2), True)  # K = 8
    t = np.zeros((1, 8), dtype=np.uint8)
    t[0, 3] = 1
    with pytest.raises(ValueError, match="not distinct"):
        _code(dom, np.vstack([t, t ^ bf.char_bits(dom)[5] ^ 1]))
    re = np.ones((1, 8), dtype=np.int8)
    with pytest.raises(ValueError, match="real codebook"):
        cd.NonlinearCode(cbk.Codebook(dom, re - 1, re))
    with pytest.raises(ValueError, match="real codebook"):
        cd.NonlinearCode(cbk.Codebook(dom, re[:0], re[:0]))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_code_matches_popcount_oracle_on_hand_built_blocks(data):
    # random block tables over GF(2^d) and GF(2^d) x GF(2), d <= 4: the
    # spectral distributions and rank linearity against the packed words,
    # and a block sharing a coset with another rejected.  Most such codes
    # are not distance invariant, and some have B_i outside the integers
    dom = bf.Domain(mk_field(data.draw(st.integers(1, 4))), data.draw(st.booleans()))
    k = dom.size
    n_blocks = data.draw(st.integers(1, 4))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n_blocks * k, max_size=n_blocks * k))
    tables = np.array(bits, dtype=np.uint8).reshape(n_blocks, k)
    lam, c = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, 1))
    moved = tables[data.draw(st.integers(0, n_blocks - 1))] ^ bf.char_bits(dom)[lam] ^ c
    with pytest.raises(ValueError, match="not distinct"):
        _code(dom, np.vstack([tables, moved]))
    # the words of the set, one block at a time (one block always builds)
    words = np.concatenate([packed_words(_code(dom, t)) for t in tables])
    if len(np.unique(words)) < len(words):
        with pytest.raises(ValueError, match="not distinct"):
            _code(dom, tables)
        return
    code = _code(dom, tables)
    assert np.array_equal(packed_words(code), words)
    assert code.is_linear() is is_linear_by_pairs(words)
    try:
        want = distributions_by_popcount(words, k)
    except AssertionError:
        # B_i is not an integer: both routes refuse it
        with pytest.raises(AssertionError, match="divisible"):
            cd.weight_distance_distributions(code)
    else:
        assert cd.weight_distance_distributions(code) == want


# -- the spectral code against the per-label builders --------------------------------


@pytest.mark.parametrize("m", [4, 6])
def test_code_f_matches_label_builder(m):
    # no chain at m = 4 or 6 has a gamma other than 1 (gamma_0 lies in
    # GF(2)), so the second input is the cyclic bent, normalized f(3 x1, x2)
    kerdock = cn.kerdock_fn(m)
    for f in (kerdock, bf.scale_compose(kerdock, 3, 0)):
        got = packed_words(cd.build_code_f(f))
        assert np.array_equal(np.sort(got), np.sort(code_f_by_labels(f)))


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("i", [1, 2])
def test_code_g_matches_label_builder(n, i):
    ctx = mk_field(n)
    g = from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, (1 << i) + 1)))
    got = packed_words(cd.build_code_g(g))
    assert np.array_equal(np.sort(got), np.sort(code_g_by_labels(g)))
