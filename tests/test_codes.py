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

import numpy as np
import pytest

from cyclicbent import boolfun as bf
from cyclicbent import codes as cd
from cyclicbent import construct as cn
from cyclicbent.gf2 import mk_field

from oracles import code_f_by_labels, code_g_by_labels, is_linear_by_pairs


def trace_cube(n):
    ctx = mk_field(n)
    return bf.from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)))


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
        cd.build_code_f(bf.xor_const(cn.kerdock_fn(4), 1))
    ctx = mk_field(3)
    f = bf.from_field_bit_fn(ctx, lambda x1, x2: x2 & ctx.trace(x1))
    with pytest.raises(ValueError, match="not certified"):
        cd.build_code_f(f)


def test_code_f_self_complementary_distinct_labels():
    code = cd.build_code_f(cn.kerdock_fn(4))
    assert code.is_self_complementary()
    assert len(set(int(w) for w in code.words)) == 256
    assert len(code.labels) == 256


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
    # two blocks on 5 points that do not cover pairs evenly
    words = np.array([0b00111, 0b11100], dtype=np.uint64)
    code = cd.NonlinearCode(5, words, [(0,), (1,)])
    r = cd.support_design(code, 3, 2)
    assert not r.passed and r.lam is None
    subset, got, expected = r.witness
    assert len(subset) == 2 and got != expected
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
    g = bf.from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, 3)) ^ 1)
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
    words = np.array([0b00, 0b11], dtype=np.uint64)
    code = cd.NonlinearCode(2, words, [('a',), ('b',)])
    rep = cd.weight_distance_distributions(code)
    assert rep.weight == {0: 1, 2: 1}
    assert rep.distance == {0: 1, 2: 1}


def test_code_json_export():
    code = cd.build_code_g(trace_cube(3))
    obj = code.to_json_obj()
    assert obj["length"] == 8 and obj["size"] == 128
    assert len(obj["words_hex"]) == 128
    assert all(len(h) == 2 for h in obj["words_hex"])


def test_code_f_m6_self_complementary():
    code = cd.build_code_f(cn.kerdock_fn(6))
    assert code.is_self_complementary()


@pytest.fixture(scope="module")
def stock_codes():
    """C(f) at m = 4, 6 (Kerdock) and C(g) at n = 3, 5 (trace cube)."""
    out = {("f", m): cd.build_code_f(cn.kerdock_fn(m)) for m in (4, 6)}
    out.update({("g", n): cd.build_code_g(trace_cube(n)) for n in (3, 5)})
    return out


def test_closed_form_weights_match_computed_distributions(stock_codes):
    for (kind, size), code in stock_codes.items():
        want = cd.expected_weights_f(size) if kind == "f" else cd.expected_weights_g(size)
        assert cd.weight_distance_distributions(code).weight == want
        assert sum(want.values()) == code.size


def _hand_built_word_sets():
    rng = np.random.default_rng(2024)
    top = np.uint64(1 << 63)
    basis = np.append(rng.integers(0, 1 << 62, 5, dtype=np.uint64), top)
    span = np.zeros(1, dtype=np.uint64)
    for v in basis:
        span = np.concatenate([span, span ^ v])
    outside = np.uint64(1 << 62)  # not in the span: every basis word is below 2^62 or 2^63
    return {
        "linear": (span, True),
        "linear, shuffled with duplicates": (rng.permutation(np.tile(span, 3)), True),
        "zero word alone": (np.zeros(1, dtype=np.uint64), True),
        "one word added": (np.append(span, outside), False),
        "one word replaced": (np.append(span[:-1], outside), False),
        "coset, no zero word": (span ^ outside, False),
        "two nonzero words": (basis[:2], False),
        "dependent words and their sum missing": (np.array([0, 3, 5, 6, 9], np.uint64), False),
    }


@pytest.mark.parametrize("name", list(_hand_built_word_sets()))
def test_is_linear_matches_pairwise_closure_on_hand_built_sets(name):
    words, linear = _hand_built_word_sets()[name]
    code = cd.NonlinearCode(64, words, [()] * len(words))
    assert code.is_linear() is linear
    assert is_linear_by_pairs(code) is linear


def test_is_linear_matches_pairwise_closure_on_stock_codes(stock_codes):
    for code in stock_codes.values():
        assert code.is_linear() == is_linear_by_pairs(code)


# -- the orbit-row builders against the per-label builders they replaced -------------


def _assert_same_code(got, want):
    assert got.words.dtype == want.words.dtype == np.uint64
    assert np.array_equal(got.words, want.words)
    assert got.labels == want.labels
    assert got.to_json_obj() == want.to_json_obj()


@pytest.mark.parametrize("m", [4, 6])
def test_code_f_matches_label_builder(m):
    # no chain at m = 4 or 6 has a gamma other than 1 (gamma_0 lies in
    # GF(2)), so the second input is the cyclic bent, normalized f(3 x1, x2)
    kerdock = cn.kerdock_fn(m)
    for f in (kerdock, bf.scale_compose(kerdock, 3, 0)):
        _assert_same_code(cd.build_code_f(f), code_f_by_labels(f))


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("i", [1, 2])
def test_code_g_matches_label_builder(n, i):
    ctx = mk_field(n)
    g = bf.from_field_fn(ctx, lambda x: ctx.trace(ctx.pow(x, (1 << i) + 1)))
    _assert_same_code(cd.build_code_g(g), code_g_by_labels(g))
