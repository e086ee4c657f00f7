"""Nonlinear binary codes from certified functions, their exact weight and
distance distributions, and support t-design verification.

Codewords are bit vectors of length v <= 64 packed into single uint64
words; the full pairwise distance scan and the design coverage counts are
exhaustive (no sampling), which is feasible for every size this package
certifies (v = 2^m with m <= 6, v = 2^n with n <= 5).

Design checking is direct: every t-subset's coverage is counted and
compared; nothing is inferred from general design-theoretic results.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

import numpy as np

from cyclicbent import boolfun as bf
from cyclicbent import construct as cn
from cyclicbent.boolfun import BoolFun

MAX_LENGTH = 64


@dataclass
class NonlinearCode:
    """M distinct codewords of length v, packed as uint64 bit masks."""

    length: int
    words: np.ndarray  # uint64 (M,)
    labels: list[tuple]

    @property
    def size(self) -> int:
        return len(self.words)

    def is_linear(self) -> bool:
        """Closure of the word set under XOR.

        The distinct words S lie in their GF(2) span, which has 2^rank(S)
        words, so S is closed exactly when |S| = 2^rank(S).
        """
        distinct = np.unique(self.words)
        return len(distinct) == 1 << _gf2_rank(distinct)

    def is_self_complementary(self) -> bool:
        full = (1 << self.length) - 1
        ws = set(int(w) for w in self.words)
        return all((w ^ full) in ws for w in ws)

    def to_json_obj(self) -> dict:
        width = (self.length + 3) // 4
        return {
            "length": self.length,
            "size": self.size,
            "words_hex": [format(int(w), f"0{width}x") for w in self.words],
        }


def _gf2_rank(words: np.ndarray) -> int:
    """Rank over GF(2) of uint64 bit-vector words, by Gaussian elimination:
    each pivot clears its lowest set bit from every other word, and itself."""
    rows = words[words != 0]
    rank = 0
    while len(rows):
        pivot = int(rows[0])
        low = np.uint64(pivot & -pivot)
        rows = np.where(rows & low, rows ^ np.uint64(pivot), rows)
        rows = rows[rows != 0]
        rank += 1
    return rank


def expected_weights_f(m: int) -> dict[int, int]:
    """Closed-form weight distribution of C(f), f cyclic bent in m variables."""
    side = (1 << m) * ((1 << (m - 1)) - 1)
    return {
        0: 1,
        1 << m: 1,
        1 << (m - 1): (1 << (m + 1)) - 2,
        (1 << (m - 1)) + (1 << ((m - 2) // 2)): side,
        (1 << (m - 1)) - (1 << ((m - 2) // 2)): side,
    }


def expected_weights_g(n: int) -> dict[int, int]:
    """Closed-form weight distribution of C(g), g cyclic semi-bent on GF(2^n)."""
    side = (1 << (2 * n - 1)) - (1 << (n - 1))
    return {
        0: 1,
        1 << n: 1,
        1 << (n - 1): (1 << (2 * n)) + (1 << n) - 2,
        (1 << (n - 1)) + (1 << ((n - 1) // 2)): side,
        (1 << (n - 1)) - (1 << ((n - 1) // 2)): side,
    }


@dataclass
class DistributionReport:
    """Weight distribution A_i and distance distribution B_i.

    B_i = (1/M) #{(c, c'): d(c, c') = i} over ordered pairs; the division is
    checked exact, so entries are integers.
    """

    weight: dict[int, int]
    distance: dict[int, int]

    def min_distance(self) -> int:
        return min(i for i in self.distance if i > 0)


@dataclass
class DesignResult:
    t: int
    v: int
    k: int
    blocks: int
    lam: int | None  # None exactly when the coverage is not constant
    witness: tuple | None = None  # (t-subset, coverage, expected)

    @property
    def passed(self) -> bool:
        return self.lam is not None

    def to_json_obj(self) -> dict:
        return {
            "t": self.t,
            "v": self.v,
            "k": self.k,
            "b": self.blocks,
            "lambda": self.lam,
            "witness": list(self.witness[0]) if self.witness else None,
        }


def _orbit_code(tables: np.ndarray, chars: np.ndarray, labels: list[tuple]) -> NonlinearCode:
    """The words t + c + v for each truth table t (row), character row c and
    complement bit v, nested in that order, each packed little-endian into
    one uint64."""
    length = chars.shape[1]
    if length > MAX_LENGTH:
        raise ValueError(f"code length {length} exceeds the packed-word cap {MAX_LENGTH}")
    bits = tables[:, None, None, :] ^ chars[:, None, :] ^ np.array([[0], [1]], np.uint8)
    packed = np.packbits(bits, axis=-1, bitorder="little").reshape(len(labels), -1)
    words = np.zeros((len(labels), 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    words = words.view("<u8").ravel().astype(np.uint64)
    if len(np.unique(words)) != len(words):
        raise AssertionError("codewords are not distinct")
    return NonlinearCode(length, words, labels)


def build_code_f(f: BoolFun) -> NonlinearCode:
    """C(f): codewords (f(a x1, x2) + tr(lam x1) + u x2 + v) over all labels
    (a, lam, u, v); a (2^m, 2^{2m}) code when f is cyclic bent and normalized.
    """
    if not cn.is_normalized(f):
        raise ValueError("build_code_f needs f(0,0) = f(0,1) = 0")
    cn.require_cyclic_bent(f)
    q = f.domain.ctx.order
    # character rows are indexed nu * q + lam; the labels run lam-major
    chars = bf.char_bits(f.domain).reshape(2, q, -1).swapaxes(0, 1).reshape(2 * q, -1)
    return _orbit_code(
        bf.orbit_tables(f, range(q)),
        chars,
        list(product(range(q), range(q), (0, 1), (0, 1))),
    )


def build_code_g(g: BoolFun) -> NonlinearCode:
    """C(g): codewords (g(a x) + tr(lam x) + u) over labels (a, lam, u);
    a (2^n, 2^{2n+1}) code when g is cyclic semi-bent with g(0) = 0 and
    n >= 3 (below that the words are not distinct)."""
    if g.n_vars < 3:
        raise ValueError(f"C(g) needs n >= 3, got n = {g.n_vars}")
    if int(g.table[0]) != 0:
        raise ValueError("build_code_g needs g(0) = 0")
    cn.require_cyclic_semibent(g)
    q = g.domain.ctx.order
    return _orbit_code(
        bf.orbit_tables(g, range(q)),
        bf.char_bits(g.domain),
        list(product(range(q), range(q), (0, 1))),
    )


def weight_distance_distributions(code: NonlinearCode) -> DistributionReport:
    """Exact A_i and B_i by popcount scan over all ordered codeword pairs."""
    words = code.words
    m = code.size
    wts = np.bitwise_count(words)
    wvals, wcounts = np.unique(wts, return_counts=True)
    weight = {int(v): int(c) for v, c in zip(wvals, wcounts)}

    pair_counts = np.zeros(code.length + 1, dtype=np.int64)
    block = max(1, (1 << 22) // m)
    for i0 in range(0, m, block):
        x = np.bitwise_xor(words[i0 : i0 + block, None], words[None, :])
        pair_counts += np.bincount(np.bitwise_count(x).ravel(), minlength=code.length + 1)
    distance = {}
    for i, c in enumerate(pair_counts):
        if c:
            if c % m:
                raise AssertionError("distance counts must be divisible by M")
            distance[i] = int(c) // m
    return DistributionReport(weight, distance)


def supports_of_weight(code: NonlinearCode, k: int) -> np.ndarray:
    """Deduplicated supports of the weight-k codewords, as a (b, v) bool matrix."""
    wts = np.bitwise_count(code.words)
    sel = np.unique(code.words[wts == k]).astype("<u8")
    bits = np.unpackbits(sel.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    return bits[:, : code.length].astype(bool)


def support_design(code: NonlinearCode, k: int, t: int) -> DesignResult:
    """Exhaustive coverage count: is (points, weight-k supports) a t-design?

    Every t-subset of coordinates is counted; the result carries lambda on
    success or the first deviating t-subset as a witness.
    """
    if not 1 <= t <= k:
        raise ValueError("need 1 <= t <= k")
    blocks = supports_of_weight(code, k)
    b = blocks.shape[0]
    if b == 0:
        raise ValueError(f"no codewords of weight {k}")
    v = code.length
    lam = None
    # each (t-1)-subset head, t = 1 included as the empty head, with the
    # coverage of every t-subset head + (p,) with p past the head
    for head in combinations(range(v), t - 1):
        start = head[-1] + 1 if head else 0
        cov = blocks[blocks[:, list(head)].all(axis=1), start:].sum(axis=0)
        if lam is None:
            lam = int(cov[0])
        off = np.flatnonzero(cov != lam)
        if len(off):
            p = int(off[0])
            return DesignResult(t, v, k, b, None, (head + (start + p,), int(cov[p]), lam))
    # design identity lambda C(v,t) = b C(k,t)
    if lam * comb(v, t) != b * comb(k, t):
        raise AssertionError("coverage constant but design identity fails")
    return DesignResult(t, v, k, b, lam)
