"""Nonlinear binary codes from certified functions, their exact weight and
distance distributions, and support t-design verification.

The code of a real codebook holds, for each block b and character chi, the
word t_b + chi (the row (-1)^{t_b} chi read over GF(2)) and its complement:
the coset t_b + RM(1).  C(f) and C(g) are the codes of
``build_real_codebook(f)`` and ``build_semibent_codebook(g)``, whose blocks
are t_0 = 0 and the rows f(a x1, x2) (g(a x)), a != 0.  No word is stored:
weights and distances are counted by ``bf.count_values`` from the Walsh
spectra of the blocks and pairs, and the code holds its packed coset leaders:
each block minus its affine part, read by the one doubling kernel
``gf2.linear_table``.
When the codebook is checked to be laid out as one orbit
(``codebook._layout``), every block a >= 1 has the |W| of block 1 and every
block pair those of one pair per class, so A_i reads two rows and B_i q - 1
rows, each weighted by the ordered pairs of its class; otherwise every
block and every pair of blocks is transformed.

Design checking is direct: every t-subset's coverage is counted over the
weight-k words and compared; nothing is inferred from general
design-theoretic results.  The count walks every (t-1)-subset head in
lexicographic order: one logical AND of the head's point rows marks the
words through it, and one float32 mat-vec of the later point rows with that
mask counts every t-subset head + (p,).  The count stays exact: each partial
sum is an integer of at most b, the number of weight-k words, and b is at
most the 2KB words of the code, 2^24 under the builders'
``codebook.MAX_BLOCK_ENTRIES`` of 2^23, which float32 holds exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from cyclicbent import boolfun as bf
from cyclicbent import codebook as cbk
from cyclicbent import construct as cn
from cyclicbent.gf2 import linear_table, xor_rank

# Points of the largest design whose t-subsets are all counted: C(f) at m = 6.
MAX_DESIGN_LENGTH = 64


@dataclass
class NonlinearCode:
    """The 2 K B words t_b + chi + c of a real codebook of B blocks of length K,
    held as one packed coset leader per block (B K / 8 bytes), made about
    bf.BATCH_VALUES entries at a time: t_b plus the affine function that
    agrees with it at the origin and every unit vector, whose linear part
    is one batched gf2.linear_table, the package's one doubling kernel.
    The characters are the linear forms of the index bits, so two blocks
    share a coset exactly when they share a leader."""

    codebook: cbk.Codebook
    _leaders: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cb = self.codebook
        if not cb.is_real() or cb.n_blocks == 0:
            raise ValueError("a code needs a real codebook with at least one block")
        self._leaders = np.empty((cb.n_blocks, (cb.length + 7) // 8), dtype=np.uint8)
        step = max(1, bf.BATCH_VALUES // cb.length)
        units = 1 << np.arange(cb.length.bit_length() - 1)
        for lo in range(0, cb.n_blocks, step):
            t = (cb.re[lo : lo + step] < 0).view(np.uint8)
            t0 = t[:, :1]
            self._leaders[lo : lo + step] = np.packbits(t ^ t0 ^ linear_table(t[:, units] ^ t0),
                                                        axis=1)
        # one void key per packed leader: a byte-string sort, not a row sort
        keys = self._leaders.view(np.dtype((np.void, self._leaders.shape[1]))).ravel()
        if len(np.unique(keys)) < cb.n_blocks:
            raise ValueError("codewords are not distinct")

    @property
    def length(self) -> int:
        return self.codebook.length

    @property
    def size(self) -> int:
        return 2 * self.codebook.n_blocks * self.length

    def is_linear(self) -> bool:
        """Closure of the word set under XOR.

        The leaders r_b lie in a complement of RM(1), so the 2KB distinct
        words r_b + RM(1) span RM(1) + span(r_b), of 2K 2^rank(r) words, and
        are closed exactly when B = 2^rank(r).
        """
        rows = (int.from_bytes(r.tobytes(), "big") for r in self._leaders)
        return self.codebook.n_blocks == 1 << xor_rank(rows)


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


def build_code_f(f: bf.BoolFun) -> NonlinearCode:
    """C(f): codewords (f(a x1, x2) + tr(lam x1) + u x2 + v) over all labels
    (a, lam, u, v); a (2^m, 2^{2m}) code when f is cyclic bent and normalized.
    """
    if not cn.is_normalized(f):
        raise ValueError("build_code_f needs f(0,0) = f(0,1) = 0")
    return NonlinearCode(cbk.build_real_codebook(f))


def build_code_g(g: bf.BoolFun) -> NonlinearCode:
    """C(g): codewords (g(a x) + tr(lam x) + u) over labels (a, lam, u);
    a (2^n, 2^{2n+1}) code when g is cyclic semi-bent with g(0) = 0 and
    n >= 3 (below that the words are not distinct)."""
    if int(g.table[0]) != 0:
        raise ValueError("build_code_g needs g(0) = 0")
    return NonlinearCode(cbk.build_semibent_codebook(g))


def _block_spectra(cb: cbk.Codebook, blocks: np.ndarray):
    """``bf.product_spectra`` batches (blocks, 1, K) of the blocks s_b conj(1), b in blocks."""
    return bf.product_spectra(len(blocks), cb.length, True,
                              lambda lo, rows: (cb.re[blocks[lo : lo + rows]], None, 1, None))


def _split(spectra, weight: np.ndarray, v: int) -> np.ndarray:
    """int64 counts over 0..v of (v -+ W)/2 for the batches of W, row r of
    the scan counted weight[r] times by ``bf.count_values``: the weights of
    t + chi and of its complement, or two distances likewise."""
    counts, lo = Counter(), 0
    for w in spectra:
        bf.count_values(counts, w, weight[lo : lo + len(w)])
        lo += len(w)
    out = np.zeros(v + 1, dtype=np.int64)
    for (value, _), n in counts.items():
        out[(v - value) // 2] += n
        out[(v + value) // 2] += n
    return out


def weight_distance_distributions(code: NonlinearCode) -> DistributionReport:
    """Exact A_i and B_i from the Walsh spectra of the blocks and of one
    block pair per class.

    Block b has the weights (K -+ W(s_b))/2, one pair per dual point.  For
    blocks a != b and each dual point, 2K of the ordered word pairs from a
    to b lie at each of (K -+ W(s_a s_b))/2; ``_block_pair_spectra`` gives
    one pair per class and the ordered block pairs it stands for, whose
    |W| are the same.  The 4K^2 ordered pairs within a block lie 2K at 0,
    2K at K and the rest at K/2.  Dividing by M = 2KB leaves 1/B per
    ordered block pair and spectrum value, checked exact.  A codebook laid
    out as one orbit (``cbk._layout``) has the |W| of block 1 in every block
    a >= 1, so A_i reads two rows: block 0 and block 1 counted B - 1 times.
    """
    cb = code.codebook
    v, n = code.length, cb.n_blocks
    layout = cbk._layout(cb)
    if layout is None:
        blocks, times = np.arange(n), np.ones(n, dtype=np.int64)
    else:
        blocks, times = np.arange(2), np.array([1, n - 1])
    weight = _split(_block_spectra(cb, blocks), times, v)
    dist = _split(*cbk._block_pair_spectra(cb, layout), v)
    dist[[0, v // 2, v]] += n * np.array([1, 2 * v - 2, 1])
    if (dist % n).any():
        raise AssertionError("distance counts must be divisible by B")
    return DistributionReport(
        {i: int(c) for i, c in enumerate(weight) if c},
        {i: int(c) // n for i, c in enumerate(dist) if c},
    )


def support_design(code: NonlinearCode, k: int, t: int) -> DesignResult:
    """Exhaustive coverage count: is (points, weight-k supports) a t-design?

    Every t-subset of coordinates is counted; the result carries lambda on
    success or the first deviating t-subset as a witness.  The b weight-k
    words are held point-major, a bool table ``cols`` of shape (v, b) and its
    float32 copy.  Each (t-1)-subset head, in lexicographic order, ANDs its
    point rows into one reused float32 mask (t = 1 has the empty head, and
    every word passes through it); the coverage of every head + (p,) with p
    past the head is then one mat-vec, the point rows from p = start on
    times the mask.  The mat-vec is exact: every partial sum counts words,
    an integer of at most b <= 2KB <= 2^24 under the builders' block-entry
    cap, and float32 holds every integer up to 2^24.
    """
    if not 1 <= t <= k:
        raise ValueError("need 1 <= t <= k")
    v = code.length
    if v > MAX_DESIGN_LENGTH:
        raise ValueError(
            f"design coverage is counted exhaustively over every t-subset of the "
            f"points; {v} points exceed the cap of {MAX_DESIGN_LENGTH}"
        )
    # the weight-k words, by one Walsh row per block: t_b + chi_lam has
    # weight (v - W(s_b)(lam))/2 and its complement v minus that
    cb = code.codebook
    dom = cb.domain
    w = np.concatenate([b[:, 0].copy() for b in _block_spectra(cb, np.arange(cb.n_blocks))])
    wt = (v - w[:, bf._dual_permutation(dom)]) // 2
    words = []
    for c, hit in ((0, wt == k), (1, wt == v - k)):
        blk, lam = np.nonzero(hit)
        words.append((cb.re[blk] < 0) ^ bf.char_bits(dom, lam) ^ c)
    cols = np.ascontiguousarray(np.concatenate(words).T, dtype=bool)
    b = cols.shape[1]
    if b == 0:
        raise ValueError(f"no codewords of weight {k}")
    colsf = cols.astype(np.float32)
    mask = np.ones(b, dtype=np.float32)
    lam = None
    # each (t-1)-subset head, t = 1 included as the empty head, with the
    # coverage of every t-subset head + (p,) with p past the head
    for head in combinations(range(v), t - 1):
        start = head[-1] + 1 if head else 0
        if head:
            np.logical_and(cols[head[0]], cols[head[-1]], out=mask)
            for p in head[1:-1]:
                np.logical_and(mask, cols[p], out=mask)
        cov = colsf[start:] @ mask
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
