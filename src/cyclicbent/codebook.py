"""Exact codebooks and mutually unbiased bases from certified functions.

Every codebook and MUB set built here is the standard basis of C^K followed
by B blocks of K rows s_b(x) chi_lam(x): a block vector s_b of units (1, -1,
i or -i) times each character chi_lam = (-1)^{<lam, x>} of the domain.  A
``Codebook`` stores just that: the domain, which fixes K and chi, and the
block vectors as int8 (re, im) arrays of shape (B, K).  Rows are
unnormalized, with squared norm 1 on the standard basis and K on the blocks.
A MUB set is such a codebook too: ``build_mub`` returns it, basis 0 is the
standard basis and basis i the block i - 1 (``basis(i)``), and it is also
the complex codebook.  The characters come from ``bf.char_bits``.

The cross Gram of blocks a and b is chi diag(s_a conj(s_b)) chi^T, so every
overlap between them is a Walsh value of the one vector s_a conj(s_b):
``imax_sq``, ``verify_mub`` and the code distances of ``codes`` read them
off one ``bf.product_spectra`` scan of block pairs and never form an N x N
Gram; maxima and Levenshtein bounds are exact fractions.  The builders lay
their blocks out as one orbit: block 0 constant, block a >= 1 block 1 read
at (a x1, x2 + d_a).  Once ``_layout`` has checked that against every
stored entry, the scan transforms one block pair per class (c, d) =
(b / a, d_a + d_b), q - 1 rows when every d_a is equal, in place of all
C(B, 2); any other codebook keeps the scan of every pair, which is also
the oracle of the classes.  Dense rows are built only by ``basis`` and
``write_csv``, one basis at a time; CSV output is normalized floats (12
significant digits).

Row ordering is fixed for reproducible serialization: the standard basis,
then the blocks in order (for the real codebooks the characters, then the
function blocks in field index order); within a block, dual labels in
canonical index order.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from cyclicbent import boolfun as bf
from cyclicbent import construct as cn
from cyclicbent.boolfun import BoolFun

# Block entries (B K) of the largest codebook or MUB set the builders make:
# the real codebook at m = 12, 2^11 blocks of length 2^12, whose orbit-class
# scan takes well under a second (the scan of every block pair took about a
# minute).  Sizes past it raise ValueError before anything is certified.
MAX_BLOCK_ENTRIES = 1 << 23
# Dense Gram entries (about K^4 / 2, a K x K Gram per pair of the K block
# bases) of the largest MUB set ``mub --walsh-check`` cross-checks: m = 8,
# K = 128, about 3.5 s; m = 10 would take about 15 minutes.
MAX_WALSH_CHECK_ENTRIES = 1 << 27
# Dense entries (N K) of the largest codebook or MUB set written out in
# full; the real codebook at m = 10, (2^9 + 1) 2^20 entries, fits.
MAX_ENTRIES = 1 << 30


def levenshtein_real_sq(n_rows: int, k: int) -> Fraction:
    """Squared real Levenshtein bound (3N - K^2 - 2K) / ((N-K)(K+2)).

    Applicable only for N > K(K+1)/2.
    """
    if not n_rows > k * (k + 1) // 2:
        raise ValueError("real bound needs N > K(K+1)/2")
    return Fraction(3 * n_rows - k * k - 2 * k, (n_rows - k) * (k + 2))


def levenshtein_complex_sq(n_rows: int, k: int) -> Fraction:
    """Squared complex Levenshtein bound (2N - K^2 - K) / ((N-K)(K+1)).

    Applicable only for N > K^2.
    """
    if not n_rows > k * k:
        raise ValueError("complex bound needs N > K^2")
    return Fraction(2 * n_rows - k * k - k, (n_rows - k) * (k + 1))


@dataclass
class Codebook:
    """The standard basis of C^K, then the K rows s_b chi_lam of each block b."""

    domain: bf.Domain  # fixes K = domain.size and the characters chi
    re: np.ndarray  # int8 (B, K): real parts of the block vectors s_b
    im: np.ndarray  # int8 (B, K): imaginary parts

    def __post_init__(self):
        k = self.domain.size
        if self.re.ndim != 2 or self.re.shape != self.im.shape or self.re.shape[1] != k:
            raise ValueError(
                f"block vectors must be two (B, {k}) arrays, got {self.re.shape} and {self.im.shape}"
            )
        if self.re.dtype != np.int8 or self.im.dtype != np.int8:
            raise ValueError(f"block vectors must be int8, got {self.re.dtype} and {self.im.dtype}")
        # in int8, |re| + |im| == 1 holds at the four units and nowhere else;
        # checked about bf.BATCH_VALUES entries at a time
        step = max(1, bf.BATCH_VALUES // k)
        for lo in range(0, len(self.re), step):
            if not np.all(np.abs(self.re[lo : lo + step]) + np.abs(self.im[lo : lo + step]) == 1):
                raise ValueError("block vector entries must be units: 1, -1, i or -i")

    @property
    def n_blocks(self) -> int:
        return self.re.shape[0]

    @property
    def length(self) -> int:
        return self.domain.size

    @property
    def n_rows(self) -> int:
        return (self.n_blocks + 1) * self.length

    def is_real(self) -> bool:
        return not self.im.any()

    def alphabet(self) -> set:
        """Distinct normalized entry values, as canonical (re, im, norm) keys.

        The standard basis gives 1 and 0 (zero is (0, 0, 1) whatever the
        norm).  Block b gives s_b(0) in column 0, where every character is 1,
        and both +s_b(x) and -s_b(x) in each column x != 0, where the
        characters take both signs.
        """
        # 3(re + 1) + (im + 1) numbers the nine entry values 0..8, and the
        # negative of value v is 8 - v; columns x != 0 are counted about
        # bf.BATCH_VALUES entries at a time, each value with its negative
        seen = np.zeros(9, dtype=bool)
        seen[3 * (self.re[:, 0] + 1) + (self.im[:, 0] + 1)] = True
        step = max(1, bf.BATCH_VALUES // self.length)
        for lo in range(0, self.n_blocks, step):
            key = 3 * (self.re[lo : lo + step, 1:] + 1) + (self.im[lo : lo + step, 1:] + 1)
            counts = np.bincount(key.ravel(), minlength=9)
            seen |= (counts + counts[::-1]) > 0
        keys = {(1, 0, 1), (0, 0, 1)}
        keys.update((int(v) // 3 - 1, int(v) % 3 - 1, self.length) for v in np.flatnonzero(seen))
        return keys

    @property
    def alphabet_size(self) -> int:
        return len(self.alphabet())

    def basis(self, i: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Dense int8 rows (re, im) and the squared norm of basis i: the
        standard basis for i = 0, the rows s_b chi_lam of block b = i - 1
        otherwise."""
        if not 0 <= i <= self.n_blocks:
            raise IndexError(f"basis {i} out of range 0..{self.n_blocks}")
        k = self.length
        if i == 0:
            return np.eye(k, dtype=np.int8), np.zeros((k, k), dtype=np.int8), 1
        return self._chars * self.re[i - 1], self._chars * self.im[i - 1], k

    @cached_property
    def _chars(self) -> np.ndarray:
        """int8 (K, K) characters chi[lam, x] = (-1)^{<lam, x>}."""
        return 1 - 2 * bf.char_bits(self.domain).astype(np.int8)

    def write_csv(self, path: str) -> None:
        """Normalized float entries, 12 significant digits; complex as a+bj."""
        _check_entries(self.n_rows, self.length)
        # the nine entry values of each norm, formatted once and numbered by
        # the alphabet key 3(re + 1) + (im + 1)
        cells = {}
        for norm in (1, self.length):
            scale = 1.0 / float(np.sqrt(float(norm)))
            cells[norm] = np.empty(9, dtype=object)
            for v in range(9):
                a, b = float(v // 3 - 1) * scale, float(v % 3 - 1) * scale
                cells[norm][v] = f"{a:.12g}" if b == 0 else f"{a:.12g}{b:+.12g}j"
        with open(path, "w") as fh:
            for i in range(self.n_blocks + 1):
                re, im, norm = self.basis(i)
                for row in 3 * (re + 1) + (im + 1):
                    fh.write(",".join(cells[norm][row].tolist()) + "\n")


def _layout(cb: Codebook) -> np.ndarray | None:
    """The offsets d_a (uint8, one per block) when the codebook is laid out
    as one orbit, else None.

    The layout: one block per field element a, block 0 constant, and block
    a >= 1 block 1 read at (a x1, x2 + d_a), or at a x on a plain field,
    where d_a = 0.  The real, complex (MUB) and semi-bent builders lay their
    blocks out so.  Every stored entry is compared, about bf.BATCH_VALUES
    at a time, with one orbit gather of block 1: O(B K).
    """
    dom, q = cb.domain, cb.domain.ctx.order
    if cb.n_blocks != q or (cb.re[0] != cb.re[0, 0]).any() or (cb.im[0] != cb.im[0, 0]).any():
        return None

    def keys(lo, hi):  # 3 re + im is 3, -3, 1, -1 at the four units
        return (3 * cb.re[lo:hi] + cb.im[lo:hi]).view(np.uint8).reshape(hi - lo, -1, q)

    rows = bf.orbit_gather(dom, keys(1, 2).ravel())
    d = np.zeros(q, dtype=np.uint8)
    step = max(1, bf.BATCH_VALUES // dom.size)
    for lo in range(1, q, step):
        hi = min(q, lo + step)
        want = keys(lo, hi)
        got = rows(np.arange(lo, hi)).reshape(want.shape)
        same = (got == want).all(axis=(1, 2))
        d[lo:hi] = ~same
        # on x2 + 1 the gathered halves swap
        if not same.all() and not (dom.with_bit and (got[~same, ::-1] == want[~same]).all()):
            return None
    return d


def _block_pair_spectra(cb: Codebook,
                        d: np.ndarray | None) -> tuple[Iterator[np.ndarray], np.ndarray]:
    """``bf.product_spectra`` batches (pairs, parts, K) of s_a conj(s_b), one
    part when the codebook is real and two when complex, over one block pair
    per class; and for each pair the number of ordered block pairs of its
    class, all of whose spectra are its spectrum permuted with signs
    changed.  d is ``_layout(cb)``.

    A codebook laid out as one orbit (offsets d, not None) pairs blocks a, b >= 1
    as h and h(c ., . + d) read at (a x1, x2 + d_a), h block 1, c = b / a and
    d = d_a + d_b; and block 0 with block a as a unit times h read so.  So
    its classes are (0, 1), standing for the 2(q - 1) ordered pairs with
    block 0, and one pair (a, a c) for each (c, d) that occurs, standing for
    the N(c, d) = #{a : d_a + d_{ac} = d} ordered pairs (a, a c): q - 1 rows
    when no d_a is 1.  Any other codebook keeps every pair a < b as its own
    class of two ordered pairs, read off B row offsets, so neither route
    builds a C(B, 2) array.
    """
    n, real = cb.n_blocks, cb.is_real()
    if d is None:
        n_rows = n * (n - 1) // 2
        # first[a] is the index of the pair (a, a + 1) in the order of the scan
        first = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])

        def pick(start, rows):
            p = np.arange(start, start + rows)
            a = np.searchsorted(first, p, side="right") - 1
            return a, p - first[a] + a + 1

        weight = np.broadcast_to(np.int64(2), (n_rows,))
    else:
        a, b, weight = _pair_classes(cb.domain.ctx, d)
        n_rows = len(a)

        def pick(start, rows):
            return a[start : start + rows], b[start : start + rows]

    def pairs(start, rows):
        a, b = pick(start, rows)
        return cb.re[a], None if real else cb.im[a], cb.re[b], None if real else cb.im[b]

    return bf.product_spectra(n_rows, cb.length, real, pairs), weight


def _pair_classes(ctx, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, N): the block pairs (0, 1) and (a, a c), one per class (c, d)
    of an orbit layout with offsets d, and the ordered pairs of each class.

    In log order, a = beta^i and c = beta^j (j != 0, so c != 1), the class
    of (a, a c) is D[i] + D[i + j] with D[i] = d of beta^i; row j of the
    window X[j, i] = D[i] + D[i + j] counts N(c, 1) and its first 0 and 1
    give the pairs.  O(q^2) bit operations, about bf.BATCH_VALUES at a time.
    """
    k = ctx.order - 1
    at = ctx.generator_powers(np.arange(k))  # the block of beta^i
    dlog = d[at]
    # win[j, i] = D[i + j], a view: row j starts one entry after row j - 1
    win = np.ndarray((k + 1, k), np.uint8, np.concatenate([dlog, dlog]), strides=(1, 1))
    a, b, n = [np.array([0])], [np.array([1])], [np.array([2 * k])]
    step = max(1, bf.BATCH_VALUES // k)
    for lo in range(1, k, step):
        x = win[lo : min(lo + step, k)] ^ dlog
        ones = x.sum(axis=1, dtype=np.int64)
        # row 0 the classes d = 0, row 1 those of d = 1
        count, i = np.stack([k - ones, ones]), np.stack([x.argmin(axis=1), x.argmax(axis=1)])
        seen = count > 0
        a.append(at[i[seen]])
        b.append(at[(i + np.arange(lo, lo + len(x)))[seen] % k])
        n.append(count[seen])
    return tuple(np.concatenate(v) for v in (a, b, n))


def _max_sq(w: np.ndarray) -> int:
    """max |W|^2 over a batch of _block_pair_spectra, summed over its parts.
    |W| <= K, so a complex batch squares in place exactly in float32 while
    K <= 2^12, and a real one needs no squares."""
    if w.shape[1] == 1:
        return int(max(w.max(), -w.min())) ** 2
    sq = np.square(w, out=w) if w.shape[2] <= 1 << 12 else np.square(w, dtype=np.float64)
    sq[:, 0] += sq[:, 1]
    return int(sq[:, 0].max())


def imax_sq(cb: Codebook) -> Fraction:
    """Max over row pairs i < j of |<c_i, c_j>|^2 / (norm_i norm_j), exactly.

    Rows within the standard basis or within one block are orthogonal, and a
    standard row meets a block row in one unit entry: 1/K.  Row lam of block
    a meets row mu of block b in sum_x s_a(x) conj(s_b(x)) chi_{lam+mu}(x),
    a Walsh value of s_a conj(s_b), and lam + mu runs over every dual point.
    """
    k = cb.length
    best = max(map(_max_sq, _block_pair_spectra(cb, _layout(cb))[0]), default=0)
    return max(Fraction(best, k * k), Fraction(int(cb.n_blocks > 0), k))


def _check_blocks(n_blocks: int, length: int) -> None:
    if n_blocks * length > MAX_BLOCK_ENTRIES:
        raise ValueError(
            f"{n_blocks} block vectors of length {length} exceed the cap of "
            f"{MAX_BLOCK_ENTRIES} block entries"
        )


def _check_entries(n_rows: int, length: int) -> None:
    if n_rows * length > MAX_ENTRIES:
        raise ValueError(
            f"{n_rows} rows of length {length} exceed the output cap of {MAX_ENTRIES} entries"
        )


def _orbit_codebook(tables: np.ndarray, domain: bf.Domain) -> Codebook:
    """Blocks (-1)^t chi for the zero table t (the characters themselves),
    then for each truth table t (row) in turn.  The imaginary parts are one
    read-only zero-stride view, not B K stored zeros."""
    signs = np.empty((len(tables) + 1, domain.size), dtype=np.int8)
    signs[0] = 1
    np.multiply(tables, -2, out=signs[1:], dtype=np.int8, casting="unsafe")
    signs[1:] += 1
    return Codebook(domain, signs, np.broadcast_to(np.int8(0), signs.shape))


def build_real_codebook(f: BoolFun, eps=None) -> Codebook:
    """The (2^{2m-1} + 2^m, 2^m) real codebook from a cyclic bent function.

    Rows: standard basis, the characters (-1)^{tr(lam x1) + nu x2}, and for
    each a != 0 the rows (-1)^{f(a x1, x2 + eps_a) + tr(lam x1) + nu x2}.
    """
    q = f.domain.ctx.order
    _check_blocks(q, f.domain.size)
    cn.require_cyclic_bent(f)
    if eps is not None and len(eps) != q - 1:
        raise ValueError(f"eps vector must have length {q - 1}")
    return _orbit_codebook(bf.orbit_tables(f, range(1, q), 0 if eps is None else eps), f.domain)


def quaternary_entry_arrays(f: BoolFun, a):
    """A(a, x) = rho0 (-1)^{f(ax,0)} + rho1 (-1)^{f(ax,1)} in {1, -1, i, -i}.

    Returns (re, im) int8 arrays over x, with a leading axis of a's shape
    when a is an array of scalars.
    """
    f0, f1 = np.split(bf.orbit_tables(f, a).astype(np.int8), 2, axis=-1)
    d = f0 ^ f1
    sign = 1 - 2 * f0
    return sign * (1 - d), sign * d


def build_mub(f: BoolFun) -> Codebook:
    """Complete set of 2^{m-1} + 1 MUBs of C^{2^{m-1}} from a cyclic bent f,
    as one codebook: basis 0 is the standard basis and basis a + 1 is block
    a, the rows (-1)^{tr(lam x)} A(a, x), read densely by ``basis(a + 1)``."""
    k = f.domain.ctx.order
    _check_blocks(k, k)
    cn.require_cyclic_bent(f)
    re, im = quaternary_entry_arrays(f, np.arange(k))
    return Codebook(bf.Domain(f.domain.ctx), re, im)


def verify_mub(cb: Codebook) -> dict:
    """Exact orthonormality and unbiasedness of the bases of a codebook: the
    standard basis, then one basis per block.

    Orthonormal by construction: the standard basis is, and so is every
    block, whose Gram chi diag(|s|^2) chi^T is K I because its entries are
    units and the characters are orthogonal.  Unbiased: imax_sq <= 1/K over
    the whole stack.  By Parseval the K normalized overlaps |<v, b>|^2 of a
    unit vector v with an orthonormal basis sum to 1, so none above 1/K
    means all equal 1/K.
    """
    bases, k = cb.n_blocks + 1, cb.length
    return {
        "bases": bases,
        "complete": bases == k + 1,
        "orthonormal": True,
        "unbiased": imax_sq(cb) <= Fraction(1, k),
    }


def mub_gram_via_walsh(f: BoolFun, a: int, others):
    """Cross-basis Grams of block a against the blocks in others by the Walsh
    route: 2 <r, r'> = W_{f0}(lam+lam', 0) + i W_{f1}(lam+lam', 1) with
    f0 = f(ax,.)+f(a'x,.) and f1 = f(ax,.)+f(a'x,.+1), for each a' in others.

    Both sums of every a' are built by one ``bf.orbit_tables`` call and
    transformed by one ``bf.walsh_many`` call, 2 len(others) rows; each
    row's columns are read in dual order at lam ^ lam'.  Returns exact (re,
    im) int64 stacks shaped (len(others), K, K), indexed by (a', lam, lam'),
    for the unnormalized rows; every division by 2 is checked exact.  The
    caller bounds len(others) K^2, the entries held.
    """
    others = np.asarray(others, dtype=np.int64).reshape(-1)
    if np.any(others == a):
        raise ValueError("walsh route is for distinct bases")
    n = len(others)
    tables = bf.orbit_tables(f, np.concatenate([[a], others, others]),
                             np.repeat([0, 0, 1], [1, n, n]))
    w = bf.walsh_many(1 - 2 * (tables[1:] ^ tables[0]).astype(np.float32))
    k = f.domain.ctx.order
    dual = bf._dual_permutation(f.domain)
    # W at (lam'', nu=0) of the f0 rows and at (lam'', nu=1) of the f1 rows:
    # every value the Grams read, lam'' = lam + lam'
    re2 = w[:n, dual[:k]].astype(np.int64)
    im2 = w[n:, dual[k:]].astype(np.int64)
    if (re2 % 2).any() or (im2 % 2).any():
        raise AssertionError("walsh-route inner products must be even integers")
    lam = np.arange(k)
    mix = lam[:, None] ^ lam[None, :]
    return np.take(re2 // 2, mix, axis=1), np.take(im2 // 2, mix, axis=1)


# build_mub already returns the codebook; this identity stays only because
# the benchmark's tracer wraps it by name
def mub_to_codebook(cb: Codebook) -> Codebook:
    """The MUB set as a codebook: cb itself."""
    return cb


def build_semibent_codebook(g: BoolFun) -> Codebook:
    """The (2^{2n} + 2^n, 2^n) real codebook from a cyclic semi-bent g (n odd,
    n >= 3).

    Its exact squared maximum crosscorrelation is 2^{1-n} (the semi-bent
    Walsh peak 2^{(n+1)/2} scaled by 2^{-n}, squared), which only *almost*
    meets the real Levenshtein bound.
    """
    if g.n_vars < 3:
        raise ValueError(f"semi-bent codebooks need n >= 3, got n = {g.n_vars}")
    q = g.domain.ctx.order
    _check_blocks(q, q)
    cn.require_cyclic_semibent(g)
    return _orbit_codebook(bf.orbit_tables(g, range(1, q)), g.domain)


def optimality_report(cb: Codebook) -> dict:
    """Compare imax_sq, exactly, against the Levenshtein bound that applies
    to cb's entries: the real bound when they are real, else the complex one."""
    actual = imax_sq(cb)
    bound = (levenshtein_real_sq if cb.is_real() else levenshtein_complex_sq)(cb.n_rows, cb.length)
    return {
        "n_rows": cb.n_rows,
        "length": cb.length,
        "alphabet_size": cb.alphabet_size,
        "imax_sq": str(actual),
        "imax_sq_float": float(actual),
        "bound_sq": str(bound),
        "bound_sq_float": float(bound),
        "optimal": actual == bound,
        "ratio_sq": str(actual / bound),
    }
