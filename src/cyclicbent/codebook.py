"""Exact codebooks and mutually unbiased bases from certified functions.

Every codebook and MUB set built here is the standard basis of C^K followed
by B blocks of K rows s_b(x) chi_lam(x): a block vector s_b of units (1, -1,
i or -i) times each character chi_lam = (-1)^{<lam, x>} of the domain.  A
``Codebook`` stores just that: the domain, which fixes K and chi, and the
block vectors as int8 (re, im) arrays of shape (B, K).  Rows are
unnormalized, with squared norm 1 on the standard basis and K on the blocks.

The cross Gram of blocks a and b is chi diag(s_a conj(s_b)) chi^T, so every
overlap between them is a Walsh value of the one vector s_a conj(s_b):
``imax_sq``, ``verify_mub`` and the code distances of ``codes`` transform
one such vector per block pair (two parts when complex) and never form an
N x N Gram; maxima and Levenshtein bounds are exact fractions.  Dense rows
are built only by ``basis`` and ``write_csv``, one basis at a time; CSV
output is normalized floats (12 significant digits).

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
# the real codebook at m = 12, 2^11 blocks of length 2^12, whose block-pair
# scan takes about a minute.  Sizes past it raise ValueError before anything
# is certified.
MAX_BLOCK_ENTRIES = 1 << 23
# Dense entries (N K) of the largest codebook or MUB set written out in
# full; the real codebook at m = 10, (2^9 + 1) 2^20 entries, fits.
MAX_ENTRIES = 1 << 30
# float32 values per Walsh kernel call in the block-pair scan, counting two
# parts per pair: real and imaginary, or a real part and the room of its
# float64 squares in imax_sq
_PAIR_BATCH = 1 << 22


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
        # in int8, |re| + |im| == 1 holds at the four units and nowhere else
        if not np.all(np.abs(self.re) + np.abs(self.im) == 1):
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

    @property
    def norm_sq(self) -> np.ndarray:
        """int64 squared row norms: 1 on the standard basis, K on the blocks."""
        k = self.length
        return np.repeat(np.array([1, k], dtype=np.int64), [k, self.n_blocks * k])

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
        # negative of value v is 8 - v
        key = 3 * (self.re + 1) + (self.im + 1)
        seen = np.zeros(9, dtype=bool)
        seen[key[:, 0]] = seen[key[:, 1:]] = seen[8 - key[:, 1:]] = True
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


def _block_pair_spectra(cb: Codebook) -> Iterator[np.ndarray]:
    """float32 Walsh spectra of s_a conj(s_b) for the block pairs a < b in
    order, one array of shape (parts, pairs, K) per Walsh kernel call: the
    real part alone when the codebook is real, the real and imaginary parts
    when complex.  Memory is bounded by the batch, not by C(B, 2)."""
    k, n = cb.length, cb.n_blocks
    real = cb.is_real()
    rows = max(1, _PAIR_BATCH // (2 * k))
    for a in range(n - 1):
        for b0 in range(a + 1, n, rows):
            b = slice(b0, b0 + rows)
            parts = [cb.re[a] * cb.re[b]]
            if not real:
                parts[0] += cb.im[a] * cb.im[b]
                parts.append(cb.im[a] * cb.re[b] - cb.re[a] * cb.im[b])
            yield bf._hadamard_rows(np.stack(parts))


def _max_sq(w: np.ndarray) -> int:
    """max |W|^2 over a batch of _block_pair_spectra, summed over its parts;
    |W| <= 2^24, so the squares and their sum are exact in float64."""
    sq = np.square(w[0], dtype=np.float64)
    for part in w[1:]:
        sq += np.square(part, dtype=np.float64)
    return int(sq.max())


def imax_sq(cb: Codebook) -> Fraction:
    """Max over row pairs i < j of |<c_i, c_j>|^2 / (norm_i norm_j), exactly.

    Rows within the standard basis or within one block are orthogonal, and a
    standard row meets a block row in one unit entry: 1/K.  Row lam of block
    a meets row mu of block b in sum_x s_a(x) conj(s_b(x)) chi_{lam+mu}(x),
    a Walsh value of s_a conj(s_b), and lam + mu runs over every dual point.
    """
    k = cb.length
    best = max(map(_max_sq, _block_pair_spectra(cb)), default=0)
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
    then for each truth table t (row) in turn."""
    signs = np.ones((len(tables) + 1, domain.size), dtype=np.int8)
    signs[1:] -= 2 * tables.astype(np.int8)
    return Codebook(domain, signs, np.zeros_like(signs))


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


@dataclass
class MubSet:
    """Bases of C^k held as one codebook: basis 0 is the standard basis and
    basis i > 0 is block i - 1, read densely by ``basis(i)``."""

    codebook: Codebook

    @property
    def k(self) -> int:
        return self.codebook.length

    @property
    def n_bases(self) -> int:
        return self.codebook.n_blocks + 1

    def basis(self, i: int) -> tuple[np.ndarray, np.ndarray, int]:
        return self.codebook.basis(i)


def quaternary_entry_arrays(f: BoolFun, a):
    """A(a, x) = rho0 (-1)^{f(ax,0)} + rho1 (-1)^{f(ax,1)} in {1, -1, i, -i}.

    Returns (re, im) int8 arrays over x, with a leading axis of a's shape
    when a is an array of scalars.
    """
    f0, f1 = np.split(bf.orbit_tables(f, a).astype(np.int8), 2, axis=-1)
    d = f0 ^ f1
    sign = 1 - 2 * f0
    return sign * (1 - d), sign * d


def build_mub(f: BoolFun) -> MubSet:
    """Complete set of 2^{m-1} + 1 MUBs of C^{2^{m-1}} from a cyclic bent f:
    the standard basis, then the rows (-1)^{tr(lam x)} A(a, x) of each a."""
    k = f.domain.ctx.order
    _check_blocks(k, k)
    cn.require_cyclic_bent(f)
    re, im = quaternary_entry_arrays(f, np.arange(k))
    return MubSet(Codebook(bf.Domain(f.domain.ctx), re, im))


def verify_mub(mubs: MubSet) -> dict:
    """Exact orthonormality and unbiasedness of a stacked set of bases.

    Orthonormal by construction: the standard basis is, and so is every
    block, whose Gram chi diag(|s|^2) chi^T is K I because its entries are
    units and the characters are orthogonal.  Unbiased: imax_sq <= 1/K over
    the whole stack.  By Parseval the K normalized overlaps |<v, b>|^2 of a
    unit vector v with an orthonormal basis sum to 1, so none above 1/K
    means all equal 1/K.
    """
    return {
        "bases": mubs.n_bases,
        "complete": mubs.n_bases == mubs.k + 1,
        "orthonormal": True,
        "unbiased": imax_sq(mubs.codebook) <= Fraction(1, mubs.k),
    }


def mub_gram_via_walsh(f: BoolFun, a: int, a2: int):
    """Cross-basis Gram by the Walsh route: 2 <r, r'> = W_{f0}(lam+lam', 0)
    + i W_{f1}(lam+lam', 1) with f0 = f(ax,.)+f(a'x,.) and
    f1 = f(ax,.)+f(a'x,.+1).

    Returns exact (re, im) int64 matrices indexed by (lam, lam') for the
    unnormalized rows; every division by 2 is checked exact.
    """
    if a == a2:
        raise ValueError("walsh route is for distinct bases")
    fa, fb0, fb1 = bf.orbit_tables(f, [a, a2, a2], [0, 0, 1])
    w0 = bf.walsh(BoolFun(f.domain, fa ^ fb0))
    w1 = bf.walsh(BoolFun(f.domain, fa ^ fb1))
    k = f.domain.ctx.order
    lam = np.arange(k)
    mix = lam[:, None] ^ lam[None, :]
    re2 = w0.values[mix]  # W at (lam+lam', nu=0)
    im2 = w1.values[mix + k]  # W at (lam+lam', nu=1)
    if (re2 % 2).any() or (im2 % 2).any():
        raise AssertionError("walsh-route inner products must be even integers")
    return re2 // 2, im2 // 2


def mub_to_codebook(mubs: MubSet) -> Codebook:
    """Every MUB vector as one codebook: the stored stack, not a copy."""
    return mubs.codebook


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


def optimality_report(cb: Codebook, kind: str) -> dict:
    """Compare imax_sq against the applicable Levenshtein bound, exactly."""
    actual = imax_sq(cb)
    if kind == "real":
        bound = levenshtein_real_sq(cb.n_rows, cb.length)
    elif kind == "complex":
        bound = levenshtein_complex_sq(cb.n_rows, cb.length)
    else:
        raise ValueError(f"unknown bound kind {kind!r}")
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
