"""Exact codebooks and mutually unbiased bases from certified functions.

All vectors are stored unnormalized as Gaussian integers with entries in
{-1, 0, 1} x {-1, 0, 1} plus a per-row squared norm, so the true unit
vector is row / sqrt(norm_sq).  Inner products, correlation maxima and the
Levenshtein bounds are exact (integers and fractions).  The Gram products
run as float64 BLAS matmuls, which is exact here: every entry is in
{-1, 0, 1}, so every partial sum of a row product is an integer of size at
most 2K and every |<c_i, c_j>|^2 is an integer of at most 4K^2, and all of
these are represented exactly while 4K^2 < 2^53 (checked before any
product).  CSV report output is normalized floats (12 significant digits).

Row ordering is fixed for reproducible serialization: the standard basis
first, then the character basis (a = 0), then the function bases in field
index order; within a basis, dual labels in canonical index order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cyclicbent import boolfun as bf
from cyclicbent import construct as cn
from cyclicbent.boolfun import BoolFun

# Entries in one int8 part (re or im) of the largest codebook or MUB set the
# builders allocate; the real codebook at m = 10, (2^9 + 1) 2^20 entries,
# fits.  Sizes past it raise ValueError before anything is certified.
MAX_ENTRIES = 1 << 30
_TILE_ROWS = 1024  # rows per side of one imax_sq Gram tile


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
    """N unnormalized Gaussian-integer rows of length K with per-row norms."""

    re: np.ndarray  # int8 (N, K)
    im: np.ndarray  # int8 (N, K)
    norm_sq: np.ndarray  # int64 (N,)

    def __post_init__(self):
        # the exact float64 Gram and the alphabet key both rely on these
        if self.re.ndim != 2 or self.re.shape != self.im.shape:
            raise ValueError(
                f"re and im must be 2-D of one shape, got {self.re.shape} and {self.im.shape}"
            )
        for part in (self.re, self.im):
            if not np.issubdtype(part.dtype, np.integer):
                raise ValueError(f"codebook entries must be integers, got {part.dtype}")
            if part.size and (part.min() < -1 or part.max() > 1):
                raise ValueError("codebook entries must lie in {-1, 0, 1}")
        if self.norm_sq.shape != (self.re.shape[0],):
            raise ValueError(
                f"norm_sq must hold one value per row, got shape {self.norm_sq.shape}"
            )
        if self.norm_sq.size and self.norm_sq.min() <= 0:
            raise ValueError("norm_sq values must be positive")

    @property
    def n_rows(self) -> int:
        return self.re.shape[0]

    @property
    def length(self) -> int:
        return self.re.shape[1]

    def is_real(self) -> bool:
        return not self.im.any()

    def alphabet(self) -> set:
        """Distinct normalized entry values, as canonical (re, im, norm) keys.

        Zero entries compare equal across rows regardless of the row norm.
        """
        # 3(re + 1) + (im + 1) numbers the nine entry values 0..8; 4 is zero
        key = (3 * (self.re + 1) + (self.im + 1)).astype(np.int8)
        keys = set()
        for norm in np.unique(self.norm_sq):
            counts = np.bincount(key[self.norm_sq == norm].ravel(), minlength=9)
            for v in np.flatnonzero(counts):
                a, b = divmod(int(v), 3)
                keys.add((0, 0, 1) if v == 4 else (a - 1, b - 1, int(norm)))
        return keys

    @property
    def alphabet_size(self) -> int:
        return len(self.alphabet())

    def to_json_obj(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "length": self.length,
            "norm_sq": [int(v) for v in self.norm_sq],
            "rows_re": self.re.tolist(),
            "rows_im": self.im.tolist(),
        }

    def write_csv(self, path: str) -> None:
        """Normalized float entries, 12 significant digits; complex as a+bj."""
        norms, norm_of_row = np.unique(self.norm_sq, return_inverse=True)
        # the nine entry values of each norm, formatted once and numbered by
        # the alphabet key 3(re + 1) + (im + 1)
        cells = np.empty((len(norms), 9), dtype=object)
        for n, norm in enumerate(norms):
            scale = 1.0 / float(np.sqrt(float(norm)))
            for v in range(9):
                a = float(v // 3 - 1) * scale
                b = float(v % 3 - 1) * scale
                cells[n, v] = f"{a:.12g}" if b == 0 else f"{a:.12g}{b:+.12g}j"
        key = 3 * (self.re + 1) + (self.im + 1)
        with open(path, "w") as fh:
            for n, row in zip(norm_of_row, key):
                fh.write(",".join(cells[n, row].tolist()) + "\n")


def _gram_f64(re1, im1, re2, im2):
    """Gram of rows1 against conj(rows2) as float64 (re, im) BLAS products.

    Exact for entries in {-1, 0, 1} while 4K^2 < 2^53 (see the module
    docstring); the bound is checked before anything is allocated.  When
    both sides are real the imaginary part is None and only one product
    runs.
    """
    k = re1.shape[1]
    if 4 * k * k >= 1 << 53:
        raise ValueError(f"row length {k} is too long for an exact float64 Gram")
    a1 = re1.astype(np.float64)
    a2 = re2.astype(np.float64)
    gre = a1 @ a2.T
    if not (im1.any() or im2.any()):
        return gre, None
    b1 = im1.astype(np.float64)
    b2 = im2.astype(np.float64)
    gre += b1 @ b2.T
    gim = b1 @ a2.T
    gim -= a1 @ b2.T
    return gre, gim


def _gram(cb1_re, cb1_im, cb2_re, cb2_im):
    """Exact Gaussian-integer Gram of rows1 against conj(rows2), int64."""
    gre, gim = _gram_f64(cb1_re, cb1_im, cb2_re, cb2_im)
    gre = gre.astype(np.int64)
    gim = np.zeros_like(gre) if gim is None else gim.astype(np.int64)
    return gre, gim


def imax_sq(cb: Codebook) -> Fraction:
    """Max over row pairs i < j of |<c_i, c_j>|^2 as an exact fraction.

    Rows are stably sorted by norm into groups, and the scan runs over
    row-pair tiles within each pair of groups, so every tile has a single
    norm product and needs one max.
    """
    if cb.n_rows < 2:
        raise ValueError("need at least two rows")
    block = _TILE_ROWS
    order = np.argsort(cb.norm_sq, kind="stable")
    norms = cb.norm_sq[order]
    re, im = cb.re[order], cb.im[order]
    bounds = [0, *(np.flatnonzero(np.diff(norms)) + 1).tolist(), cb.n_rows]
    groups = list(zip(bounds[:-1], bounds[1:]))
    tiles = [
        (i0, min(i0 + block, ge), j0, min(j0 + block, he))
        for g, (gs, ge) in enumerate(groups)
        for hs, he in groups[g:]
        for i0 in range(gs, ge, block)
        for j0 in range(i0 if hs == gs else hs, he, block)
    ]

    def tile_best(tile) -> Fraction:
        i0, i1, j0, j1 = tile
        gre, gim = _gram_f64(re[i0:i1], im[i0:i1], re[j0:j1], im[j0:j1])
        mag = np.multiply(gre, gre, out=gre)
        if gim is not None:
            mag += np.multiply(gim, gim, out=gim)
        if i0 == j0:
            # a tile of rows against themselves is symmetric in |G|^2, so
            # its pairs i < j are its off-diagonal entries
            np.fill_diagonal(mag, 0)
        return Fraction(int(mag.max()), int(norms[i0]) * int(norms[j0]))

    return max(map(tile_best, tiles))


def _check_entries(n_rows: int, length: int) -> None:
    if n_rows * length > MAX_ENTRIES:
        raise ValueError(
            f"{n_rows} rows of length {length} exceed the cap of {MAX_ENTRIES} "
            "entries per int8 part"
        )


def _orbit_codebook(tables: np.ndarray, domain: bf.Domain) -> Codebook:
    """Standard basis, the characters (-1)^{<(lam,nu),(x1,x2)>}, then
    (-1)^{t + <(lam,nu),(x1,x2)>} for each truth table t (row) in turn,
    every block in dual index order."""
    size = domain.size
    # the zero table gives the characters themselves
    tables = np.concatenate([np.zeros((1, size), dtype=np.uint8), tables])
    re = np.empty(((len(tables) + 1) * size, size), dtype=np.int8)
    re[:size] = np.eye(size, dtype=np.int8)
    signs = re[size:]
    bits = signs.view(np.uint8).reshape(len(tables), size, size)
    np.bitwise_xor(tables[:, None, :], bf.char_bits(domain), out=bits)
    signs *= -2
    signs += 1
    norm = np.full(re.shape[0], size, dtype=np.int64)
    norm[:size] = 1
    return Codebook(re, np.zeros_like(re), norm)


def build_real_codebook(f: BoolFun, eps=None) -> Codebook:
    """The (2^{2m-1} + 2^m, 2^m) real codebook from a cyclic bent function.

    Rows: standard basis, the characters (-1)^{tr(lam x1) + nu x2}, and for
    each a != 0 the rows (-1)^{f(a x1, x2 + eps_a) + tr(lam x1) + nu x2}.
    """
    q = f.domain.ctx.order
    _check_entries((q + 1) * f.domain.size, f.domain.size)
    cn.require_cyclic_bent(f)
    if eps is not None and len(eps) != q - 1:
        raise ValueError(f"eps vector must have length {q - 1}")
    return _orbit_codebook(bf.orbit_tables(f, range(1, q), 0 if eps is None else eps), f.domain)


@dataclass
class MubSet:
    """Bases of C^k stacked in one codebook: basis i is rows i k .. (i + 1) k."""

    k: int
    codebook: Codebook

    def __post_init__(self):
        cb = self.codebook
        if cb.length != self.k or cb.n_rows == 0 or cb.n_rows % self.k:
            raise ValueError(f"{cb.n_rows} rows of length {cb.length} are not whole bases")

    @property
    def n_bases(self) -> int:
        return self.codebook.n_rows // self.k

    def basis(self, i: int) -> Codebook:
        rows = slice(i * self.k, (i + 1) * self.k)
        cb = self.codebook
        return Codebook(cb.re[rows], cb.im[rows], cb.norm_sq[rows])

    def to_json_obj(self) -> dict:
        bases = map(self.basis, range(self.n_bases))
        return {
            "k": self.k,
            "bases": [
                {"norm_sq": int(b.norm_sq[0]), "re": b.re.tolist(), "im": b.im.tolist()}
                for b in bases
            ],
        }


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
    _check_entries((k + 1) * k, k)
    cn.require_cyclic_bent(f)
    lam_signs = 1 - 2 * bf.char_bits(bf.Domain(f.domain.ctx)).astype(np.int8)
    are, aim = quaternary_entry_arrays(f, np.arange(k))
    re = np.zeros(((k + 1) * k, k), dtype=np.int8)
    im = np.zeros_like(re)
    np.fill_diagonal(re[:k], 1)
    np.multiply(lam_signs, are[:, None, :], out=re[k:].reshape(k, k, k))
    np.multiply(lam_signs, aim[:, None, :], out=im[k:].reshape(k, k, k))
    norm = np.full(re.shape[0], k, dtype=np.int64)
    norm[:k] = 1
    return MubSet(k, Codebook(re, im, norm))


def verify_mub(mubs: MubSet) -> dict:
    """Exact orthonormality and unbiasedness of a stacked set of bases.

    Orthonormal: every basis's self-Gram is diag(norm_sq), one basis at a
    time.  Unbiased: orthonormal and imax_sq <= 1/K over the whole stack.
    By Parseval the K normalized overlaps |<v, b>|^2 of a unit vector v with
    an orthonormal basis sum to 1, so none above 1/K means all equal 1/K.
    """

    def basis_orthonormal(i: int) -> bool:
        b = mubs.basis(i)
        gre, gim = _gram_f64(b.re, b.im, b.re, b.im)
        return np.array_equal(gre, np.diag(b.norm_sq)) and (gim is None or not gim.any())

    orthonormal = all(map(basis_orthonormal, range(mubs.n_bases)))
    return {
        "bases": mubs.n_bases,
        "complete": mubs.n_bases == mubs.k + 1,
        "orthonormal": orthonormal,
        "unbiased": orthonormal and imax_sq(mubs.codebook) <= Fraction(1, mubs.k),
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
    _check_entries((q + 1) * q, q)
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
