"""Truth-table Boolean functions, the fast Walsh transform, and bent/semi-bent
classification.

Index conventions (fixed across the whole package):

* On a plain field domain GF(2^d), the point x is stored at index int(x)
  (little-endian polynomial-basis bits).
* On a field-times-bit domain GF(2^{m-1}) x GF(2), the point (x1, x2) is
  stored at index x2 * 2^{m-1} + int(x1).
* Walsh spectra are indexed the same way: the value at dual point lam
  (resp. (lam, nu)) uses the inner product tr(lam*x) (resp.
  tr(lam*x1) + nu*x2).

The Walsh transform of a row of length 2^n is one Kronecker-factored
Hadamard product: the row is read as a 2^{k1} x 2^{k2} matrix X
(k1 = floor(n/2), k2 = n - k1) and the spectrum is H_{2^{k1}} X H_{2^{k2}},
two float32 BLAS matmuls with the +-1 Sylvester-Hadamard matrices.  This is
exact for rows with entries in {-1, 0, 1}: sign rows, 0/1 truth tables
(the certifiers' pair sums), and the real and imaginary parts of a product
of two unit Gaussian-integer vectors.  The
matrix entries are +-1, so every partial sum of both products is an integer
of size at most 2^n, and float32 holds every such integer exactly while
n <= 24 (MAX_WALSH_VARS; past the 21 variables of GF(2^20) x GF(2), it
bounds raw ``walsh_many`` rows).  Summation order and fused multiply-adds
therefore cannot change any value.  ``walsh`` returns the spectrum as 64-bit
signed integers; classification is exact membership, no tolerances.

``product_spectra`` yields the spectra of pair products in batches, and
``count_values`` counts their (Re W, Im W) exactly, for the codes and the
sequence families alike.

Every character table is one parity kernel, popcount(mask & x) mod 2: the
Sylvester matrices (mask i, point j) and ``char_bits`` (the dual mask of
(lam, nu), point (x1, x2)), which returns only the rows and columns a
caller asks for.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from cyclicbent.gf2 import GF2m, mk_field

# float32 holds every integer of size at most 2^24 exactly
MAX_WALSH_VARS = 24


class WalshClass(Enum):
    BENT = "bent"
    SEMI_BENT = "semi-bent"
    NEITHER = "neither"


@dataclass(frozen=True)
class Domain:
    """Domain of a Boolean function: GF(2^d), optionally crossed with GF(2)."""

    ctx: GF2m
    with_bit: bool = False

    @property
    def n_vars(self) -> int:
        return self.ctx.degree + (1 if self.with_bit else 0)

    @property
    def size(self) -> int:
        return 1 << self.n_vars

    def index(self, x1: int, x2: int = 0) -> int:
        if self.with_bit:
            return (x2 << self.ctx.degree) + x1
        return x1

    def tag(self) -> str:
        return "field_x_bit" if self.with_bit else "field"


@dataclass(frozen=True)
class BoolFun:
    """A Boolean function as a 0/1 truth table over its domain."""

    domain: Domain
    table: np.ndarray  # uint8 array of length domain.size, values in {0, 1}

    def __post_init__(self):
        if self.table.shape != (self.domain.size,):
            raise ValueError("table length does not match domain size")

    @property
    def n_vars(self) -> int:
        return self.domain.n_vars

    def value(self, x1: int, x2: int = 0) -> int:
        return int(self.table[self.domain.index(x1, x2)])

    def signs(self) -> np.ndarray:
        """(-1)^f as an int64 vector."""
        return 1 - 2 * self.table.astype(np.int64)

    def __eq__(self, other):
        return (
            isinstance(other, BoolFun)
            and self.domain == other.domain
            and bool(np.array_equal(self.table, other.table))
        )

    def __hash__(self):
        return hash((self.domain, self.table.tobytes()))

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        packed = np.packbits(self.table, bitorder="little").tobytes()
        return json.dumps(
            {
                "n": self.n_vars,
                "domain": self.domain.tag(),
                "degree": self.domain.ctx.degree,
                "modulus": self.domain.ctx.modulus,
                "table_hex": packed.hex(),
            }
        )

    @staticmethod
    def from_json(s: str) -> "BoolFun":
        obj = json.loads(s)
        ctx = mk_field(obj["degree"], obj["modulus"])
        dom = Domain(ctx, obj["domain"] == "field_x_bit")
        raw = np.frombuffer(bytes.fromhex(obj["table_hex"]), dtype=np.uint8)
        table = np.unpackbits(raw, bitorder="little")[: dom.size].astype(np.uint8)
        return BoolFun(dom, table)


@dataclass(frozen=True)
class WalshSpectrum:
    domain: Domain
    values: np.ndarray  # int64, indexed like the truth table


def _parity(masks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """popcount(masks & x) mod 2 as uint8, broadcast: the bit dot products."""
    t = np.bitwise_count(masks & x)
    return np.bitwise_and(t, 1, out=t)


@cache
def _sylvester(k: int) -> np.ndarray:
    """H_{2^k}[i, j] = (-1)^{popcount(i & j)} as a read-only float32 matrix."""
    i = np.arange(1 << k)
    h = 1 - 2 * _parity(i[:, None], i).astype(np.float32)
    h.setflags(write=False)
    return h


def _hadamard_rows(signs, out=None, work=None) -> np.ndarray:
    """Walsh spectra (natural bit order) of the rows along the last axis, as
    float32: each row, read as a 2^{k1} x 2^{k2} matrix X, maps to
    H_{2^{k1}} X H_{2^{k2}}.  Exact for rows of length 2^n, n <= 24, with
    entries in {-1, 0, 1}.  out and work, C-contiguous float32 arrays shaped
    like signs, take the spectra and X H_{2^{k2}} in place of new arrays;
    out may be signs itself, which the second product no longer reads.
    """
    shape = np.shape(signs)
    size = shape[-1] if shape else 0
    if size < 1 or size & (size - 1):
        raise ValueError(f"Walsh rows need a power-of-two length, got {size}")
    if size > 1 << MAX_WALSH_VARS:
        raise ValueError(
            f"float32 Walsh spectra are exact for n <= {MAX_WALSH_VARS} variables, "
            f"got rows of length {size}"
        )
    n = size.bit_length() - 1
    k1 = n // 2
    square = shape[:-1] + (1 << k1, size >> k1)
    x = np.asarray(signs, dtype=np.float32).reshape(square)
    xh = np.matmul(x, _sylvester(n - k1), out=None if work is None else work.reshape(square))
    w = np.matmul(_sylvester(k1), xh, out=None if out is None else out.reshape(square))
    return w.reshape(shape)


# float32 values per batch of product_spectra, counting every part: its
# buffers stay in cache
BATCH_VALUES = 1 << 18


def product_spectra(n_rows: int, length: int, real: bool, pairs) -> Iterator[np.ndarray]:
    """Walsh spectra (natural bit order) of x conj(y) for rows 0..n_rows - 1,
    in order, about BATCH_VALUES float32 values at a time.

    pairs(start, rows) returns (Re x, Im x, Re y, Im y) of the next rows as
    int8 arrays or ints broadcasting to (rows, length), x and y being 0 or
    units; when real, the imaginary parts are not read and may be None.  A
    batch, shaped (rows, parts, length), holds the spectra of Re(x conj y)
    and, unless real, of Im(x conj y).  The next batch overwrites it, so a
    consumer may work in it and copies what it keeps.
    """
    parts = 1 if real else 2
    rows = max(1, min(n_rows, BATCH_VALUES // (parts * length)))
    # the products in int8, then the kernel's input, which the spectra
    # overwrite, and X H' in float32
    prod = np.empty((rows, parts, length), dtype=np.int8)
    x, work = (np.empty((rows, parts, length), dtype=np.float32) for _ in range(2))
    for start in range(0, n_rows, rows):
        r = min(rows, n_rows - start)
        xr, xi, yr, yi = pairs(start, r)
        v = prod[:r]
        np.multiply(xr, yr, out=v[:, 0])
        if not real:
            v[:, 0] += xi * yi
            np.multiply(xi, yr, out=v[:, 1])
            v[:, 1] -= xr * yi
        x[:r] = v
        yield _hadamard_rows(x[:r], out=x[:r], work=work[:r])


# values per counting step of count_values, which bounds its int64 temporaries
_COUNT_VALUES = 1 << 16


def count_values(counts: Counter, batch: np.ndarray, weight: np.ndarray,
                 cols=slice(None)) -> None:
    """Add weight[r] to counts[(a, b)] for each column in cols of row r of
    an integer-valued batch shaped (rows, parts, length), such as a
    ``product_spectra`` batch, where part 0 reads a and part 1 b (0 with
    one part); one integer weight per row.

    Rows are taken about _COUNT_VALUES values at a time, so no temporary
    grows with the batch.  One part is counted by one bincount over the
    range of a.  With two, a is replaced by the ranks of its distinct
    values, so the joint bincount has one cell per distinct a and per b in
    range: never one per pair of possible values.  Weights are summed in
    float64, exactly: a step adds at most 2^21 values (a row of GF(2^20) x
    GF(2)) and every caller's weight is below 2^26 (at most q d, d <= 20),
    so no cell passes 2^47.
    """
    width = batch[:1, 0, cols].shape[1]
    step = max(1, _COUNT_VALUES // width)
    for lo in range(0, len(batch), step):
        a = batch[lo : lo + step, 0, cols].astype(np.int64)
        a_min = int(a.min())
        a -= a_min
        values, b_min, span = range(a_min, a_min + int(a.max()) + 1), 0, 1
        if batch.shape[1] > 1:
            seen = np.bincount(a.ravel()) > 0
            values = (np.flatnonzero(seen) + a_min).tolist()
            b = batch[lo : lo + step, 1, cols].astype(np.int64)
            b_min = int(b.min())
            span = int(b.max()) - b_min + 1
            a = (np.cumsum(seen) - 1)[a] * span + (b - b_min)
        joint = np.bincount(a.ravel(), np.repeat(weight[lo : lo + step], width))
        for c in np.flatnonzero(joint).tolist():
            counts[(values[c // span], c % span + b_min)] += int(joint[c])


def _dual_permutation(domain: Domain) -> np.ndarray:
    """P with P[index(lam, nu)] = bit mask realizing <(lam,nu), .> as a bit dot."""
    d = domain.ctx.dual_index_table()
    if not domain.with_bit:
        return d
    half = domain.ctx.order
    return np.concatenate([d, d + half])


def char_bits(domain: Domain, duals=None, points=None) -> np.ndarray:
    """B[i, j] = tr(lam x1) + nu x2 as uint8 bits, for the dual point
    (lam, nu) at index duals[i] and the point (x1, x2) at index points[j]:
    the characters of the domain, with dual points indexed like spectra.
    duals and points default to every index; either may be a scalar, which
    drops its axis.  Each bit is the parity of the dual mask of (lam, nu)
    and (x1, x2), taken in the narrowest unsigned dtype that holds them.
    """
    dtype = np.min_scalar_type(domain.size - 1)
    masks = _dual_permutation(domain)
    masks = np.asarray(masks if duals is None else masks[duals], dtype=dtype)
    x = np.arange(domain.size, dtype=dtype) if points is None else np.asarray(points, dtype=dtype)
    return _parity(masks[..., None], x)


def walsh(f: BoolFun) -> WalshSpectrum:
    """Exact Walsh spectrum W(a) = sum_x (-1)^{f(x) + <a,x>}.

    The Hadamard product computes the spectrum for the plain bit inner
    product; the field inner product tr(lam*x) is obtained by the linear
    reindexing of the dual points given by the trace pairing.
    """
    w = _hadamard_rows(1 - 2 * f.table.astype(np.float32)).astype(np.int64)
    return WalshSpectrum(f.domain, w[_dual_permutation(f.domain)])


def walsh_many(signs: np.ndarray, out=None, work=None) -> np.ndarray:
    """Row-wise Walsh transform of a batch of rows (no dual reindex).

    Contract: every entry is -1, 0 or 1 and the rows have length 2^n with
    n <= 24.  The float32 result is exact only under this contract (see the
    module docstring); other lengths raise ValueError, other entries are
    not checked.  Only the value multiset is meaningful per row; use
    :func:`walsh` when dual indexing matters.  out and work, C-contiguous
    float32 arrays shaped like signs, take the spectra and the kernel's
    intermediate in place of new arrays; out may be signs itself, so the
    spectra overwrite the rows.
    """
    return _hadamard_rows(signs, out, work)


def classify_values(values: np.ndarray, n_vars: int) -> WalshClass:
    a = np.abs(values)
    if n_vars % 2 == 0 and bool(np.all(a == 1 << (n_vars // 2))):
        return WalshClass.BENT
    if n_vars % 2 == 1:
        peak = 1 << ((n_vars + 1) // 2)
        if bool(np.all((a == 0) | (a == peak))):
            return WalshClass.SEMI_BENT
    return WalshClass.NEITHER


def classify(spec: WalshSpectrum) -> WalshClass:
    return classify_values(spec.values, spec.domain.n_vars)


def orbit_gather(domain: Domain, table: np.ndarray):
    """rows(c, eps=0) -> the uint8 table f read at (c x1, x2 + eps_c)
    (field-times-bit domain) or at c x (plain field, eps = 0), one row per
    entry of the 1-D integer array c; eps is one bit or one bit per scalar.
    f is any uint8 table over the domain: a truth table, or keys of the
    entries of a codebook block.

    The rows are read from f in log order: f(c x) = F[log c + log x] for
    nonzero c and x, where F[k] = f(beta^k) over the doubled antilog table.
    So the rows of c are the windows of F that start at log c, copied whole,
    and one column permutation x -> log x puts every row in index order;
    x = 0 and c = 0 read f(0).  F is built here, once per f, so a scan
    that gathers rows batch by batch shares it.
    """
    ctx = domain.ctx
    q = ctx.order
    antilog, log = ctx.log_window_tables()
    halves = domain.size // q  # x2 = 0 and x2 = 1, or the field alone
    width = len(antilog)
    ordered = table.reshape(halves, q).take(antilog, axis=1)  # row x2: F of that half
    # windows[s] = ordered.flat[s : s + q - 1], a view: row s starts one byte after row s - 1
    windows = np.ndarray((ordered.size - q + 2, q - 1), np.uint8, ordered, strides=(1, 1))
    at_zero = table[::q]  # f(0, x2) by x2

    def rows(c: np.ndarray, eps=0) -> np.ndarray:
        # src[..., x2] is the half that x2 + eps reads, for each scalar or for all
        src = np.arange(halves) ^ (np.asarray(eps)[..., None] & 1)
        start = src * width + np.maximum(ctx.discrete_logs(c), 0)[:, None]
        out = np.empty((len(c), halves, q), dtype=np.uint8)
        # every index is in range; "clip" lets take write straight into out
        np.take(windows[start.ravel()], log, axis=1, out=out.reshape(-1, q), mode="clip")
        out[..., 0] = at_zero[src]
        if not c.all():
            zero = c == 0
            out[zero] = out[zero, :, :1]
        return out.reshape(len(c), domain.size)

    return rows


def orbit_tables(f: BoolFun, scalars, eps=0) -> np.ndarray:
    """uint8 truth tables of f(c x1, x2 + eps_c) (field-times-bit domain) or
    f(c x) (plain field, eps = 0) for each scalar c, shaped like ``scalars``
    plus a last axis over the domain; eps is one bit or one bit per scalar.
    The rows are log-order windows of f (see orbit_gather).
    """
    if not f.domain.with_bit and np.any(eps):
        raise ValueError("eps needs a field-times-bit domain")
    c = np.asarray(scalars)
    eps = np.asarray(eps)
    if eps.ndim:
        eps = eps.reshape(c.shape).ravel()
    return orbit_gather(f.domain, f.table)(c.ravel(), eps).reshape(c.shape + (f.domain.size,))


def scale_compose(f: BoolFun, a: int, eps: int = 0) -> BoolFun:
    """The function (x1, x2) -> f(a*x1, x2 + eps) on a field-times-bit domain."""
    if not f.domain.with_bit:
        raise ValueError("scale_compose needs a field-times-bit domain")
    return BoolFun(f.domain, orbit_tables(f, a, eps))


def scale_field(f: BoolFun, a: int) -> BoolFun:
    """The function x -> f(a*x) on a plain field domain."""
    if f.domain.with_bit:
        raise ValueError("scale_field needs a plain field domain")
    return BoolFun(f.domain, orbit_tables(f, a))


def xor(f: BoolFun, g: BoolFun) -> BoolFun:
    if f.domain != g.domain:
        raise ValueError("domain mismatch in xor")
    return BoolFun(f.domain, f.table ^ g.table)


def restrict(f: BoolFun, eps: int) -> BoolFun:
    """Fix x2 = eps, yielding a function on the field part alone."""
    if not f.domain.with_bit:
        raise ValueError("restrict needs a field-times-bit domain")
    half = f.domain.ctx.order
    dom = Domain(f.domain.ctx)
    return BoolFun(dom, f.table[eps * half : (eps + 1) * half].copy())
