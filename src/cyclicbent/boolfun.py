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
exact for rows with entries in {-1, 0, 1}: sign rows, and the real and
imaginary parts of a product of two unit Gaussian-integer vectors.  The
matrix entries are +-1, so every partial sum of both products is an integer
of size at most 2^n, and float32 holds every such integer exactly while
n <= 24 (MAX_WALSH_VARS; a function on GF(2^24) x GF(2) is past it).  Summation order and fused multiply-adds therefore cannot
change any value.  ``walsh`` returns the spectrum as 64-bit signed
integers; classification is exact membership, no tolerances.
"""

from __future__ import annotations

import json
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

    def value_at(self, lam: int, nu: int = 0) -> int:
        return int(self.values[self.domain.index(lam, nu)])

    def distribution(self) -> dict[int, int]:
        vals, counts = np.unique(self.values, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}


def from_field_bit_fn(ctx: GF2m, fn) -> BoolFun:
    """Build a BoolFun on GF(2^d) x GF(2) from a callable fn(x1, x2) -> bit."""
    dom = Domain(ctx, with_bit=True)
    table = np.zeros(dom.size, dtype=np.uint8)
    for x2 in (0, 1):
        for x1 in range(ctx.order):
            table[dom.index(x1, x2)] = fn(x1, x2) & 1
    return BoolFun(dom, table)


def from_field_fn(ctx: GF2m, fn) -> BoolFun:
    dom = Domain(ctx)
    return BoolFun(dom, np.array([fn(x) & 1 for x in range(ctx.order)], dtype=np.uint8))


@cache
def _sylvester(k: int) -> np.ndarray:
    """H_{2^k}[i, j] = (-1)^{popcount(i & j)} as a read-only float32 matrix."""
    i = np.arange(1 << k)
    h = 1 - 2 * (np.bitwise_count(i[:, None] & i[None, :]) & 1).astype(np.float32)
    h.setflags(write=False)
    return h


def _hadamard_rows(signs) -> np.ndarray:
    """Walsh spectra (natural bit order) of the rows along the last axis, as
    float32: each row, read as a 2^{k1} x 2^{k2} matrix X, maps to
    H_{2^{k1}} X H_{2^{k2}}.  Exact for rows of length 2^n, n <= 24, with
    entries in {-1, 0, 1}.
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
    x = np.asarray(signs, dtype=np.float32).reshape(shape[:-1] + (1 << k1, size >> k1))
    return np.matmul(_sylvester(k1), x @ _sylvester(n - k1)).reshape(shape)


def _dual_permutation(domain: Domain) -> np.ndarray:
    """P with P[index(lam, nu)] = bit mask realizing <(lam,nu), .> as a bit dot."""
    d = domain.ctx.dual_index_table()
    if not domain.with_bit:
        return d
    half = domain.ctx.order
    return np.concatenate([d, d + half])


def char_bits(domain: Domain) -> np.ndarray:
    """B[index(lam, nu), index(x1, x2)] = tr(lam x1) + nu x2 as uint8 bits:
    the characters of the domain, with dual points indexed like spectra."""
    t = domain.ctx.trace_pairing()
    if not domain.with_bit:
        return t
    # nu = x2 = 1 is the one block where nu x2 flips the bit
    return np.block([[t, t], [t, t ^ 1]])


def walsh(f: BoolFun) -> WalshSpectrum:
    """Exact Walsh spectrum W(a) = sum_x (-1)^{f(x) + <a,x>}.

    The Hadamard product computes the spectrum for the plain bit inner
    product; the field inner product tr(lam*x) is obtained by the linear
    reindexing of the dual points given by the trace pairing.
    """
    w = _hadamard_rows(1 - 2 * f.table.astype(np.float32)).astype(np.int64)
    return WalshSpectrum(f.domain, w[_dual_permutation(f.domain)])


def walsh_many(signs: np.ndarray) -> np.ndarray:
    """Row-wise Walsh transform of a batch of rows (no dual reindex).

    Contract: every entry is -1, 0 or 1 and the rows have length 2^n with
    n <= 24.  The float32 result is exact only under this contract (see the
    module docstring); other lengths raise ValueError, other entries are
    not checked.  Only the value multiset is meaningful per row; use
    :func:`walsh` when dual indexing matters.
    """
    return _hadamard_rows(signs)


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


def is_bent(f: BoolFun) -> bool:
    return classify(walsh(f)) is WalshClass.BENT


def is_semibent(f: BoolFun) -> bool:
    return classify(walsh(f)) is WalshClass.SEMI_BENT


def orbit_tables(f: BoolFun, scalars, eps=0) -> np.ndarray:
    """uint8 truth tables of f(c x1, x2 + eps_c) (field-times-bit domain) or
    f(c x) (plain field, eps = 0) for each scalar c, shaped like ``scalars``
    plus a last axis over the domain; eps is one bit or one bit per scalar.
    Rows are gathered one scalar at a time, so temporaries stay O(2^n).
    """
    if not f.domain.with_bit and np.any(eps):
        raise ValueError("eps needs a field-times-bit domain")
    ctx = f.domain.ctx
    c = np.asarray(scalars)
    halves = f.domain.size // ctx.order  # x2 = 0 and x2 = 1, or the field alone
    # offset[..., x2] is the index where the half that x2 + eps_c reads starts
    offset = ctx.order * (np.arange(halves) ^ (np.asarray(eps)[..., None] & 1))
    offset = np.broadcast_to(offset, c.shape + (halves,))
    out = np.empty(c.shape + (halves, ctx.order), dtype=np.uint8)
    for i in np.ndindex(c.shape):
        out[i] = f.table[offset[i][:, None] + ctx.mul_table(int(c[i]))]
    return out.reshape(c.shape + (f.domain.size,))


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


def xor_const(f: BoolFun, c: int) -> BoolFun:
    return BoolFun(f.domain, f.table ^ (c & 1))


def restrict(f: BoolFun, eps: int) -> BoolFun:
    """Fix x2 = eps, yielding a function on the field part alone."""
    if not f.domain.with_bit:
        raise ValueError("restrict needs a field-times-bit domain")
    half = f.domain.ctx.order
    dom = Domain(f.domain.ctx)
    return BoolFun(dom, f.table[eps * half : (eps + 1) * half].copy())
