"""Sequence families from certified functions and their exact correlation
distributions.

Three families are built:

* a quaternary family of size 2^{m-1}+1 and period 2^{m-1}-1 from a cyclic
  bent function (values in {1, i, -1, -i} plus one binary member),
* a binary family of size 2^{m-1} and period 2(2^{m-1}-1) from a cyclic bent
  function whose x2-difference is tr(x1) (even/odd interleave with a
  half-period offset on the odd samples),
* a binary family of size 2^n+1 and period 2^n-1 from a cyclic semi-bent
  function.

Sequence values are Gaussian integers held as separate re/im integer
vectors; correlations are exact integer sums.  The closed-form correlation
distributions are available as expected_* functions so measured histograms
can be checked against them.

beta is always the context generator (the class of x of the default
modulus): distributions are independent of the choice of primitive element,
raw sequences are not, and fixing beta makes exports reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from cyclicbent import boolfun as bf
from cyclicbent import construct as cn
from cyclicbent.boolfun import BoolFun


@dataclass(frozen=True)
class Member:
    label: str
    re: np.ndarray  # int8
    im: np.ndarray  # int8


@dataclass
class SequenceFamily:
    alphabet: str  # "quaternary" | "binary"
    period: int
    members: list[Member] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.members)

    def write_csv(self, path: str) -> None:
        """One row per sequence: label, then symbols in {1, i, -1, -i} / {1, -1}."""
        names = {(1, 0): "1", (-1, 0): "-1", (0, 1): "i", (0, -1): "-i"}
        with open(path, "w") as fh:
            for mem in self.members:
                syms = [names[(int(a), int(b))] for a, b in zip(mem.re, mem.im)]
                fh.write(",".join([mem.label] + syms) + "\n")


@dataclass
class CorrDist:
    """Histogram of exact correlation values over all (member, member, shift).

    r_max_sq is the squared maximum |R| off each member's own zero-shift
    peak; it is not part of the JSON form or of equality.
    """

    counts: dict[tuple[int, int], int]
    total: int
    r_max_sq: int

    def to_json(self) -> str:
        rows = [
            {"value": format_gaussian(v), "count": c}
            for v, c in sorted(self.counts.items())
        ]
        return json.dumps({"total": self.total, "distribution": rows})

    def __eq__(self, other):
        if isinstance(other, dict):
            return self.counts == other
        return isinstance(other, CorrDist) and self.counts == other.counts


def format_gaussian(v: tuple[int, int]) -> str:
    a, b = v
    if b == 0:
        return str(a)
    return f"{a}{b:+d}i"


def _check_normalized(f: BoolFun):
    if not cn.is_normalized(f):
        raise ValueError(
            "family needs f(0,0) = f(0,1) = 0; apply normalize_zero first"
        )


def quaternary_family(
    f: BoolFun, cert: cn.CyclicCertificate | None = None
) -> SequenceFamily:
    """U_f: s_lam(t) = A(1, beta^t) (-1)^{tr(lam beta^t)} plus the binary s_inf.

    Size 2^{m-1}+1, period 2^{m-1}-1; every s_lam value is a unit Gaussian
    integer.  Requires f cyclic bent and normalized.
    """
    _check_normalized(f)
    cn.require_cyclic_bent(f, cert)
    ctx = f.domain.ctx
    q = ctx.order
    period = q - 1
    from cyclicbent.codebook import quaternary_entry_arrays

    are, aim = quaternary_entry_arrays(f, 1)
    powers = ctx.generator_powers(np.arange(period))
    s = 1 - 2 * ctx.trace_pairing()[:, powers].astype(np.int8)  # row lam
    re, im = are[powers] * s, aim[powers] * s
    members = [Member(str(lam), re[lam], im[lam]) for lam in range(q)]
    s_inf = (1 - 2 * ctx.trace_table(1)[powers]).astype(np.int8)
    members.append(Member("inf", s_inf, np.zeros(period, dtype=np.int8)))
    return SequenceFamily("quaternary", period, members)


def binary_family(f: BoolFun, cert: cn.CyclicCertificate | None = None) -> SequenceFamily:
    """U_f^b: even/odd interleaved binary sequences of period 2(2^{m-1}-1).

    s(2 t0)     = (-1)^{f(beta^{t0}, 0) + tr(lam beta^{t0})}
    s(2 t0 + 1) = (-1)^{f(beta^{t0 + 2^{m-2}}, 1) + tr(lam beta^{t0 + 2^{m-2}}) + nu}

    indexed by nu in GF(2) and lam with tr(lam) = 0.  Requires f cyclic bent,
    normalized, and f(x1,0) + f(x1,1) = tr(x1) (checked).
    """
    _check_normalized(f)
    if cn.affine_bit_difference(f) != (1, 0):
        raise ValueError("binary family needs f(x1,0)+f(x1,1) = tr(x1)")
    cn.require_cyclic_bent(f, cert)
    ctx = f.domain.ctx
    q = ctx.order
    m = f.n_vars
    half_period = q - 1
    period = 2 * half_period
    offset = 1 << (m - 2)  # beta^{2^{m-2}} shift on the odd samples
    powers = ctx.generator_powers(np.arange(half_period))
    powers_off = ctx.generator_powers(np.arange(half_period) + offset)
    lams = np.flatnonzero(ctx.trace_table(1) == 0)
    pairing = ctx.trace_pairing()[lams]
    bits = np.empty((2, len(lams), period), dtype=np.int8)  # [nu, lam, t]
    bits[:, :, 0::2] = f.table[:q][powers] ^ pairing[:, powers]
    bits[:, :, 1::2] = f.table[q:][powers_off] ^ pairing[:, powers_off]
    bits[1, :, 1::2] ^= 1
    vals = 1 - 2 * bits
    members = [
        Member(f"{lam},{nu}", vals[nu, i], np.zeros(period, dtype=np.int8))
        for nu in (0, 1)
        for i, lam in enumerate(lams)
    ]
    return SequenceFamily("binary", period, members)


def semibent_family(g: BoolFun, cert: cn.CyclicCertificate | None = None) -> SequenceFamily:
    """U'_g: s_lam(t) = (-1)^{g(beta^t) + tr(lam beta^t)} plus the m-sequence s_inf.

    Size 2^n+1, period 2^n-1.  Requires g cyclic semi-bent with g(0) = 0.
    """
    if int(g.table[0]) != 0:
        raise ValueError("family needs g(0) = 0")
    cn.require_cyclic_semibent(g, cert)
    ctx = g.domain.ctx
    q = ctx.order
    period = q - 1
    powers = ctx.generator_powers(np.arange(period))
    vals = 1 - 2 * (g.table[powers] ^ ctx.trace_pairing()[:, powers]).astype(np.int8)
    members = [
        Member(str(lam), vals[lam], np.zeros(period, dtype=np.int8)) for lam in range(q)
    ]
    s_inf = (1 - 2 * ctx.trace_table(1)[powers]).astype(np.int8)
    members.append(Member("inf", s_inf, np.zeros(period, dtype=np.int8)))
    return SequenceFamily("binary", period, members)


def correlate(s: Member, s2: Member, tau: int) -> tuple[int, int]:
    """R_{s,s2}(tau) = sum_t s(t+tau) conj(s2(t)), exact Gaussian integer."""
    k = len(s.re)
    if len(s2.re) != k:
        raise ValueError("periods differ")
    if not 0 <= tau < k:
        raise ValueError("shift out of range")
    r1 = np.roll(s.re.astype(np.int64), -tau)
    i1 = np.roll(s.im.astype(np.int64), -tau)
    r2 = s2.re.astype(np.int64)
    i2 = s2.im.astype(np.int64)
    return int(r1 @ r2 + i1 @ i2), int(i1 @ r2 - r1 @ i2)


def _scan(fam: SequenceFamily) -> CorrDist:
    """Every R_{i,j}(tau) in one pass of exact int64 matrix products.

    For member i, the k x k stack of its shifts (row tau is s_i(t + tau)) is
    multiplied by the stacked conjugates of all members, giving R_{i,j}(tau)
    for every j and tau at once.  The symbols are units, so |re|, |im| <= k
    and the offset key (re + k)(2k + 1) + (im + k) indexes a bincount.
    """
    k, size = fam.period, fam.size
    re = np.array([mem.re for mem in fam.members], dtype=np.int64).reshape(size, k)
    im = np.array([mem.im for mem in fam.members], dtype=np.int64).reshape(size, k)
    if np.any(re * re + im * im != 1):
        raise ValueError("sequence symbols must be 1, i, -1 or -i")
    t = np.arange(k)
    idx = (t[None, :] + t[:, None]) % k  # idx[tau, t] = t + tau
    shifts_idx = np.concatenate([idx, idx + k], axis=1)
    rows = np.concatenate([re, im], axis=1)
    # [a b] @ [[c, -d], [d, c]] = [ac + bd, bc - ad]: (a + bi) conj(c + di)
    conj = np.block([[re.T, -im.T], [im.T, re.T]])
    width = 2 * k + 1
    hist = np.zeros(width * width, dtype=np.int64)
    peak = 0
    for i in range(size):
        # einsum's integer loop beats matmul's by about a third here
        prod = np.einsum("tu,uj->tj", rows[i][shifts_idx], conj)
        cre, cim = prod[:, :size], prod[:, size:]
        hist += np.bincount(((cre + k) * width + (cim + k)).ravel(), minlength=width * width)
        mag = cre * cre + cim * cim
        mag[0, i] = 0  # each member's own zero-shift peak is trivial
        peak = max(peak, int(mag.max()))
    total = size * size * k
    if int(hist.sum()) != total:
        raise RuntimeError(f"correlation scan counted {int(hist.sum())} values, not {total}")
    counts = {
        (int(key) // width - k, int(key) % width - k): int(hist[key])
        for key in np.flatnonzero(hist)
    }
    return CorrDist(counts, total, peak)


def full_distribution(fam: SequenceFamily) -> CorrDist:
    """Exact histogram over all ordered member pairs and all shifts, with the
    squared maximum correlation magnitude in ``r_max_sq``."""
    return _scan(fam)


def r_max_sq(fam: SequenceFamily) -> int:
    """Exact squared maximum correlation magnitude, excluding each member's
    own zero-shift peak."""
    return full_distribution(fam).r_max_sq


# -- closed-form distributions -------------------------------------------------------


def expected_quaternary_distribution(m: int) -> dict[tuple[int, int], int]:
    """Closed-form correlation distribution of the quaternary family."""
    h = 1 << (m - 1)
    r = 1 << ((m - 2) // 2)
    big = (1 << (2 * m - 2)) - 2
    plus = (1 << (m - 3)) + (1 << ((m - 4) // 2))
    minus = (1 << (m - 3)) - (1 << ((m - 4) // 2))
    return {
        (h - 1, 0): h + 1,
        (-1, 0): big,
        (-1 + r, r): big * plus,
        (-1 + r, -r): big * plus,
        (-1 - r, r): big * minus,
        (-1 - r, -r): big * minus,
    }


def expected_binary_distribution(m: int) -> dict[tuple[int, int], int]:
    """Closed-form correlation distribution of the interleaved binary family.

    Rows are accumulated because at m = 4 the values 2^{m/2} +- 2 coincide
    with the standalone +-2 rows.
    """
    h = 1 << (m - 1)
    peak = 2 * (h - 1)
    r = 1 << (m // 2)
    plus = (1 << (m - 3)) + (1 << ((m - 4) // 2))
    minus = (1 << (m - 3)) - (1 << ((m - 4) // 2))
    q2 = 1 << (m - 2)
    rows = [
        (peak, h),
        (-2, h * (3 * (1 << (m - 3)) - 1)),
        (0, 1 << (2 * m - 2)),
        (2, 1 << (2 * m - 4)),
        (r - 2, 3 * q2 * (h - 2) * plus),
        (r, (1 << (2 * m - 3)) * (h - 2)),
        (r + 2, q2 * (h - 2) * minus),
        (-r - 2, 3 * q2 * (h - 2) * minus),
        (-r, (1 << (2 * m - 3)) * (h - 2)),
        (-r + 2, q2 * (h - 2) * plus),
    ]
    out: dict[tuple[int, int], int] = {}
    for v, c in rows:
        out[(v, 0)] = out.get((v, 0), 0) + c
    return out


def expected_semibent_distribution(n: int) -> dict[tuple[int, int], int]:
    """Closed-form correlation distribution of the semi-bent binary family."""
    q = 1 << n
    r = 1 << ((n + 1) // 2)
    plus = (1 << (n - 2)) + (1 << ((n - 3) // 2))
    minus = (1 << (n - 2)) - (1 << ((n - 3) // 2))
    return {
        (q - 1, 0): q + 1,
        (-1, 0): 2 * q * (q - 1) + (q - 2) * ((1 << (2 * n - 1)) + 1),
        (r - 1, 0): ((1 << (2 * n)) - 2) * plus,
        (-r - 1, 0): ((1 << (2 * n)) - 2) * minus,
    }


def expected_semibent_walsh_distribution(n: int) -> dict[int, int]:
    """Walsh value histogram of a semi-bent g with g(0) = 0."""
    r = 1 << ((n + 1) // 2)
    return {
        0: 1 << (n - 1),
        r: (1 << (n - 2)) + (1 << ((n - 3) // 2)),
        -r: (1 << (n - 2)) - (1 << ((n - 3) // 2)),
    }
