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
vectors; correlations are exact integers.  Each family is its first member
s_0 times characters: s_lam(t) = s_0(t) chi_lam(y_t), where t -> y_t is a
bijection of the shifts onto the nonzero points of the field (or of the
field times GF(2) for the interleaved family) and a shift by tau multiplies
y_t by a field element c.  So every correlation between character members
is one Walsh value of the shift product V_tau(t) = s_0(t + tau) conj(s_0(t))
placed at y_t, at the dual point lam c + lam'.  Each builder certifies its
function, builds its members, checks once that they have this layout, and
attaches the exact histogram (CorrDist) from one ``bf.product_spectra`` scan
of the stored first member: a kernel row per shift and part, plus one per
part for s_0 itself, in place of S^2 k^2 products.  The direct
scan over all member pairs and shifts (``_scan``) remains for hand-built
families and as the oracle.  The closed-form correlation distributions are
available as expected_* functions so measured histograms can be checked
against them.

beta is always the context generator (the class of x of the default
modulus): distributions are independent of the choice of primitive element,
raw sequences are not, and fixing beta makes exports reproducible.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from cyclicbent import boolfun as bf
from cyclicbent import construct as cn
from cyclicbent.boolfun import BoolFun
from cyclicbent.codebook import quaternary_entry_arrays


@dataclass(frozen=True)
class Member:
    label: str
    re: np.ndarray  # int8
    im: np.ndarray  # int8


@dataclass
class SequenceFamily:
    """alphabet is "quaternary" or "binary".  dist is the distribution the
    builders read off the stored members; full_distribution scans the
    members when it is None (a hand-built family)."""

    alphabet: str
    period: int
    members: list[Member] = field(default_factory=list)
    dist: CorrDist | None = field(default=None, repr=False, compare=False)

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


def _characters(domain: bf.Domain, duals: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """int8 (-1)^{<dual, y_t>}, one row per dual point in duals (spectrum
    indices) and one column per sample t, whose domain point y_t is at pos[t]."""
    return 1 - 2 * np.take(bf.char_bits(domain)[duals], pos, axis=1).astype(np.int8)


def _field_layout(ctx) -> tuple[np.ndarray, np.ndarray]:
    """Positions y_t = beta^t (field indices) for t < q - 1, and the
    characters chi_lam(beta^t), one row per lam."""
    pos = ctx.generator_powers(np.arange(ctx.order - 1))
    return pos, _characters(bf.Domain(ctx), np.arange(ctx.order), pos)


def quaternary_family(f: BoolFun) -> SequenceFamily:
    """U_f: s_lam(t) = A(1, beta^t) (-1)^{tr(lam beta^t)} plus the binary s_inf.

    Size 2^{m-1}+1, period 2^{m-1}-1; every s_lam value is a unit Gaussian
    integer.  Requires f cyclic bent and normalized.
    """
    _check_normalized(f)
    cn.require_cyclic_bent(f)
    q = f.domain.ctx.order
    pos, chars = _field_layout(f.domain.ctx)
    are, aim = quaternary_entry_arrays(f, 1)
    re, im = are[pos] * chars, aim[pos] * chars
    members = [Member(str(lam), re[lam], im[lam]) for lam in range(q)]
    members.append(Member("inf", chars[1], np.zeros(q - 1, dtype=np.int8)))
    fam = SequenceFamily("quaternary", q - 1, members)
    fam.dist = _field_dist(fam, pos, chars)
    return fam


def binary_family(f: BoolFun) -> SequenceFamily:
    """U_f^b: even/odd interleaved binary sequences of period 2(2^{m-1}-1).

    s(2 t0)     = (-1)^{f(beta^{t0}, 0) + tr(lam beta^{t0})}
    s(2 t0 + 1) = (-1)^{f(beta^{t0 + 2^{m-2}}, 1) + tr(lam beta^{t0 + 2^{m-2}}) + nu}

    indexed by nu in GF(2) and lam with tr(lam) = 0.  Requires f cyclic bent,
    normalized, and f(x1,0) + f(x1,1) = tr(x1) (checked).
    """
    _check_normalized(f)
    if cn.affine_bit_difference(f) != (1, 0):
        raise ValueError("binary family needs f(x1,0)+f(x1,1) = tr(x1)")
    cn.require_cyclic_bent(f)
    ctx = f.domain.ctx
    q = ctx.order
    period = 2 * (q - 1)
    # sample t sits at (x_t, b_t) = (beta^{t 2^{-1}}, t mod 2), where
    # 2^{-1} = 2^{m-2} mod q - 1 is the half-period offset of the odd samples
    t = np.arange(period)
    x = ctx.generator_powers(t * (q // 2))
    pos = (t % 2) * q + x
    lams = np.flatnonzero(ctx.trace_table(1) == 0)
    chars = _characters(f.domain, np.concatenate([lams, q + lams]), pos)  # (lam, nu), nu-major
    vals = (1 - 2 * f.table[pos].astype(np.int8)) * chars
    labels = [f"{lam},{nu}" for nu in (0, 1) for lam in lams]
    zeros = np.zeros(period, dtype=np.int8)
    members = [Member(label, v, zeros) for label, v in zip(labels, vals)]
    fam = SequenceFamily("binary", period, members)
    fam.dist = _interleaved_dist(fam, pos, chars)
    return fam


def semibent_family(g: BoolFun) -> SequenceFamily:
    """U'_g: s_lam(t) = (-1)^{g(beta^t) + tr(lam beta^t)} plus the m-sequence s_inf.

    Size 2^n+1, period 2^n-1.  Requires n >= 3 and g cyclic semi-bent with
    g(0) = 0.
    """
    if g.n_vars < 3:
        raise ValueError(f"semi-bent families need n >= 3, got n = {g.n_vars}")
    if int(g.table[0]) != 0:
        raise ValueError("family needs g(0) = 0")
    cn.require_cyclic_semibent(g)
    q = g.domain.ctx.order
    pos, chars = _field_layout(g.domain.ctx)
    vals = (1 - 2 * g.table[pos].astype(np.int8)) * chars
    zeros = np.zeros(q - 1, dtype=np.int8)
    members = [Member(str(lam), vals[lam], zeros) for lam in range(q)]
    members.append(Member("inf", chars[1], zeros))
    fam = SequenceFamily("binary", q - 1, members)
    fam.dist = _field_dist(fam, pos, chars)
    return fam


# -- distributions from the stored members -------------------------------------------

# values per counting step of _count, which bounds its int64 temporaries
_COUNT_VALUES = 1 << 16


def _check_layout(fam: SequenceFamily, chars: np.ndarray, inf: np.ndarray | None) -> None:
    """Raise ValueError unless the first member has unit symbols, member j
    is the first member times chars[j] for each row j (compared about
    bf.BATCH_VALUES values at a time, so no temporary grows with the
    period), and (when inf is given) one more member follows, the real
    sequence inf."""
    s, body = fam.members[0], fam.members[: len(chars)]
    step = max(1, bf.BATCH_VALUES // len(s.re))
    if not (np.all(np.abs(s.re) + np.abs(s.im) == 1)
            and len(fam.members) == len(chars) + (inf is not None)
            and all(np.array_equal(np.array([getattr(mem, part) for mem in body[lo : lo + step]]),
                                   getattr(s, part) * chars[lo : lo + step])
                    for lo in range(0, len(chars), step) for part in ("re", "im"))):
        raise ValueError("members must be the first member, of unit symbols, times their characters")
    if inf is not None and not (np.array_equal(fam.members[-1].re, inf)
                                and not fam.members[-1].im.any()):
        raise ValueError("the last member must be the m-sequence chi_1(beta^t)")


def _placed(s: Member, pos: np.ndarray, n: int) -> np.ndarray:
    """int8 (2, n): the real and imaginary parts of s, s[t] at pos[t], 0 elsewhere."""
    out = np.zeros((2, n), dtype=np.int8)
    out[:, pos] = s.re, s.im
    return out


def _shift_spectra(s: Member, pos: np.ndarray, n: int, real: bool, taus: np.ndarray):
    """``bf.product_spectra`` batches (shifts, parts, n) of the shift products
    V_tau(t) = s(t + tau) conj(s(t)), tau in taus, with V_tau(t) at pos[t]."""
    k = len(s.re)
    y = _placed(s, pos, n)
    at = np.zeros(n, dtype=np.intp)
    at[pos] = np.arange(k)  # the sample at each position; any where s is not placed
    # win[:, tau, t] = (Re, Im) s(t + tau), a view
    win = sliding_window_view(np.tile(np.stack([s.re, s.im]), 2), k, axis=1)

    def pairs(start, rows):
        tau = taus[start : start + rows]
        return win[0, tau][:, at], None if real else win[1, tau][:, at], *y

    return bf.product_spectra(len(taus), n, real, pairs)


def _count(counts: Counter, weight: int, re: np.ndarray, im: np.ndarray | None = None) -> None:
    """Add weight to counts[(a, b)] for each index at which re reads a and
    im (0 when None) reads b: integer-valued arrays of one 2-D shape.

    Rows are taken about _COUNT_VALUES values at a time, so no int64
    temporary grows with the kernel batch.  Within them re is replaced by
    the ranks of its distinct values, so the joint bincount has one cell per
    distinct a and per b in range: never one per pair of possible values.
    """
    step = max(1, _COUNT_VALUES // re.shape[1])
    for lo in range(0, len(re), step):
        a = re[lo : lo + step].astype(np.int64).ravel()
        b = 0 if im is None else im[lo : lo + step].astype(np.int64).ravel()
        a_min, b_min = int(a.min()), int(np.min(b))
        span = int(np.max(b)) - b_min + 1
        seen = np.bincount(a - a_min) > 0
        joint = np.bincount((np.cumsum(seen) - 1)[a - a_min] * span + (b - b_min))
        values = np.flatnonzero(seen) + a_min
        for cell in np.flatnonzero(joint).tolist():
            counts[(int(values[cell // span]), cell % span + b_min)] += weight * int(joint[cell])


def _corr_dist(counts: Counter, size: int, period: int) -> CorrDist:
    """The histogram, checked to count every (member, member, shift) once,
    with r_max_sq taken off the size own zero-shift peaks (value period)."""
    total = size * size * period
    counts = {v: n for v, n in counts.items() if n}
    if sum(counts.values()) != total:
        raise RuntimeError(f"shift-product scan counted {sum(counts.values())} values, not {total}")
    off_peak = dict(counts)
    off_peak[(period, 0)] = off_peak.get((period, 0), 0) - size
    r_max = max((a * a + b * b for (a, b), n in off_peak.items() if n), default=0)
    return CorrDist(counts, total, r_max)


def _field_dist(fam: SequenceFamily, pos: np.ndarray, chars: np.ndarray) -> CorrDist:
    """The quaternary and semi-bent families: s_lam = s_0 chi_lam(beta^t) for
    lam over the field, then inf = chi_1(beta^t).

    R_{lam,lam'}(tau) = W(V_tau)(lam beta^tau + lam'), and at each shift
    the dual point runs over the field q times as (lam, lam') does: q per
    dual point of the k shift spectra.  lam against inf is
    W(s_0)(lam + beta^{-tau}) and inf against lam its conjugate, so k
    copies of W(s_0) and of its conjugate.  inf against itself is the
    autocorrelation of the stored row.
    """
    _check_layout(fam, chars, chars[1])
    k, s, inf = fam.period, fam.members[0], fam.members[-1].re
    q = k + 1
    real = fam.alphabet != "quaternary"
    counts = Counter()
    for w in _shift_spectra(s, pos, q, real, np.arange(k)):
        _count(counts, q, *w.swapaxes(0, 1))
    # s_0 itself is s_0 conj(1), placed the same way
    (own,) = bf.product_spectra(1, q, real, lambda start, rows: (*_placed(s, pos, q), 1, 0))
    _count(counts, k, *own.swapaxes(0, 1))
    own[:, 1:] *= -1  # the conjugate
    _count(counts, k, *own.swapaxes(0, 1))
    wins = sliding_window_view(np.concatenate([inf, inf]).astype(np.int32), k)[:k]
    for v, n in zip(*np.unique(wins @ inf.astype(np.int32), return_counts=True)):
        counts[(int(v), 0)] += int(n)
    return _corr_dist(counts, fam.size, k)


def _interleaved_dist(fam: SequenceFamily, pos: np.ndarray, chars: np.ndarray) -> CorrDist:
    """The interleaved binary family: s_{lam,nu}(t) = s_{0,0}(t)
    (-1)^{tr(lam x_t) + nu b_t} for lam over the trace-0 hyperplane H and nu
    in GF(2), with (x_t, b_t) the point at pos[t].

    The shift tau takes (x_t, b_t) to (c x_t, b_t + tau), c = beta^{tau/2}
    (tau 2^{-1} mod q - 1), so R_{(lam,nu),(lam',nu')}(tau) =
    (-1)^{nu tau} W(V_tau)(lam c + lam', nu + nu').  For c != 1, lam c + lam'
    runs over the field q/4 times; for c = 1 (tau = 0 or q - 1) it runs over
    H, the even natural-order dual indices, q/2 times.  Each dual point
    (mu, e) is reached from nu = 0 and from nu = 1: twice with the same
    value at an even shift, and with each sign once at an odd shift.
    """
    _check_layout(fam, chars, None)
    k, s = fam.period // 2, fam.members[0]
    q = k + 1
    dist, odd = Counter(), Counter()
    # the hyperplane H is the even columns; even shifts count twice
    for taus, counts, cols, weight in ((np.array([0]), dist, slice(0, None, 2), q),
                                       (np.arange(2, 2 * k, 2), dist, slice(None), q // 2),
                                       (np.array([k]), odd, slice(0, None, 2), q // 2),
                                       (np.r_[1:k:2, k + 2 : 2 * k : 2], odd, slice(None), q // 4)):
        for w in _shift_spectra(s, pos, 2 * q, True, taus):
            _count(counts, weight, w[:, 0, cols])
    for (v, _), n in odd.items():
        dist[(v, 0)] += n
        dist[(-v, 0)] += n
    return _corr_dist(dist, fam.size, 2 * k)


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
    squared maximum correlation magnitude in ``r_max_sq``: the builder's
    spectral distribution when the family has one, else the direct scan."""
    if fam.dist is None:
        return _scan(fam)
    return CorrDist(dict(fam.dist.counts), fam.dist.total, fam.dist.r_max_sq)


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
