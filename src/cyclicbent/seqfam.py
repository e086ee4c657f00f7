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
vectors; correlations are exact integers.  Each family is one codebook
block read along a cyclic order: s_lam(t) = s_0(t) chi_lam(y_t), where
t -> y_t is a bijection of the shifts onto the nonzero points of the field
(or of the field times GF(2) for the interleaved family) and a shift by tau
multiplies y_t by a field element c.  A ``SequenceFamily`` stores its kind
and s_0 as a one-block ``Codebook``; the rest follows from the kind, and
the members are built only on demand (CSV output, the tests) as rows of
the block.  Every correlation between character members is one Walsh value
of the shift product V_tau(t) = s_0(t + tau) conj(s_0(t)) placed at y_t, at
the dual point lam c + lam', so ``full_distribution`` reads the exact
histogram (CorrDist) off one ``bf.product_spectra`` scan of the block, in
place of the S^2 k^2 products of the direct scan (``_scan``, the test
oracle).  The paper's functions are sums of traces, and tr(y^2) = tr(y), so
s_0(y^{2^k}) = s_0(y) for some k | d less than d; ``_shift_orbits`` finds
the least such k from the stored s_0, and the scan transforms one shift per
orbit of tau -> 2^k tau, weighted by the orbit size: a kernel row per
orbit and part, plus one per part for s_0 itself.  At k = d every shift is
its own orbit.  The closed-form distributions are the expected_* functions.

beta is always the context generator (the class of x of the default
modulus): distributions are independent of the choice of primitive element,
raw sequences are not, and fixing beta makes exports reproducible.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from cyclicbent import boolfun as bf
from cyclicbent import codebook as cbk
from cyclicbent import construct as cn
from cyclicbent import gf2
from cyclicbent.boolfun import BoolFun


@dataclass(frozen=True)
class Member:
    label: str
    re: np.ndarray  # int8
    im: np.ndarray  # int8


@dataclass
class SequenceFamily:
    """kind is "quaternary", "binary" (the interleaved family) or "semibent";
    block holds s_0 on the field of q points (the field times GF(2) for the
    binary kind).  Period q - 1 and size q + 1 (the q characters and inf),
    or 2(q - 1) and q for the binary kind."""

    kind: str
    block: cbk.Codebook

    @property
    def period(self) -> int:
        return self.block.length - (2 if self.kind == "binary" else 1)

    @property
    def size(self) -> int:
        return self.block.length // 2 if self.kind == "binary" else self.block.length + 1

    @cached_property
    def pos(self) -> np.ndarray:
        """The domain index of y_t for each sample t: beta^t, or (beta^{t/2},
        t mod 2) for the binary kind, 1/2 = 2^{m-2} mod q - 1 (half a period)."""
        ctx = self.block.domain.ctx
        t = np.arange(self.period)
        if self.kind != "binary":
            return ctx.generator_powers(t)
        return (t % 2) * ctx.order + ctx.generator_powers(t * (ctx.order // 2))

    @property
    def inf(self) -> np.ndarray:
        """The int8 m-sequence chi_1(beta^t), the last member of the field kinds."""
        return 1 - 2 * self.block.domain.ctx.trace_table(1)[self.pos].astype(np.int8)

    def _member_batches(self):
        """(labels, re, im) of the members, about bf.BATCH_VALUES symbols at a
        time: rows lam (for the binary kind (lam, nu) with tr(lam) = 0) of the
        block at the columns y_t, s_0(y_t) (-1)^{<lam, y_t>}, with the signs
        read from ``bf.char_bits``; then inf for the field kinds."""
        binary, dom = self.kind == "binary", self.block.domain
        q, duals = dom.ctx.order, np.arange(dom.ctx.order)
        if binary:
            lams = np.flatnonzero(dom.ctx.trace_table(1) == 0)
            duals = np.concatenate([lams, q + lams])
        labels = [f"{d % q},{d // q}" if binary else str(d) for d in duals.tolist()]
        re, im = self.block.re[0, self.pos], self.block.im[0, self.pos]
        real = not im.any()  # then every member shares the zero row im
        step = max(1, bf.BATCH_VALUES // self.period)
        for lo in range(0, len(duals), step):
            sign = 1 - 2 * bf.char_bits(dom, duals[lo : lo + step], self.pos).astype(np.int8)
            im_rows = np.broadcast_to(im, sign.shape) if real else sign * im
            yield labels[lo : lo + step], sign * re, im_rows
        if not binary:
            yield ["inf"], self.inf[None], np.zeros((1, self.period), dtype=np.int8)

    @property
    def members(self) -> list[Member]:
        """Every member, in the order of ``_member_batches``."""
        return [Member(*row) for batch in self._member_batches() for row in zip(*batch)]

    def write_csv(self, path: str) -> None:
        """One row per sequence: label, then symbols in {1, i, -1, -i} / {1, -1}.
        A label with a comma (the binary kind's "lam,nu") is quoted, so that
        every row has 1 + period fields."""
        cbk._check_entries(self.size, self.period)
        # the four unit symbols, numbered by the alphabet key 3(re + 1) + (im + 1)
        names = np.array(["", "-1", "", "-i", "", "i", "", "1", ""], dtype=object)
        with open(path, "w") as fh:
            for labels, re, im in self._member_batches():
                for label, row in zip(labels, 3 * (re + 1) + (im + 1)):
                    cell = f'"{label}"' if "," in label else label
                    fh.write(",".join([cell, *names[row].tolist()]) + "\n")


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


def _sign_block(fn: BoolFun) -> cbk.Codebook:
    """The one-block codebook (-1)^fn on fn's domain."""
    signs = 1 - 2 * fn.table[None].astype(np.int8)
    return cbk.Codebook(fn.domain, signs, np.zeros_like(signs))


def quaternary_family(f: BoolFun) -> SequenceFamily:
    """U_f: s_lam(t) = A(1, beta^t) (-1)^{tr(lam beta^t)} plus the binary s_inf.

    Size 2^{m-1}+1, period 2^{m-1}-1; every s_lam value is a unit Gaussian
    integer.  Requires f cyclic bent and normalized.
    """
    _check_normalized(f)
    cn.require_cyclic_bent(f)
    re, im = cbk.quaternary_entry_arrays(f, [1])
    return SequenceFamily("quaternary", cbk.Codebook(bf.Domain(f.domain.ctx), re, im))


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
    return SequenceFamily("binary", _sign_block(f))


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
    return SequenceFamily("semibent", _sign_block(g))


# -- distributions from the stored block ---------------------------------------------

# values per counting step of _count, which bounds its int64 temporaries
_COUNT_VALUES = 1 << 16


def _placed(fam: SequenceFamily) -> np.ndarray:
    """int8 (2, n): Re and Im of s_0 at the points y_t, 0 at the points no sample reaches."""
    y = np.zeros((2, fam.block.length), dtype=np.int8)
    y[:, fam.pos] = fam.block.re[0, fam.pos], fam.block.im[0, fam.pos]
    return y


def _shift_spectra(fam: SequenceFamily, real: bool, taus: np.ndarray):
    """``bf.product_spectra`` batches (shifts, parts, n) of the shift products
    V_tau(t) = s_0(t + tau) conj(s_0(t)), tau in taus, with V_tau(t) at y_t."""
    pos, y = fam.pos, _placed(fam)
    at = np.zeros(fam.block.length, dtype=np.intp)
    at[pos] = np.arange(len(pos))  # the sample at each point; any where s_0 is not placed
    # win[:, tau, t] = (Re, Im) s_0(t + tau), a view
    win = sliding_window_view(np.tile(y[:, pos], 2), len(pos), axis=1)

    def pairs(start, rows):
        tau = taus[start : start + rows]
        return win[0, tau][:, at], None if real else win[1, tau][:, at], *y

    return bf.product_spectra(len(taus), fam.block.length, real, pairs)


def _count(counts: Counter, weight: np.ndarray, re: np.ndarray,
           im: np.ndarray | None = None) -> None:
    """Add weight[r] to counts[(a, b)] for each entry of row r at which re
    reads a and im (0 when None) reads b: integer-valued arrays of one 2-D
    shape, and one integer weight per row.

    Rows are taken about _COUNT_VALUES values at a time, so no temporary
    grows with the kernel batch.  Within them re is replaced by the ranks of
    its distinct values, so the joint bincount has one cell per distinct a
    and per b in range: never one per pair of possible values.  It sums the
    weights in float64, exactly: a step adds at most 2^21 weights below
    2^26 (q times an orbit size of at most d, d <= 20).
    """
    step = max(1, _COUNT_VALUES // re.shape[1])
    for lo in range(0, len(re), step):
        a = re[lo : lo + step].astype(np.int64)
        b = 0 if im is None else im[lo : lo + step].astype(np.int64)
        a_min, b_min = int(a.min()), int(np.min(b))
        span = int(np.max(b)) - b_min + 1
        seen = np.bincount((a - a_min).ravel()) > 0
        cell = (np.cumsum(seen) - 1)[a - a_min] * span + (b - b_min)
        joint = np.bincount(cell.ravel(), np.repeat(weight[lo : lo + step], a.shape[1]))
        values = np.flatnonzero(seen) + a_min
        for c in np.flatnonzero(joint).tolist():
            counts[(int(values[c // span]), c % span + b_min)] += int(joint[c])


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


def _frobenius_map(fam: SequenceFamily, k: int) -> np.ndarray:
    """sigma: the sample of y_t^{2^k} for each sample t, 2^k t mod q - 1, and
    for the binary kind the one of its two lifts to Z/2(q - 1) with the
    parity of t (q - 1 is odd, so adding it flips the parity).  sigma is an
    automorphism of the group of shifts."""
    n = fam.block.domain.ctx.order - 1
    t = np.arange(fam.period)
    u = (t << k) % n
    return u if fam.kind != "binary" else u + n * ((u ^ t) & 1)


def _shift_orbits(fam: SequenceFamily) -> tuple[np.ndarray, np.ndarray]:
    """One shift per orbit of sigma = ``_frobenius_map(fam, k)``, ascending,
    and the orbit sizes, for the least k | d at which the stored s_0
    satisfies s_0(y^{2^k}) = s_0(y) at every sample (O(period) per divisor).

    Then V_{sigma tau}(sigma t) = V_tau(t), so the spectrum of V_{sigma tau}
    is that of V_tau read through the linear bijection y -> y^{2^k} (x1 ->
    x1^{2^k}): the same values at dual points permuted by lam -> lam^{2^-k},
    which keeps the trace-0 hyperplane.  At k = d sigma is the identity and
    every shift is its own orbit: the scan of every shift.
    """
    d = fam.block.domain.ctx.degree
    s0 = np.stack([fam.block.re[0, fam.pos], fam.block.im[0, fam.pos]])
    for k in range(1, d + 1):
        if d % k == 0:
            sigma = _frobenius_map(fam, k)
            if np.array_equal(s0[:, sigma], s0):
                return gf2.orbit_minima(sigma)
    raise AssertionError("the identity map always leaves s_0 invariant")


def _count_shifts(fam: SequenceFamily, real: bool, taus: np.ndarray, weight: np.ndarray,
                  groups) -> None:
    """Count the spectra of V_tau, tau in taus, row r with weight[r], in one
    ``_shift_spectra`` scan: groups are (stop, counts, cols) for runs of
    consecutive rows, each run ending before row stop, added to counts at
    the dual columns cols."""
    lo = 0
    for w in _shift_spectra(fam, real, taus):
        start = 0
        for stop, counts, cols in groups:
            a, b = max(start - lo, 0), min(stop - lo, len(w))
            if a < b:
                _count(counts, weight[lo + a : lo + b], *w[a:b, :, cols].swapaxes(0, 1))
            start = stop
        lo += len(w)


def _field_dist(fam: SequenceFamily) -> CorrDist:
    """The quaternary and semi-bent families: s_lam = s_0 chi_lam(beta^t) for
    lam over the field, then inf = chi_1(beta^t).

    R_{lam,lam'}(tau) = W(V_tau)(lam beta^tau + lam'), and at each shift
    the dual point runs over the field q times as (lam, lam') does: q per
    dual point of the k shift spectra, read from one shift per orbit
    (``_shift_orbits``) times its orbit size.  lam against inf is
    W(s_0)(lam + beta^{-tau}) and inf against lam its conjugate, so k
    copies of W(s_0) and of its conjugate.  inf against itself is the
    autocorrelation of the m-sequence, which is Frobenius-invariant too.
    """
    k, q, real = fam.period, fam.period + 1, fam.kind != "quaternary"
    taus, sizes = _shift_orbits(fam)
    counts = Counter()
    _count_shifts(fam, real, taus, q * sizes, [(len(taus), counts, slice(None))])
    # s_0 itself is s_0 conj(1), placed the same way, then its conjugate
    y = _placed(fam)
    (own,) = bf.product_spectra(1, q, real, lambda start, rows: (*y, 1, 0))
    both = np.concatenate([own, own * np.array([1, -1][: own.shape[1]])[:, None]])
    _count(counts, np.array([k, k]), *both.swapaxes(0, 1))
    inf = fam.inf.astype(np.int32)
    wins = sliding_window_view(np.concatenate([inf, inf]), k)
    step = max(1, bf.BATCH_VALUES // k)
    for lo in range(0, len(taus), step):
        auto = wins[taus[lo : lo + step]] @ inf
        for v, n in zip(auto.tolist(), sizes[lo : lo + step].tolist()):
            counts[(v, 0)] += n
    return _corr_dist(counts, fam.size, k)


def _interleaved_dist(fam: SequenceFamily) -> CorrDist:
    """The interleaved binary family: s_{lam,nu}(t) = s_{0,0}(t)
    (-1)^{tr(lam x_t) + nu b_t} for lam over the trace-0 hyperplane H and nu
    in GF(2), with (x_t, b_t) = y_t.

    The shift tau takes (x_t, b_t) to (c x_t, b_t + tau), c = beta^{tau/2}
    (tau 2^{-1} mod q - 1), so R_{(lam,nu),(lam',nu')}(tau) =
    (-1)^{nu tau} W(V_tau)(lam c + lam', nu + nu').  For c != 1, lam c + lam'
    runs over the field q/4 times; for c = 1 (tau = 0 or q - 1) it runs over
    H, the even natural-order dual indices, q/2 times.  Each dual point
    (mu, e) is reached from nu = 0 and from nu = 1: twice with the same
    value at an even shift, and with each sign once at an odd shift.  The
    shifts are read one per orbit (``_shift_orbits``) times its orbit size:
    sigma keeps the parity of tau and fixes 0 and q - 1.
    """
    k, q = fam.period // 2, fam.period // 2 + 1
    taus, sizes = _shift_orbits(fam)
    rest = (taus != 0) & (taus != k)
    even = taus % 2 == 0
    # tau = 0 and q - 1 on H, then the other even and odd orbits
    order = np.concatenate([[0, k], taus[rest & even], taus[rest & ~even]])
    weight = np.concatenate([[q, q // 2], q // 2 * sizes[rest & even],
                             q // 4 * sizes[rest & ~even]])
    dist, odd = Counter(), Counter()
    n_even = 2 + int((rest & even).sum())
    _count_shifts(fam, True, order, weight, [(1, dist, slice(0, None, 2)),
                                             (2, odd, slice(0, None, 2)),
                                             (n_even, dist, slice(None)),
                                             (len(order), odd, slice(None))])
    for (v, _), n in odd.items():
        dist[(v, 0)] += n
        dist[(-v, 0)] += n
    return _corr_dist(dist, fam.size, 2 * k)


def _scan(fam: SequenceFamily) -> CorrDist:
    """Every R_{i,j}(tau) in one pass of exact int64 matrix products, from
    ``members``, ``size`` and ``period`` alone: the test oracle.

    For member i, the k x k stack of its shifts (row tau is s_i(t + tau)) is
    multiplied by the stacked conjugates of all members (their real parts
    alone when every imaginary part is 0), giving R_{i,j}(tau) for every j
    and tau at once.  The symbols are units, so |re|, |im| <= k and the
    offset key (re + k)(2k + 1) + (im + k) indexes a bincount.
    """
    k, size = fam.period, fam.size
    members = fam.members
    re = np.array([mem.re for mem in members], dtype=np.int64).reshape(size, k)
    im = np.array([mem.im for mem in members], dtype=np.int64).reshape(size, k)
    if np.any(re * re + im * im != 1):
        raise ValueError("sequence symbols must be 1, i, -1 or -i")
    t = np.arange(k)
    idx = (t[None, :] + t[:, None]) % k  # idx[tau, t] = t + tau
    parts = 2 if im.any() else 1  # a real family keeps only the real products
    shifts_idx = np.concatenate([idx, idx + k][:parts], axis=1)
    rows = np.concatenate([re, im][:parts], axis=1)
    # [a b] @ [[c, -d], [d, c]] = [ac + bd, bc - ad]: (a + bi) conj(c + di)
    conj = np.block([[re.T, -im.T], [im.T, re.T]])[: parts * k, : parts * size]
    width = 2 * k + 1
    hist = np.zeros(width * width, dtype=np.int64)
    peak = 0
    for i in range(size):
        # einsum's integer loop beats matmul's by about a third here
        prod = np.einsum("tu,uj->tj", rows[i][shifts_idx], conj)
        cre, cim = prod[:, :size], prod[:, size:] if parts == 2 else 0
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
    squared maximum correlation magnitude in ``r_max_sq``, read off the
    shift-product spectra of the stored block."""
    return (_interleaved_dist if fam.kind == "binary" else _field_dist)(fam)


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
