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
vectors; correlations are exact integers.  Every correlation value of the
three families is a Walsh value of an orbit sum f + f(c x1, x2 + e)
(g + g(c x) for the semi-bent family) or of f (g) itself, shifted and
halved.  The reduced certifier transforms exactly those sums (e = 0), so
each builder certifies its function once with an orbit reducer that turns
the certifier's spectra into the family's exact histogram (CorrDist): q - 1
transforms of length 2q, shared with certification, in place of S^2 k^2
products.  The e = 1 sums need no transform: under the reduced hypothesis
f(x1, x2+1) + f(x1, x2) = tr(lam0 x1) + nu0 their spectra are those of
e = 0 with the dual point shifted by lam0 c and the sign (-1)^nu0.  The
direct scan over all member pairs and shifts (``_scan``) remains for
hand-built families and for a quaternary generator outside the reduced
hypothesis.  The closed-form correlation distributions are available as
expected_* functions so measured histograms can be checked against them.

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
from cyclicbent.codebook import quaternary_entry_arrays


@dataclass(frozen=True)
class Member:
    label: str
    re: np.ndarray  # int8
    im: np.ndarray  # int8


@dataclass
class SequenceFamily:
    """alphabet is "quaternary" or "binary".  dist is the distribution the
    builders derive from the certifier's spectra; full_distribution scans the
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


def quaternary_family(f: BoolFun) -> SequenceFamily:
    """U_f: s_lam(t) = A(1, beta^t) (-1)^{tr(lam beta^t)} plus the binary s_inf.

    Size 2^{m-1}+1, period 2^{m-1}-1; every s_lam value is a unit Gaussian
    integer.  Requires f cyclic bent and normalized.
    """
    _check_normalized(f)
    ctx = f.domain.ctx
    diff = cn.affine_bit_difference(f)  # (lam0, 0): f is normalized
    tally = None if diff is None else _QuaternaryTally(ctx, diff[0])
    cn.require_cyclic_bent(f, cn.certify_cyclic_bent(f, reducer=tally))
    q = ctx.order
    period = q - 1
    are, aim = quaternary_entry_arrays(f, 1)
    powers = ctx.generator_powers(np.arange(period))
    s = 1 - 2 * ctx.trace_pairing()[:, powers].astype(np.int8)  # row lam
    re, im = are[powers] * s, aim[powers] * s
    members = [Member(str(lam), re[lam], im[lam]) for lam in range(q)]
    s_inf = (1 - 2 * ctx.trace_table(1)[powers]).astype(np.int8)
    members.append(Member("inf", s_inf, np.zeros(period, dtype=np.int8)))
    return SequenceFamily(
        "quaternary", period, members, None if tally is None else tally.dist()
    )


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
    ctx = f.domain.ctx
    tally = _BinaryTally(ctx)
    cn.require_cyclic_bent(f, cn.certify_cyclic_bent(f, reducer=tally))
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
    return SequenceFamily("binary", period, members, tally.dist())


def semibent_family(g: BoolFun) -> SequenceFamily:
    """U'_g: s_lam(t) = (-1)^{g(beta^t) + tr(lam beta^t)} plus the m-sequence s_inf.

    Size 2^n+1, period 2^n-1.  Requires n >= 3 and g cyclic semi-bent with
    g(0) = 0.
    """
    if g.n_vars < 3:
        raise ValueError(f"semi-bent families need n >= 3, got n = {g.n_vars}")
    if int(g.table[0]) != 0:
        raise ValueError("family needs g(0) = 0")
    ctx = g.domain.ctx
    tally = _SemibentTally(ctx)
    cn.require_cyclic_semibent(g, cn.is_cyclic_semibent(g, "reduced", reducer=tally))
    q = ctx.order
    period = q - 1
    powers = ctx.generator_powers(np.arange(period))
    vals = 1 - 2 * (g.table[powers] ^ ctx.trace_pairing()[:, powers]).astype(np.int8)
    members = [
        Member(str(lam), vals[lam], np.zeros(period, dtype=np.int8)) for lam in range(q)
    ]
    s_inf = (1 - 2 * ctx.trace_table(1)[powers]).astype(np.int8)
    members.append(Member("inf", s_inf, np.zeros(period, dtype=np.int8)))
    return SequenceFamily("binary", period, members, tally.dist())


# -- distributions from the certifier's orbit spectra --------------------------------


def _value_counts(*arrays: np.ndarray) -> dict[tuple[int, ...], int]:
    """Counts of the tuples (a[i], b[i], ...) over integer-valued arrays of one shape.

    Each array is replaced by the ranks of its distinct values, found with one
    bincount over its own range (at most 2^{n+1} + 1 wide for a Walsh
    spectrum), so the joint bincount has one cell per combination of distinct
    values: at most 3 per array on the certified spectra that reach it, never
    a cell per possible correlation value.
    """
    values, key = [], 0
    for a in arrays:
        a = a.astype(np.int64).ravel()  # a copy, so the shift below is safe
        lo = int(a.min())
        a -= lo
        seen = np.bincount(a) > 0
        values.append(np.flatnonzero(seen) + lo)
        key = key * len(values[-1]) + (np.cumsum(seen) - 1)[a]
    joint = np.bincount(key)
    out = {}
    for cell in np.flatnonzero(joint):
        idx = np.unravel_index(cell, [len(v) for v in values])
        out[tuple(int(v[i]) for v, i in zip(values, idx))] = int(joint[cell])
    return out


class _OrbitTally:
    """Correlation histogram of a family, accumulated from the spectra a
    reduced certifier hands on (construct.OrbitReducer).

    For the shift tau the scalar is c = beta^tau.  Subclasses map the
    spectrum of the generator and of every sum with c outside {0, 1} to
    correlation values with their multiplicities; they add in closed form
    what the certifier does not transform: c = 1, whose sum is the zero
    function (W = 2^n at the origin, 0 elsewhere), and the m-sequence
    against itself (k at shift 0, -1 elsewhere).
    """

    def __init__(self, size: int, period: int):
        self.size, self.period = size, period
        self.counts: dict[tuple[int, int], int] = {}

    def add(self, value: tuple[int, int], n: int) -> None:
        self.counts[value] = self.counts.get(value, 0) + n

    def generator(self, spec: bf.WalshSpectrum) -> None:
        pass

    def dist(self) -> CorrDist:
        """The histogram, checked to count every (member, member, shift) once,
        with r_max_sq taken off the size own zero-shift peaks (value k)."""
        total = self.size * self.size * self.period
        counts = {v: n for v, n in self.counts.items() if n}
        if sum(counts.values()) != total:
            raise RuntimeError(f"orbit tally counted {sum(counts.values())} values, not {total}")
        off_peak = dict(counts)
        off_peak[(self.period, 0)] = off_peak.get((self.period, 0), 0) - self.size
        r_max = max((a * a + b * b for (a, b), n in off_peak.items() if n), default=0)
        return CorrDist(counts, total, r_max)


class _QuaternaryTally(_OrbitTally):
    """R_{lam,lam'}(tau) = W0(mu, 0)/2 - 1 - i W1(mu, 1)/2 at mu = lam c + lam',
    with W0, W1 the spectra of f + f(c x1, x2) and f + f(c x1, x2 + 1);
    lam against inf is W_f(mu, 0)/2 - 1 + i W_f(mu, 1)/2 and inf against lam
    its conjugate, mu running over the field for every tau.  The reduced
    hypothesis f(x1, x2+1) + f(x1, x2) = tr(lam0 x1) (nu0 = 0 for a
    normalized f) gives W1(mu, nu) = W0(mu + lam0 c, nu), an XOR of the
    natural-order index with dual_index_table()[lam0 c].
    """

    def __init__(self, ctx, lam0: int):
        q = ctx.order
        k = q - 1
        super().__init__(q + 1, k)
        self.q = q
        self.shift = ctx.dual_index_table()[ctx.mul_table(lam0)]
        # c = 1 (the q own peaks at mu = 0, -1 elsewhere) and inf against itself
        self.add((k, 0), q + 1)
        self.add((-1, 0), q * k + k - 1)

    def generator(self, spec: bf.WalshSpectrum) -> None:
        q, k = self.q, self.period
        for (a, b), n in _value_counts(spec.values[:q], spec.values[q:]).items():
            self.add((a // 2 - 1, b // 2), k * n)
            self.add((a // 2 - 1, -b // 2), k * n)

    def sums(self, w: np.ndarray, scalars: np.ndarray) -> None:
        q = self.q
        w1 = np.take_along_axis(w, q + (np.arange(q) ^ self.shift[scalars][:, None]), axis=1)
        for (a, b), n in _value_counts(w[:, :q], w1).items():
            self.add((a // 2 - 1, -b // 2), q * n)


class _BinaryTally(_OrbitTally):
    """Members (lam, nu) with tr(lam) = 0.  At the even shift 2 tau0 (c =
    beta^tau0) R = W0(mu, e) - 1 - (-1)^e, at the odd shift 2 tau0 + 1 (c =
    beta^{tau0 + 2^{m-2}}) R = (-1)^nu W1(mu, e) - (-1)^nu - (-1)^nu', with
    e = nu + nu' and mu = lam c + lam'.  For c != 1, mu runs over the field
    q/4 times per (nu, nu'), and W1(., e) (lam0 = 1, nu0 = 0) has the values
    of W0(., e); so W0(., 0) = a gives a - 2 with weight 3q/4 and 2 - a with
    q/4, and W0(., 1) = a gives a with 3q/4 and -a with q/4.
    """

    def __init__(self, ctx):
        q = ctx.order
        super().__init__(q, 2 * (q - 1))
        self.q = q
        h = q // 2  # members per nu
        # c = 1, even shift: mu runs over the trace-0 hyperplane h times; the
        # q own peaks, -2 at the other mu when nu = nu', 0 when nu != nu'
        self.add((self.period, 0), q)
        self.add((-2, 0), q * (h - 1))
        self.add((0, 0), 2 * h * h)
        # c = 1, odd shift: W1 is the spectrum of tr(x1), zero on the hyperplane
        self.add((-2, 0), h * h)
        self.add((2, 0), h * h)
        self.add((0, 0), 2 * h * h)

    def sums(self, w: np.ndarray, scalars: np.ndarray) -> None:
        q = self.q
        for e in (0, 1):
            for (a,), n in _value_counts(w[:, e * q : (e + 1) * q]).items():
                v = a - 2 if e == 0 else a
                self.add((v, 0), 3 * q // 4 * n)
                self.add((-v, 0), q // 4 * n)


class _SemibentTally(_OrbitTally):
    """R_{lam,lam'}(tau) = W(lam c + lam') - 1 with W the spectrum of
    g + g(c x); lam against inf and inf against lam are W_g(mu) - 1, mu
    running over the field for every tau."""

    def __init__(self, ctx):
        q = ctx.order
        k = q - 1
        super().__init__(q + 1, k)
        self.q = q
        # c = 1 (the q own peaks at mu = 0, -1 elsewhere) and inf against itself
        self.add((k, 0), q + 1)
        self.add((-1, 0), q * k + k - 1)

    def generator(self, spec: bf.WalshSpectrum) -> None:
        for (a,), n in _value_counts(spec.values).items():
            self.add((a - 1, 0), 2 * self.period * n)

    def sums(self, w: np.ndarray, scalars: np.ndarray) -> None:
        for (a,), n in _value_counts(w).items():
            self.add((a - 1, 0), self.q * n)


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
