"""Linearized polynomials, adjoints, skew-polynomial gcrd, and the
gcrd characterization of quadratic cyclic semi-bent functions.

A linearized polynomial L(x) = sum a_i x^{2^i} over GF(2^m) is stored as its
coefficient tuple (a_0, ..., a_{m-1}).  Its associated polynomial
l(x) = sum a_i x^i lives in the twisted (skew) ring GF(2^m)[x; Frobenius]
with the multiplication rule x * a = a^2 * x, i.e.
(a x^i)(b x^j) = a b^{2^i} x^{i+j}; composition of linearized maps matches
multiplication of associated polynomials under this twist.  Division here
is right division, and gcrd is the greatest common RIGHT divisor computed
by the right Euclidean algorithm.

The two routes to kernel dimensions - GF(2)-matrix rank and
deg gcrd(l, x^m - 1) - are both first class; tests force their agreement.
The characterization runs each route on batches of coefficient rows in
integer log/antilog arithmetic (``_kernel_dims``): condition (1) is the
row of L + L* = phi_{L,0}, and condition (2) the rows of phi_{L,tau} at
the least tau of each orbit of tau -> tau^{2^e}, where GF(2^e) is the least
subfield holding the coefficients of L + L*: the kernel dimension is
constant on each orbit.  ``SkewPoly``, ``rdivmod``, ``skew_gcrd``,
``kernel_dim`` and ``LinPoly.evaluate`` take one polynomial at a time and
are on no CLI path: they stay as the scalar routes the tests compare the
kernels against, and ``bench/tracer.py`` wraps the middle three by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from cyclicbent.boolfun import BoolFun, Domain
from cyclicbent.gf2 import GF2m, orbit_minima, xor_rank


@dataclass(frozen=True)
class LinPoly:
    """L(x) = sum_{i<m} coeffs[i] * x^{2^i} over GF(2^m)."""

    ctx: GF2m
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.ctx.degree:
            raise ValueError("need exactly m coefficients")
        if any(not 0 <= c < self.ctx.order for c in self.coeffs):
            raise ValueError("coefficient out of range")

    @staticmethod
    def from_dict(ctx: GF2m, terms: dict[int, int]) -> "LinPoly":
        coeffs = [0] * ctx.degree
        for i, c in terms.items():
            coeffs[i % ctx.degree] ^= c
        return LinPoly(ctx, tuple(coeffs))

    def evaluate(self, x: int) -> int:
        ctx = self.ctx
        acc = 0
        for i, c in enumerate(self.coeffs):
            if c:
                acc ^= ctx.mul(c, ctx.frobenius(x, i))
        return acc

    def add(self, other: "LinPoly") -> "LinPoly":
        if other.ctx != self.ctx:
            raise ValueError("context mismatch")
        return LinPoly(self.ctx, tuple(a ^ b for a, b in zip(self.coeffs, other.coeffs)))

    @cached_property
    def _tau_logs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """_field_logs of L: read by both routes, for both conditions."""
        return _field_logs(self)

    @cached_property
    def _tau_reps(self) -> np.ndarray:
        """_tau_representatives of L + L*: built only once condition (1) holds."""
        return _tau_representatives(self.add(adjoint(self)))


def adjoint(L: LinPoly) -> LinPoly:
    """The unique L* with tr(x L(y)) = tr(y L*(x)): a_0 x + sum a_{m-i}^{2^i} x^{2^i}."""
    ctx = L.ctx
    m = ctx.degree
    a = L.coeffs
    out = [a[0]]
    for i in range(1, m):
        out.append(ctx.frobenius(a[m - i], i))
    return LinPoly(ctx, tuple(out))


def kernel_dim(L: LinPoly) -> int:
    """dim over GF(2) of ker L: m minus the rank of the images of the basis."""
    m = L.ctx.degree
    return m - xor_rank(L.evaluate(1 << j) for j in range(m))


def quad_form(L: LinPoly) -> BoolFun:
    """The Boolean function q(x) = tr(x L(x)) = tr(sum a_i x^{2^i+1}) on GF(2^m)."""
    ctx = L.ctx
    acc = np.zeros(ctx.order, dtype=np.int64)
    for i, a in enumerate(L.coeffs):
        if a:
            acc ^= ctx.mul_table(a)[ctx.pow_table((1 << i) + 1)]
    return BoolFun(Domain(ctx), ctx.trace_table(1)[acc].astype(np.uint8))


# -- skew polynomials ---------------------------------------------------------------


@dataclass(frozen=True)
class SkewPoly:
    """Polynomial in the twisted ring GF(2^m)[x; x -> x^2], low-degree first.

    Invariant: the stored leading coefficient is nonzero (empty tuple = zero).
    """

    ctx: GF2m
    coeffs: tuple[int, ...]

    @staticmethod
    def make(ctx: GF2m, coeffs) -> "SkewPoly":
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return SkewPoly(ctx, tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def monic(self) -> "SkewPoly":
        """Left-scale by the inverse of the leading coefficient."""
        if self.is_zero():
            return self
        inv = self.ctx.inv(self.coeffs[-1])
        return SkewPoly.make(self.ctx, [self.ctx.mul(inv, c) for c in self.coeffs])

    def mul(self, other: "SkewPoly") -> "SkewPoly":
        """(a x^i)(b x^j) = a b^{2^i} x^{i+j}."""
        if self.is_zero() or other.is_zero():
            return SkewPoly(self.ctx, ())
        ctx = self.ctx
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                out[i + j] ^= ctx.mul(a, ctx.frobenius(b, i))
        return SkewPoly.make(ctx, out)


def rdivmod(a: SkewPoly, b: SkewPoly) -> tuple[SkewPoly, SkewPoly]:
    """Right division: a = q * b + r with deg r < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("skew division by the zero polynomial")
    ctx = a.ctx
    r = list(a.coeffs)
    db = b.degree
    lead = b.coeffs[-1]
    q = [0] * max(0, len(r) - db)
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        # (qk x^k)(lead x^db) = qk lead^{2^k} x^{deg r}
        qk = ctx.div(r[-1], ctx.frobenius(lead, k))
        q[k] = qk
        for j, bc in enumerate(b.coeffs):
            if bc:
                r[k + j] ^= ctx.mul(qk, ctx.frobenius(bc, k))
        while r and r[-1] == 0:
            r.pop()
    return SkewPoly.make(ctx, q), SkewPoly.make(ctx, r)


def skew_gcrd(a: SkewPoly, b: SkewPoly) -> SkewPoly:
    """Greatest common right divisor via the right Euclidean algorithm, monic."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcrd of two zero polynomials")
    while not b.is_zero():
        _, r = rdivmod(a, b)
        a, b = b, r
    return a.monic()


# -- the characterization -----------------------------------------------------------


# tau values per batch of the characterization scan: each (T, m) int64 array
# of either route is about 0.6 MB at m = 19
_SCAN_TAUS = 1 << 12


def _degrees(p: np.ndarray) -> np.ndarray:
    """The degree of each row of a coefficient matrix, -1 for a zero row."""
    nz = p != 0
    return np.where(nz.any(1), p.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1), -1)


def _gcrd_degrees(b: np.ndarray, log: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """deg gcrd(b, x^m - 1) for each row of the (T, m + 1) coefficient
    matrix b (deg b < m): the right Euclidean algorithm on all rows at once.

    Each step swaps the rows where deg a < deg b, then cancels the leading
    term of a with (q x^k) b, k = deg a - deg b and q = lead a / (lead b)^{2^k},
    whose coefficient on x^{j+k} is lead a (b_j / lead b)^{2^k}: a log sum
    lead a + (log b_j - log lead b) 2^k mod 2^m - 1.  A row leaves when its
    b is zero, with deg a.
    """
    t, w = b.shape
    m, q1 = w - 1, len(exp)
    a = np.zeros_like(b)
    a[:, 0] = a[:, m] = 1
    da, db = np.full(t, m), _degrees(b)
    rows, out = np.arange(t), np.empty(t, dtype=np.int64)
    col = np.arange(w)
    while len(rows):
        done = db < 0
        out[rows[done]] = da[done]
        a, b, da, db, rows = a[~done], b[~done], da[~done], db[~done], rows[~done]
        sw = da < db
        a[sw], b[sw] = b[sw], a[sw]
        da, db = np.where(sw, db, da), np.where(sw, da, db)
        r, k = np.arange(len(rows)), da - db
        src = col - k[:, None]  # x^{j+k} of (q x^k) b reads b_j
        lb = np.where(src >= 0, log[np.take_along_axis(b, np.maximum(src, 0), 1)], -1)
        lead_a, lead_b = log[a[r, da]], lb[r, da]
        frob = (np.left_shift(1, k) % q1)[:, None]
        a ^= np.where(lb >= 0, exp[(lead_a[:, None] + (lb - lead_b[:, None]) * frob) % q1], 0)
        da = _degrees(a)
    return out


def _rank_kernel_dims(c_log: np.ndarray, log: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """dim ker of sum_i c_i x^{2^i} for each row of the (T, m) coefficient
    logs c_log (-1 for a zero coefficient): the images of the basis 2^j,
    xor sums over i of the terms at the log sums c_log_i + 2^i log 2^j,
    accumulated one (T, m) term at a time rather than as a (T, m, m) block,
    then one xor elimination over the m bit positions for all rows."""
    t, m = c_log.shape
    q1 = len(exp)
    frob = (np.left_shift(1, np.arange(m))[:, None] * log[np.left_shift(1, np.arange(m))]) % q1
    img = np.zeros((t, m), dtype=np.int64)
    for i in range(m):
        ci = c_log[:, i, None]
        img ^= np.where(ci >= 0, exp[(ci + frob[i]) % q1], 0)  # [tau, j] = c_i (2^j)^{2^i}
    r, rank = np.arange(t), np.zeros(t, dtype=np.int64)
    for p in range(m):
        bit = (img >> p) & 1 != 0
        # the first image with bit p clears it from the others and itself
        img ^= np.where(bit, img[r, bit.argmax(1)][:, None], 0)
        rank += bit.any(1)
    return m - rank


def _field_logs(L: LinPoly) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The log and antilog tables of L's field (the field's own, read-only),
    and the logs of the coefficients of L + L* (whose constant level
    a_0 + a_0 is 0, log -1)."""
    log, exp = L.ctx.log_tables()
    return log, exp, log[list(L.add(adjoint(L)).coeffs)]


def _kernel_dims(c_log: np.ndarray, path: str, log: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """dim ker sum_i c_i x^{2^i} per row of the (T, m) logs c_log, on path."""
    if path == "rank":
        return _rank_kernel_dims(c_log, log, exp)
    t, m = c_log.shape
    b = np.zeros((t, m + 1), dtype=np.int64)
    b[:, :m] = np.where(c_log >= 0, exp[c_log], 0)
    return _gcrd_degrees(b, log, exp)


def _phi_dims(c: np.ndarray, taus: np.ndarray, path: str, log: np.ndarray,
              exp: np.ndarray) -> np.ndarray:
    """phi_kernel_dims on the tables and coefficient logs of _field_logs."""
    m, q1 = len(c), len(exp)
    one_plus = exp[(log[taus][:, None] * (np.left_shift(1, np.arange(m)) + 1)) % q1] ^ 1
    c_log = np.where((c >= 0) & (one_plus > 0), (c + log[one_plus]) % q1, -1)
    return _kernel_dims(c_log, path, log, exp)


def phi_kernel_dims(L: LinPoly, taus, path: str = "gcrd") -> np.ndarray:
    """dim ker phi_{L,tau} for every tau in taus (outside GF(2)), all at once.

    path 'gcrd' takes deg gcrd(phi_{L,tau}, x^m - 1), path 'rank' the GF(2)
    kernel dimension; both read the coefficients c_i (1 + tau^{2^i+1}) as
    discrete logs, read off the field's log tables.
    """
    if path not in ("gcrd", "rank"):
        raise ValueError(f"unknown path {path!r}")
    taus = np.asarray(taus, dtype=np.int64)
    if np.any((taus < 2) | (taus >= L.ctx.order)):
        raise ValueError("tau must lie outside GF(2)")
    log, exp, c = _field_logs(L)
    return _phi_dims(c, taus, path, log, exp)


def _tau_representatives(base: LinPoly) -> np.ndarray:
    """The least tau of each orbit of tau -> tau^{2^e} on [2, 2^m), ascending,
    for the least e | m with every coefficient of base = L + L* in GF(2^e)
    (e = m, where every tau is its own orbit, when no smaller e works).

    The coefficients c_i (1 + tau^{2^i+1}) of phi_{L,tau^{2^e}} are those of
    phi_{L,tau} raised to the 2^e-th power, so its kernel is the Frobenius
    image of phi_{L,tau}'s and has the same dimension: both routes give one
    answer across an orbit, and the least failing tau is a representative.
    """
    ctx = base.ctx
    m = ctx.degree
    e = next(e for e in range(1, m + 1)
             if m % e == 0 and all(ctx.subfield_test(c, e) for c in base.coeffs))
    # field indices fit int32, which halves orbit_minima's working arrays
    reps = orbit_minima(ctx.pow_table(1 << e).astype(np.int32))[0]
    return reps[reps >= 2].astype(np.int32)


def is_cyclic_semibent_quadratic(L: LinPoly, path: str = "gcrd") -> tuple[bool, dict]:
    """Decide whether q(x) = tr(x L(x)) is cyclic semi-bent (m odd, m <= 19).

    Condition (1): deg gcrd(l + l*, x^m - 1) = 1.
    Condition (2): deg gcrd(phi_{l,tau}, x^m - 1) = 1 for every tau outside GF(2).
    path 'rank' replaces each gcrd degree with the GF(2) kernel dimension of
    the matching linearized polynomial; the two must agree everywhere.
    phi_{l,0} = l + l*, so condition (1) is the one row of L + L*'s
    coefficient logs on the kernel that decides condition (2).
    Condition (2) holds on whole orbits of tau -> tau^{2^e}
    (_tau_representatives), so it is decided at the least tau of each orbit,
    in ascending order, _SCAN_TAUS of them at a time (phi_kernel_dims),
    stopping at the first batch with a failure and reporting its smallest
    tau: the smallest failing tau of the whole field.  Both routes share
    the coefficient logs (L._tau_logs) and, once condition (1) holds, the
    representatives (L._tau_reps, about 60 ms at m = 19).  The one row takes
    about 0.4 ms (gcrd) or 0.06 to 0.22 ms (rank) at m = 5..19.
    """
    if L.ctx.degree % 2 == 0:
        raise ValueError("the characterization needs odd m")
    if path not in ("gcrd", "rank"):
        raise ValueError(f"unknown path {path!r}")

    log, exp, c = L._tau_logs
    d0 = int(_kernel_dims(c[None], path, log, exp)[0])
    report = {"path": path, "base_dim": d0, "tau_failures": []}
    ok = d0 == 1
    if ok:
        reps = L._tau_reps
        for lo in range(0, len(reps), _SCAN_TAUS):
            taus = reps[lo : lo + _SCAN_TAUS]
            dims = _phi_dims(c, taus, path, log, exp)
            bad = np.flatnonzero(dims != 1)
            if len(bad):
                report["tau_failures"].append((int(taus[bad[0]]), int(dims[bad[0]])))
                ok = False
                break
    report["verdict"] = ok
    return ok, report
