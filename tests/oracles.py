"""Independent brute-force oracles used to derive expected test values.

Everything here is deliberately written from the defining formulas, without
sharing code paths with the library (no butterfly transform, no log-table
shortcuts in the hot loop beyond plain context arithmetic).
"""

from __future__ import annotations

from cyclicbent import seqfam as sf
from cyclicbent.boolfun import BoolFun


def walsh_bruteforce(f: BoolFun, lam: int, nu: int = 0) -> int:
    """W_f at a dual point, straight from the defining double loop."""
    ctx = f.domain.ctx
    total = 0
    if f.domain.with_bit:
        for x2 in (0, 1):
            for x1 in range(ctx.order):
                e = f.value(x1, x2) ^ ctx.trace(ctx.mul(lam, x1)) ^ (nu & x2)
                total += 1 - 2 * e
    else:
        for x in range(ctx.order):
            e = f.value(x) ^ ctx.trace(ctx.mul(lam, x))
            total += 1 - 2 * e
    return total


def walsh_spectrum_bruteforce(f: BoolFun) -> list[int]:
    ctx = f.domain.ctx
    out = []
    if f.domain.with_bit:
        for nu in (0, 1):
            for lam in range(ctx.order):
                out.append(walsh_bruteforce(f, lam, nu))
        # index order is nu * 2^{m-1} + lam, matching the library convention
        return out
    return [walsh_bruteforce(f, lam) for lam in range(ctx.order)]


def bilinear_kernel_dim(f: BoolFun) -> int:
    """dim ker of B_f(x, y) = f(x+y)+f(x)+f(y)+f(0) over GF(2), for quadratic f.

    Points of the domain are treated as plain bit vectors of length n_vars;
    on field-times-bit domains the x2 bit is the top bit, matching the
    canonical index map.
    """
    n = f.n_vars
    t = f.table
    f0 = int(t[0])

    def b(x: int, y: int) -> int:
        return int(t[x ^ y]) ^ int(t[x]) ^ int(t[y]) ^ f0

    # matrix rows: row i = (B(e_i, e_j))_j packed as a bitmask
    rows = []
    for i in range(n):
        mask = 0
        for j in range(n):
            if b(1 << i, 1 << j):
                mask |= 1 << j
        rows.append(mask)
    rank = 0
    for col in range(n):
        piv = None
        for r in range(rank, len(rows)):
            if (rows[r] >> col) & 1:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and (rows[r] >> col) & 1:
                rows[r] ^= rows[rank]
        rank += 1
    return n - rank


def is_quadratic(f: BoolFun) -> bool:
    """Check that B_f is bilinear by verifying B(x+y, z) = B(x,z)+B(y,z)."""
    t = f.table
    f0 = int(t[0])
    n = f.n_vars

    def b(x, y):
        return int(t[x ^ y]) ^ int(t[x]) ^ int(t[y]) ^ f0

    size = 1 << n
    for x in range(0, size, 3):
        for y in range(0, size, 5):
            for z in range(n):
                e = 1 << z
                if b(x ^ y, e) != (b(x, e) ^ b(y, e)):
                    return False
    return True


def correlation_scan_by_pairs(fam: sf.SequenceFamily):
    """(counts, total, r_max_sq) of a family, one ``correlate`` call per
    (member, member, shift), masking only each member's own zero shift.

    ``correlate`` is the defining sum and shares nothing with the scan's
    matrix products.
    """
    counts: dict[tuple[int, int], int] = {}
    rmax_sq = 0
    for i, s in enumerate(fam.members):
        for j, s2 in enumerate(fam.members):
            for tau in range(fam.period):
                re, im = sf.correlate(s, s2, tau)
                counts[(re, im)] = counts.get((re, im), 0) + 1
                if i != j or tau != 0:
                    rmax_sq = max(rmax_sq, re * re + im * im)
    return counts, sum(counts.values()), rmax_sq
