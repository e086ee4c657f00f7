"""Independent brute-force oracles used to derive expected test values.

Everything here is deliberately written from the defining formulas, without
sharing code paths with the library (no Walsh kernel, no log-table
shortcuts in the hot loop beyond plain context arithmetic).  The exception
is the routes the library replaced, kept as references: the sequential
log-table loop, the carry-less multiply and square-and-multiply power that
the log tables replaced, the per-scalar orbit compositions, the per-point
trace and dual-index tables, the squaring-chain evaluation, elimination
rank and per-point quadratic form of linearized polynomials, the per-tau
loop of the quadratic semi-bent characterization, the int64 Walsh
butterfly, the per-case certifier loops (which share the library's Walsh
transform), the dense Gram route of the codebook scans (int64 Grams on the
materialized rows, masked tiles, every cross-basis Gram of a MUB set), the
per-cell CSV writer, the sequence-family members as rows of the dense
basis with their per-symbol CSV writer, the codes as packed uint64 words
with the popcount scan of their distributions and the pairwise XOR-closure test of linearity, and
the codebook and code builders as per-block and per-label loops (without
certification).  The package ships none of the test-side helpers: the
truth-table builders from Python callables (``from_field_fn``,
``from_field_bit_fn``), ``correlate``, the defining correlation sum, and
``is_bent`` and ``is_semibent``, which classify the library's spectrum.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from cyclicbent import boolfun as bf
from cyclicbent import codebook as cbk
from cyclicbent import codes as cd
from cyclicbent import construct as cn
from cyclicbent import gf2
from cyclicbent import linpoly as lp
from cyclicbent import seqfam as sf
from cyclicbent.boolfun import BoolFun


def log_tables_by_loop(ctx) -> tuple[np.ndarray, np.ndarray]:
    """(antilog, log) of GF(2^d): beta^i for i < 2^d - 1 by one carry-less
    multiply each, and log[beta^i] = i (log[0] = -1)."""
    exp = np.zeros(ctx.order - 1, dtype=np.int64)
    log = np.full(ctx.order, -1, dtype=np.int64)
    v = 1
    for i in range(ctx.order - 1):
        exp[i] = v
        log[v] = i
        v = gf2.poly_mod(gf2.clmul(v, ctx.generator), ctx.modulus)
    return exp, log


def mul_by_clmul(ctx, a: int, b: int) -> int:
    """a b in the field as the carry-less product reduced by the modulus."""
    return gf2.poly_mod(gf2.clmul(a, b), ctx.modulus)


def pow_by_squaring(ctx, a: int, e: int) -> int:
    """a^e for e >= 0 by square-and-multiply over ``mul_by_clmul``."""
    r = 1
    while e:
        if e & 1:
            r = mul_by_clmul(ctx, r, a)
        a = mul_by_clmul(ctx, a, a)
        e >>= 1
    return r


def from_field_bit_fn(ctx, fn) -> BoolFun:
    """The BoolFun on GF(2^d) x GF(2) with table fn(x1, x2) & 1 at every point."""
    dom = bf.Domain(ctx, with_bit=True)
    table = np.zeros(dom.size, dtype=np.uint8)
    for x2 in (0, 1):
        for x1 in range(ctx.order):
            table[dom.index(x1, x2)] = fn(x1, x2) & 1
    return BoolFun(dom, table)


def from_field_fn(ctx, fn) -> BoolFun:
    """The BoolFun on GF(2^d) with table fn(x) & 1 at every point."""
    return BoolFun(bf.Domain(ctx), np.array([fn(x) & 1 for x in range(ctx.order)], dtype=np.uint8))


def is_bent(f: BoolFun) -> bool:
    return bf.classify(bf.walsh(f)) is bf.WalshClass.BENT


def is_semibent(f: BoolFun) -> bool:
    return bf.classify(bf.walsh(f)) is bf.WalshClass.SEMI_BENT


def scale_compose_by_halves(f: BoolFun, a: int, eps: int = 0) -> BoolFun:
    """(x1, x2) -> f(a x1, x2 + eps), one index block per x2."""
    ctx = f.domain.ctx
    perm = ctx.mul_table(a)
    half = ctx.order
    idx = np.empty(2 * half, dtype=np.int64)
    for x2 in (0, 1):
        src_x2 = x2 ^ (eps & 1)
        idx[x2 * half : (x2 + 1) * half] = src_x2 * half + perm
    return BoolFun(f.domain, f.table[idx])


def scale_field_by_perm(f: BoolFun, a: int) -> BoolFun:
    """x -> f(a x) through the multiplication permutation of a."""
    return BoolFun(f.domain, f.table[f.domain.ctx.mul_table(a)])


def orbit_tables_by_mul_table(f: BoolFun, scalars, eps=0) -> np.ndarray:
    """``bf.orbit_tables`` one scalar at a time through the multiplication
    permutation of each scalar: row c reads f at c x in each half that
    x2 + eps_c selects."""
    ctx = f.domain.ctx
    c = np.asarray(scalars)
    halves = f.domain.size // ctx.order
    # offset[..., x2] is the index where the half that x2 + eps_c reads starts
    offset = ctx.order * (np.arange(halves) ^ (np.asarray(eps)[..., None] & 1))
    offset = np.broadcast_to(offset, c.shape + (halves,))
    out = np.empty(c.shape + (halves, ctx.order), dtype=np.uint8)
    for i in np.ndindex(c.shape):
        out[i] = f.table[offset[i][:, None] + ctx.mul_table(int(c[i]))]
    return out.reshape(c.shape + (f.domain.size,))


def wht_inplace(v: np.ndarray) -> np.ndarray:
    """In-place fast Walsh-Hadamard butterfly along the last axis (length 2^n),
    exact in the array's own integer dtype."""
    n = v.shape[-1]
    h = 1
    while h < n:
        v = v.reshape(v.shape[:-1] + (n // (2 * h), 2, h))
        a = v[..., 0, :].copy()
        b = v[..., 1, :]
        v[..., 0, :] = a + b
        v[..., 1, :] = a - b
        v = v.reshape(v.shape[:-3] + (n,))
        h *= 2
    return v


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


def trace_pairing_by_rows(ctx) -> np.ndarray:
    """tr(lam x) over (lam, x) as uint8, one trace lookup of lam * x per lam."""
    tr1 = ctx.trace_table(1)
    return np.stack([tr1[ctx.mul_table(lam)] for lam in range(ctx.order)]).astype(np.uint8)


def generator_powers_by_pow(ctx, t) -> np.ndarray:
    """beta^k for each k in t by scalar exponentiation."""
    return np.array([ctx.pow(ctx.generator, int(k)) for k in t], dtype=np.int64)


def linear_table_by_points(images) -> np.ndarray:
    """Values over all x of the GF(2)-linear map sending 2^j to images[j], one
    point at a time: x takes the value of x without its lowest bit 2^j, plus
    images[j]."""
    t = np.zeros(1 << len(images), dtype=np.int64)
    for x in range(1, len(t)):
        j = (x & -x).bit_length() - 1
        t[x] = t[x ^ (1 << j)] ^ images[j]
    return t


def trace_table_by_points(ctx, r: int) -> np.ndarray:
    """tr_r^d(x) over all x, from the traces of the basis points."""
    return linear_table_by_points([ctx.trace(1 << j, r) for j in range(ctx.degree)])


def dual_index_table_by_points(ctx) -> np.ndarray:
    """D[lam] = bit mask (tr(lam 2^i))_i over all lam, from the basis points."""
    d = ctx.degree
    return linear_table_by_points(
        [sum(ctx.trace(ctx.mul(1 << j, 1 << i)) << i for i in range(d)) for j in range(d)])


def linpoly_eval_by_squaring(L, x: int) -> int:
    """L(x) = sum a_i x^{2^i}, squaring x once per coefficient."""
    ctx = L.ctx
    acc = 0
    y = x
    for c in L.coeffs:
        if c:
            acc ^= ctx.mul(c, y)
        y = ctx.sqr(y)
    return acc


def kernel_dim_by_elimination(L) -> int:
    """dim ker L by Gauss-Jordan elimination on the images of the basis."""
    m = L.ctx.degree
    rows = [linpoly_eval_by_squaring(L, 1 << j) for j in range(m)]
    rank = 0
    for col in range(m):
        piv = next((r for r in range(rank, m) if (rows[r] >> col) & 1), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(m):
            if r != rank and (rows[r] >> col) & 1:
                rows[r] ^= rows[rank]
        rank += 1
    return m - rank


def quad_form_by_points(L) -> BoolFun:
    """tr(x L(x)), one trace and one product per x."""
    ctx = L.ctx
    return from_field_fn(ctx, lambda x: ctx.trace(ctx.mul(x, linpoly_eval_by_squaring(L, x))))


def cyclic_semibent_quadratic_by_tau(L, path: str = "gcrd") -> tuple[bool, dict]:
    """The gcrd characterization with one scalar skew gcrd (or GF(2) rank)
    of phi_{L,tau} per tau, stopping at the first failing tau."""
    dim_of = lp.gcrd_kernel_dim if path == "gcrd" else lp.kernel_dim
    ctx = L.ctx
    d0 = dim_of(L.add(lp.adjoint(L)))
    report = {"path": path, "base_dim": d0, "tau_failures": []}
    ok = d0 == 1
    if ok:
        for tau in range(2, ctx.order):
            d = dim_of(lp.phi_l_tau(L, tau))
            if d != 1:
                report["tau_failures"].append((tau, d))
                ok = False
                break
    report["verdict"] = ok
    return ok, report


def correlate(s: sf.Member, s2: sf.Member, tau: int) -> tuple[int, int]:
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


def correlation_scan_by_pairs(fam: sf.SequenceFamily):
    """(counts, total, r_max_sq) of a family (or of anything with its
    ``members`` and ``period``), one ``correlate`` call per (member, member,
    shift), masking only each member's own zero shift.

    ``correlate`` is the defining sum and shares nothing with the scan's
    matrix products.
    """
    counts: dict[tuple[int, int], int] = {}
    rmax_sq = 0
    members = fam.members
    for i, s in enumerate(members):
        for j, s2 in enumerate(members):
            for tau in range(fam.period):
                re, im = correlate(s, s2, tau)
                counts[(re, im)] = counts.get((re, im), 0) + 1
                if i != j or tau != 0:
                    rmax_sq = max(rmax_sq, re * re + im * im)
    return counts, sum(counts.values()), rmax_sq


def members_by_basis(fam: sf.SequenceFamily) -> list[sf.Member]:
    """The members as the rows lam (for the binary kind (lam, nu) with
    tr(lam) = 0) of the block's dense basis, its K x K characters times s_0,
    at the columns y_t; then inf for the field kinds."""
    binary, ctx = fam.kind == "binary", fam.block.domain.ctx
    q, duals = ctx.order, np.arange(ctx.order)
    if binary:
        lams = np.flatnonzero(ctx.trace_table(1) == 0)
        duals = np.concatenate([lams, q + lams])
    labels = [f"{d % q},{d // q}" if binary else str(d) for d in duals.tolist()]
    re, im, _ = fam.block.basis(1)
    cols = np.ix_(duals, fam.pos)
    out = [sf.Member(*row) for row in zip(labels, re[cols], im[cols])]
    if not binary:
        out.append(sf.Member("inf", fam.inf, np.zeros(fam.period, dtype=np.int8)))
    return out


def write_family_csv_by_symbols(fam: sf.SequenceFamily, path: str) -> None:
    """Family CSV from ``members_by_basis``, one lookup per symbol."""
    names = {(1, 0): "1", (-1, 0): "-1", (0, 1): "i", (0, -1): "-i"}
    with open(path, "w") as fh:
        for mem in members_by_basis(fam):
            syms = [names[(int(a), int(b))] for a, b in zip(mem.re, mem.im)]
            fh.write(",".join([mem.label] + syms) + "\n")


def gram_int64(re1, im1, re2, im2):
    """Gaussian-integer Gram of rows1 against conj(rows2): four int64 matmuls."""
    a1 = re1.astype(np.int64)
    b1 = im1.astype(np.int64)
    a2 = re2.astype(np.int64)
    b2 = im2.astype(np.int64)
    gre = a1 @ a2.T + b1 @ b2.T
    gim = b1 @ a2.T - a1 @ b2.T
    return gre, gim


def dense_rows(cb) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(re, im, norm_sq) of every row of a codebook: the standard basis, then
    s_b times each character row for every block vector s_b, with the
    characters from ``char_sign_matrix``."""
    k = cb.length
    chars = char_sign_matrix(cb.domain)
    re = np.concatenate([np.eye(k, dtype=np.int8), *(chars * s for s in cb.re)])
    im = np.concatenate([np.zeros((k, k), dtype=np.int8), *(chars * s for s in cb.im)])
    norm = np.full(re.shape[0], k, dtype=np.int64)
    norm[:k] = 1
    return re, im, norm


def imax_sq_masked_tiles(cb, block: int = 1024) -> Fraction:
    """Max over row pairs i < j of |<c_i, c_j>|^2 / (norm_i norm_j) on the
    materialized rows, in row order: int64 Gram tiles, an i < j mask per
    tile and one max per distinct norm product under the mask.
    """
    re, im, norm_sq = dense_rows(cb)
    n = len(re)
    best = Fraction(0)
    for i0 in range(0, n, block):
        for j0 in range(i0, n, block):
            i1, j1 = min(i0 + block, n), min(j0 + block, n)
            gre, gim = gram_int64(re[i0:i1], im[i0:i1], re[j0:j1], im[j0:j1])
            mag = gre * gre + gim * gim
            mask = np.arange(i0, i1)[:, None] < np.arange(j0, j1)[None, :]
            norms = norm_sq[i0:i1][:, None] * norm_sq[j0:j1][None, :]
            for nval in np.unique(norms[mask]):
                sel = mask & (norms == nval)
                best = max(best, Fraction(int(mag[sel].max()), int(nval)))
    return best


def write_csv_by_cells(cb, path: str) -> None:
    """Codebook CSV with every materialized entry normalized and formatted on
    its own."""
    re, im, norm_sq = dense_rows(cb)
    with open(path, "w") as fh:
        for i in range(len(re)):
            scale = 1.0 / float(np.sqrt(float(norm_sq[i])))
            cells = []
            for j in range(re.shape[1]):
                a = float(re[i, j]) * scale
                b = float(im[i, j]) * scale
                cells.append(f"{a:.12g}" if b == 0 else f"{a:.12g}{b:+.12g}j")
            fh.write(",".join(cells) + "\n")


# -- the certifiers as per-case loops ------------------------------------------------


def _first_non_bent(sign_rows: np.ndarray, n_vars: int) -> int:
    w = bf.walsh_many(sign_rows)
    bad = np.nonzero(~np.all(np.abs(w) == 1 << (n_vars // 2), axis=1))[0]
    return int(bad[0]) if len(bad) else -1


def _first_non_semibent(sign_rows: np.ndarray, n_vars: int) -> int:
    w = np.abs(bf.walsh_many(sign_rows))
    peak = 1 << ((n_vars + 1) // 2)
    bad = np.nonzero(~np.all((w == 0) | (w == peak), axis=1))[0]
    return int(bad[0]) if len(bad) else -1


def cyclic_bent_full_by_cases(f: BoolFun) -> cn.CyclicCertificate:
    """One sign row per case (a, b, eps), in that order, all transformed at once."""
    q = f.domain.ctx.order
    tables = [scale_compose_by_halves(f, a, 0).table for a in range(q)]
    flip = np.concatenate([np.arange(q, 2 * q), np.arange(q)])
    cases = [(a, b, eps) for a in range(q) for b in range(q) if a != b for eps in (0, 1)]
    rows = np.empty((len(cases), 2 * q), dtype=np.int64)
    for i, (a, b, eps) in enumerate(cases):
        tb = tables[b] if eps == 0 else tables[b][flip]
        rows[i] = 1 - 2 * (tables[a] ^ tb).astype(np.int64)
    bad = _first_non_bent(rows, f.n_vars)
    if bad >= 0:
        return cn.CyclicCertificate("bent", "full", False, bad, cases[bad])
    return cn.CyclicCertificate("bent", "full", True, len(cases))


def cyclic_bent_reduced_by_rows(f: BoolFun) -> cn.CyclicCertificate:
    """f bent, then one (q-2) x 2q array of the signs of f + f(b.), b >= 2."""
    if cn.affine_bit_difference(f) is None:
        raise cn.AffineDifferenceError("f(x1,x2+1)+f(x1,x2) is not tr(lam x1) + nu")
    if not is_bent(f):
        return cn.CyclicCertificate("bent", "reduced", False, 0, (1, 0, 0))
    q = f.domain.ctx.order
    rows = np.empty((q - 2, 2 * q), dtype=np.int64)
    for i, b in enumerate(range(2, q)):
        rows[i] = f.signs() * scale_compose_by_halves(f, b, 0).signs()
    bad = _first_non_bent(rows, f.n_vars)
    if bad >= 0:
        return cn.CyclicCertificate("bent", "reduced", False, 1 + bad, (1, bad + 2, 0))
    return cn.CyclicCertificate("bent", "reduced", True, q - 1)


def cyclic_semibent_by_cases(g: BoolFun, mode: str) -> cn.CyclicCertificate:
    """reduced: g semi-bent, then g + g(c.) for c >= 2; full: every ordered
    pair (a, b), a != b, one sign row each."""
    q = g.domain.ctx.order
    n = g.n_vars
    if mode == "reduced":
        if not is_semibent(g):
            return cn.CyclicCertificate("semi-bent", "reduced", False, 0, (1, 0))
        rows = np.empty((q - 2, q), dtype=np.int64)
        for i, c in enumerate(range(2, q)):
            rows[i] = g.signs() * scale_field_by_perm(g, c).signs()
        bad = _first_non_semibent(rows, n)
        if bad >= 0:
            return cn.CyclicCertificate("semi-bent", "reduced", False, 1 + bad, (1, bad + 2))
        return cn.CyclicCertificate("semi-bent", "reduced", True, q - 1)
    tables = [scale_field_by_perm(g, a).table for a in range(q)]
    cases = [(a, b) for a in range(q) for b in range(q) if a != b]
    rows = np.empty((len(cases), q), dtype=np.int64)
    for i, (a, b) in enumerate(cases):
        rows[i] = 1 - 2 * (tables[a] ^ tables[b]).astype(np.int64)
    bad = _first_non_semibent(rows, n)
    if bad >= 0:
        return cn.CyclicCertificate("semi-bent", "full", False, bad, cases[bad])
    return cn.CyclicCertificate("semi-bent", "full", True, len(cases))


# -- the codebook and code builders, block by block and label by label ---------------


def char_sign_matrix(domain) -> np.ndarray:
    """S[dual index, point index] = (-1)^{<(lam,nu),(x1,x2)>}, int8."""
    c = 1 - 2 * domain.ctx.trace_pairing().astype(np.int8)
    if not domain.with_bit:
        return c
    # nu = x2 = 1 is the one block where nu x2 flips the sign
    return np.block([[c, c], [c, -c]])


def _codebook_by_blocks(tables, chars):
    """Dense (re, im, norm_sq) rows: standard basis, characters, then one
    sign block per truth table."""
    size = chars.shape[1]
    blocks = [np.eye(size, dtype=np.int8), chars]
    for t in tables:
        blocks.append((chars * (1 - 2 * t.astype(np.int8))[None, :]).astype(np.int8))
    re = np.concatenate(blocks, axis=0)
    norm = np.full(re.shape[0], size, dtype=np.int64)
    norm[:size] = 1
    return re, np.zeros_like(re), norm


def real_codebook_by_blocks(f: BoolFun, eps=None):
    """Standard basis, characters, then one sign block per a != 0."""
    q = f.domain.ctx.order
    eps = [0] * (q - 1) if eps is None else eps
    tables = [scale_compose_by_halves(f, a, int(eps[a - 1])).table for a in range(1, q)]
    return _codebook_by_blocks(tables, char_sign_matrix(f.domain))


def semibent_codebook_by_blocks(g: BoolFun):
    q = g.domain.ctx.order
    tables = [scale_field_by_perm(g, a).table for a in range(1, q)]
    return _codebook_by_blocks(tables, char_sign_matrix(g.domain))


def mub_by_blocks(f: BoolFun):
    """Dense (re, im, norm_sq) rows of the MUB stack, one basis per a."""
    ctx = f.domain.ctx
    k = ctx.order
    lam_signs = char_sign_matrix(bf.Domain(ctx))
    bases_re = [np.eye(k, dtype=np.int8)]
    bases_im = [np.zeros((k, k), dtype=np.int8)]
    for a in range(k):
        are, aim = cbk.quaternary_entry_arrays(f, a)
        bases_re.append((lam_signs * are[None, :]).astype(np.int8))
        bases_im.append((lam_signs * aim[None, :]).astype(np.int8))
    norm = np.repeat(np.array([1] + [k] * k, dtype=np.int64), k)
    return np.concatenate(bases_re), np.concatenate(bases_im), norm


def verify_mub_by_pairs(mubs: cbk.MubSet) -> dict:
    """Exact orthonormality and unbiasedness checks over every basis pair of
    the materialized rows (``dense_rows``), k rows per basis.

    Unnormalized |<v, v'>|^2 must be: norm_sq^2 on the self-Gram diagonal, 0
    off it, K between two function bases, and 1 between the standard basis
    and a function basis (norm product K, so normalized 1/K throughout).
    Each basis's norm is read from its first row, so every norm must be 1
    or K.
    """
    k = mubs.k
    re, im, norm_sq = dense_rows(mubs.codebook)
    n_bases = len(re) // k
    bases = [(re[i * k:(i + 1) * k], im[i * k:(i + 1) * k]) for i in range(n_bases)]
    norms = [int(norm_sq[i * k]) for i in range(n_bases)]
    orthonormal = True
    unbiased = True
    for i, (bre, bim) in enumerate(bases):
        gre, gim = gram_int64(bre, bim, bre, bim)
        mag = gre * gre + gim * gim
        diag_ok = np.all(np.diag(gre) == norms[i]) and np.all(np.diag(gim) == 0)
        off = mag - np.diag(np.diag(mag))
        orthonormal = orthonormal and bool(diag_ok and not off.any())
    for i in range(n_bases):
        for j in range(i + 1, n_bases):
            gre, gim = gram_int64(*bases[i], *bases[j])
            mag = gre * gre + gim * gim
            expected = 1 if (norms[i] == 1 or norms[j] == 1) else k
            unbiased = unbiased and bool(np.all(mag == expected))
    return {
        "bases": n_bases,
        "complete": n_bases == k + 1,
        "orthonormal": orthonormal,
        "unbiased": unbiased,
    }


def pack_table(bits) -> int:
    word = 0
    for i, b in enumerate(bits):
        if b:
            word |= 1 << i
    return word


def code_f_by_labels(f: BoolFun) -> np.ndarray:
    """C(f) as uint64 words, one packed word per label (a, lam, u, v)."""
    ctx = f.domain.ctx
    q = ctx.order
    size = f.domain.size
    lam_words = [pack_table(np.tile(row, 2)) for row in ctx.trace_pairing()]
    x2_word = pack_table(np.concatenate([np.zeros(q, np.int64), np.ones(q, np.int64)]))
    full = (1 << size) - 1
    words = []
    for a in range(q):
        base = pack_table(scale_compose_by_halves(f, a, 0).table)
        for lam in range(q):
            for u in (0, 1):
                for v in (0, 1):
                    words.append(base ^ lam_words[lam] ^ (x2_word if u else 0) ^ (full if v else 0))
    return np.array(words, dtype=np.uint64)


def code_g_by_labels(g: BoolFun) -> np.ndarray:
    """C(g) as uint64 words, one packed word per label (a, lam, u)."""
    ctx = g.domain.ctx
    q = ctx.order
    lam_words = [pack_table(row) for row in ctx.trace_pairing()]
    full = (1 << q) - 1
    words = []
    for a in range(q):
        base = pack_table(scale_field_by_perm(g, a).table)
        for lam in range(q):
            for u in (0, 1):
                words.append(base ^ lam_words[lam] ^ (full if u else 0))
    return np.array(words, dtype=np.uint64)


# -- codes as packed words: the popcount scan and the pairwise closure ---------------


def packed_words(code: cd.NonlinearCode) -> np.ndarray:
    """Every word t_b + chi + c of a code of length <= 64 (block, then
    character row from ``char_sign_matrix``, then complement bit), packed
    little-endian into one uint64."""
    t = (code.codebook.re < 0).astype(np.uint8)
    chars = (char_sign_matrix(code.codebook.domain) < 0).astype(np.uint8)
    bits = t[:, None, None, :] ^ chars[:, None, :] ^ np.array([[0], [1]], np.uint8)
    packed = np.packbits(bits, axis=-1, bitorder="little").reshape(code.size, -1)
    words = np.zeros((code.size, 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view("<u8").ravel().astype(np.uint64)


def distributions_by_popcount(words: np.ndarray, length: int) -> cd.DistributionReport:
    """Exact A_i and B_i of uint64 words by popcount scan over all ordered
    word pairs."""
    m = len(words)
    wvals, wcounts = np.unique(np.bitwise_count(words), return_counts=True)
    weight = {int(v): int(c) for v, c in zip(wvals, wcounts)}
    pair_counts = np.zeros(length + 1, dtype=np.int64)
    block = max(1, (1 << 22) // m)
    for i0 in range(0, m, block):
        x = np.bitwise_xor(words[i0 : i0 + block, None], words[None, :])
        pair_counts += np.bincount(np.bitwise_count(x).ravel(), minlength=length + 1)
    if (pair_counts % m).any():
        raise AssertionError("distance counts must be divisible by M")
    distance = {i: int(c) // m for i, c in enumerate(pair_counts) if c}
    return cd.DistributionReport(weight, distance)


def is_linear_by_pairs(words) -> bool:
    """XOR closure of a word set, one membership test per pair."""
    ws = set(int(w) for w in words)
    if 0 not in ws:
        return False
    lst = sorted(ws)
    return all((a ^ b) in ws for i, a in enumerate(lst) for b in lst[i:])
