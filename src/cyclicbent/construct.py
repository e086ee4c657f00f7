"""Construction and certification of cyclic bent and cyclic semi-bent functions.

A function f on GF(2^{m-1}) x GF(2) (m even) is cyclic bent when
f(a x1, x2) + f(b x1, x2 + eps) is bent for every a != b and eps.  A function
g on GF(2^n) (n odd) is cyclic semi-bent when g(a x) + g(b x) is semi-bent
for every a != b.

Two certifiers are provided for each notion: a full one that scans every
ordered pair, and a reduced one that exploits homogeneity (and, in the bent
case, the affine-difference criterion that makes a single b-loop sufficient).
The reduced bent certifier first checks that f(x1, x2+1) + f(x1, x2) equals
tr(lam x1) + nu for some (lam, nu); if that hypothesis fails the reduced
route is inapplicable and AffineDifferenceError is raised, which is distinct
from a certificate that fails on bentness.

The four certifiers run on two scans, one full and one reduced, each
serving both kinds: the domain (field-times-bit or plain field) fixes the
kind, the eps axis and the witness shape.  Both gather their pair sums from
the orbit rows of f, read in log order (boolfun.orbit_gather); the full
scan stores them once as one (q n_eps, N) table and fills each batch from
at most two slices of it per a.  Both Walsh-transform the 0/1 pair sums as
they are, in batches of about bf.BATCH_VALUES = 2^18 values, the engine's
budget, in two float32 buffers that every batch reuses, and return the
first sum that is not bent (even m) or semi-bent (odd n).  A batch is
decided by Parseval's identity in two or three whole-batch reductions, and
only a failing batch is searched row by row (see _first_failure).  The
reduced scan first decides f itself as a one-row batch of the same test,
so one rule decides every row a certifier transforms.  Memory is bounded
by the batch at every m.  A certifier returns its certificate and nothing
else: every object built from a certified function is checked from what
it stores, not from the certifier's spectra.

Cost control: full bent mode is O(4^m) Walsh transforms and is capped at
m <= 8; reduced mode is allowed to m <= 16 (n <= 15 semi-bent), and
check_reduced_cap, which every caller runs, holds those caps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cyclicbent import boolfun as bf
from cyclicbent.boolfun import BoolFun, Domain
from cyclicbent.gf2 import GF2m, linear_table, mk_field

FULL_MODE_MAX_M = 8
REDUCED_MODE_MAX_M = 16
# the semi-bent scans grow as 8^n (full) and 4^n (reduced): 1.5 s at n = 9
# for the full one
SEMIBENT_FULL_MAX_N = 9
SEMIBENT_REDUCED_MAX_N = 15


def check_reduced_cap(n_vars: int, bent: bool) -> None:
    """Raise ValueError past the reduced bent (m) or semi-bent (n) cap, past
    which no certifier of the kind runs: a caller may check before building."""
    if bent and n_vars > REDUCED_MODE_MAX_M:
        raise ValueError(f"reduced certification capped at m <= {REDUCED_MODE_MAX_M}")
    if not bent and n_vars > SEMIBENT_REDUCED_MAX_N:
        raise ValueError(f"reduced semi-bent certification capped at n <= "
                         f"{SEMIBENT_REDUCED_MAX_N}, got n = {n_vars}")


class AffineDifferenceError(ValueError):
    """The x2-difference of f is not of the form tr(lam x1) + nu."""


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of the divisor-chain construction.

    e is the chain e_0 = 1 | e_1 | ... | e_l = m-1 with strict divisibility
    steps, so 1 = e_0 < e_1 < ... < e_l; gamma = (gamma_0, ..., gamma_{l-1})
    are elements of GF(2^{m-1}) (as canonical indices) with gamma_j in the
    subfield GF(2^{e_j}) and every partial sum gamma_0 + ... + gamma_j nonzero.
    """

    m: int
    e: tuple[int, ...]
    gamma: tuple[int, ...]

    def __post_init__(self):
        m, e, gamma = self.m, self.e, self.gamma
        if m % 2 != 0 or m < 4:
            raise ValueError("m must be even and >= 4")
        if len(e) < 2 or e[0] != 1 or e[-1] != m - 1:
            raise ValueError("chain must run from e_0 = 1 to e_l = m-1")
        for a, b in zip(e, e[1:]):
            if not a < b or b % a != 0:
                raise ValueError(f"chain steps must strictly divide: {a} -> {b}")
        if len(gamma) != len(e) - 1:
            raise ValueError("need one gamma per chain level below the top")
        ctx = self.ctx
        psum = 0
        for j, g in enumerate(gamma):
            if not 0 <= g < ctx.order:
                raise ValueError(f"gamma_{j} out of range")
            if not ctx.subfield_test(g, e[j]):
                raise ValueError(f"gamma_{j} not in GF(2^{e[j]})")
            psum ^= g
            if psum == 0:
                raise ValueError(f"partial sum gamma_0 + ... + gamma_{j} is zero")

    @property
    def ctx(self) -> GF2m:
        return mk_field(self.m - 1)

    @property
    def level_count(self) -> int:
        return len(self.e) - 1

    def cofactors(self) -> list[int]:
        return [(self.m - 1) // ej for ej in self.e]

    def to_json_obj(self) -> dict:
        return {"m": self.m, "e": list(self.e), "gamma": list(self.gamma)}

    @staticmethod
    def from_json_obj(obj: dict) -> "ChainSpec":
        return ChainSpec(int(obj["m"]), tuple(obj["e"]), tuple(obj["gamma"]))


@dataclass(frozen=True)
class CyclicCertificate:
    kind: str  # "bent" | "semi-bent"
    mode: str  # "full" | "reduced"
    passed: bool
    verified_pairs: int
    witness: tuple | None = None  # failing (a, b, eps) / (a, b) / (b,)

    def __post_init__(self):
        if self.passed == (self.witness is not None):
            raise ValueError("witness must be present exactly when the check failed")

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "mode": self.mode,
            "passed": self.passed,
            "verified_pairs": self.verified_pairs,
            "witness": list(self.witness) if self.witness else None,
        }


# -- constructions -----------------------------------------------------------------


def kerdock_fn(m: int) -> BoolFun:
    """K(x1,x2) = sum_{i=1}^{(m-2)/2} tr(x1^{2^i+1}) + x2 tr(x1) on GF(2^{m-1}) x GF(2):
    the divisor-chain function of the length-one chain 1 | m-1 with gamma = 1."""
    return chain_fn(ChainSpec(m, (1, m - 1), (1,)))


def chain_fn(spec: ChainSpec) -> BoolFun:
    """The divisor-chain cyclic bent function sum_j Q_j(gamma_j x1) + x2 tr(x1).

    Q_j(y) = tr(sum_{i=1}^{(f_j-1)/2} y^{2^{i e_j}+1}) with f_j = (m-1)/e_j.
    """
    ctx = spec.ctx
    fj = spec.cofactors()
    acc = np.zeros(ctx.order, dtype=np.int64)
    x = np.arange(ctx.order, dtype=np.int64)
    for j in range(spec.level_count):
        y = ctx.mul_table(spec.gamma[j])[x]
        for i in range(1, (fj[j] - 1) // 2 + 1):
            acc ^= ctx.pow_table((1 << (i * spec.e[j])) + 1)[y]
    tr1 = ctx.trace_table(1)
    quad = tr1[acc].astype(np.uint8)
    lin = tr1[x].astype(np.uint8)
    table = np.concatenate([quad, quad ^ lin])
    return BoolFun(Domain(ctx, with_bit=True), table)


def admissible_gammas(m: int, e: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All gamma vectors satisfying the partial-sum condition, as big-field indices."""
    ctx = mk_field(m - 1)
    levels = len(e) - 1
    out = []
    subfields = [ctx.subfield_elements(e[j]) for j in range(levels)]

    def grow(prefix, psum):
        j = len(prefix)
        if j == levels:
            out.append(tuple(prefix))
            return
        for g in subfields[j]:
            if psum ^ g != 0:
                grow(prefix + [g], psum ^ g)

    grow([], 0)
    return out


def normalize_zero(f: BoolFun) -> BoolFun:
    """f'(x1,x2) = f(x1,x2) + f(0,x2), forcing f'(0,0) = f'(0,1) = 0."""
    if not f.domain.with_bit:
        raise ValueError("normalize_zero needs a field-times-bit domain")
    half = f.domain.ctx.order
    table = f.table.copy()
    table[:half] ^= f.table[0]
    table[half:] ^= f.table[half]
    return BoolFun(f.domain, table)


def is_normalized(f: BoolFun) -> bool:
    half = f.domain.ctx.order
    return int(f.table[0]) == 0 and int(f.table[half]) == 0


def affine_bit_difference(f: BoolFun) -> tuple[int, int] | None:
    """If f(x1,x2+1)+f(x1,x2) = tr(lam x1) + nu for all x1, return (lam, nu)."""
    ctx = f.domain.ctx
    half = ctx.order
    diff = f.table[:half] ^ f.table[half:]
    nu = int(diff[0])
    lin = diff ^ nu
    # lin is tr(lam .) for some lam exactly when it is GF(2)-linear, and
    # tr(lam .) has bit pattern dual_index_table()[lam] on the basis points,
    # a bijection
    basis = 1 << np.arange(ctx.degree)
    if not np.array_equal(linear_table(lin[basis]), lin):
        return None
    mask = int(lin[basis] @ basis)
    return int(np.flatnonzero(ctx.dual_index_table() == mask)[0]), nu


# -- certifiers --------------------------------------------------------------------


def _first_failure(n_cases: int, sum_rows, n_vars: int, lead: int = 0) -> int:
    """Smallest case index in [0, n_cases) whose pair sum fails, or -1.

    sum_rows(start, stop) returns the 0/1 truth tables of cases [start, stop),
    one row each.  A row passes when every |W| = 2^{n/2} for even n_vars
    (bent), or every |W| is 0 or 2^{(n+1)/2} for odd n_vars (semi-bent).
    The cases are scanned in order, in batches of about bf.BATCH_VALUES
    values, the engine's budget, after the first lead cases (0 or 1) as a
    batch of their own, and the scan stops at the first batch with a
    failing row.  Every batch reuses one aligned pair of float32
    buffers (bf._aligned_pair): the rows, which the spectra overwrite, and
    X H'.

    The 0/1 rows t are transformed as they are: H t = 2^{n-1} delta_0 - W/2,
    so with 2^{n-1} taken off column 0 every value is V = -W/2, an integer,
    and sum_lam V^2 = 4^{n-1} in every row (Parseval).  A batch is decided
    by whole-batch reductions, and only a failing batch is searched row by
    row for its first failure:

    * even n: a batch passes iff every |V| <= 2^{n/2-1}, as max V and min V
      show: no |V| can then be smaller, or the squares would sum below
      4^{n-1};
    * odd n, p = 2^{(n-1)/2}: a batch passes iff every |V| <= p and every
      row has sum |V| = 4^{n-1}/p, since V^2 <= p |V| with equality exactly
      at |V| in {0, p}.  The max test alone is not enough (some 0/1 rows
      have |W| in {0, 4, 8} at n = 5).  The row sums are one float32
      mat-vec, exact: once every |V| <= p, each partial sum is an integer
      of at most 2^{(3n-1)/2}, 2^22 at the n = 15 cap.
    """
    length = 1 << n_vars
    batch = max(1, min(n_cases - lead, bf.BATCH_VALUES // length))
    odd = n_vars % 2
    peak = 1 << (n_vars // 2 - 1 + odd)  # |V| of a bent row, or p
    ones = np.ones(length, dtype=np.float32)
    row_sum = (1 << (2 * n_vars - 2)) // peak
    spec_buf, work_buf = bf._aligned_pair((batch, length))
    edges = [0] * (lead > 0) + list(range(lead, n_cases, batch)) + [n_cases]
    for start, stop in zip(edges, edges[1:]):
        v, work = spec_buf[: stop - start], work_buf[: stop - start]
        v[...] = sum_rows(start, stop)
        bf.walsh_many(v, out=v, work=work)
        v[:, 0] -= length >> 1
        if odd:
            mag = np.abs(v, out=v)
            if mag.max() <= peak and bool(np.all(mag @ ones == row_sum)):
                continue
            ok = (mag == peak) | (mag == 0)
        elif v.max() <= peak and v.min() >= -peak:
            continue
        else:
            ok = np.abs(v, out=v) == peak
        return start + int(np.flatnonzero(~ok.all(axis=1))[0])
    return -1


def _certify_full(f: BoolFun) -> CyclicCertificate:
    """Scan f(a .) + f(b ., . + eps) over ordered pairs a != b, a-major, and
    eps = 0, 1 on a field-times-bit domain (bent; witness (a, b, eps)), or
    eps = 0 alone on a plain field (semi-bent; witness (a, b))."""
    kind, n_eps = ("bent", 2) if f.domain.with_bit else ("semi-bent", 1)
    q = f.domain.ctx.order
    # row b n_eps + eps of by_b is f(b x1, x2 + eps); the cases of a are its
    # rows without those of b = a, each XORed with row a n_eps: two slices
    by_b = bf.orbit_tables(f, np.repeat(np.arange(q), n_eps), np.tile(np.arange(n_eps), q))
    per_a = (q - 1) * n_eps
    buf = np.empty((0, f.domain.size), dtype=np.uint8)

    def sum_rows(start: int, stop: int) -> np.ndarray:
        nonlocal buf
        if len(buf) < stop - start:
            buf = np.empty((stop - start, f.domain.size), dtype=np.uint8)
        at = 0
        for a in range(start // per_a, (stop - 1) // per_a + 1):
            k0, k1 = max(start - a * per_a, 0), min(stop - a * per_a, per_a)
            # case k of a is row k while b < a, that is k < a n_eps, else row k + n_eps
            cut = min(max(k0, a * n_eps), k1)
            for r0, r1 in ((k0, cut), (cut + n_eps, k1 + n_eps)):
                np.bitwise_xor(by_b[r0:r1], by_b[a * n_eps], out=buf[at : at + r1 - r0])
                at += r1 - r0
        return buf[:at]

    n_cases = q * per_a
    bad = _first_failure(n_cases, sum_rows, f.n_vars)
    if bad < 0:
        return CyclicCertificate(kind, "full", True, n_cases)
    a, k = divmod(bad, per_a)
    b, eps = divmod(k + n_eps * (k >= a * n_eps), n_eps)
    witness = (a, b, eps)[: 1 + n_eps]
    return CyclicCertificate(kind, "full", False, bad, witness)


def _certify_reduced(f: BoolFun) -> CyclicCertificate:
    """Scan f (case 0), then f + f(c .) for c = 2 .. q-1 (case c - 1).  A
    field-times-bit domain is the bent case (witness (1, b, 0)), a plain
    field the semi-bent case (witness (1, b)).  f itself is decided as a
    one-row batch of the same Parseval test, so one rule decides every row
    the certifier transforms, and a failing f costs one row."""
    kind, tail = ("bent", (0,)) if f.domain.with_bit else ("semi-bent", ())
    orbit = bf.orbit_gather(f.domain, f.table)  # f in log order, once for every batch

    def sum_rows(start: int, stop: int) -> np.ndarray:
        if start == 0:  # the lead batch
            return f.table[None]
        rows = orbit(np.arange(start + 1, stop + 1))
        rows ^= f.table
        return rows

    q = f.domain.ctx.order
    bad = _first_failure(q - 1, sum_rows, f.n_vars, lead=1)
    if bad < 0:
        return CyclicCertificate(kind, "reduced", True, q - 1)
    # case 0 stands for f + f(0 .), EA-equivalent to f: (a, b) = (1, 0) witnesses it
    b = bad + 1 if bad else 0
    return CyclicCertificate(kind, "reduced", False, bad, (1, b) + tail)


def _check_bent_domain(f: BoolFun) -> None:
    if f.n_vars % 2 != 0 or not f.domain.with_bit:
        raise ValueError("cyclic bent functions need even m, on GF(2^{m-1}) x GF(2)")


def is_cyclic_bent_full(f: BoolFun) -> CyclicCertificate:
    """Exhaustive check of f(a x1, x2) + f(b x1, x2+eps) over all ordered a != b, eps."""
    _check_bent_domain(f)
    m = f.n_vars
    if m > FULL_MODE_MAX_M:
        raise ValueError(
            f"full certification is O(4^m) Walsh transforms; m={m} exceeds the "
            f"cap {FULL_MODE_MAX_M} (use the reduced certifier)"
        )
    return _certify_full(f)


def is_cyclic_bent_reduced(f: BoolFun) -> CyclicCertificate:
    """Certify via the affine-difference criterion: f bent and f + f(b.) bent
    for all b outside GF(2).

    Raises AffineDifferenceError when f(x1,x2+1)+f(x1,x2) is not of the form
    tr(lam x1) + nu, in which case the reduction does not apply.
    """
    _check_bent_domain(f)
    check_reduced_cap(f.n_vars, bent=True)
    if affine_bit_difference(f) is None:
        raise AffineDifferenceError(
            "f(x1,x2+1)+f(x1,x2) is not tr(lam x1) + nu; reduced certification "
            "does not apply"
        )
    return _certify_reduced(f)


def certify_cyclic_bent(f: BoolFun, mode: str = "auto") -> CyclicCertificate:
    """Dispatch to the reduced certifier when its hypothesis holds, else
    full; the certificate's mode tells which route ran."""
    if mode == "reduced":
        return is_cyclic_bent_reduced(f)
    if mode == "full":
        return is_cyclic_bent_full(f)
    if mode != "auto":
        raise ValueError(f"unknown mode {mode!r}")
    try:
        return is_cyclic_bent_reduced(f)
    except AffineDifferenceError:
        return is_cyclic_bent_full(f)


def is_cyclic_semibent(g: BoolFun, mode: str = "reduced") -> CyclicCertificate:
    """Certify g(ax)+g(bx) semi-bent for all a != b on GF(2^n), n odd.

    reduced mode uses homogeneity: it checks g itself and g + g(c.) for all
    c outside {0, 1}; full mode scans every ordered pair.  Raises
    ValueError past n = SEMIBENT_REDUCED_MAX_N (reduced) or
    SEMIBENT_FULL_MAX_N (full).
    """
    if g.domain.with_bit:
        raise ValueError("cyclic semi-bent functions live on a plain field domain")
    if g.n_vars % 2 != 1:
        raise ValueError("cyclic semi-bent functions need an odd number of variables")
    if mode == "reduced":
        check_reduced_cap(g.n_vars, bent=False)
        return _certify_reduced(g)
    if mode != "full":
        raise ValueError(f"unknown mode {mode!r}")
    if g.n_vars > SEMIBENT_FULL_MAX_N:
        raise ValueError(f"full semi-bent certification capped at n <= "
                         f"{SEMIBENT_FULL_MAX_N}, got n = {g.n_vars}")
    return _certify_full(g)


def require_cyclic_bent(f: BoolFun, cert: CyclicCertificate | None = None) -> CyclicCertificate:
    """cert, or f's certificate when cert is None; raises unless it passed as bent."""
    if cert is None:
        cert = certify_cyclic_bent(f)
    if not (cert.kind == "bent" and cert.passed):
        raise ValueError("f is not certified cyclic bent")
    return cert


def require_cyclic_semibent(g: BoolFun, cert: CyclicCertificate | None = None) -> CyclicCertificate:
    """cert, or g's reduced certificate when cert is None; raises unless it
    passed as semi-bent."""
    if cert is None:
        cert = is_cyclic_semibent(g, "reduced")
    if not (cert.kind == "semi-bent" and cert.passed):
        raise ValueError("g is not certified cyclic semi-bent")
    return cert


# -- derived families ---------------------------------------------------------------


def bent_family(f: BoolFun, eps: list[int] | np.ndarray) -> list[BoolFun]:
    """{ f(a x1, x2 + eps_a) : a in GF(2^{m-1})* }: 2^{m-1}-1 bent functions whose
    pairwise sums are bent (f must be cyclic bent).

    eps is indexed by a - 1 for a = 1 .. 2^{m-1}-1.
    """
    q = f.domain.ctx.order
    if len(eps) != q - 1:
        raise ValueError(f"eps vector must have length {q - 1}")
    return [BoolFun(f.domain, t) for t in bf.orbit_tables(f, range(1, q), eps)]


def derive_semibent(f: BoolFun, eps: int) -> BoolFun:
    """Restriction x1 -> f(x1, eps): cyclic semi-bent when f is cyclic bent."""
    return bf.restrict(f, eps)


def derived_semibent_family(f: BoolFun, eps: list[int] | np.ndarray) -> list[BoolFun]:
    """{ x1 -> f(a x1, eps_a) : a in GF(2^{m-1})* }: semi-bent functions with
    semi-bent pairwise sums (f cyclic bent)."""
    q = f.domain.ctx.order
    if len(eps) != q - 1:
        raise ValueError(f"eps vector must have length {q - 1}")
    return [bf.restrict(BoolFun(f.domain, t), 0) for t in bf.orbit_tables(f, range(1, q), eps)]
