"""Exact arithmetic in binary fields GF(2^d) for 1 <= d <= 20.

Field elements are plain Python ints: the integer is the little-endian
bit pattern of the polynomial-basis coordinates, so 0 and 1 are the field
zero and one, and ``2`` is the class of x (the generator beta of every
default field).  All arithmetic routines live on a :class:`GF2m` context
object that is immutable after construction and safe to share across
threads.  The methods that take element indices (``mul``, ``pow``, ``inv``,
``div``, ``frobenius``, ``trace``, ``mul_table``) raise ValueError for an
index outside [0, 2^d) instead of wrapping round a table.

The default modulus for each degree comes from an embedded table of
primitive polynomials.  The table is untrusted: every modulus (default or
user-supplied) is re-verified for irreducibility at construction.  Every
context then builds its discrete-log/antilog tables, which proves that the
generator's multiplicative order is 2^d - 1, and multiplies, powers and
inverts through them.  The tables are two int64 arrays of 2^d entries, 16
MB at d = 20, the largest degree: every certifier of the package stops
below it (the bent ones at m <= 16, the semi-bent ones at n <= 15, the
quadratic characterization at m <= 19).

Every table of a GF(2)-linear map (trace, dual index, x -> beta^B x, the
linear parts that construct tests and codes takes off its coset leaders)
comes from one batched doubling kernel, ``linear_table``.
"""

from __future__ import annotations

import numpy as np

MAX_DEGREE = 20

# Primitive polynomials over GF(2), one per degree; bit i is the x^i coefficient.
DEFAULT_MODULUS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
    17: 0b100000000000001001,
    18: 0b1000000000010000001,
    19: 0b10000000000000100111,
    20: 0b100000000000000001001,
}


def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials given as ints."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def poly_mod(a: int, m: int) -> int:
    """Reduce polynomial a modulo polynomial m over GF(2)."""
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def poly_gcd(a: int, b: int) -> int:
    """gcd of two GF(2)[x] polynomials as ints."""
    while b:
        a = poly_mod(a, b)
        a, b = b, a
    return a


def xor_rank(vectors) -> int:
    """Rank over GF(2) of bit vectors given as ints, one pivot per leading bit."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


def orbit_minima(perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orbits of the permutation perm of 0 .. len(perm) - 1: their least
    elements, ascending, and their sizes.

    One pass of O(len(perm)) per power of perm up to its order, so O(N d)
    for a Frobenius map t -> 2^k t mod N of order d / k.  The working
    arrays take perm's dtype, so an int32 perm halves them.
    """
    perm = cur = np.asarray(perm)
    start = np.arange(len(perm), dtype=perm.dtype)
    low = start.copy()
    while not np.array_equal(cur, start):
        np.minimum(low, cur, out=low)
        cur = perm[cur]
    del start, cur  # before the int64 counts: at 2^19 entries this sets the peak
    # low maps every index to the least element of its orbit
    sizes = np.bincount(low)
    reps = np.flatnonzero(sizes)
    return reps, sizes[reps]


def linear_table(images) -> np.ndarray:
    """Values over all x of the GF(2)-linear map sending 2^j to images[..., j]:
    one map per leading index, so images shaped (..., d) give a table
    shaped (..., 2^d), in their dtype (int64 for a list of ints).

    Built by doubling in place: the values on [2^j, 2^{j+1}) are those on
    [0, 2^j) plus images[..., j].
    """
    images = np.asarray(images)
    t = np.zeros(images.shape[:-1] + (1 << images.shape[-1],), dtype=images.dtype)
    for j in range(images.shape[-1]):
        np.bitwise_xor(t[..., : 1 << j], images[..., j, None], out=t[..., 1 << j : 2 << j])
    return t


def is_irreducible(modulus: int, d: int) -> bool:
    """Ben-Or test: x^{2^d} = x mod p and gcd(x^{2^i} - x, p) = 1 for i <= d/2."""
    if modulus.bit_length() != d + 1:
        return False
    x = poly_mod(2, modulus)
    t = x
    for i in range(1, d + 1):
        t = poly_mod(clmul(t, t), modulus)
        if i <= d // 2 and i < d and poly_gcd(t ^ x, modulus) != 1:
            return False
    return t == x


class GF2m:
    """Context for GF(2^d) with a fixed modulus and generator beta = x.

    Attributes:
        degree: the extension degree d.
        modulus: the irreducible modulus polynomial as an int bit pattern.
        order: 2^d.
        generator: the primitive element beta (always the class of x, i.e.
            the int 2, except d = 1 where x reduces to 1).
    """

    def __init__(self, degree: int, modulus: int | None = None):
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in [1, {MAX_DEGREE}], got {degree}")
        if modulus is None:
            modulus = DEFAULT_MODULUS[degree]
        if modulus.bit_length() != degree + 1:
            raise ValueError(
                f"modulus must be monic of degree {degree}, got {bin(modulus)}"
            )
        if not is_irreducible(modulus, degree):
            raise ValueError(f"modulus {bin(modulus)} is reducible over GF(2)")
        self.degree = degree
        self.modulus = modulus
        self.order = 1 << degree
        self.generator = poly_mod(2, modulus)  # == 2 unless degree == 1
        self._build_log_tables()
        # Images of the basis 2^j under the absolute-trace bit, packed as a mask:
        # tr(x) = parity(x & trace_mask).
        self._trace1_mask = sum(self._trace_direct(1 << j) << j for j in range(degree))
        self._trace_tables: dict[int, np.ndarray] = {}
        self._dual_index = None
        self._log_window = None

    # -- construction-time checks -------------------------------------------------

    def _build_log_tables(self):
        """Antilog table in blocks of B = 2^ceil(d/2) powers: the first by
        repeated multiplication, each later one as the previous block mapped
        through the table of x -> beta^B x (GF(2)-linear), then the log
        table from it, after proving every nonzero element is hit once."""
        order = self.order
        block = [1]
        for _ in range(1 << -(-self.degree // 2)):
            block.append(self._mul_raw(block[-1], self.generator))
        step = block.pop()  # beta^B
        times_step = linear_table([self._mul_raw(step, 1 << j) for j in range(self.degree)])
        blocks = [np.array(block, dtype=np.int64)]
        while len(blocks) * len(block) < order - 1:
            blocks.append(times_step[blocks[-1]])
        exp = np.concatenate(blocks)[: order - 1]
        log = np.full(order, -1, dtype=np.int64)
        log[exp] = np.arange(order - 1)
        if np.any(log[exp] != np.arange(order - 1)):
            # x -> beta x is injective, so the powers first repeat at a 1
            i = 1 + int(np.flatnonzero(exp[1:] == 1)[0])
            raise ValueError(
                f"generator of GF(2^{self.degree}) has order {i} < {order - 1}; "
                "modulus is irreducible but x is not primitive"
            )
        if self._mul_raw(int(exp[-1]), self.generator) != 1:
            raise ValueError("generator order does not divide 2^d - 1")
        self._exp = exp
        self._log = log

    # -- scalar arithmetic --------------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        return poly_mod(clmul(a, b), self.modulus)

    def _out_of_range(self, *xs: int) -> ValueError:
        bad = next(x for x in xs if not 0 <= x < self.order)
        return ValueError(f"element index {bad} is outside [0, {self.order})")

    def add(self, a: int, b: int) -> int:
        return a ^ b

    # Element indices are checked as (a | b) >> degree, which is nonzero
    # exactly when some index is negative or at least 2^d.  inv, div and
    # frobenius rely on the checks in pow and mul.

    def mul(self, a: int, b: int) -> int:
        if (a | b) >> self.degree:
            raise self._out_of_range(a, b)
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.order - 1)])

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def pow(self, a: int, e: int) -> int:
        if a >> self.degree:
            raise self._out_of_range(a)
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0
        q = self.order - 1
        return int(self._exp[(self._log[a] * (e % q)) % q])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero in GF(2^d)")
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def frobenius(self, a: int, k: int = 1) -> int:
        """a^{2^k} (x -> x^{2^d} is the identity), as one power."""
        return self.pow(a, 1 << (k % self.degree))

    # -- traces and subfields -----------------------------------------------------

    def _trace_direct(self, x: int, r: int = 1) -> int:
        t = 0
        y = x
        for _ in range(self.degree // r):
            t ^= y
            for _ in range(r):
                y = self._mul_raw(y, y)
        return t

    def trace(self, x: int, r: int = 1) -> int:
        """Trace from GF(2^d) onto the subfield GF(2^r): sum of x^{2^{ir}}.

        Requires r | d.  The result is returned as an element of this field
        (it always lies in the subfield).  For r = 1 the result is 0 or 1.
        """
        if x >> self.degree:
            raise self._out_of_range(x)
        if self.degree % r != 0:
            raise ValueError(f"subfield degree {r} does not divide {self.degree}")
        if r == 1:
            return bin(x & self._trace1_mask).count("1") & 1
        return self._trace_direct(x, r)

    def trace_table(self, r: int = 1) -> np.ndarray:
        """Vector of trace(x, r) over all x in index order (built by linearity)."""
        if r not in self._trace_tables:
            if self.degree % r != 0:
                raise ValueError(f"subfield degree {r} does not divide {self.degree}")
            self._trace_tables[r] = linear_table(
                [self._trace_direct(1 << j, r) for j in range(self.degree)])
        return self._trace_tables[r]

    def subfield_test(self, x: int, r: int) -> bool:
        """True iff x lies in the subfield GF(2^r), i.e. x^{2^r} = x."""
        if self.degree % r != 0:
            raise ValueError(f"subfield degree {r} does not divide {self.degree}")
        y = x
        for _ in range(r):
            y = self.sqr(y)
        return y == x

    def subfield_elements(self, r: int) -> list[int]:
        """All elements of the subfield GF(2^r), sorted by index."""
        if self.degree % r != 0:
            raise ValueError(f"subfield degree {r} does not divide {self.degree}")
        if r == self.degree:
            return list(range(self.order))
        step = (self.order - 1) // ((1 << r) - 1)
        elems = {0} | {self.pow(self.generator, k * step) for k in range((1 << r) - 1)}
        return sorted(elems)

    # -- vectorized helpers -------------------------------------------------------

    def mul_table(self, b: int) -> np.ndarray:
        """Vector P with P[x] = b*x over all x (multiplication permutation)."""
        if b >> self.degree:
            raise self._out_of_range(b)
        if b == 0:
            return np.zeros(self.order, dtype=np.int64)
        q = self.order - 1
        p = np.empty(self.order, dtype=np.int64)
        p[0] = 0
        p[1:] = self._exp[(self._log[1:] + int(self._log[b])) % q]
        return p

    def pow_table(self, e: int) -> np.ndarray:
        """Vector with x^e over all x."""
        q = self.order - 1
        p = np.empty(self.order, dtype=np.int64)
        p[0] = 0 if e != 0 else 1
        p[1:] = self._exp[(self._log[1:] * (e % q)) % q]
        return p

    def dual_index_table(self) -> np.ndarray:
        """D with D[lam] = bit mask (tr(lam*2^j))_j, linking tr(lam x) to bit dot products.

        D is a GF(2)-linear bijection of [0, 2^d); it converts between the
        field inner product tr(lam x) and the plain bit inner product used
        by the fast Walsh butterfly.
        """
        if self._dual_index is None:
            bits = range(self.degree)
            self._dual_index = linear_table(
                [sum(self.trace(self.mul(1 << j, 1 << i)) << i for i in bits) for j in bits])
        return self._dual_index

    def log_window_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(E, L), cached and read-only: E[k] = beta^k for k in [0, 2(2^d - 1)),
        the antilog table twice round the cycle, and L[x] = log_beta x with
        L[0] = 0.  So c x = E[L[c] + L[x]] for nonzero c and x with no
        reduction mod 2^d - 1, and x -> E[L[c] + L[x]] reads a window of
        2^d - 1 consecutive entries of E.
        """
        if self._log_window is None:
            antilog = np.concatenate([self._exp, self._exp])
            log = np.maximum(self._log, 0)
            for t in (antilog, log):
                t.setflags(write=False)
            self._log_window = antilog, log
        return self._log_window

    def generator_powers(self, t) -> np.ndarray:
        """beta^t for every integer in t (any shape), read from the antilog table."""
        return self._exp[np.asarray(t) % (self.order - 1)]

    def discrete_logs(self, x) -> np.ndarray:
        """log_beta x in [0, 2^d - 1) for every element index in x (any
        shape), and -1 where x is 0, read from the log table."""
        x = np.asarray(x)
        if x.size and (x.min() < 0 or x.max() >= self.order):
            raise self._out_of_range(int(x.min()), int(x.max()))
        return self._log[x]

    def __repr__(self):
        return f"GF2m(degree={self.degree}, modulus={bin(self.modulus)})"

    def __eq__(self, other):
        return (
            isinstance(other, GF2m)
            and other.degree == self.degree
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash((self.degree, self.modulus))


_ctx_cache: dict[tuple[int, int], GF2m] = {}


def mk_field(degree: int, modulus: int | None = None) -> GF2m:
    """Construct (or fetch a cached) validated GF(2^degree) context."""
    key = (degree, modulus if modulus is not None else DEFAULT_MODULUS.get(degree, -1))
    if key not in _ctx_cache:
        _ctx_cache[key] = GF2m(degree, modulus)
    return _ctx_cache[key]
