"""Op lists of the three benchmark workloads and the exact gate for every op.

An op is one ``cyclicbent`` CLI invocation.  For each op this module fixes,
from closed forms of the paper, the exit code and the JSON fields the report
must carry, plus the number of Walsh rows the op transforms and the number
of pairs its certifier verifies (the traced run checks both counters).

Every workload has a full tier (the benchmark) and a small tier at
m = 4 / n = 3 with the same ops (the benchmark's own tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd

WORKLOADS = ("certify", "maxima", "histograms")

# Sizes of each workload's ops, full and small tier.
SIZES = {
    "full": {
        "certify": {"big": 12, "chain_m": 10, "chain": (1, 3, 9), "full_m": 8,
                    "red_n": 11, "full_n": 7, "cq_m": 11, "cq_i": 2,
                    "rej_m": 9, "rej_i": 3, "rej_n": 9},
        "maxima": {"m": 6, "n": 5},
        "histograms": {"quat_m": 8, "m": 6, "n": 5, "design_m_k": (28, 32, 36),
                       "design_n_k": 12},
    },
    "small": {
        "certify": {"big": 4, "chain_m": 4, "chain": (1, 3), "full_m": 4,
                    "red_n": 3, "full_n": 3, "cq_m": 3, "cq_i": 1,
                    "rej_m": 3, "rej_i": 0, "rej_n": 3},
        "maxima": {"m": 4, "n": 3},
        "histograms": {"quat_m": 4, "m": 4, "n": 3, "design_m_k": (6, 8, 10),
                       "design_n_k": 4},
    },
}


@dataclass(frozen=True)
class Op:
    """One CLI call with its exact expected outcome.

    ``expect`` is matched as a subset of the JSON report: every key it names
    must be present with an equal value of the same type; lists must match
    element by element.
    """

    argv: tuple[str, ...]
    # counts in main_s: construct and verify, the real codebooks, seqfam.  The
    # other ops spread too much from run to run to carry a bound of their own
    # (see README.md); they count in run_s only.
    main: bool
    rc: int
    expect: dict = field(compare=False)
    rows: int  # Walsh rows transformed: walsh_many rows plus one per walsh()
    pairs: int  # verified_pairs summed over the op's outermost certificates

    @property
    def cmd(self) -> str:
        return self.argv[0]

    @property
    def degree(self) -> int:
        """Degree of the field the op computes in (the set-up context)."""
        args = dict(zip(self.argv[1::2], self.argv[2::2]))
        if "--n" in args:
            return int(args["--n"])
        m = int(args["--m"])
        return m if self.cmd == "charquad" else m - 1


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _cert(kind: str, mode: str, pairs: int, witness=None) -> dict:
    return {"kind": kind, "mode": mode, "passed": witness is None,
            "verified_pairs": pairs, "witness": witness}


def _gammas(chain: tuple[int, ...]) -> int:
    """Admissible gamma vectors of a divisor chain: prod_{j<l} (2^{e_j} - 1)."""
    out = 1
    for e in chain[:-1]:
        out *= (1 << e) - 1
    return out


def _bent_reduced(m: int) -> int:
    """Reduced bent certificate at m: f itself plus q - 2 sums, q = 2^{m-1}."""
    return (1 << (m - 1)) - 1


def _real_bound(n_rows: int, k: int) -> Fraction:
    return Fraction(3 * n_rows - k * k - 2 * k, (n_rows - k) * (k + 2))


def _weights_f(m: int) -> dict[int, int]:
    """Closed-form weight distribution of C(f), f cyclic bent in m variables."""
    h, r = 1 << (m - 1), 1 << ((m - 2) // 2)
    return {0: 1, 1 << m: 1, h: (1 << (m + 1)) - 2,
            h + r: (1 << m) * (h - 1), h - r: (1 << m) * (h - 1)}


def _weights_g(n: int) -> dict[int, int]:
    """Closed-form weight distribution of C(g), g cyclic semi-bent on GF(2^n)."""
    h, r = 1 << (n - 1), 1 << ((n - 1) // 2)
    side = (1 << (2 * n - 1)) - h
    return {0: 1, 1 << n: 1, h: (1 << (2 * n)) + (1 << n) - 2, h + r: side, h - r: side}


def _code(weights: dict[int, int], length: int) -> dict:
    return {"length": length, "size": sum(weights.values()),
            "min_distance": min(w for w in weights if w),
            "weight_distribution": {str(k): v for k, v in sorted(weights.items())},
            "distance_equals_weight": True, "closed_form_check": "PASS"}


def _design(weights: dict[int, int], v: int, k: int, t: int) -> dict:
    b = weights[k]
    lam, rem = divmod(b * comb(k, t), comb(v, t))
    if rem:
        raise ValueError(f"no {t}-design with v={v}, k={k}, b={b}")
    return {"t": t, "v": v, "k": k, "b": b, "lambda": lam, "witness": None,
            "status": "DESIGN"}


def _seqfam(size: int, period: int, r_max_sq: int) -> dict:
    return {"family_size": size, "period": period, "r_max_sq": r_max_sq,
            "table_check": "PASS",
            "distribution": {"total": size * size * period}}


def _certify_ops(s: dict) -> list[Op]:
    big, cm, chain = s["big"], s["chain_m"], s["chain"]
    fm, rn, fn = s["full_m"], s["red_n"], s["full_n"]
    fq, rq, nq = 1 << (fm - 1), 1 << rn, 1 << fn
    chain_pairs = _bent_reduced(cm)
    n_chains = _gammas(chain)
    full_pairs = 2 * fq * (fq - 1)

    def charquad(m: int, i: int, verdict: bool) -> dict:
        path = {"base_dim": gcd(i, m), "verdict": verdict}
        return {"m": m, "cyclic_semibent": verdict, "gcrd_path": path,
                "rank_path": path, "paths_agree": True}

    return [
        Op(_argv(f"construct --m {big} --mode reduced"), True, 0,
           {"certificate": _cert("bent", "reduced", _bent_reduced(big))},
           _bent_reduced(big), _bent_reduced(big)),
        Op(_argv(f"construct --m {cm} --chain {','.join(map(str, chain))} "
                 "--enumerate-gamma --mode reduced"), True, 0,
           {"all_passed": True,
            "chains": [{"certificate": _cert("bent", "reduced", chain_pairs)}] * n_chains},
           n_chains * chain_pairs, n_chains * chain_pairs),
        Op(_argv(f"verify --m {fm} --mode full"), True, 0,
           {"certificate": _cert("bent", "full", full_pairs)}, full_pairs, full_pairs),
        Op(_argv(f"verify --m {fm} --mode full --threads 2"), True, 0,
           {"certificate": _cert("bent", "full", full_pairs)}, full_pairs, full_pairs),
        Op(_argv(f"verify --n {rn} --mode reduced"), True, 0,
           {"n": rn, "certificate": _cert("semi-bent", "reduced", rq - 1)}, rq - 1, rq - 1),
        Op(_argv(f"verify --n {fn} --mode full"), True, 0,
           {"n": fn, "certificate": _cert("semi-bent", "full", nq * (nq - 1))},
           nq * (nq - 1), nq * (nq - 1)),
        Op(_argv(f"charquad --m {s['cq_m']} --L x^{1 << s['cq_i']}"), False, 0,
           charquad(s["cq_m"], s["cq_i"], True), 0, 0),
        # rejections: tr(x^{2^i+1}) with gcd(i, m) > 1 is not semi-bent, so
        # the Walsh check stops after the one transform of g itself
        Op(_argv(f"charquad --m {s['rej_m']} --L x^{1 << s['rej_i']} --walsh-check"), False, 0,
           {**charquad(s["rej_m"], s["rej_i"], False), "walsh_verdict": False}, 1, 0),
        Op(_argv(f"verify --n {s['rej_n']} --gold 3 --mode reduced"), True, 1,
           {"n": s["rej_n"], "certificate": _cert("semi-bent", "reduced", 0, [1, 0])}, 1, 0),
    ]


def _maxima_ops(s: dict, seed: int) -> list[Op]:
    m, n = s["m"], s["n"]
    size, k, q = 1 << m, 1 << (m - 1), 1 << n
    cert = _bent_reduced(m)
    real_rows = k * size + size

    def real(extra: str) -> Op:
        imax = Fraction(1, size)
        return Op(_argv(f"codebook --m {m}{extra}"), True, 0,
                  {"kind": "real", "status": "OPTIMAL", "n_rows": real_rows,
                   "length": size, "alphabet_size": 4, "imax_sq": str(imax),
                   "bound_sq": str(_real_bound(real_rows, size)), "optimal": True},
                  cert, cert)

    sb_rows = q * q + q
    return [
        real(""),
        real(f" --eps random --seed {seed}"),
        real(" --threads 2"),
        Op(_argv(f"codebook --m {m} --kind complex"), False, 0,
           {"kind": "complex", "status": "OPTIMAL", "n_rows": k * k + k, "length": k,
            "alphabet_size": 6, "imax_sq": str(Fraction(1, k)),
            "bound_sq": str(Fraction(2 * (k * k + k) - k * k - k, k * k * (k + 1))),
            "optimal": True}, cert, cert),
        Op(_argv(f"codebook --n {n} --kind semibent"), False, 0,
           {"kind": "semibent", "status": "ALMOST (exact imax_sq = 2^(1-n))",
            "n_rows": sb_rows, "length": q, "alphabet_size": 4,
            "imax_sq": str(Fraction(2, q)), "bound_sq": str(_real_bound(sb_rows, q)),
            "optimal": False}, q - 1, q - 1),
        # the Walsh route transforms two sums for each of the C(k, 2) base pairs
        Op(_argv(f"mub --m {m} --walsh-check"), False, 0,
           {"k": k, "bases": k + 1, "complete": True, "orthonormal": True,
            "unbiased": True, "walsh_route_agrees": True, "status": "PASS"},
           cert + k * (k - 1), cert),
    ]


def _histogram_ops(s: dict) -> list[Op]:
    qm, m, n = s["quat_m"], s["m"], s["n"]
    kq, kb, q = 1 << (qm - 1), 1 << (m - 1), 1 << n
    rq, rb, rs = 1 << ((qm - 2) // 2), 1 << (m // 2), 1 << ((n + 1) // 2)
    wf, wg = _weights_f(m), _weights_g(n)
    cf, cg = _bent_reduced(m), q - 1
    ops = [
        Op(_argv(f"seqfam --kind quaternary --m {qm} --table-check"), True, 0,
           _seqfam(kq + 1, kq - 1, (rq + 1) ** 2 + rq * rq),
           _bent_reduced(qm), _bent_reduced(qm)),
        Op(_argv(f"seqfam --kind semibent --n {n} --table-check"), True, 0,
           _seqfam(q + 1, q - 1, (rs + 1) ** 2), cg, cg),
        Op(_argv(f"seqfam --kind binary --m {m} --table-check"), True, 0,
           _seqfam(kb, 2 * (kb - 1), (rb + 2) ** 2), cf, cf),
        Op(_argv(f"code --m {m}"), False, 0, _code(wf, 1 << m), cf, cf),
        Op(_argv(f"code --n {n}"), False, 0, _code(wg, q), cg, cg),
    ]
    ops += [Op(_argv(f"design --m {m} --k {k} --t 3"), False, 0, _design(wf, 1 << m, k, 3), cf, cf)
            for k in s["design_m_k"]]
    k = s["design_n_k"]
    ops.append(Op(_argv(f"design --n {n} --k {k} --t 3"), False, 0, _design(wg, q, k, 3), cg, cg))
    return ops


def workload_ops(name: str, seed: int, tier: str = "full") -> list[Op]:
    """The fixed op list of a workload; ``seed`` only feeds ``--eps random``."""
    s = SIZES[tier][name]
    if name == "certify":
        return _certify_ops(s)
    if name == "maxima":
        return _maxima_ops(s, seed)
    return _histogram_ops(s)


def degrees(ops: list[Op]) -> list[int]:
    """Field degrees a workload computes in, for the set-up contexts."""
    return sorted({op.degree for op in ops})


def _mismatch(expected, actual, path: str) -> str | None:
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{path or 'report'} is not an object"
        for key, value in expected.items():
            if key not in actual:
                return f"{path}.{key} missing"
            bad = _mismatch(value, actual[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{path}: expected a list of {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            bad = _mismatch(e, a, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if type(expected) is not type(actual) or expected != actual:
        return f"{path}: expected {expected!r}, got {actual!r}"
    return None


def check(op: Op, rc, stdout: str) -> str | None:
    """None when the op exited and reported exactly as expected, else why not."""
    if rc != op.rc:
        return f"exit code {rc!r}, expected {op.rc}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if report.get("command") != op.cmd:
        return f"command {report.get('command')!r}, expected {op.cmd!r}"
    return _mismatch(op.expect, report, "")
