"""Per-layer tracing of the cyclicbent package from outside it.

The package calls across modules through module attributes (``bf.walsh_many``,
``cn.certify_cyclic_bent``) and within a module through its globals, and
``GF2m`` methods through the class.  Replacing those attributes with wrappers
therefore sees every inner call without touching the package.  A wrapper
either opens a span (name, start, end; the enclosing span is its parent) or
only counts calls.  A span's self time is its duration minus the time of the
spans it encloses.

Spans are recorded on the thread that installed the tracer.  Calls made from
pool workers (``--threads 2``) are counted but not timed: their time stays
in the enclosing span of the calling thread.

With ``memory=True`` the tracer also runs ``tracemalloc`` and records, for the
outermost call into each of the construct, codebook, seqfam and codes
layers, the peak of memory traced during the call above what was traced at
its start.  ``tracemalloc`` slows allocation-heavy Python code, so memory is
measured in a pass of its own, which also counts the scalar ``GF2m`` calls:
there are about a million per pass, and counting them in a timed pass would
double the self time of the Python-level field arithmetic around them.
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from math import comb
from typing import Callable

from cyclicbent import boolfun, cli, codebook, codes, construct, gf2, linpoly, seqfam


@dataclass(frozen=True)
class Probe:
    """One attribute to wrap.

    span: span name whose self time is reported as ``<span>_s``, or None for
        a wrapper that only counts.
    on_return: called as ``on_return(tracer, args, result, outermost)``.
    layer: calls nested inside another call of the same layer are not
        outermost; only outermost calls open a memory window.
    """

    owner: object
    attr: str
    span: str | None = None
    on_return: Callable | None = None
    layer: str | None = None


def _count(key: str) -> Callable:
    def hook(tr, args, result, outermost):
        tr.add(key)
    return hook


def _walsh_rows(tr: "Tracer", rows: int, n: int, timed: bool) -> None:
    ops = rows * n * (n.bit_length() - 1)
    tr.add("boolfun.walsh_rows", rows)
    tr.add("boolfun.butterfly_ops", ops)
    # computed, not measured: one int64 read and one write per element per stage
    tr.add("boolfun.walsh_bytes", 16 * ops)
    if timed:
        tr.add("boolfun.timed_butterfly_ops", ops)


def _walsh(tr, args, result, outermost):
    _walsh_rows(tr, 1, args[0].domain.size, tr.on_main_thread())


def _walsh_many(tr, args, result, outermost):
    shape = args[0].shape
    rows = shape[0] if len(shape) == 2 else 1
    _walsh_rows(tr, rows, shape[-1], tr.on_main_thread())


def _certified(tr, args, result, outermost):
    if outermost:
        tr.add("construct.certify_calls")
        tr.add("construct.pairs_verified", result.verified_pairs)


def _imax(tr, args, result, outermost):
    n = args[0].n_rows
    tr.add("codebook.imax_pairs", n * (n - 1) // 2)


def _scan(tr, args, result, outermost):
    fam = args[0]
    tr.add("seqfam.scan_calls")
    tr.add("seqfam.corr_values", fam.size * fam.size * fam.period)


def _code_pairs(tr, args, result, outermost):
    tr.add("codes.pairs", args[0].size ** 2)


def _tsubsets(tr, args, result, outermost):
    code, _k, t = args
    tr.add("codes.tsubsets", comb(code.length, t))


SCALAR_CALLS = ("mul", "pow", "inv", "div", "frobenius", "trace")


def probes(scalar: bool = True) -> list[Probe]:
    """Every wrapped attribute, by layer (the module names of the package).

    scalar: include the count-only wrappers of the scalar GF2m calls.
    """
    F = gf2.GF2m
    out = [Probe(F, "__init__", "gf2.ctx_build")]
    out += [Probe(F, a, "gf2.table", _count("gf2.table_calls"))
            for a in ("mul_table", "pow_table", "trace_table", "dual_index_table")]
    if scalar:
        # only counted: a span per call would swamp the work
        out += [Probe(F, a, None, _count("gf2.scalar_calls")) for a in SCALAR_CALLS]
    out += [Probe(boolfun, "walsh", "boolfun.walsh", _walsh),
            Probe(boolfun, "walsh_many", "boolfun.walsh", _walsh_many)]
    out += [Probe(boolfun, a, "boolfun.compose", _count("boolfun.compose_calls"))
            for a in ("scale_compose", "scale_field", "xor", "restrict")]
    out += [Probe(construct, a, "construct.certify", _certified, "construct")
            for a in ("certify_cyclic_bent", "is_cyclic_bent_full",
                      "is_cyclic_bent_reduced", "is_cyclic_semibent")]
    out += [Probe(construct, a, "construct.build")
            for a in ("chain_fn", "kerdock_fn", "admissible_gammas")]
    out += [Probe(codebook, a, "codebook.build", layer="codebook")
            for a in ("build_real_codebook", "build_mub", "mub_to_codebook",
                      "build_semibent_codebook")]
    out += [Probe(codebook, "imax_sq", "codebook.imax", _imax, "codebook"),
            Probe(codebook, "optimality_report", "codebook.report", layer="codebook"),
            Probe(codebook, "verify_mub", "codebook.mub_verify", layer="codebook"),
            Probe(codebook, "mub_gram_via_walsh", "codebook.walsh_route", layer="codebook")]
    out += [Probe(seqfam, a, "seqfam.build", layer="seqfam")
            for a in ("quaternary_family", "binary_family", "semibent_family")]
    out += [Probe(seqfam, a, "seqfam.dist", layer="seqfam")
            for a in ("full_distribution", "r_max_sq")]
    out.append(Probe(seqfam, "_scan", None, _scan))
    out += [Probe(codes, a, "codes.build", layer="codes")
            for a in ("build_code_f", "build_code_g")]
    out += [Probe(codes, "weight_distance_distributions", "codes.dist", _code_pairs, "codes"),
            Probe(codes, "support_design", "codes.design", _tsubsets, "codes"),
            Probe(codes.NonlinearCode, "is_linear", "codes.linear", layer="codes")]
    out += [Probe(linpoly, "skew_gcrd", "linpoly.gcrd", _count("linpoly.gcrd_calls")),
            Probe(linpoly, "rdivmod", "linpoly.gcrd"),
            Probe(linpoly, "kernel_dim", "linpoly.rank"),
            Probe(linpoly, "quad_form", "linpoly.quad_form"),
            Probe(linpoly, "is_cyclic_semibent_quadratic", "linpoly.char")]
    out.append(Probe(cli, "main", "cli.self"))
    return out


SPANS = sorted({p.span for p in probes() if p.span})
PEAK_LAYERS = ("construct", "codebook", "seqfam", "codes")


class Tracer:
    """Installs the probes' wrappers and aggregates self times and counts."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._stack: list[list[float]] = []  # open spans: [start, child time]
        self._depth: dict[str, int] = defaultdict(int)
        self._windows: list[list] = []  # open memory windows: [layer, base, best]
        self._saved: list[tuple[object, str, object]] = []

    def on_main_thread(self) -> bool:
        return threading.get_ident() == self._main

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, probe: Probe, fn):
        span, hook, layer = probe.span, probe.on_return, probe.layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on_main_thread():
                result = fn(*args, **kwargs)
                if hook:
                    hook(self, args, result, False)
                return result
            outermost = layer is not None and self._depth[layer] == 0
            if layer:
                self._depth[layer] += 1
            if outermost and self.memory:
                self._open_window(layer)
            frame = [time.perf_counter(), 0.0] if span else None
            if frame:
                self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                if frame:
                    dur = time.perf_counter() - frame[0]
                    self._stack.pop()
                    self.self_s[span] += dur - frame[1]
                    if self._stack:
                        self._stack[-1][1] += dur
                if outermost and self.memory:
                    self._close_window()
                if layer:
                    self._depth[layer] -= 1
            if hook:
                hook(self, args, result, outermost)
            return result

        return wrapper

    def _open_window(self, layer: str) -> None:
        cur, peak = tracemalloc.get_traced_memory()
        for w in self._windows:
            w[2] = max(w[2], peak)
        tracemalloc.reset_peak()
        self._windows.append([layer, cur, cur])

    def _close_window(self) -> None:
        _cur, peak = tracemalloc.get_traced_memory()
        for w in self._windows:
            w[2] = max(w[2], peak)
        layer, base, best = self._windows.pop()
        self.peak_bytes[layer] = max(self.peak_bytes[layer], best - base)

    # -- install / restore ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for probe in probes(scalar=self.memory):
            original = probe.owner.__dict__[probe.attr]
            self._saved.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, self._wrap(probe, original))
        if self.memory:
            tracemalloc.start()

    def restore(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
