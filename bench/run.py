"""Benchmark of the cyclicbent CLI: time to verdict on three fixed workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

One process runs one workload.  A single client calls ``cyclicbent.cli.main``
in-process on each op of the workload's fixed list, one after another
(closed loop), capturing the JSON report.  Every op's exit code and report
are checked exactly against closed forms (see workloads.py).  Passes over the
list repeat until ``--seconds`` would be exceeded, with at least three.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced and
traced passes alternately, then one memory pass, and prints the per-layer
metrics (see tracer.py).  The last line of stdout is the JSON result; the
lines before it record the environment and the per-op medians.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 3
MAX_PASS_SECONDS = 150  # nothing new starts past this, whatever the minimum
SETUP_REPEATS = 7

# Set-up as a CLI user pays it on every call: a fresh interpreter imports the
# CLI and builds the field contexts, with their trace and dual tables.
SETUP_CODE = """
import sys
import cyclicbent.cli
from cyclicbent.gf2 import mk_field
for d in map(int, sys.argv[1:]):
    ctx = mk_field(d)
    ctx.trace_table(1)
    ctx.dual_index_table()
"""

SUBCOMMANDS = ("construct", "verify", "charquad", "codebook", "mub", "seqfam", "code",
               "design")


def import_cli():
    """The checkout's own ``cyclicbent.cli``; exits non-zero without it."""
    sys.path.insert(0, SRC)
    try:
        from cyclicbent import cli
    except ImportError as exc:
        sys.exit(f"cannot import cyclicbent from {SRC}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"cyclicbent was imported from {cli.__file__}, not from {SRC}")
    return cli


def build_contexts(degrees: list[int]) -> None:
    from cyclicbent.gf2 import mk_field

    for d in degrees:
        ctx = mk_field(d)
        ctx.trace_table(1)
        ctx.dual_index_table()


def measure_setup(degrees: list[int]) -> float:
    """Median wall time of SETUP_REPEATS fresh interpreters doing the set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-c", SETUP_CODE, *map(str, degrees)]
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first one also writes the bytecode cache
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"set-up failed:\n{proc.stderr}")
        if i:
            times.append(dt)
    return statistics.median(times)


class Pass:
    """One pass over the op list: wall time, per-op times, exit codes, outputs."""

    def __init__(self, cli, ops: list[workloads.Op]):
        self.times: list[float] = []
        self.results: list[tuple[object, str, str]] = []  # (rc, stdout, stderr)
        t0 = time.perf_counter()
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            t1 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # the op fails; the pass goes on
                rc = "raised " + traceback.format_exc()
            self.times.append(time.perf_counter() - t1)
            self.results.append((rc, out.getvalue(), err.getvalue()))
        self.wall = time.perf_counter() - t0

    def failures(self, ops: list[workloads.Op]) -> list[str]:
        out = []
        for op, (rc, stdout, stderr) in zip(ops, self.results):
            reason = workloads.check(op, rc, stdout)
            if reason:
                out.append(f"{' '.join(op.argv)}: {reason} {stderr.strip()}".rstrip())
        return out

    @property
    def report_bytes(self) -> int:
        return sum(len(stdout) for _, stdout, _ in self.results)


def op_medians(passes: list[Pass]) -> list[float]:
    return [statistics.median(p.times[i] for p in passes) for i in range(len(passes[0].times))]


def repeat(step, seconds: float, min_calls: int) -> None:
    """Call step() until the next call would end past ``seconds``, at least min_calls times."""
    start = time.perf_counter()
    walls = []
    while True:
        t0 = time.perf_counter()
        step()
        walls.append(time.perf_counter() - t0)
        next_end = time.perf_counter() - start + statistics.median(walls)
        if next_end > MAX_PASS_SECONDS or (len(walls) >= min_calls and next_end > seconds):
            return


def end_to_end(cli, ops, seconds: float) -> tuple[dict, list[Pass]]:
    degrees = workloads.degrees(ops)
    setup_s = measure_setup(degrees)
    build_contexts(degrees)
    passes = []
    repeat(lambda: passes.append(Pass(cli, ops)), seconds, MIN_PASSES)
    med = op_medians(passes)
    metrics = {"setup_s": (setup_s, "s"),
               "run_s": (statistics.median(p.wall for p in passes), "s")}
    metrics["main_s"] = (sum(t for op, t in zip(ops, med) if op.main), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, passes


def per_layer(cli, ops, seconds: float) -> tuple[dict, list[Pass], list[str]]:
    """Per-layer metrics from alternating untraced and traced passes."""
    from tracer import PEAK_LAYERS, SPANS, Tracer

    problems = []
    with Tracer() as setup_trace:
        build_contexts(workloads.degrees(ops))
    plain, traced, records = [], [], []

    def pair() -> None:
        plain.append(Pass(cli, ops))
        with Tracer() as tr:
            traced.append(Pass(cli, ops))
        records.append(tr)

    repeat(pair, seconds, 1)
    with Tracer(memory=True) as mem:
        memory_pass = Pass(cli, ops)

    per_pass = []
    for tr in records:
        row = {f"{span}_s": tr.self_s.get(span, 0.0) for span in SPANS}
        walsh_s = row["boolfun.walsh_s"]
        row["boolfun.walsh_ops_per_s"] = (
            tr.counts["boolfun.timed_butterfly_ops"] / walsh_s if walsh_s else 0.0)
        per_pass.append(row)
    metrics = {}
    for name in per_pass[0]:
        metrics[name] = (statistics.median(r[name] for r in per_pass),
                         "1/s" if name.endswith("_per_s") else "s")
    # contexts are cached after set-up, so their construction shows only there
    metrics["gf2.ctx_build_s"] = (setup_trace.self_s["gf2.ctx_build"], "s")

    count_keys = ("gf2.table_calls", "boolfun.walsh_rows",
                  "boolfun.butterfly_ops", "boolfun.walsh_bytes", "boolfun.compose_calls",
                  "construct.certify_calls", "construct.pairs_verified",
                  "codebook.imax_pairs", "seqfam.scan_calls", "seqfam.corr_values",
                  "codes.pairs", "codes.tsubsets", "linpoly.gcrd_calls")
    for key in count_keys:
        seen = {tr.counts.get(key, 0) for tr in records + [mem]}
        if len(seen) != 1:
            problems.append(f"{key} differs between passes: {sorted(seen)}")
        unit = "B" if key.endswith("_bytes") else "count"
        metrics[key] = (records[0].counts.get(key, 0), unit)
    metrics["gf2.scalar_calls"] = (mem.counts["gf2.scalar_calls"], "count")
    seen = {p.report_bytes for p in traced + [memory_pass]}
    if len(seen) != 1:
        problems.append(f"cli.report_bytes differs between passes: {sorted(seen)}")
    metrics["cli.report_bytes"] = (traced[0].report_bytes, "B")
    for key, want in (("boolfun.walsh_rows", sum(op.rows for op in ops)),
                      ("construct.pairs_verified", sum(op.pairs for op in ops))):
        if metrics[key][0] != want:
            problems.append(f"{key} is {metrics[key][0]}, closed form gives {want}")
    for layer in PEAK_LAYERS:
        metrics[f"{layer}.peak_mb"] = (mem.peak_bytes.get(layer, 0) / 2**20, "MB")

    med = op_medians(plain)
    for sub in SUBCOMMANDS:
        metrics[f"cmd.{sub}_s"] = (sum(t for op, t in zip(ops, med) if op.cmd == sub), "s")
    untraced = statistics.median(p.wall for p in plain)
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced) - untraced, "s")
    return metrics, plain + traced + [memory_pass], problems


def environment(args) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    commit = "none"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cyclicbent")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "src_sha256": digest.hexdigest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    ops = workloads.workload_ops(args.workload, args.seed)
    print(json.dumps({"env": environment(args)}))
    if args.trace:
        metrics, passes, problems = per_layer(cli, ops, args.seconds)
    else:
        metrics, passes = end_to_end(cli, ops, args.seconds)
        problems = []
    failures = [f for p in passes for f in p.failures(ops)]
    attempted = len(ops) * len(passes)
    if not args.trace:
        metrics["ok_frac"] = ((attempted - len(failures)) / attempted, "ratio")
    for line in failures + problems:
        print(f"FAIL {line}", file=sys.stderr)
    for op, t in zip(ops, op_medians(passes)):
        print(f"# {'main' if op.main else 'rest'}  {t:9.4f} s  {' '.join(op.argv)}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
