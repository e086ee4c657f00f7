"""Tests of the benchmark itself, on the m = 4 / n = 3 tier of each op list.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

import json
import os

import pytest

import run
import workloads

cli = run.import_cli()

from tracer import SPANS, Tracer, probes  # noqa: E402  (needs the path import_cli sets)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small_ops(name):
    return workloads.workload_ops(name, seed=11, tier="small")


def snapshot(scalar=True):
    return {(p.owner, p.attr): p.owner.__dict__[p.attr] for p in probes(scalar)}


@pytest.fixture(scope="module", autouse=True)
def contexts():
    for name in workloads.WORKLOADS:
        run.build_contexts(workloads.degrees(small_ops(name)))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_pass_checks_every_op_and_installs_no_wrapper(name, monkeypatch):
    before = snapshot()
    check = workloads.check

    def check_unwrapped(op, rc, stdout):
        assert snapshot() == before
        return check(op, rc, stdout)

    monkeypatch.setattr(workloads, "check", check_unwrapped)
    ops = small_ops(name)
    p = run.Pass(cli, ops)
    assert snapshot() == before
    assert p.failures(ops) == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_pass_nests_counts_and_restores(name):
    ops = small_ops(name)
    before = snapshot()
    records = []
    for _ in range(2):
        with Tracer() as tr:
            assert all(hasattr(fn, "__wrapped__") for fn in snapshot(scalar=False).values())
            p = run.Pass(cli, ops)
        assert snapshot() == before
        assert p.failures(ops) == []
        # spans nest: self times never add up to more than the pass took
        assert 0 < sum(tr.self_s.values()) <= p.wall
        assert set(tr.self_s) <= set(SPANS)
        records.append(tr)
    for tr in records:
        assert tr.counts["boolfun.walsh_rows"] == sum(op.rows for op in ops)
        assert tr.counts["construct.pairs_verified"] == sum(op.pairs for op in ops)
    assert records[0].counts == records[1].counts


def test_memory_pass_records_peaks_and_restores():
    ops = small_ops("histograms")
    before = snapshot()
    with Tracer(memory=True) as tr:
        p = run.Pass(cli, ops)
    assert snapshot() == before
    assert p.failures(ops) == []
    assert tr.counts["gf2.scalar_calls"] > 0
    for layer in ("construct", "seqfam", "codes"):
        assert tr.peak_bytes[layer] > 0


def test_closed_form_counters_of_the_full_certify_list():
    ops = workloads.workload_ops("certify", seed=0)
    assert sum(op.rows for op in ops) == 88953
    assert sum(op.pairs for op in ops) == 88951


def test_gate_rejects_a_deviating_report():
    op = small_ops("certify")[0]
    good = {"command": "construct",
            "certificate": {"kind": "bent", "mode": "reduced", "passed": True,
                            "verified_pairs": 7, "witness": None}}
    assert workloads.check(op, 0, json.dumps(good)) is None
    bad = json.loads(json.dumps(good))
    bad["certificate"]["verified_pairs"] = 6
    assert "verified_pairs" in workloads.check(op, 0, json.dumps(bad))
    assert "exit code" in workloads.check(op, 1, json.dumps(good))
    assert workloads.check(op, 0, "not json")


def test_an_op_that_raises_fails_and_the_pass_goes_on(monkeypatch):
    ops = small_ops("maxima")

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli.cbk, "verify_mub", boom)
    p = run.Pass(cli, ops)
    failures = p.failures(ops)
    assert len(p.times) == len(ops)
    assert len(failures) == 1 and "mub" in failures[0] and "injected" in failures[0]


def test_benchmark_json_lists_every_printed_metric(monkeypatch, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    full = workloads.workload_ops
    monkeypatch.setattr(workloads, "workload_ops",
                        lambda name, seed, tier="full": full(name, seed, "small"))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "maxima", "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[key])
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
