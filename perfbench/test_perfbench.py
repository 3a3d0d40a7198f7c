"""Tests of the benchmark itself: seeded inputs, output checks, tracing,
and small end-to-end runs.  Run with: python3 -m pytest perfbench"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import checks
import run
import speed
import workloads
from spans import Tracer

REPO = os.path.dirname(run.HERE)
RUN = os.path.join(run.HERE, "run.py")
PACKAGE = run.load_knotforge()
PINS = run.load_pins()


def _benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _result(*args):
    done = subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True, timeout=170, cwd=REPO
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_work_per_pass_is_the_same_for_every_seed(seed):
    catalog = workloads.catalog_requests(seed)
    lineage = workloads.lineage_requests(seed)
    assert len(catalog) >= 100 and len(lineage) >= 100
    assert sum(len(r.spec["n"]) * len(r.spec["i"]) for r in catalog) == 59_078
    assert sum(r.spec["genus"] ** 2 for r in lineage) == 131_932_161
    assert catalog != workloads.catalog_requests(seed + 1)
    assert lineage != workloads.lineage_requests(seed + 1)
    assert catalog == workloads.catalog_requests(seed)


def test_catalog_mix_covers_both_grid_shapes_and_formats():
    catalog = workloads.catalog_requests(workloads.DEFAULT_SEED)
    argvs = [" ".join(r.argv) for r in catalog]
    assert sum("--alpha=1,1 " in a for a in argvs) == len(catalog) // 2
    assert {r.spec["format"] for r in catalog} == {"csv", "txt"}
    assert any(len(r.spec["n"]) > 100 for r in catalog)
    assert any(len(r.spec["i"]) > 100 for r in catalog)


def _tamper_nth(n, edit):
    calls = []

    def invoke(cli, argv):
        rc, out, secs = run.call_cli(cli, argv)
        calls.append(argv)
        return rc, edit(out) if len(calls) == n else out, secs

    return invoke


@pytest.mark.parametrize(
    "workload, edit",
    [
        ("catalog", lambda out: out + "\n"),
        ("lineage", lambda out: out + "base eta1\n"),
        ("lineage", lambda out: out.replace("components=1", "components=2")),
    ],
)
def test_a_tampered_output_counts_as_failed(workload, edit):
    requests = workloads.requests(workload, workloads.DEFAULT_SEED)
    if workload == "lineage":
        requests = [r for r in requests if r.spec["genus"] < 50][:5]
    else:
        requests = [r for r in requests if len(r.spec["n"]) * len(r.spec["i"]) < 50][:5]
    ctx = run.Context(workload, workloads.DEFAULT_SEED, PACKAGE, PINS)
    clean = run.Tally()
    run.run_pass(ctx, requests, clean)
    assert (clean.attempted, clean.failed) == (5, 0)
    tampered = run.Tally()
    run.run_pass(ctx, requests, tampered, invoke=_tamper_nth(3, edit))
    assert (tampered.attempted, tampered.failed) == (5, 1)


def _verify_report(table):
    maps = PACKAGE.maps
    cells = tuple(
        maps.CellResult(v, e, method, n, above, (), tight)
        for v, e, method, n, above, tight in table["cells"]
    )
    report = maps.ParallelEdgeReport(2, 6, -2, cells, "note")
    triangulations = tuple(
        maps.TriangulationResult(v, e, -1, count, (3,) * count, 3)
        for v, e, count in table["triangulations"]
    )
    return report.render() + maps.TriangulationReport(triangulations, 1).render()


def test_verify_check_compares_with_the_pinned_table():
    (request,) = workloads.verify_requests(0)
    table = PINS["verify"]
    assert checks.check_verify(request, 0, _verify_report(table), PINS) == 825 + 8
    changed = json.loads(json.dumps(table))
    changed["cells"][-1][3] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(request, 0, _verify_report(changed), PINS)
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(request, 1, _verify_report(table), PINS)


def test_lineage_closed_forms_match_the_builds():
    plumbing = PACKAGE.plumbing
    for construction, build in (("eta", plumbing.eta), ("gamma", plumbing.gamma)):
        for g in (2, 3, 4, 9):
            pair = build(g)
            assert len(pair.lineage) == checks.lineage_steps(construction, g)


def test_tracer_counts_and_restores_the_program():
    torus, catalog = PACKAGE.torus, PACKAGE.catalog
    original = torus.dehn_twist
    tracer = Tracer(PACKAGE)
    requests = [
        r for r in workloads.catalog_requests(0) if len(r.spec["n"]) * len(r.spec["i"]) < 20
    ]
    ctx = run.Context("catalog", 0, PACKAGE, PINS, tracer)
    tracer.install()
    try:
        assert catalog.dehn_twist is torus.dehn_twist is not original
        tally = run.Tally()
        run.run_pass(ctx, requests, tally)
    finally:
        tracer.uninstall()
    assert catalog.dehn_twist is torus.dehn_twist is original
    assert tally.failed == 0
    assert tracer.stat("torus.dehn_twist")[0] == tally.items
    assert tracer.stat("cli.main")[0] == len(requests)
    assert tracer.stack == []
    assert len(tracer.span_name) == len(tracer.span_end) == len(tracer.span_parent)


def test_speed_scale_uses_the_samples_near_the_request():
    sampler = speed.Sampler()
    sampler.at = [1.0, 2.0, 3.0, 10.0]
    sampler.took = [speed.NOMINAL_S, 2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S, 4 * speed.NOMINAL_S]
    assert sampler.scale(2.0, 2.6) == 0.5
    assert sampler.scale(1.0, 3.0) == pytest.approx(0.6)  # mean, not median
    assert sampler.scale(9.9, 10.0) == 0.25
    assert sampler.scale(6.0, 6.1) == pytest.approx(1 / 3)  # none near: the two nearest


def test_sampled_time_is_left_out_of_request_time():
    (request,) = workloads.verify_requests(0)
    ctx = run.Context("verify", 0, PACKAGE, PINS)
    elapsed = []

    def busy(cli, argv):
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        elapsed.append(time.perf_counter() - start)
        return 0, "", elapsed[0]

    with speed.Sampler() as sampler:
        ctx.sampler = sampler
        _, _, secs, work, _ = run.run_request(ctx, request, busy)
    assert len(sampler.took) >= 3
    assert secs == work == pytest.approx(elapsed[0] - sum(sampler.took))
    assert signal.getsignal(signal.SIGALRM) != sampler._sample


def test_benchmark_json_names_every_metric_the_run_reports():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_smoke_untraced_run():
    result = _result("--workload", "lineage", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run():
    result = _result("--workload", "catalog", "--seed", "2", "--seconds", "0", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["torus.dehn_twist.calls"] == metrics["catalog.rows"]
    assert metrics["catalog.render.bytes"] == metrics["cli.stdout.bytes"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
