"""knotforge benchmark.

    python3 perfbench/run.py --workload verify|catalog|lineage --seed N \
        --seconds S --trace 0|1

Each workload is a closed loop with one client in this one process: the
next request starts when the previous one has finished and been checked.
A request is one in-process knotforge.cli.main(argv) call with stdout
captured, so it costs what one CLI command costs, argument parsing and
rendering included.  Requests run in passes over the seeded request list
(workloads.py) until --seconds have gone by; every pass is the same work.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced passes for the same time and reports the
per-layer metrics from the traced ones (spans.py), with the ratio of traced
to untraced time as trace_overhead; the spans go to perfbench/out/.

Every request's output is checked (checks.py).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
benchmark imports knotforge only from the checkout's src/ and exits with
code 1, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
import speed
import workloads
from spans import ROOT, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PINS = os.path.join(HERE, "pins.json")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 15
WARMUP_REQUESTS = 10
# Cells enumerated by the verify request: the parallel-edge path covers
# V <= 2, E <= 6; the class-bound path adds (3, 3) and repeats (1, 3), (2, 6).
VERIFY_CELLS = tuple((v, e) for v in (1, 2) for e in range(1, 7)) + ((3, 3),)

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "request_ms.p50": "ms",
    "request_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "maps.verify_parallelP.s": "s",
    "maps.verify_parallel_class_bound.s": "s",
    "maps.enumerate_maps.s": "s",
    "maps.is_connected.calls": "count",
    "maps.is_connected.s": "s",
    "maps.trace_faces.calls": "count",
    "maps.trace_faces.s": "s",
    "maps.canonical_key.calls": "count",
    "maps.canonical_key.s": "s",
    "maps.iso_classes": "count",
    "maps.yield_ratio": "ratio",
    "maps.enumerate.self_s": "s",
    **{f"maps.cell.V{v}E{e}.s": "s" for v, e in VERIFY_CELLS},
    "torus.dehn_twist.calls": "count",
    "torus.dehn_twist.s": "s",
    "torus.normalize.calls": "count",
    "torus.is_exceptional.calls": "count",
    "bounds.calls": "count",
    "bounds.s": "s",
    "bounds.bridge_lower_bound.calls": "count",
    "bounds.bridge_lower_bound.s": "s",
    "catalog.generate_family.s": "s",
    "catalog.build_certificate.calls": "count",
    "catalog.build_certificate.s": "s",
    "catalog.render_csv.s": "s",
    "catalog.render_txt.s": "s",
    "catalog.self_s": "s",
    "catalog.rows": "count",
    "catalog.render.bytes": "bytes",
    "plumbing.plumb.calls": "count",
    "plumbing.plumb.s": "s",
    "plumbing.lineage_copied": "count",
    "plumbing.eta.s": "s",
    "plumbing.gamma.s": "s",
    "plumbing.trace.s": "s",
    "plumbing.replay.s": "s",
    "pants.gamma2.calls": "count",
    "pants.load_seam_data.calls": "count",
    "pants.load_seam_data.s": "s",
    "pants.validate.calls": "count",
    "cli.main.self_s": "s",
    "cli.stdout.bytes": "bytes",
    "trace_overhead": "ratio",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
}


def load_knotforge():
    """Import knotforge from this checkout's src/, or exit with code 1."""
    sys.path.insert(0, SRC)
    try:
        import knotforge
        import knotforge.cli  # noqa: F401  (imports every other module)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import knotforge from {SRC}: {exc}")
    if not os.path.abspath(knotforge.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: knotforge was imported from {knotforge.__file__}, not {SRC}")
    return knotforge


def load_pins() -> dict:
    try:
        with open(PINS, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        sys.exit(f"perfbench: cannot read {PINS}: {exc}")


class Tally:
    """What one side of a run (untraced or traced) did."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.stdout_chars = 0
        self.reasons: list[str] = []
        # per request that returned: wall seconds of the CLI call, work
        # seconds (CLI call plus replay), when it started and ended, and the
        # items its checked output shows
        self.request_s: list[float] = []
        self.work: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.request_items: list[int] = []
        self.pass_starts: list[int] = []  # index of each pass's first record

    def record(self, secs: float, work: float, start: float, end: float) -> None:
        self.request_s.append(secs)
        self.work.append(work)
        self.windows.append((start, end))
        self.request_items.append(0)

    @property
    def items(self) -> int:
        return sum(self.request_items)

    @property
    def work_s(self) -> float:
        return sum(self.work)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons.append(reason)


class Context:
    def __init__(self, workload, seed, package, pins, tracer=None):
        self.workload = workload
        self.seed = seed
        self.package = package
        self.pins = pins
        self.tracer = tracer
        self.sampler = None

    def sampled_s(self) -> float:
        return self.sampler.spent if self.sampler else 0.0


def call_cli(cli, argv):
    """Run one CLI command in-process; returns (exit code, stdout, seconds)."""
    saved = sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdout, sys.stderr = out, io.StringIO()
    start = time.perf_counter()
    try:
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        elapsed = time.perf_counter() - start
    finally:
        sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), elapsed


def run_request(ctx, request, invoke):
    """One request: the CLI call, plus for lineage the replay of its trace.
    Returns (exit code, stdout, request seconds, work seconds, replayed pair);
    time spent in speed samples is left out of both."""
    sampled = ctx.sampled_s()
    rc, out, secs = invoke(ctx.package.cli, request.argv)
    secs -= ctx.sampled_s() - sampled
    work, replayed = secs, None
    if ctx.workload == "lineage":
        trace = out.partition("trace:\n")[2]
        sampled = ctx.sampled_s()
        start = time.perf_counter()
        replayed = ctx.package.plumbing.replay(trace)
        work += time.perf_counter() - start - (ctx.sampled_s() - sampled)
    return rc, out, secs, work, replayed


def check(ctx, request, rc, out, replayed) -> int:
    if ctx.workload == "verify":
        return checks.check_verify(request, rc, out, ctx.pins)
    if ctx.workload == "catalog":
        return checks.check_catalog(request, rc, out, ctx.pins, ctx.seed)
    return checks.check_lineage(request, rc, out, replayed)


def run_pass(ctx, requests, tally, invoke=call_cli) -> None:
    tracer = ctx.tracer
    root = tracer.name_id(ROOT) if tracer else None
    tally.pass_starts.append(len(tally.request_s))
    for request in requests:
        tally.attempted += 1
        if tracer:
            tracer.request += 1
            tracer.enter(root)
        start = time.perf_counter()
        try:
            rc, out, secs, work, replayed = run_request(ctx, request, invoke)
        except Exception as exc:  # a raising request is a failed one; keep going
            tally.fail(f"request {request.index} {request.argv}: raised {exc!r}")
            continue
        finally:
            if tracer:
                tracer.exit()
        tally.record(secs, work, start, time.perf_counter())
        tally.stdout_chars += len(out)
        try:
            tally.request_items[-1] = check(ctx, request, rc, out, replayed)
        except checks.CheckFailed as exc:
            tally.fail(f"request {request.index} {request.argv}: {exc}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh processes of start-up to first request ready, raw
    and rescaled by the reference loop timed just before and after each."""
    probe = os.path.join(HERE, "probe.py")
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = speed.time_reference(3)
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        raw.append(float(done.stdout) - start)
        after = speed.time_reference(3)
        scaled.append(raw[-1] * 2 * speed.NOMINAL_S / (before + after))
    return statistics.median(raw), statistics.median(scaled)


def summarize(tally, scales) -> dict:
    """Throughput and latency percentiles of each pass, with each request's
    times multiplied by its scale; the median over passes of each."""
    per_pass = []
    for lo, hi in zip(tally.pass_starts, tally.pass_starts[1:] + [len(tally.request_s)]):
        if lo == hi:
            continue
        lat = [1e3 * s * k for s, k in zip(tally.request_s[lo:hi], scales[lo:hi])]
        work = sum(w * k for w, k in zip(tally.work[lo:hi], scales[lo:hi]))
        per_pass.append(
            (sum(tally.request_items[lo:hi]) / work, statistics.median(lat), percentile(lat, 0.9))
        )
    if not per_pass:
        return dict.fromkeys(("items_per_s", "request_ms.p50", "request_ms.p90"), 0.0)
    items_per_s, p50, p90 = (statistics.median(column) for column in zip(*per_pass))
    return {"items_per_s": items_per_s, "request_ms.p50": p50, "request_ms.p90": p90}


def measure(ctx, requests, seconds) -> tuple[Tally, dict, str]:
    """The untraced run: closed-loop passes for `seconds`, with the machine's
    speed sampled throughout (speed.py) and every time rescaled by it."""
    setup_raw, setup_s = measure_setup(ctx.workload, ctx.seed)
    if len(requests) > 1:
        run_pass(ctx, requests[:WARMUP_REQUESTS], Tally())
    tally = Tally()
    with speed.Sampler() as sampler:
        ctx.sampler = sampler
        start = time.perf_counter()
        while tally.attempted == 0 or time.perf_counter() - start < seconds:
            run_pass(ctx, requests, tally)
    ctx.sampler = None
    scales = [sampler.scale(a, b) for a, b in tally.windows]
    metrics = {"setup_s": setup_s, **summarize(tally, scales), "peak_rss_mb": peak_rss_mb()}
    raw = summarize(tally, [1.0] * len(scales))
    note = (
        f"unscaled: setup_s={setup_raw:.4f}"
        + "".join(f" {k}={v:.4f}" for k, v in raw.items())
        + f" speed_samples={len(sampler.took)}"
        + f" median_scale={statistics.median(scales) if scales else 0:.4f}"
    )
    return tally, metrics, note


def expected_lineage_copied(ctx, requests) -> int:
    """Closed form of plumbing.lineage_copied for one pass: every request
    builds its pair once through the CLI and once more by replay."""
    if ctx.workload != "lineage":
        return 0
    return sum(
        2 * checks.lineage_copied(r.spec["construction"], r.spec["genus"]) for r in requests
    )


def self_check(ctx, tracer, requests, passes) -> list[str]:
    """Counters taken outside the program against closed forms in the repo."""
    maps = ctx.package.maps
    problems = [
        f"cell V={v} E={e}: {built} candidates built, candidate_count is {expected}"
        for v, e, built in tracer.cell_runs
        if built != (expected := maps.candidate_count(v, e))
    ]
    copied = tracer.counters.get("plumbing.lineage_copied", 0)
    expected = passes * expected_lineage_copied(ctx, requests)
    if copied != expected:
        problems.append(f"plumbing.lineage_copied is {copied}, closed form gives {expected}")
    return problems


def layer_metrics(ctx, tracer, passes, untraced, traced) -> dict:
    def calls(name):
        return tracer.stat(name)[0] / passes

    def secs(name):
        return tracer.stat(name)[1] / passes / 1e9

    built = calls("maps.is_connected")
    classes = sum(cell[1] for cell in tracer.cells.values()) / passes
    metrics = {
        "maps.verify_parallelP.s": secs("maps.verify_parallelP"),
        "maps.verify_parallel_class_bound.s": secs("maps.verify_parallel_class_bound"),
        "maps.enumerate_maps.s": secs("maps.enumerate_maps"),
        "maps.is_connected.calls": built,
        "maps.is_connected.s": secs("maps.is_connected"),
        "maps.trace_faces.calls": calls("maps.trace_faces"),
        "maps.trace_faces.s": secs("maps.trace_faces"),
        "maps.canonical_key.calls": calls("maps.canonical_key"),
        "maps.canonical_key.s": secs("maps.canonical_key"),
        "maps.iso_classes": classes,
        "maps.yield_ratio": classes / built if built else 0.0,
        "maps.enumerate.self_s": tracer.stat("maps.enumerate_maps")[2] / passes / 1e9,
    }
    for v, e in VERIFY_CELLS:
        metrics[f"maps.cell.V{v}E{e}.s"] = tracer.cells.get((v, e), [0])[0] / passes / 1e9
    metrics.update(
        {
            "torus.dehn_twist.calls": calls("torus.dehn_twist"),
            "torus.dehn_twist.s": secs("torus.dehn_twist"),
            "torus.normalize.calls": calls("torus.normalize"),
            "torus.is_exceptional.calls": calls("torus.is_exceptional"),
            "bounds.calls": tracer.layer_calls("bounds") / passes,
            "bounds.s": tracer.layer_ns.get("bounds", 0) / passes / 1e9,
            "bounds.bridge_lower_bound.calls": calls("bounds.bridge_lower_bound"),
            "bounds.bridge_lower_bound.s": secs("bounds.bridge_lower_bound"),
            "catalog.generate_family.s": secs("catalog.generate_family"),
            "catalog.build_certificate.calls": calls("catalog.build_certificate"),
            "catalog.build_certificate.s": secs("catalog.build_certificate"),
            "catalog.render_csv.s": secs("catalog.render_csv"),
            "catalog.render_txt.s": secs("catalog.render_txt"),
            "catalog.self_s": tracer.layer_self_ns("catalog") / passes / 1e9,
            "catalog.rows": traced.items / passes if ctx.workload == "catalog" else 0,
            "catalog.render.bytes": tracer.counters.get("catalog.render.bytes", 0) / passes,
            "plumbing.plumb.calls": calls("plumbing.plumb"),
            "plumbing.plumb.s": secs("plumbing.plumb"),
            "plumbing.lineage_copied": tracer.counters.get("plumbing.lineage_copied", 0) / passes,
            "plumbing.eta.s": secs("plumbing.eta"),
            "plumbing.gamma.s": secs("plumbing.gamma"),
            "plumbing.trace.s": secs("plumbing.trace"),
            "plumbing.replay.s": secs("plumbing.replay"),
            "pants.gamma2.calls": calls("pants.gamma2"),
            "pants.load_seam_data.calls": calls("pants.load_seam_data"),
            "pants.load_seam_data.s": secs("pants.load_seam_data"),
            "pants.validate.calls": calls("pants.validate"),
            "cli.main.self_s": tracer.layer_self_ns("cli") / passes / 1e9,
            "cli.stdout.bytes": traced.stdout_chars / passes,
            "trace_overhead": traced.work_s / untraced.work_s,
            "trace.traced_s": traced.work_s / passes,
            "trace.untraced_s": untraced.work_s / passes,
        }
    )
    # every pass is the same work, so per-pass counts are whole numbers
    return {
        k: int(v) if PER_LAYER[k] in ("count", "bytes") and v == int(v) else v
        for k, v in metrics.items()
    }


def measure_traced(ctx, requests, seconds) -> tuple[Tally, Tally, dict, list[str]]:
    """The traced run: untraced and traced passes alternate for `seconds`.
    Counts and times cover every traced pass; the spans of the first traced
    pass are kept and written, which bounds their memory."""
    tracer = Tracer(ctx.package)
    untraced, traced = Tally(), Tally()
    plain = Context(ctx.workload, ctx.seed, ctx.package, ctx.pins)
    ctx.tracer = tracer
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        run_pass(plain, requests, untraced)
        tracer.install()
        try:
            run_pass(ctx, requests, traced)
        finally:
            tracer.uninstall()
        if passes == 0:
            kept = len(tracer.span_name)
        tracer.truncate(kept)
        passes += 1
    problems = self_check(ctx, tracer, requests, passes)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{ctx.workload}-seed{ctx.seed}.csv.gz")
    count = tracer.write(path)
    print(f"spans: {count} written to {os.path.relpath(path, os.path.dirname(HERE))}")
    return untraced, traced, layer_metrics(ctx, tracer, passes, untraced, traced), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = load_knotforge()
    ctx = Context(args.workload, args.seed, package, load_pins())
    requests = workloads.requests(args.workload, args.seed)
    if args.trace:
        untraced, traced, metrics, problems = measure_traced(ctx, requests, args.seconds)
        tallies, units = (untraced, traced), PER_LAYER
    else:
        tally, metrics, note = measure(ctx, requests, args.seconds)
        tallies, units, problems = (tally,), END_TO_END, []
        print(note)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for reason in [r for t in tallies for r in t.reasons][:10] + problems:
        print(f"perfbench: {reason}", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} requests={attempted}"
        f" failed_frac={failed / attempted:.6f}"
        f" requests_per_pass={len(requests)}"
        f" samples={sum(len(t.request_s) for t in tallies)}"
    )
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
