"""phaselab benchmark harness.

Run one workload from the root of a phaselab checkout:

    python3 perfbench/run.py --workload sweep --seed 7 --seconds 20 --trace 0

Workloads are `sweep`, `gauge` and `cli-small` (see workloads.py);
BENCHMARK.json lists `sweep` and `cli-small`, because `gauge` fails its
gates on the current estimators (README.md, "Known failures").  The run
drives phaselab only through `phaselab.cli.main(argv)`, in process, with its
output captured, from a single client with BLAS/OpenMP pinned to one thread.

`--trace 0` prints the end-to-end metrics: set-up time is the median over
SETUP_RUNS fresh processes (process start through importing phaselab,
generating the inputs and one warm-up call); the last of them then measures
the closed loop and the accuracy panel.  `--trace 1` prints the per-layer
metrics: every call runs twice, untraced and then under the outside-in tracer
(tracer.py), and both outputs must be byte-identical.  Either loop makes a
fixed number of calls, sized so that it takes about `--seconds` at the
workload's nominal call time (`workloads.loop_calls`), so every count of a
run repeats exactly for a given seed.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it carries the run's
provenance and sample counts.  Inputs, output digests, reports and spans go to
`.bench_out/` in the checkout.
"""
from __future__ import annotations

import argparse
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
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_RUNS = 5
SETUP_PROBES = 10  # host-probe samples each process takes right after set-up
TIME_LIMIT = 170.0  # seconds for the whole run, children included

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "trace_error_max": "1",
    "phase_error_max_rad": "rad",
}
LAYER_METRICS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "evolution.propagate.self_s": "s",
    "evolution.propagate.calls": "count",
    "evolution.steps": "count",
    "evolution.ns_per_step": "ns",
    "evolution.sample.self_s": "s",
    "evolution.sample.calls": "count",
    "evolution.nodes_sampled": "count",
    "evolution.samples_per_scenario": "1",
    "evolution.validate.self_s": "s",
    "evolution.validate.calls": "count",
    "evolution.propagator_mb": "MB",
    "gauge.gauge_function.self_s": "s",
    "gauge.gauge_function.calls": "count",
    "gauge.apply_gauge.self_s": "s",
    "gauge.frame_trace.self_s": "s",
    "mixed.transform_evolution.self_s": "s",
    "mixed.transport_conditions.self_s": "s",
    "mixed.purification.self_s": "s",
    "cli.build_parser.self_s": "s",
    "cli.build_scenario.self_s": "s",
    "cli.load_sampled_hamiltonian.self_s": "s",
    "cli.serialize.self_s": "s",
    "trace.overhead_ratio": "1",
    "trace.unattributed_ratio": "1",
}
# Only `verify-gauge` reaches the gauge campaign, so these read zero on the
# workloads BENCHMARK.json lists; the result file keeps them under `layers`.
GAUGE_CAMPAIGN = (
    "gauge.self_s",
    "gauge.calls",
    "gauge.gauge_function.self_s",
    "gauge.gauge_function.calls",
    "gauge.apply_gauge.self_s",
    "gauge.frame_trace.self_s",
    "mixed.transform_evolution.self_s",
)
PER_LAYER = {name: unit for name, unit in LAYER_METRICS.items() if name not in GAUGE_CAMPAIGN}
WORKLOAD_NAMES = ("sweep", "gauge", "cli-small")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="problem size; 'tiny' is for the harness's own smoke test")
    ap.add_argument("--role", default="run", choices=("run", "setup", "measure"),
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- child processes ------------------------------------------------------------


def execute(cli, call):
    """One in-process `cli.main(argv)` call: (exit status, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(call.argv)  # looked up per call, so the tracer's wrapper is used
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed operation, not a harness failure
            rc = "exception"
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


class Ledger:
    """Per-call results: operations, failures, latencies, digests, accuracy."""

    def __init__(self):
        from workloads import digest

        self.digest = digest
        self.calls = []  # (ops, failed_ops, seconds, digest)
        self.outcomes = []
        self.errors = []

    def run(self, wl, cli, call, tag=""):
        return self.add(wl, call, *execute(cli, call), tag=tag)

    def add(self, wl, call, rc, out, err, elapsed, tag=""):
        """Gate one executed call and record it."""
        outcome = wl.check(call, rc, out)
        self.calls.append((call.ops, outcome.failed_ops, elapsed, self.digest(rc, out, err)))
        self.outcomes.append(outcome)
        if outcome.errors and len(self.errors) < 20:
            self.errors.append(f"{tag}{' '.join(call.argv)}: {'; '.join(outcome.errors)[:500]}")
        return outcome

    @property
    def ops(self):
        return sum(c[0] for c in self.calls)

    @property
    def failed(self):
        return sum(c[1] for c in self.calls)

    @property
    def seconds(self):
        return sum(c[2] for c in self.calls)

    @property
    def digests(self):
        return [c[3] for c in self.calls]


def closed_loop(wl, cli, calls, probe):
    ledger = Ledger()
    for i in range(calls):
        ledger.run(wl, cli, wl.call(i))
        if wl.probe_loop:
            probe.maybe_sample()
    return ledger


def blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older NumPy has no dict mode; provenance only
        return "unknown"


def child(args) -> int:
    warnings.simplefilter("always")  # identical stderr on every call, traced or not
    import numpy as np

    import phaselab
    from phaselab import cli
    from probe import HostProbe
    from workloads import WORKLOADS, loop_calls

    wl = WORKLOADS[args.workload](args.seed, args.size, OUT / "inputs" / f"{args.workload}-s{args.seed}")
    warm = Ledger()
    for call in wl.warmup():
        warm.run(wl, cli, call, "warm-up: ")
    ready = time.monotonic()
    probe = HostProbe()
    probe.sample(SETUP_PROBES)
    report = {"ready": ready, "host_factor": probe.factor(), "warmup": warm.digests,
              "warmup_ops": warm.ops, "warmup_failed": warm.failed, "errors": warm.errors}
    if args.role == "setup":
        print(json.dumps(report))
        return 0
    report.update(numpy=np.__version__, blas=blas_info(np),
                  threads={k: os.environ.get(k) for k in THREAD_ENV})
    if args.trace:  # each call runs twice, so half the calls fill the time
        report.update(traced_run(args, wl, cli, phaselab, loop_calls(wl, args.seconds / 2)))
    else:
        report.update(measured_run(args, wl, cli, HostProbe(), loop_calls(wl, args.seconds)))
    print(json.dumps(report))
    return 0


def measured_run(args, wl, cli, probe, calls) -> dict:
    loop = closed_loop(wl, cli, calls, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    panel = Ledger()
    for call in wl.panel():
        panel.run(wl, cli, call, "panel: ")
    accuracy = loop.outcomes[: wl.panel_calls] + panel.outcomes
    latencies = [c[2] for c in loop.calls]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
    raw = {
        "ops_per_s": loop.ops / loop.seconds,
        "call_p50_ms": 1e3 * statistics.median(latencies),
        "call_p90_ms": 1e3 * p90,
    }
    host = probe.factor() if wl.probe_loop else 1.0
    metrics = {
        "ops_per_s": raw["ops_per_s"] * host,
        "call_p50_ms": raw["call_p50_ms"] / host,
        "call_p90_ms": raw["call_p90_ms"] / host,
        "peak_rss_mb": peak_rss_mb,
        "trace_error_max": max(o.trace_error for o in accuracy),
        "phase_error_max_rad": max(o.phase_error for o in accuracy),
    }
    return {
        "metrics": metrics,
        "raw": dict(raw, host_factor=host, probes=len(probe.samples)),
        "attempted": loop.ops + panel.ops,
        "failed": loop.failed + panel.failed,
        "errors": loop.errors + panel.errors,
        "digests": {"loop": loop.digests, "panel": panel.digests},
        "ops": [c[0] for c in loop.calls],
        "latencies_s": latencies,
        "samples": {"calls": len(latencies), "above_p90": sum(t > p90 for t in latencies),
                    "panel_calls": len(accuracy), "ops": loop.ops},
    }


def traced_run(args, wl, cli, phaselab, calls) -> dict:
    """Each call runs untraced, then traced; pairing them keeps the overhead
    ratio free of the host's drift.  The tracer is installed around the call
    only, so the gates' own use of spin_model is not traced."""
    tracer = Tracer(phaselab)
    plain, traced = Ledger(), Ledger()
    for i in range(calls):
        call = wl.call(i)
        plain.run(wl, cli, call)
        tracer.call = i
        with tracer:
            result = execute(cli, call)
        traced.add(wl, call, *result, tag="traced: ")
    differ = [i for i, (a, b) in enumerate(zip(plain.digests, traced.digests)) if a != b]
    errors = plain.errors + traced.errors
    if differ:
        errors.append(f"traced output differs from untraced output on calls {differ[:10]}")
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    span_file = OUT / "traces" / f"{args.workload}-s{args.seed}.jsonl"
    tracer.write(span_file)
    layers = tracer.layer_metrics(traced.seconds, plain.seconds)
    return {
        "metrics": {name: layers[name] for name in PER_LAYER},
        "layers": {name: layers[name] for name in LAYER_METRICS},
        "attempted": plain.ops + traced.ops,
        "failed": min(plain.ops + traced.ops,
                      plain.failed + traced.failed + sum(plain.calls[i][0] for i in differ)),
        "errors": errors,
        "digests": {"loop": plain.digests, "panel": []},
        "ops": [c[0] for c in plain.calls],
        "samples": {"calls": len(plain.calls), "traced_output_mismatches": len(differ),
                    "spans": layers["trace.spans"],
                    "span_file": str(span_file.relative_to(ROOT))},
    }


# -- orchestrator ----------------------------------------------------------------


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class ChildFailed(RuntimeError):
    pass


def spawn(role, args, deadline):
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "run.py"), "--role", role, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--size", args.size]
    start = time.monotonic()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{role} process exceeded the time limit") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise ChildFailed(f"{role} process exited {done.returncode}:\n{done.stderr[-4000:]}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return report, report["ready"] - start


def check_determinism(args, report, key) -> tuple[int, list]:
    """Compare this run's per-call output digests with earlier runs of the same
    code and seed; a differing call counts all its operations as failed."""
    store = OUT / "digests" / f"{args.workload}-s{args.seed}-{args.size}-{key}.json"
    current = report["digests"]
    ops = {"loop": report["ops"], "panel": [1] * len(current["panel"])}
    failed, errors = 0, []
    previous = json.loads(store.read_text()) if store.exists() else {}
    merged = {}
    for part in ("warmup", "loop", "panel"):
        now = report["warmup"] if part == "warmup" else current[part]
        before = previous.get(part, [])
        for i, (a, b) in enumerate(zip(before, now)):
            if a != b:
                failed += ops[part][i] if part != "warmup" else 1
                errors.append(f"{part} call {i}: output differs from an earlier run with this seed")
        merged[part] = now if len(now) >= len(before) else before
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(merged))
    return failed, errors


def orchestrate(args) -> int:
    deadline = time.monotonic() + TIME_LIMIT
    if not (SRC / "phaselab" / "__init__.py").is_file():
        print(f"perfbench: no phaselab sources under {SRC}", file=sys.stderr)
        return 2
    key = code_hash()
    setups, warmups, attempted, failed, errors = [], [], 0, 0, []
    try:
        for _ in range(SETUP_RUNS - 1 if args.trace == 0 else 0):
            report, seconds = spawn("setup", args, deadline)
            setups.append((seconds, report["host_factor"]))
            warmups.append(report["warmup"])
            attempted += report["warmup_ops"]
            failed += report["warmup_failed"]
            errors += report["errors"]
        report, seconds = spawn("measure", args, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append((seconds, report["host_factor"]))
    warmups.append(report["warmup"])
    attempted += report["attempted"] + report["warmup_ops"]
    failed += report["failed"] + report["warmup_failed"]
    errors += report["errors"]
    if any(w != warmups[0] for w in warmups):
        failed = min(attempted, failed + report["warmup_ops"])
        errors.append("warm-up outputs differ between set-up processes")
    stale, stale_errors = check_determinism(args, report, key)
    failed = min(attempted, failed + stale)
    errors += stale_errors

    metrics = dict(report["metrics"])
    if args.trace == 0:
        metrics["setup_s"] = statistics.median(seconds / host for seconds, host in setups)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": report["numpy"], "blas": report["blas"],
        "blas_threads": report["threads"], "git_commit": git_commit(), "code_sha256": key,
        "client": "closed loop, 1 client, in-process phaselab.cli.main",
    }
    samples = dict(report["samples"], setup_runs=len(setups), setup_s_raw=[s for s, _ in setups],
                   setup_host_factors=[h for _, h in setups])
    detail = {"provenance": provenance, "samples": samples, "raw": report.get("raw", {}),
              "errors": errors[:20]}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-trace{args.trace}-{args.size}.json"
    record = dict(detail, result=result, layers=report.get("layers", {}),
                  latencies_s=report.get("latencies_s", []))
    (OUT / "results" / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in errors[:5]:
        print(f"perfbench: {line}", file=sys.stderr)
    if len(errors) > 5:
        print(f"perfbench: ... {len(errors) - 5} more, see {OUT.name}/results/{name}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return orchestrate(args) if args.role == "run" else child(args)


if __name__ == "__main__":
    sys.exit(main())
