"""Closed-loop benchmark of the rindler package, one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ./src and
nothing is installed. One client in this process sends each call after
the previous one returns. With --trace 0 the run reports the end-to-end
metrics named in BENCHMARK.json; with --trace 1 it alternates untraced
and traced passes over the first input cycle and reports the per-layer
metrics, writing the spans of the first traced pass to perfbench/out/.
The last line of standard output is the JSON result; the lines before it
give the provenance and every metric by name with its unit. The exit code
is 0 once a result is printed, whether or not every call passed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import workloads
from tracer import LAYERS, ROOT as ROOT_SPAN, Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# A run ends at the first cycle boundary after --seconds, or mid-cycle once
# this multiple of --seconds has passed.
HARD_STOP = 1.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(workload: str, seed: int, tmp: Path) -> list:
    """Set-up seconds of SETUP_PROBES fresh interpreters, one after another."""
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload,
               "--seed", str(seed), "--out-dir", str(tmp / f"probe{i}")]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=workloads.ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class Tally:
    """Attempted and failed calls with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, outcome):
        self.attempted += 1
        if outcome.errors:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.extend(outcome.errors)


def timed_run(executor, source, seconds, tally):
    latencies, items, busy = [], 0, 0.0
    start = time.perf_counter()
    hard_stop = start + HARD_STOP * seconds
    for cycle in source:
        for call in cycle:
            outcome = executor.run(call, nullcontext)
            tally.add(outcome)
            latencies.append(outcome.seconds * 1e3)
            busy += outcome.seconds
            if not outcome.errors:
                items += call.items
            if time.perf_counter() >= hard_stop:
                break
        if time.perf_counter() - start >= seconds:
            break
    p = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "items_per_s": items / busy,
        "call_ms_p50": p[49],
        "call_ms_p90": p[89],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"timed_calls": len(latencies), "items": items, "busy_s": busy}


def traced_run(package, executor, batch, seconds, tally, workload, names):
    """Untraced and traced passes over one fixed batch of calls, in turn.

    The batch is the workload's first input cycle, so every per-item count
    depends on the seed alone, not on how many passes fit in the time. One
    unmeasured pass goes first, and the order within each pair of passes
    alternates, so neither side always runs on a colder process.
    """
    tracer = Tracer(package)
    totals, spans = {}, None
    pass_s = {False: 0.0, True: 0.0}
    items = cli_calls = bytes_out = 0
    for call in batch:
        tally.add(executor.run(call, nullcontext))
    start = time.perf_counter()
    for round_no in itertools.count():
        for traced in (False, True) if round_no % 2 == 0 else (True, False):
            if not traced:
                for call in batch:
                    outcome = executor.run(call, nullcontext)
                    tally.add(outcome)
                    pass_s[False] += outcome.seconds
                continue
            tracer.clear()
            with tracer.installed():
                for call in batch:
                    outcome = executor.run(call, tracer.span)
                    tally.add(outcome)
                    pass_s[True] += outcome.seconds
                    items += call.items
                    if call.kind != "teleport":
                        cli_calls += 1
                        bytes_out += outcome.bytes_out
            tracer.aggregate(totals)
            if spans is None:
                spans = tracer.spans()
        if time.perf_counter() - start >= seconds:
            break
    metrics = layer_metrics(names, totals, items, cli_calls, bytes_out,
                            pass_s[True] / pass_s[False],
                            samples=items if workload == "teleport" else 0)
    return metrics, {"traced_items": items, "traced_s": pass_s[True],
                     "untraced_s": pass_s[False], "spans": spans}


def layer_metrics(names, totals, items, cli_calls, bytes_out, overhead, samples):
    """Per-layer figures from span totals {name: [count, inclusive s, self s]}.

    A metric name is `<subject>.<suffix>`, where the subject is one
    function (`qmat.tensor`) or a whole layer (`unruh`, summing every
    function of that module). A subject with no spans on this workload
    reads 0.
    """
    root_s = totals[ROOT_SPAN][1]

    def pick(subject, field):
        if subject in LAYERS:
            return sum(v[field] for k, v in totals.items() if k.startswith(subject + "."))
        return totals.get(subject, [0, 0.0, 0.0])[field]

    def per_call(subject, scale):
        count = pick(subject, 0)
        return pick(subject, 1) / count * scale if count else 0.0

    by_suffix = {
        "calls_per_item": lambda s: pick(s, 0) / items,
        "self_share": lambda s: pick(s, 2) / root_s,
        "us_per_call": lambda s: per_call(s, 1e6),
        "ms_per_call": lambda s: per_call(s, 1e3),
        "ns_per_sample": lambda s: pick(s, 1) / samples * 1e9 if samples else 0.0,
    }
    metrics = {"cli.bytes_out_per_call": bytes_out / cli_calls if cli_calls else 0.0,
               "trace.overhead_ratio": overhead}
    for name in names:
        if name not in metrics:
            subject, suffix = name.rsplit(".", 1)
            metrics[name] = by_suffix[suffix](subject)
    return metrics


def provenance(workload, seed, loadavg):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_sha = None
    if (workloads.ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=30, cwd=workloads.ROOT)
            git_sha = proc.stdout.strip() or None
        except OSError:  # no git program: the source digest still identifies the code
            pass
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "rindler").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # Thread counts are left at the library defaults; unset means default.
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "loadavg_start": loadavg,
    }


def main(argv=None):
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = declared_metrics(args.trace)
    package = workloads.load_program()
    tmp = OUT / f"tmp-{os.getpid()}"
    tally = Tally()
    try:
        setup = measure_setup(args.workload, args.seed, tmp)
        executor, source, warmup = workloads.prepare(package, args.workload, args.seed, tmp)
        for outcome in warmup:
            tally.add(outcome)
        if args.trace:
            metrics, detail = traced_run(package, executor, next(source), args.seconds,
                                         tally, args.workload, list(declared))
        else:
            metrics, detail = timed_run(executor, source, args.seconds, tally)
            metrics["setup_s"] = statistics.median(setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed_ratio = tally.failed / tally.attempted
    prov = provenance(args.workload, args.seed, loadavg)
    spans = detail.pop("spans", None)
    record = {"provenance": prov, "setup_samples_s": setup, "detail": detail,
              "failed_ratio": failed_ratio, "errors": tally.errors, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")

    print("provenance " + json.dumps(prov))
    print(f"calls {tally.attempted} failed {tally.failed} " + json.dumps(detail))
    for error in tally.errors:
        print(f"failure: {error}")
    print(f"{'failed_ratio':48s} {failed_ratio:.6g} ratio")
    for name, unit in declared.items():
        print(f"{name:48s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
