#!/usr/bin/env python3
"""Benchmark of the grpd command line: four workloads, checked outputs,
end-to-end metrics and a traced run with per-module metrics.

Run from the root of a checkout (numpy is the only dependency):

    python3 perfbench/run.py --workload ledger --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

BENCHMARK.json lists ledger, search and large-carrier.  spectrum-catalog
runs by name and with ``--workload all``; it is left out of the gated set
because its page-fault-heavy passes spread most on a shared host.

Each run is one fresh process.  It writes its inputs (not timed), then
runs passes over the workload's operations through ``grpd.cli.main``
in-process with one thread, until another pass would overrun
``--seconds``; at least one pass runs.  Every operation's exit code and
JSON output is checked.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time
of ``import grpd.cli`` in fresh interpreters, one before each pass and
more at the end), ``wall_s`` (time of all operations, each operation's
median over the passes) and ``peak_rss_mb`` (ru_maxrss of the run).
``--trace 1`` alternates traced and untraced passes, traced first,
reports the per-module metrics of tracer.py plus the tracing overhead
(traced minus untraced pass time), and fails the run if a traced
output differs from an untraced one.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts every
operation with a wrong output, an unexpected exit code or an exception;
``failed / attempted`` is the error rate.  ``correct`` is false when any
failure is not one that a known defect predicts exactly (see
workloads.py: a spectrum on a carrier above 256 whose values equal the
uint8-wrapped answer).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 9
SETUP_CODE = "import time; t0 = time.perf_counter(); import grpd.cli; print(time.perf_counter() - t0)"

# Counters that must repeat exactly between traced passes and runs.
EXACT_COUNTERS = ("search.tables", "search.survivors", "spectrum.bracketings",
                  "spectrum.classes", "clone.ops", "nonassoc.defects")


def metric_units(kind: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer", from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


@dataclass
class PassResult:
    times: list              # seconds per operation
    outputs: list            # (exit code, stdout) per operation
    failures: list           # (label, problem, known defect?) per failed operation

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(ops, cli) -> PassResult:
    """Run every operation once through cli.main, looked up at call time."""
    times = []
    outputs = []
    failures = []
    for op in ops:
        out = io.StringIO()
        problem = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            rc, problem = None, f"raised {exc!r}"
        times.append(time.perf_counter() - t0)
        text = out.getvalue()
        outputs.append((rc, text))
        if problem is None:
            try:
                problem = op.check(rc, text)
            except (KeyError, TypeError, AttributeError) as exc:
                problem = f"unexpected output shape ({exc!r})"
        if problem is not None:
            failures.append((op.label, problem, op.known_defect(rc, text)))
    return PassResult(times, outputs, failures)


class SetupTimer:
    """Times ``import grpd.cli`` in fresh interpreters.

    The first import (which may compile bytecode) is not kept.  Samples
    are spread over the run, one before each pass and the rest after the
    last, so that a burst of load on the machine cannot move all of them.
    """

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), self.env.get("PYTHONPATH")) if p)
        self.samples: list[float] = []
        self._time_import()

    def _time_import(self) -> float:
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing grpd.cli failed:\n{proc.stderr}")
        return float(proc.stdout)

    def sample(self):
        self.samples.append(self._time_import())


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def machine_record() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    llc_level, llc_size = 0, ""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        if level.isdigit() and int(level) >= llc_level:
            llc_level, llc_size = int(level), _read(str(index / "size")).strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    digits = llc_size.rstrip("KMG")
    llc_bytes = int(digits) * scale.get(llc_size[len(digits):], 1) if digits.isdigit() else 0
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "llc_level": llc_level,
        "llc_bytes": llc_bytes,
        "mem_total_mb": round(mem_kb / 1024),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _another_fits(start: float, seconds: float, *walls: list[float]) -> bool:
    elapsed = time.perf_counter() - start
    return elapsed + sum(statistics.median(w) for w in walls) <= seconds


def plain_run(wl, cli, seconds: float, setup: SetupTimer):
    """Passes until the next would overrun; wall_s sums per-operation medians,
    so a burst of load during one pass moves it little."""
    passes = []
    start = time.perf_counter()
    while True:
        setup.sample()
        passes.append(run_pass(wl.ops, cli))
        if not _another_fits(start, seconds, [p.wall for p in passes]):
            break
    while len(setup.samples) < SETUP_SAMPLES:
        setup.sample()
    walls = [p.wall for p in passes]
    print(f"passes: {len(passes)}, pass times (s): {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"import times (s): {' '.join(f'{t:.4f}' for t in setup.samples)}")
    metrics = {
        "setup_s": statistics.median(setup.samples),
        "wall_s": sum(statistics.median(ts) for ts in zip(*(p.times for p in passes))),
        "peak_rss_mb": peak_rss_mb(),
    }
    return passes, metrics, []


def _exact(agg: dict) -> dict:
    calls = {f"{key}.calls": a["calls"] for key, a in agg["spans"].items()}
    return {**calls, **{k: agg["counts"].get(k, 0) for k in EXACT_COUNTERS}}


def layer_metrics(per_layer, aggs: list[dict], traced_walls, plain_walls) -> dict:
    """Per-layer metrics: counts and RSS rises from the first traced pass
    (the process is fresh then), times as medians over traced passes."""
    first = aggs[0]

    def span(key, stat):
        return first["spans"].get(key, {}).get(stat, 0)

    def med(key, stat):
        return statistics.median(a["spans"].get(key, {}).get(stat, 0.0) for a in aggs)

    def count(name):
        return first["counts"].get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    derived = {
        "spectrum.class_ratio": ratio(count("spectrum.classes"), count("spectrum.bracketings")),
        "spectrum.cells_per_s": ratio(count("spectrum.cells"), med("spectrum.spectrum", "s")),
        "search.survivor_ratio": ratio(count("search.survivors"), count("search.tables")),
        "search.tables_per_s": ratio(count("search.tables"), med("search.search_tables", "s")),
        "core.find_isomorphism.hit_ratio": ratio(count("core.find_isomorphism.hits"),
                                                 span("core.find_isomorphism", "calls")),
        "cli.self_s": med("cli.main", "self_s"),
        "claims.self_s": med("claims.run_claims", "self_s"),
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": ratio(overhead, statistics.median(plain_walls)),
    }
    metrics = {}
    for name in per_layer:
        key, stat = name.rsplit(".", 1)
        if name in derived:
            metrics[name] = derived[name]
        elif stat == "calls":
            metrics[name] = span(key, "calls")
        elif stat in ("s", "self_s"):
            metrics[name] = med(key, stat)
        elif stat == "rss_rise_mb":
            metrics[name] = span(key, "rss_rise_kb") / 1024
        else:
            metrics[name] = count(name)
    return metrics


def traced_run(wl, cli, seconds: float, per_layer):
    """Alternate traced and untraced passes, traced first; compare them."""
    tracer = Tracer()
    traced, plain, aggs = [], [], []
    problems = []
    start = time.perf_counter()
    while True:
        tracer.reset()
        tracer.install()
        try:
            rebound = dict(tracer.rebound)
            traced.append(run_pass(wl.ops, cli))
        finally:
            tracer.uninstall()
        aggs.append(tracer.aggregate())
        plain.append(run_pass(wl.ops, cli))
        if not _another_fits(start, seconds, [p.wall for p in traced], [p.wall for p in plain]):
            break
    print(f"rebound references: {json.dumps(rebound, sort_keys=True)}")
    print(f"pairs: {len(traced)}, spans per traced pass: {aggs[0]['nspans']}")
    for i, p in enumerate(traced + plain[1:]):
        if p.outputs != plain[0].outputs:
            problems.append(f"pass {i}: outputs differ between traced and untraced passes")
    if any(_exact(a) != _exact(aggs[0]) for a in aggs[1:]):
        problems.append("exact counters differ between traced passes")
    traced_walls = [p.wall for p in traced]
    plain_walls = [p.wall for p in plain]
    print(f"traced pass times (s): {' '.join(f'{w:.4f}' for w in traced_walls)}")
    print(f"untraced pass times (s): {' '.join(f'{w:.4f}' for w in plain_walls)}")
    return traced + plain, layer_metrics(per_layer, aggs, traced_walls, plain_walls), problems


def pin_to_one_cpu() -> int:
    """Run on one fixed CPU, the highest the process may use.

    On a shared 2-vCPU Xeon VM, CPU 0 ran ``verify-paper`` 5-20% slower
    than CPU 1 in eight of eight alternating trials, so a process free
    to land on either gave bimodal run times.  The import subprocesses
    inherit the pinning.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(args) -> dict:
    cpu = pin_to_one_cpu()
    setup = None if args.trace else SetupTimer()
    sys.path.insert(0, str(SRC))
    import grpd
    import grpd.cli as cli

    if Path(grpd.__file__).resolve().parent != SRC / "grpd":
        raise RuntimeError(f"imported grpd from {grpd.__file__}, not from {SRC}")

    def quiet_main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, args.quick, workdir, quiet_main)
        machine = {**machine_record(), "pinned_cpu": cpu}
        print(f"machine: {json.dumps(machine)}")
        print(f"workload: {wl.name}, seed {args.seed}, {len(wl.ops)} operations per pass"
              f"{', quick inputs' if args.quick else ''}")
        llc = machine["llc_bytes"]
        for label, nbytes in wl.intermediates:
            print(f"  {label}: largest (n,n,n) intermediate {nbytes} B"
                  f"{f' = {nbytes / llc:.3g} x LLC' if llc else ''}")
        if args.trace:
            units = metric_units("per_layer")
            passes, metrics, problems = traced_run(wl, cli, args.seconds, units)
        else:
            units = metric_units("end_to_end")
            passes, metrics, problems = plain_run(wl, cli, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = sum(len(p.outputs) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for label, problem, known in sorted(set(failures)):
        n = failures.count((label, problem, known))
        print(f"FAILED x{n} {label}: {problem}{' (known defect)' if known else ''}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_rate = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} operations)")
    return {
        "correct": not problems and all(known for _, _, known in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own fresh process; a table of the headline metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(f"   {line}" for line in lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
        total["metrics"][f"{name}.error_rate"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
        rows.append((name, res))
    if not args.trace:
        print(f"{'workload':<18}{'setup_s':>12}{'wall_s':>12}{'peak_rss_mb':>14}{'error_rate':>12}")
        for name, res in rows:
            m = res["metrics"]
            print(f"{name:<18}{m['setup_s']['value']:>10.4f} s{m['wall_s']['value']:>10.3f} s"
                  f"{m['peak_rss_mb']['value']:>11.1f} MB{res['failed'] / res['attempted']:>12.4f}")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "grpd" / "__init__.py").is_file():
        print(f"error: no grpd sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
