"""Benchmark of certified-equilibrium throughput, with a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload many-agents --seed 1 --seconds 28 --trace 0

``--trace 0`` times whole passes of the workload for ``--seconds`` seconds
with tracing off and prints the end-to-end metrics.  ``--trace 1`` repeats
the seed's first pass with every op run twice, untraced and then traced,
and prints the per-layer metrics, the tracing overhead and a single-thread
BLAS baseline.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with the same
numbers and the run's provenance goes to ``perfbench/out/``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from importlib import metadata
from pathlib import Path

from spans import Tracer, TraceError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3
IMPORT_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def import_package():
    """Import ``risksharing`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "risksharing" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'risksharing'}")
    sys.path.insert(0, str(SRC))
    import risksharing

    where = Path(risksharing.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"risksharing was imported from {where}, not from {SRC}")
    return risksharing


# ------------------------------------------------------------------ probes


def probe_setup(workload: str, seed: int) -> float:
    """Fresh-interpreter set-up: import the package and build the inputs."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    workloads.build_inputs(workload, seed)
    return time.perf_counter() - t0


def _child_seconds(argv, env=None):
    """Wall time and standard output of a child that must exit with status 0."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stdout


def setup_seconds(workload: str, seed: int) -> list:
    argv = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload,
            "--seed", str(seed)]
    return [float(_child_seconds(argv)[1].strip().splitlines()[-1]) for _ in range(SETUP_SAMPLES)]


def import_seconds() -> list:
    """Fresh ``import risksharing`` minus a bare interpreter, per sample."""
    from workloads import cli_env

    env = cli_env()
    samples = []
    for _ in range(IMPORT_SAMPLES):
        bare, _ = _child_seconds([sys.executable, "-c", "pass"], env)
        full, _ = _child_seconds([sys.executable, "-c", "import risksharing"], env)
        samples.append(full - bare)
    return samples


# ----------------------------------------------------------------- stats


def tail(walls):
    """Highest percentile with at least ten samples beyond it, and that percentile.

    Below 21 samples that percentile is not above the median, so the
    maximum is reported instead, as percentile 100.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def op_stats(ops) -> dict:
    walls = [op.wall_s for op in ops]
    ok = sum(op.ok for op in ops)
    value, pct = tail(walls)
    return {
        "ops_per_s": ok / sum(walls),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": value,
        "op_tail_percentile": pct,
        "samples": len(walls),
        "cpu_per_op_s": sum(op.cpu_s for op in ops) / len(ops),
        "failed_frac": (len(ops) - ok) / len(ops),
    }


# ------------------------------------------------------------ provenance


def provenance(workload: str, seed: int) -> dict:
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "risksharing").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    versions = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "not installed"
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "versions": versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
        "load_generator": "closed loop, one caller in one process",
    }


# ------------------------------------------------------------------ runs


def op_runner(workload: str, in_process: bool):
    """The function that runs one op: CLI commands in a fresh interpreter
    unless ``in_process``, when they go through ``risksharing.cli.main``."""
    import workloads as wl

    if workload != "cli":
        return wl.run_market_op
    if in_process:
        return wl.run_cli_inprocess
    return partial(wl.run_cli_subprocess, env=wl.cli_env())


def run_op(runner, name, key, payload, reference):
    """Run one op; any exception is a failed op, recorded with its message."""
    import workloads as wl

    t0 = time.perf_counter()
    try:
        return runner(name, key, payload, reference)
    except Exception:  # noqa: BLE001 - an op that raises is a failed op
        op = wl.Op(name, wall_s=time.perf_counter() - t0)
        op.error = traceback.format_exc()
        return op


def timed_run(workload: str, seed: int, seconds: float, single_pass: bool):
    """Whole passes until ``seconds`` have elapsed (one pass if ``single_pass``)."""
    import workloads as wl

    reference = wl.load_reference()
    runner = op_runner(workload, in_process=False)
    ops = []
    start = time.perf_counter()
    k = 0
    while True:
        for name, key, payload in wl.pass_inputs(workload, seed, k):
            ops.append(run_op(runner, name, key, payload, reference))
        k += 1
        if single_pass or time.perf_counter() - start >= seconds:
            break
    return ops, k


def single_thread_pass(workload: str, seed: int) -> dict:
    """One untraced pass in a child with every BLAS pool limited to one thread."""
    from workloads import cli_env

    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", "0", "--single-pass"]
    _, stdout = _child_seconds(argv, cli_env(single_thread=True))
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise BenchError(f"single-thread pass failed: {result}")
    return result


def traced_inputs(workload: str, seed: int):
    """The runner and the ops of the seed's first pass, as the traced run uses them."""
    import workloads as wl

    return op_runner(workload, in_process=True), wl.pass_inputs(workload, seed, 0)


def traced_run(runner, inputs, seconds: float):
    """Repeat ``inputs``, each op untraced then traced, until ``seconds`` have elapsed.

    Repeating one pass keeps the per-op work counts identical however many
    repetitions fit in the time.
    """
    import workloads as wl

    reference = wl.load_reference()
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        for name, key, payload in inputs:
            plain.append(run_op(runner, name, key, payload, reference))
            with tracer.installed(), tracer.span("op", len(traced)):
                traced.append(run_op(runner, name, key, payload, reference))
        if time.perf_counter() - start >= seconds:
            break
    return plain, traced, tracer


# Spans each workload must record; a zero count means a wrapper missed its
# layer, which is reported as an error rather than as a zero.
REACHED = {
    "many-agents": ("nash.inner", "nash.solve", "roots.kernel", "arrow_debreu.solve",
                    "best_response.solve", "diagnostics.compute", "bundle.ledger"),
}
REACHED["many-states"] = REACHED["many-agents"]
REACHED["cli"] = REACHED["many-agents"] + ("bundle.write", "bundle.read", "bundle.verify",
                                           "scenario.build", "limits.report")


def layer_metrics(workload: str, tracer, n_ops: int):
    agg = tracer.aggregate()
    missing = [name for name in REACHED[workload] if agg.get(name, {}).get("calls", 0) == 0]
    if missing:
        raise BenchError(f"traced {workload} run recorded no calls of {missing}")

    def per_op(name, key):
        return agg.get(name, {}).get(key, 0) / n_ops

    kernel = agg["roots.kernel"]
    inner = agg["nash.inner"]
    by_caller = kernel["calls_by_caller"]
    metrics = {
        "nash.inner_solves": ("count", per_op("nash.inner", "calls")),
        "nash.outer_self_s": ("s", per_op("nash.solve", "self_s")),
        "nash.inner_self_s": ("s", per_op("nash.inner", "self_s")),
        "nash.kernel_calls_per_inner": (
            "calls/solve", tracer.child_calls("roots.kernel", "nash.inner") / inner["calls"]),
        "nash.roots_found": ("count", per_op("nash.solve", "size")),
        "roots.kernel_calls": ("count", per_op("roots.kernel", "calls")),
        "roots.kernel_elements": ("count", per_op("roots.kernel", "size")),
        "roots.kernel_s": ("s", per_op("roots.kernel", "total_s")),
        "roots.kernel_ns_per_element": ("ns", 1e9 * kernel["total_s"] / kernel["size"]),
        "arrow_debreu.solve_s": ("s", per_op("arrow_debreu.solve", "total_s")),
        "best_response.calls": ("count", per_op("best_response.solve", "calls")),
        "best_response.solve_s": ("s", per_op("best_response.solve", "total_s")),
        "best_response.kernel_calls": ("count", by_caller.get("best_response", 0) / n_ops),
        "diagnostics.compute_s": ("s", per_op("diagnostics.compute", "total_s")),
        "bundle.ledger_self_s": ("s", per_op("bundle.ledger", "self_s")),
    }
    extra = {"roots.kernel_calls.nash": ("count", by_caller.get("nash", 0) / n_ops)}
    if workload != "cli":
        return metrics, extra
    # Layers only the CLI reaches: printed and written to the result file,
    # not put in the final line, where the other workloads would read 0.
    extra.update({
        "roots.kernel_calls.limits": ("count", by_caller.get("limits", 0) / n_ops),
        "scenario.build_s": ("s", per_op("scenario.build", "total_s")),
        "limits.report_s": ("s", per_op("limits.report", "total_s")),
        "bundle.write_s": ("s", per_op("bundle.write", "total_s")),
        "bundle.bytes_written": ("bytes", per_op("bundle.write", "size")),
        "bundle.read_s": ("s", per_op("bundle.read", "total_s")),
        "bundle.verify_s": ("s", per_op("bundle.verify", "total_s")),
    })
    return metrics, extra


# ------------------------------------------------------------------ main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("many-agents", "many-states", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal modes used by the benchmark's own child processes.
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--single-pass", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def report(workload, seed, mode, metrics, extra, ops) -> None:
    """Print the metrics, write the result file, and print the final line."""
    import workloads as wl

    failed = [op for op in ops if not op.ok]
    print(f"workload {workload}  seed {seed}  {mode}  ops {len(ops)}  failed {len(failed)}")
    for op in failed:
        print(f"  FAILED {op.name}: {op.error}", file=sys.stderr)
    for name, (unit, value) in {**metrics, **extra}.items():
        print(f"  {name:<32} {value!r} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }
    wl.OUT.mkdir(parents=True, exist_ok=True)
    doc = {
        "provenance": {"mode": mode, **provenance(workload, seed)},
        "result": result,
        "extra": {name: {"value": value, "unit": unit} for name, (unit, value) in extra.items()},
        "ops": [vars(op) for op in ops],
    }
    path = wl.OUT / f"{workload}-seed{seed}-{mode}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.probe_setup:
            print(repr(probe_setup(args.workload, args.seed)))
            return 0
        import_package()
        if args.trace == 0:
            # The single-pass child only reports op times to its parent.
            setup = None if args.single_pass else statistics.median(
                setup_seconds(args.workload, args.seed))
            ops, passes = timed_run(args.workload, args.seed, args.seconds, args.single_pass)
            st = op_stats(ops)
            if args.workload == "cli":
                rss_kb = max(op.rss_kb for op in ops)
            else:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "ops_per_s": ("1/s", st["ops_per_s"]),
                "op_p50_s": ("s", st["op_p50_s"]),
                "op_tail_s": ("s", st["op_tail_s"]),
                "cpu_per_op_s": ("s", st["cpu_per_op_s"]),
                "peak_rss_mb": ("MB", rss_kb / 1024.0),
            }
            if setup is not None:
                metrics["setup_s"] = ("s", setup)
            extra = {
                "failed_frac": ("1", st["failed_frac"]),
                "op_tail_percentile": ("%", st["op_tail_percentile"]),
                "samples": ("count", st["samples"]),
                "passes": ("count", passes),
            }
            mode = "single-pass" if args.single_pass else "trace0"
            report(args.workload, args.seed, mode, metrics, extra, ops)
            return 0
        imports = import_seconds()
        plain, traced, tracer = traced_run(*traced_inputs(args.workload, args.seed), args.seconds)
        baseline = single_thread_pass(args.workload, args.seed)
        metrics, extra = layer_metrics(args.workload, tracer, len(traced))
        plain_p50 = statistics.median(op.wall_s for op in plain)
        traced_p50 = statistics.median(op.wall_s for op in traced)
        metrics["cli.import_s"] = ("s", statistics.median(imports))
        metrics["trace.overhead_s"] = ("s", traced_p50 - plain_p50)
        metrics["single_thread.op_p50_s"] = ("s", baseline["metrics"]["op_p50_s"]["value"])
        extra.update({
            "untraced.op_p50_s": ("s", plain_p50),
            "traced.op_p50_s": ("s", traced_p50),
            "single_thread.ops_per_s": ("1/s", baseline["metrics"]["ops_per_s"]["value"]),
            "traced_ops": ("count", len(traced)),
        })
        report(args.workload, args.seed, "trace1", metrics, extra, plain + traced)
        return 0
    except (BenchError, TraceError, ImportError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
