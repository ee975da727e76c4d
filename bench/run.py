"""nlsgauge benchmark runner.

    python3 bench/run.py --workload cli-verify-n512 --seed 1 --seconds 30 --trace 0

Runs one workload in this process for about ``--seconds`` seconds, checks
every result, prints one line per metric with its unit, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs each operation once plain and
once with span tracing and reports the per-layer metrics.  ``--workload all``
runs every workload in turn, each in its own process.  The exit code is 0
only if every check passed.

The library is imported from ``src/`` of the checkout this file sits in; the
run fails if it is missing.  Files go to ``.bench_out/`` in the checkout.
See bench/README.md for the metrics, the workloads and why they were chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cli-verify-n512", "api-equiv-n4096", "classify")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Set-up is timed in this many fresh processes and reported as the median.
SETUP_REPEATS = 3
# Integrations a verify needs: the model and its gauge image.
NEEDED_INTEGRATIONS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD's commit, read from the checkout's own .git directory only."""
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git_dir / ref).is_file():
            return (git_dir / ref).read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


def timed_calls(ops, between=None) -> list[tuple[float, object, str | None]]:
    """Call each operation once: (seconds, raw result, error or None).
    ``between`` runs, untimed, after each call."""
    out = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            raw, err = op.call(), None
        except Exception as exc:  # any exception is a failed operation
            raw, err = None, f"{type(exc).__name__}: {exc}"
        out.append((time.perf_counter() - t0, raw, err))
        if between is not None:
            between()
    return out


def checked(ops, calls, tally: Tally) -> list[object]:
    """Check each result; count attempts and failures; return the values."""
    values = []
    for op, (_, raw, err) in zip(ops, calls):
        tally.attempted += 1
        value = None
        if err is None:
            try:
                value, err = op.check(raw)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            tally.fail(f"{op.label}: {err}")
        values.append(value)
    return values


def set_up(workload_name: str, seed: int, scratch: str, tally: Tally):
    """Import, first round of inputs, one warm-up call: (rng, workload, ops)."""
    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    rng = np.random.default_rng(seed)
    warm = workload.warmup(rng, scratch)
    checked(warm, timed_calls(warm), tally)
    return rng, workload, workload.round(rng, scratch)


def measure_setup(args) -> float:
    """Median wall time of SETUP_REPEATS fresh processes doing only set-up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return statistics.median(times)


def tail_percentile(samples) -> tuple[str, float] | None:
    """The highest of p99.9, p99, p90 with at least ten samples beyond it."""
    import numpy as np

    for q in (99.9, 99.0, 90.0):
        if len(samples) * (100.0 - q) / 100.0 >= 10:
            return f"p{q:g}", float(np.percentile(samples, q))
    return None


def run_plain(args, rng, workload, ops, scratch, tally) -> tuple[dict, dict]:
    import reference

    setup_s = measure_setup(args)
    # The reference unit is timed between operations, where the processor is
    # as busy as during them; timed between the idle waits of set-up it read
    # up to 60 % slower than in the same run's operation phase.
    ref = reference.Reference(workload.reference())
    ref.sample()
    by_label: dict[str, list[float]] = {}
    t_start = time.perf_counter()
    while True:
        calls = timed_calls(ops, between=ref.sample_if_due)
        checked(ops, calls, tally)
        for op, (t, _, _) in zip(ops, calls):
            by_label.setdefault(op.label, []).append(t * 1e3)
        if time.perf_counter() - t_start >= args.seconds:
            break
        ops = workload.round(rng, scratch)
    ref.sample()
    ms = [t for times in by_label.values() for t in times]
    # Operation types differ in cost by up to 30x (classify) and the mix has
    # gaps between them, where a plain median of all samples jumps from one
    # type to another on small shifts.  The gated figure is each type's
    # median, weighted by the type's share of the mix.
    mix_p50 = sum(len(times) * statistics.median(times) for times in by_label.values()) / len(ms)
    info = {
        "op_samples": len(ms),
        "op_ms_p50": statistics.median(ms),
        "op_ms_mix_p50_unscaled": mix_p50,
        "setup_s_unscaled": setup_s,
        "reference_ms_p50": 1e3 * statistics.median(ref.times),
        "reference_units": len(ref.times),
    }
    tail = tail_percentile(ms)
    if tail is not None:
        info[f"op_ms_{tail[0]}"] = tail[1]
    for label, times in sorted(by_label.items()):
        info[f"op_ms_p50[{label}]"] = statistics.median(times)
    metrics = {
        "setup_s": (setup_s * ref.scale(), "s"),
        "op_ms_mix_p50": (mix_p50 * ref.scale(), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, info


def run_traced(args, rng, workload, ops, scratch, tally) -> tuple[dict, dict]:
    import spans
    import workloads

    tracer = spans.Tracer()
    plain_s = traced_s = 0.0
    traced_ops = 0
    residuals = []
    t_start = time.perf_counter()
    while True:
        # each operation runs plain and then traced, back to back, so that
        # drift in host speed falls on both sides of the overhead ratio
        plain, traced = [], []
        for op in ops:
            plain += timed_calls([op])
            with spans.installed(tracer):
                traced += timed_calls([op])
        # checks run untraced, so their library calls stay out of the spans
        want = checked(ops, plain, tally)
        got = checked(ops, traced, tally)
        for op, a, b in zip(ops, want, got):
            if a != b:
                tally.fail(f"{op.label}: traced result differs from untraced ({a!r} vs {b!r})")
        residuals += [v for v in got if isinstance(v, workloads.Residuals)]
        plain_s += sum(t for t, _, _ in plain)
        traced_s += sum(t for t, _, _ in traced)
        traced_ops += len(ops)
        if time.perf_counter() - t_start >= args.seconds:
            break
        ops = workload.round(rng, scratch)

    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans_{args.workload}_seed{args.seed}.npz"))
    totals = tracer.totals()
    metrics = {}
    for name in spans.TRACED_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / traced_ops, "calls/op")
        metrics[f"{name}.self_s"] = (self_s / traced_ops, "s/op")
    metrics["fieldgrid.write_field_csv.bytes"] = (
        tracer.bytes.get("fieldgrid.write_field_csv", 0) / traced_ops, "bytes/op"
    )
    integrations = totals.get("solver.integrate", (0, 0.0))[0]
    verifies = totals.get("solver.verify_equivalence", (0, 0.0))[0]
    useful = min(integrations, NEEDED_INTEGRATIONS * verifies)
    metrics["solver.integrate.useful_ratio"] = (
        useful / integrations if integrations else 1.0, "ratio"
    )
    for field, name in (
        ("rho", "max_rho_discrepancy"),
        ("phase", "phase_residual"),
        ("collapse", "collapse_residual"),
        ("N", "n_drift"),
    ):
        metrics[f"solver.{name}"] = (
            max((getattr(r, field) for r in residuals), default=0.0), "abs"
        )
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
    info = {"traced_ops": traced_ops, "spans": len(tracer.start)}
    return metrics, info


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        worst = max(worst, subprocess.run(cmd, timeout=900).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "nlsgauge" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no nlsgauge sources under {SRC}\n")
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import nlsgauge

    if Path(nlsgauge.__file__).resolve().parent != SRC / "nlsgauge":
        sys.stderr.write(f"bench: imported nlsgauge from {nlsgauge.__file__}, not {SRC}\n")
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = str(OUT / "tmp")
    os.makedirs(scratch, exist_ok=True)
    tally = Tally()
    rng, workload, ops = set_up(args.workload, args.seed, scratch, tally)
    if args.setup_only:
        return 0 if tally.failed == 0 else 1

    run = run_traced if args.trace else run_plain
    metrics, info = run(args, rng, workload, ops, scratch, tally)
    correct = tally.failed == 0
    prov = provenance(args)
    record = {
        "provenance": prov,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted,
        "failures": tally.messages,
        "info": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")

    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    for key, value in info.items():
        print(f"info {key} = {value}")
    print(f"info failed_ratio = {record['failed_ratio']:.6g} ({tally.failed}/{tally.attempted})")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value!r} {unit}")
    for message in tally.messages:
        sys.stderr.write(f"bench: FAILED {message}\n")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
