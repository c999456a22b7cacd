"""flens benchmark: one workload, one seed, one timed run.

Usage (from the repository root):

    python3 perfbench/run.py --workload audit --seed 1 --seconds 30 --trace 0

Set-up generates the workload's inputs from the seed with flens's own
generator and writers, and runs its set-up commands; it is repeated and
timed. Then passes run for about ``--seconds`` seconds. Each pass runs the
workload's commands, one after another, in a fresh Python process that
calls ``flens.cli.main`` in-process. After each pass every output is checked.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, and it reports the
per-layer metrics of the traced passes plus the tracing overhead. Lines
before it name every metric with its unit, the sha256 of every output, the
outcome of every check and the machine's facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread: the steadiest choice on a small shared machine, and at most nproc.
BLAS_THREADS = 1
# Set-up repeats until both minimums are met (at most SETUP_MAX_REPEATS).
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 15
MIN_PASSES = 3  # untraced passes of a --trace 0 run
MIN_TRACED_PASSES = 2  # untraced and traced passes each, of a --trace 1 run
TIME_CAP_S = 120.0  # no pass starts after this, whatever --seconds says
PASS_TIMEOUT_S = 150.0

# Per-command times reported from untraced passes: metric -> step labels summed.
COMMAND_METRICS = {
    "classify_audit_s": ("classify-audit",),
    "retrieve_audit_s": ("retrieve-audit",),
    "fairpca_fit_s": ("fairpca-fit",),
    "miclip_fit_s": ("miclip-fit", "miclip-fit-inferred"),
    "apply_s": ("apply",),
    "probe_s": ("probe",),
}


def pin_blas_threads() -> None:
    """Fix BLAS threads before numpy loads, for this process and every pass process."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = str(BLAS_THREADS)


def _load_flens():
    """Import flens from ROOT/src, refusing any other copy."""
    source = ROOT / "src" / "flens"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no flens sources at {source}")
    sys.path.insert(0, str(ROOT / "src"))
    import flens

    if Path(flens.__file__).resolve().parent != source.resolve():
        raise SystemExit(f"perfbench: imported flens from {flens.__file__}, not {source}")
    return flens


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    mem_available_mb = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                mem_available_mb = int(line.split()[1]) // 1024
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "mem_available_mb": mem_available_mb,
        "machine": platform.machine(),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    """Invocation tallies and the log lines that explain them."""

    attempted: int = 0
    failed: int = 0
    lines: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.lines.extend(f"check {label} FAIL {p}" for p in problems)


def _checked(workdir: Path, step, inputs) -> list[str]:
    """Content checks of one step's outputs; returns the problems found."""
    import checks

    try:
        report = checks.check_report(workdir, step)
        if step.check:
            checks.CHECKS[step.check](inputs, report, **step.check_args)
    except checks.CheckFailed as exc:
        return [str(exc)]
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # report lacks a field
        return [f"{step.label}: malformed report ({exc!r})"]
    return []


def run_setup(workload, workdir: Path, seed: int, size: dict | None, outcome: Outcome):
    """Set up repeatedly; return the plan, each set-up's seconds and the last
    set-up's exit codes. The passes use the last set-up's outputs, which the
    caller checks; earlier set-ups' exit codes are recorded here.
    """
    from flens import cli

    times, rounds, plan = [], [], None
    while len(times) < SETUP_MAX_REPEATS and (
        len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS
    ):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        cwd = os.getcwd()
        start = time.perf_counter()
        plan = workload.setup(workdir, seed, size)
        os.chdir(workdir)
        try:
            rounds.append([(step, cli.main(step.argv)) for step in plan.setup])
        finally:
            os.chdir(cwd)
        times.append(time.perf_counter() - start)
    for step, code in (pair for earlier in rounds[:-1] for pair in earlier):
        outcome.record(step.label, [f"{step.label}: exit code {code}"] if code else [])
    return plan, times, rounds[-1]


def run_pass(workdir: Path, traced: bool) -> dict:
    """One pass in a fresh process; returns its parsed result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), str(ROOT), str(workdir), "1" if traced else "0"],
        stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_benchmark(workload, seed: int, seconds: float, trace: bool, workdir: Path,
                  size: dict | None = None, emit=print) -> dict:
    """Set up, run passes, check outputs; return the result object."""
    import checks

    outcome = Outcome()
    plan, setup_times, setup_codes = run_setup(workload, workdir, seed, size, outcome)
    inputs = checks.Inputs(workdir)
    for step, code in setup_codes:
        problems = [f"{step.label}: exit code {code}"] if code else []
        outcome.record(step.label, problems or _checked(workdir, step, inputs))
        emit(f"digest setup {step.label} " + " ".join(
            f"{name}={sha256(workdir / name)}" for name in step.outputs))

    first_digests: dict[str, str] = {}
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        result = run_pass(workdir, traced)
        result["traced"] = traced
        passes.append(result)
        kind = "traced" if traced else "untraced"
        exits = {c["label"]: c["exit"] for c in result["commands"]}
        for step in plan.passes:
            problems = []
            if exits.get(step.label) != 0:
                problems.append(f"{step.label}: exit code {exits.get(step.label)}")
            elif len(passes) == 1:  # later passes must match these bytes
                problems += _checked(workdir, step, inputs)
            for name in step.outputs:
                path = workdir / name
                digest = sha256(path) if path.exists() else "missing"
                expected = first_digests.setdefault(name, digest)
                if digest != expected:
                    problems.append(f"{name}: {kind} pass {len(passes)} bytes differ from pass 1")
            outcome.record(step.label, problems)
        if len(passes) == 1:
            emit("digest pass " + " ".join(f"{n}={d}" for n, d in first_digests.items()))
        elapsed = time.perf_counter() - start
        longest = max(p["wall_s"] for p in passes)
        kinds = (False, True) if trace else (False,)
        fewest = min(sum(1 for p in passes if p["traced"] == t) for t in kinds)
        minimum = MIN_TRACED_PASSES if trace else MIN_PASSES
        if fewest >= 1 and (
            elapsed > TIME_CAP_S or (fewest >= minimum and elapsed + longest > seconds)
        ):
            break
    return summarize(workload, plan, passes, setup_times, outcome, trace, emit)


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(workload, plan, passes, setup_times, outcome, trace, emit) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    per_command = {
        name: _median([sum(c["s"] for c in p["commands"] if c["label"] in labels)
                       for p in untraced])
        for name, labels in COMMAND_METRICS.items()
    }
    emit(f"workload {workload.name}: {len(untraced)} untraced and {len(traced)} traced passes, "
         f"{len(setup_times)} set-ups")
    emit("setup s " + " ".join(f"{t:.4f}" for t in setup_times))
    emit("pass wall_s " + " ".join(f"{p['wall_s']:.4f}{'*' if p['traced'] else ''}"
                                   for p in passes))
    emit("pass cpu_s " + " ".join(f"{p['cpu_s']:.4f}{'*' if p['traced'] else ''}"
                                  for p in passes))
    for line in outcome.lines:
        emit(line)
    emit(f"ops_failed {outcome.failed / max(outcome.attempted, 1):.4f} share "
         f"({outcome.failed} of {outcome.attempted} command invocations)")
    for name, value in per_command.items():
        if any(c["label"] in COMMAND_METRICS[name] for c in untraced[0]["commands"]):
            emit(f"metric {name} {value:.6f} s")
    if not trace:
        metrics = {
            "setup_s": (_median(setup_times), "s"),
            "wall_s": (_median([p["wall_s"] for p in untraced]), "s"),
            "peak_rss_mb": (_median([p["peak_rss_mb"] for p in untraced]), "MB"),
        }
    else:
        metrics = layer_metrics(traced, untraced, per_command, emit)
    for name, (value, unit) in metrics.items():
        emit(f"metric {name} {value} {unit}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_metrics(traced, untraced, per_command, emit) -> dict:
    import spans

    summaries = [p["trace"] for p in traced]
    for note in dict.fromkeys(n for s in summaries for n in s["notes"]):
        emit(f"trace note {note}")
    first = summaries[0]
    counts = [{layer: s["layers"][layer]["calls"] for layer in spans.LAYERS} for s in summaries]
    if any(c != counts[0] for c in counts):
        emit("trace note call counts differ between traced passes")
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = (first["layers"][layer]["calls"], "count")
        for stat in ("s", "self_s"):
            metrics[f"{layer}.{stat}"] = (_median([s["layers"][layer][stat] for s in summaries]), "s")
    for name, unit in spans.COUNTERS.items():
        metrics[name] = (_median([s["counters"][name] for s in summaries]), unit)
    for name, value in per_command.items():
        metrics[f"cmd.{name}"] = (value, "s")
    traced_wall = _median([p["wall_s"] for p in traced])
    untraced_wall = _median([p["wall_s"] for p in untraced])
    metrics["trace.spans"] = (first["spans"], "count")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS  # noqa: F401  (imported after flens is on the path)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    workdir = ROOT / ".perfbench_work" / workload.name
    try:
        result = run_benchmark(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_blas_threads()
    _load_flens()
    raise SystemExit(main())
