#!/usr/bin/env python3
"""ripbench benchmark: fixed CLI workloads timed in-process, with output checks.

    python3 bench/run.py --workload {sweep,probes,geometry} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --reference [--seed N]
    python3 bench/smoke.py

Run from anywhere; the program is imported from `src/` next to this
directory, never from an installed copy.  One process runs one workload: it
warms up on the same subcommands at tiny size, then repeats the workload's
command list through `ripbench.cli.main` with stdout captured until the
passes add up to `--seconds`.  Every command gets `--seed N`.  Set-up time
(a fresh interpreter importing `ripbench.cli`) is sampled three times before
the first pass and once after each pass.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median wall
time of one pass over the command list, the median set-up time and the
process's peak RSS.  --trace 1 alternates untraced and traced passes
(tracing.py wraps the library's public functions from outside) and reports
the per-layer metrics: low medians over the traced passes, import times from
`python -X importtime`, and the tracing overhead.

A command fails when it exits non-zero, when its report fails the checks in
workloads.py, or when its stdout differs in any byte from the first pass
(traced passes included).  The last stdout line is the result object
{correct, attempted, failed, metrics}; the line before it holds the full
report with machine facts, which is also written to .bench_out/.  BLAS is
pinned to one thread so every comparison runs with the same thread count.
"""

from __future__ import annotations

import argparse
import contextlib
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_START = 3        # timed fresh-interpreter imports before the first pass; one more follows each pass
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 60.0


# ---------------------------------------------------------------------------
# environment and machine facts
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()


def machine_facts(loadavg_start) -> dict:
    from importlib import metadata

    import numpy as np

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": _blas(),
        "blas_threads": int(BLAS_THREADS),
        "loadavg_start": list(loadavg_start),
    }


# ---------------------------------------------------------------------------
# set-up and import time (fresh interpreters)
# ---------------------------------------------------------------------------

def _import_cli(extra=()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *extra, "-c", "import ripbench.cli"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )


def setup_time() -> float:
    """Wall seconds from spawning a fresh interpreter to `ripbench.cli`
    imported and the interpreter gone."""
    t0 = time.perf_counter()
    _import_cli()
    return time.perf_counter() - t0


def _importtime_split(stderr: str):
    """(ripbench.cli cumulative, scipy outermost cumulative) in seconds from
    `-X importtime` output, whose lines come children first."""
    total = scipy = 0.0
    scipy_level = None
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|", 2)
        if not cum.strip().isdigit():
            continue  # header line
        level = len(name) - len(name.lstrip())
        mod = name.strip()
        if scipy_level is not None and level <= scipy_level:
            scipy_level = None
        if mod == "ripbench.cli" and level == 1:
            total = int(cum) / 1e6
        if scipy_level is None and (mod == "scipy" or mod.startswith("scipy.")):
            scipy += int(cum) / 1e6
            scipy_level = level
    return total, scipy


def import_times(samples: int):
    splits = [_importtime_split(_import_cli(("-X", "importtime")).stderr) for _ in range(samples)]
    return statistics.median(s[0] for s in splits), statistics.median(s[1] for s in splits)


# ---------------------------------------------------------------------------
# running and checking commands
# ---------------------------------------------------------------------------

class Tally:
    """Commands attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def record(self, label: str, message) -> None:
        self.attempted += 1
        if message is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {message}")


def run_pass(cmds, seed: int):
    """One pass over the command list: (wall seconds, [(code, stdout)])."""
    cli = sys.modules["ripbench.cli"]
    outs = []
    t0 = time.perf_counter()
    for cmd in cmds:
        argv = cmd.argv + ("--seed", str(seed))
        buf, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception:  # a traceback is a failed command, not a dead benchmark
            code = f"uncaught exception: {traceback.format_exc(limit=3)!r}"
        outs.append((code, buf.getvalue()))
    return time.perf_counter() - t0, outs


def check_pass(tally: Tally, cmds, seed: int, outs, first_outs, tag: str) -> None:
    """Record every command of a pass: its report must pass the checks and,
    after the first pass, repeat the first pass's stdout byte for byte."""
    from workloads import check_report

    for i, (cmd, (code, stdout)) in enumerate(zip(cmds, outs)):
        msg = check_report(cmd, seed, code, stdout)
        if first_outs is not None and (code, stdout) != first_outs[i]:
            msg = "stdout differs from the first pass" + (f"; {msg}" if msg else "")
        tally.record(f"{tag} {cmd.argv[0]}#{i}", msg)


def _stdout_bytes(outs) -> int:
    return sum(len(stdout.encode()) for _, stdout in outs)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the full report (result object inside)."""
    import tracing
    from workloads import commands

    cmds = commands(workload, tiny=tiny)
    tally = Tally()
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "tiny": tiny, "commands": [" ".join(c.argv) for c in cmds]}

    if not trace:
        _import_cli()  # untimed: writes bytecode caches, warms the file cache
        setups = [setup_time() for _ in range(SETUP_START)]

    warm = commands(workload, tiny=True)
    _, warm_outs = run_pass(warm, seed)
    check_pass(tally, warm, seed, warm_outs, None, "warm-up")

    # --seconds counts pass time only; set-up samples taken between passes
    # spread over the run the way the passes do
    walls, traced_walls, layers = [], [], []
    first = tracer = None
    while True:
        wall, outs = run_pass(cmds, seed)
        check_pass(tally, cmds, seed, outs, first, f"pass {len(walls)}")
        first = first or outs
        walls.append(wall)
        if trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                wall, outs = run_pass(cmds, seed)
            check_pass(tally, cmds, seed, outs, first, f"traced pass {len(traced_walls)}")
            traced_walls.append(wall)
            layers.append(tracing.layer_metrics(tracer, wall))
        else:
            setups.append(setup_time())
        if sum(walls) + sum(traced_walls) >= seconds:
            break

    report["pass_walls_s"] = walls
    if trace:
        report["traced_pass_walls_s"] = traced_walls
        report["untraced_targets"] = tracer.untraced
        total_s, scipy_s = import_times(IMPORTTIME_SAMPLES)
        metrics = {
            "import.total_s": (total_s, "s"),
            "import.scipy_s": (scipy_s, "s"),
            **{name: (statistics.median_low(s[name][0] for s in layers), unit)
               for name, (_, unit) in layers[0].items()},
            "cli.stdout_bytes": (_stdout_bytes(first), "byte"),
            "trace.overhead_ratio": (statistics.median(traced_walls) / statistics.median(walls), "ratio"),
        }
        OUT.mkdir(exist_ok=True)
        tracing.save_spans(tracer, OUT / f"spans-{workload}-seed{seed}.npz")
    else:
        report["setup_samples_s"] = setups
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }

    report["fail_rate"] = tally.failed / tally.attempted
    report["failures"] = tally.messages
    report["result"] = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return report


def run_reference(seed: int, loadavg_start) -> dict:
    """One-shot in-process timing of the ROADMAP baseline commands."""
    from workloads import REFERENCE, Command

    rows = []
    for name, line in REFERENCE:
        wall, [(code, _)] = run_pass([Command(tuple(line.split()), None)], seed)
        rows.append({"name": name, "command": f"{line} --seed {seed}", "exit": code, "wall_s": wall})
        print(f"{name:16s} {wall:8.3f} s  exit {code}", file=sys.stderr)
    total_s, scipy_s = import_times(IMPORTTIME_SAMPLES)
    return {
        "reference": rows,
        "setup_s": statistics.median(setup_time() for _ in range(3)),
        "import_total_s": total_s,
        "import_scipy_s": scipy_s,
        "machine": machine_facts(loadavg_start),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("sweep", "probes", "geometry"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", action="store_true", help="one-shot ROADMAP baseline listing (ungated)")
    args = ap.parse_args(argv)
    if not args.reference and args.workload is None:
        ap.error("--workload is required unless --reference is given")
    return args


def _write(name: str, payload: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(payload, indent=1) + "\n")


def bootstrap():
    """Pin BLAS threads and import ripbench from SRC.  Returns an error
    message when the sources are missing or another copy would load."""
    for var in BLAS_VARS:  # before numpy loads
        os.environ[var] = BLAS_THREADS
    os.environ.pop("RIPBENCH_SEED", None)
    if not (SRC / "ripbench" / "__init__.py").is_file():
        return f"error: no ripbench sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import ripbench.cli

    if not Path(ripbench.cli.__file__).resolve().is_relative_to(SRC):
        return f"error: ripbench imported from {ripbench.cli.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    loadavg_start = os.getloadavg()
    args = _parse(argv)
    error = bootstrap()
    if error is not None:
        print(error, file=sys.stderr)
        return 2

    if args.reference:
        ref = run_reference(args.seed, loadavg_start)
        _write(f"reference-seed{args.seed}.json", ref)
        print(json.dumps(ref))
        return 0

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report["machine"] = machine_facts(loadavg_start)
    _write(f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", report)
    print(json.dumps({k: v for k, v in report.items() if k != "result"}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
