"""Benchmark for narayana: exact identity checks, timed end to end and by layer.

    python3 bench/run.py --workload identity_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run it from the root of a source checkout; it imports narayana from src/ and
needs no installed package.  Every pass runs in a fresh interpreter
(bench/worker.py), one pass at a time: a closed loop with a single client.
Passes repeat until --seconds have gone by.  Every output is checked for
exactness and correctness; a pass that fails a check is counted in "failed"
and gives no timing sample.  Times after set-up are scaled to a reference
machine speed measured inside each pass (speed.py).

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, each
the median over the clean passes.  With --trace 1 untraced and traced passes
alternate; the metrics are the per-layer ones (medians over the traced
passes) and trace.overhead_frac.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  README.md next
to this file says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = str(BENCH / "worker.py")
REPORT_PREFIX = b"bench-report "

WORKLOADS = ("identity_sweep", "rational_inverse", "involution_certify", "cli_verify_all")
# Set-up is one import of ~30 ms, noisy on its own: each pass takes the median
# of its own set-up and that of this many extra processes that only set up,
# scaled by the machine speed measured in the pass.
SETUP_PROBES = 4

# The CLI workload's argv and the sha256 of its standard output, recorded on
# the seed commit: the README promises byte-identical stdout.
CLI_ARGV = ("verify", "--identity", "all", "--max-n", "14", "--format", "json")
CLI_STDOUT_SHA256 = "ae7c0b8f02b3f233f0bd71f7aa0d4c668d456555cf3ccede55fa27e5a23a020b"


class PassError(RuntimeError):
    """A pass process crashed or broke the worker protocol."""


class Sample:
    """What one pass measured, and what its checks found."""

    def __init__(self, attempted, failures, values, speed, layer=None):
        self.attempted = attempted
        self.failures = failures
        self.values = values  # end-to-end metric name -> value
        self.speed = speed  # machine speed during the pass / reference speed
        self.layer = layer or {}  # per-layer metric name -> value (traced passes)


def _spawn(args):
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports from byte code, as installed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # -S: the machine's site-packages and .pth files are not narayana's, and
    # their imports would count in peak_rss_mb
    return subprocess.Popen(
        [sys.executable, "-S", *args], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _reap(proc):
    """Wait for the process; (exit code, peak resident set in MB, stderr)."""
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024, err


def _pass_report(err, what):
    reports = [l for l in err.splitlines() if l.startswith(REPORT_PREFIX)]
    if not reports:
        raise PassError(f"{what} pass wrote no report: {err.decode(errors='replace')}")
    return json.loads(reports[-1][len(REPORT_PREFIX):])


def setup_probe(mode):
    """Set-up seconds of one more fresh interpreter that only sets up."""
    with _spawn([WORKER, mode, "setup"]) as proc:
        proc.stdout.read()
        _, _, err = _reap(proc)
    return _pass_report(err, f"{mode} set-up")["setup_s"]


def one_pass(workload, seed, traced):
    """Run one pass in a fresh interpreter; the CLI's input is fixed, so its
    seed is only recorded."""
    trace = "1" if traced else "0"
    cli = workload == "cli_verify_all"
    args = ["cli", trace, *CLI_ARGV] if cli else [workload, str(seed), trace]
    digest, n_bytes = hashlib.sha256(), 0
    with _spawn([WORKER, *args]) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
            n_bytes += len(chunk)
        code, rss_mb, err = _reap(proc)
    report = _pass_report(err, workload)
    failures = report["failures"]
    attempted = report["attempted"]
    if cli:
        attempted += 2
        if code != 0:
            failures.append(f"exit code {code}: {err.decode(errors='replace')[-300:]}")
        if digest.hexdigest() != CLI_STDOUT_SHA256:
            failures.append(f"stdout sha256 {digest.hexdigest()} != recorded {CLI_STDOUT_SHA256}")
        if traced:
            report["metrics"]["cli.stdout_bytes"] = n_bytes
    elif code != 0:
        raise PassError(f"{workload} pass exited {code}: {err.decode(errors='replace')}")
    setup_s = report["speed"] * statistics.median(
        [report["setup_s"]] + [setup_probe(args[0]) for _ in range(SETUP_PROBES)])
    values = {"setup_s": setup_s, "pass_s": report["pass_s"] + (setup_s if cli else 0),
              "first_line_s": setup_s + report["first_s"], "peak_rss_mb": rss_mb}
    return Sample(attempted, failures, values, report["speed"], report.get("metrics"))


def _median(samples, name, field="values"):
    return statistics.median(getattr(s, field).get(name, 0) for s in samples)


def run_workload(workload, seed, seconds, trace, spec):
    """Repeat passes for `seconds`; (attempted, failed, metrics, sample counts)."""
    with _spawn(["-c", "import narayana.cli"]) as proc:  # untimed: byte-compile once
        proc.stdout.read()
        _reap(proc)
    plain, traced_samples = [], []  # Samples of untraced and traced passes
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while not plain or (trace and not traced_samples) or perf_counter() < deadline:
        traced = bool(trace) and len(plain) > len(traced_samples)
        sample = one_pass(workload, seed, traced)
        attempted += sample.attempted
        failed += len(sample.failures)
        for failure in sample.failures:
            print(f"FAILED {workload}: {failure}", file=sys.stderr)
        (traced_samples if traced else plain).append(sample)
    # failing passes give no timing sample, unless no pass was clean
    plain = [s for s in plain if not s.failures] or plain
    traced_samples = [s for s in traced_samples if not s.failures] or traced_samples

    metrics, counts = {}, {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if not trace:
            value, counts[name] = _median(plain, name), len(plain)
        elif name == "trace.overhead_frac":
            value = _median(traced_samples, "pass_s") / _median(plain, "pass_s") - 1
            counts[name] = min(len(plain), len(traced_samples))
        else:
            value = _median(traced_samples, name, "layer")
            counts[name] = len(traced_samples)
        metrics[name] = {"value": value, "unit": unit}
    speed = statistics.median(s.speed for s in plain)
    print(f"{workload}: machine speed median {speed:.4g} of the reference")
    return attempted, failed, metrics, counts


def _commit():
    """The checked-out commit, read from .git without running git, or None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def header(args):
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "narayana").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "source_sha256": sources.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "narayana" / "__init__.py").is_file():
        print(f"error: no narayana sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({"header": header(args)}), flush=True)
    # Pin this process, and by inheritance every pass, to one CPU: the two CPUs
    # of a shared VM run at different speeds, and the set-up probes must run
    # at the speed the pass measured.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    total_attempted = total_failed = 0
    all_metrics = {}
    for workload in workloads:
        attempted, failed, metrics, counts = run_workload(
            workload, args.seed, args.seconds, args.trace, spec)
        total_attempted += attempted
        total_failed += failed
        print(f"{workload}: seed={args.seed} attempted={attempted} failed={failed} "
              f"fail_frac={failed / attempted:.6g}")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']} (median of {counts[name]})")
        if args.workload == "all":
            metrics = {f"{workload}.{name}": m for name, m in metrics.items()}
        all_metrics.update(metrics)
    print(json.dumps({
        "correct": total_failed == 0,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": all_metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
