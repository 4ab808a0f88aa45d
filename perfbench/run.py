"""The wmorse benchmark: drive the CLI in a closed loop and check every call.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fingerprint --seed 1 --seconds 20 --trace 0

One client sends one `wmorse` call at a time, as a subprocess, and sends
the next only when the previous one has exited. The program comes from
the checkout's own src/ directory; nothing is installed.

With --trace 0 the run measures for --seconds and prints the end-to-end
metrics. With --trace 1 it runs a fixed list of calls (the first cycles
of the same seeded schedule), each once plainly and once through
trace_child.py, and prints per-layer metrics derived from the spans plus
the tracing overhead. The last line of stdout is the JSON result; the
line before it is a JSON record of the interpreter, core count, seed and
input sizes. See README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no caches next to the benchmark's own files

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

ENTRY = "from wmorse.cli import entrypoint; entrypoint()"
SETUP_WARMUP = 2
SETUP_FIRST = 5  # set-up samples before the first call
SETUP_PER_CYCLE = 2  # and before every cycle, so they span the run
TRACE_CYCLES = 2
DEADLINE_S = 170.0
MEMORY_CAP = 2 << 30  # address space, inherited by every child: a blow-up fails the call, not the host
WORKDIR = ".perfbench_work"
PROBE_LOOP = 20000  # about a millisecond per probe
PROBE_ROUNDS = 3


def _probe() -> float:
    """Seconds for a fixed pure-Python loop on the current core."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOP):
        x += i * i
    return time.perf_counter() - t0


class Runner:
    """Runs wmorse children against one checkout's src/, with a shared deadline.

    Each child runs on the allowed core that a short probe finds fastest
    just before it starts. On a shared host one core can lose a third of
    its speed for seconds at a time while a neighbour is busy; the probe
    keeps that noise out of most calls. A child inherits the affinity.
    """

    def __init__(self, root: str, scratch: str, deadline: float | None):
        src = os.path.join(root, "src")
        self.env = {k: v for k, v in os.environ.items() if k not in ("WMORSE_MAX_DIM", "PYTHONPATH")}
        self.env["PYTHONPATH"] = src
        self.scratch = scratch
        self.deadline = deadline
        self.cores = sorted(os.sched_getaffinity(0))

    def pin_fastest_core(self) -> None:
        if len(self.cores) < 2:
            return
        speed = {}
        for core in self.cores:
            os.sched_setaffinity(0, {core})
            speed[core] = min(_probe() for _ in range(PROBE_ROUNDS))
        os.sched_setaffinity(0, {min(speed, key=speed.get)})

    def run(self, cmd: list[str]) -> tuple[float, int, str, str]:
        """Wall time, exit code, stdout and stderr of one child."""
        timeout = None
        if self.deadline is not None:
            timeout = self.deadline - time.monotonic()
            if timeout <= 0:
                raise TimeoutError("benchmark deadline reached")
        self.pin_fastest_core()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=timeout, cwd=self.scratch)
        wall = time.perf_counter() - t0
        return wall, proc.returncode, proc.stdout.decode(errors="replace"), proc.stderr.decode(errors="replace")

    def plain(self, argv: list[str]) -> list[str]:
        return [sys.executable, "-c", ENTRY, *argv]

    def traced(self, argv: list[str], out: str, call_id: int) -> list[str]:
        return [sys.executable, os.path.join(HERE, "trace_child.py"), out, str(call_id), "--", *argv]


def setup_sample(runner: Runner) -> float:
    """Wall time of `wmorse --version`: start-up, import and argparse."""
    wall, code, stdout, _ = runner.run(runner.plain(["--version"]))
    if code != 0 or not stdout.startswith("wmorse "):
        raise RuntimeError(f"wmorse --version failed with exit code {code}")
    return wall


def warm_up(runner: Runner) -> list[float]:
    """Write the bytecode caches, then take the first set-up samples."""
    for _ in range(SETUP_WARMUP):
        setup_sample(runner)
    return [setup_sample(runner) for _ in range(SETUP_FIRST)]


def check_call(call: workloads.Call, code: int, stdout: str, stderr: str) -> str | None:
    """Why a call failed its exit code, stderr or independent check, or None."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-200:]}"
    if stderr:
        return f"unexpected stderr: {stderr.strip()[-200:]}"
    try:
        return call.check(stdout)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return f"unreadable output ({type(e).__name__}: {e})"


def verify(call: workloads.Call, code: int, stdout: str, stderr: str, expected: dict) -> str | None:
    """Why a call's result is wrong, or None when every check passes."""
    problem = check_call(call, code, stdout, stderr)
    if problem:
        return problem
    digest = workloads.digest(stdout)
    if expected.get(call.key) != digest:
        return f"output differs from the recorded output (sha256 {digest[:12]})"
    return None


def tail(latencies: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten calls beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    q = math.floor(100 * (n - 10) / n) if n > 10 else 100
    return ordered[math.ceil(q * n / 100) - 1], q


def untraced_run(wl, seed, seconds, runner, expected, failures, setup):
    """Closed loop for `seconds`; returns latencies and simplices done."""
    latencies, done_simplices, sizes = [], 0, {}
    start = time.perf_counter()
    for cycle in wl.cycles(seed):
        setup.extend(setup_sample(runner) for _ in range(SETUP_PER_CYCLE))
        for item in cycle:
            sizes[item.key] = item.sizes
            for call in workloads.materialize(item, runner.scratch):
                wall, code, stdout, stderr = runner.run(runner.plain(call.argv))
                latencies.append(wall)
                problem = verify(call, code, stdout, stderr, expected)
                if problem:
                    failures.append(f"{call.key}: {problem}")
                else:
                    done_simplices += call.simplices
                if time.perf_counter() - start >= seconds:
                    return latencies, done_simplices, sizes
    raise AssertionError("unreachable")


def traced_run(wl, seed, runner, expected, failures, setup):
    """The first TRACE_CYCLES cycles, each call run plainly and traced."""
    acc = layers.Accumulator()
    plain_s = traced_s = 0.0
    calls, sizes = 0, {}
    for _, cycle in zip(range(TRACE_CYCLES), wl.cycles(seed)):
        for item in cycle:
            sizes[item.key] = item.sizes
            for call in workloads.materialize(item, runner.scratch):
                # one set-up sample per call: the accounting subtracts set-up once per call
                setup.append(setup_sample(runner))
                out = os.path.join(runner.scratch, f"trace-{calls}.json")
                # alternate which side goes first so drift does not bias the overhead
                for side in ((0, 1) if calls % 2 == 0 else (1, 0)):
                    cmd = runner.traced(call.argv, out, calls) if side else runner.plain(call.argv)
                    wall, code, stdout, stderr = runner.run(cmd)
                    problem = verify(call, code, stdout, stderr, expected)
                    if problem:
                        failures.append(f"{call.key} ({'traced' if side else 'plain'}): {problem}")
                    if side:
                        traced_s += wall
                        acc.add(out)
                    else:
                        plain_s += wall
                calls += 1
    return acc, plain_s, traced_s, calls, sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, resource.getrlimit(resource.RLIMIT_AS)[1]))
    if not os.path.isfile(os.path.join(root, "src", "wmorse", "cli.py")):
        print("error: run from the root of a wmorse checkout (src/wmorse not found)", file=sys.stderr)
        return 2
    expected = workloads.load_expected()
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(os.path.join(root, WORKDIR), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=os.path.join(root, WORKDIR))
    runner = Runner(root, scratch, time.monotonic() + DEADLINE_S)
    failures: list[str] = []
    try:
        setup = warm_up(runner)
        if args.trace:
            acc, plain_s, traced_s, calls, sizes = traced_run(wl, args.seed, runner, expected, failures, setup)
            attempted = 2 * calls
            metrics = acc.metrics()
            metrics.update(layers.trace_metrics(acc, calls, plain_s, traced_s, statistics.median(setup)))
            extra = {"traced_calls": calls}
        else:
            latencies, simplices, sizes = untraced_run(
                wl, args.seed, args.seconds, runner, expected, failures, setup)
            attempted = len(latencies)
            tail_s, q = tail(latencies)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "latency_p50_s": (statistics.median(latencies), "s"),
                "latency_tail_s": (tail_s, "s"),
                "simplices_per_s": (simplices / sum(latencies), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
                "success_rate": ((attempted - len(failures)) / attempted, "ratio"),
            }
            extra = {"calls": attempted, "tail_percentile": q}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    meta = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "setup_samples": len(setup), **extra, "inputs": sizes,
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
