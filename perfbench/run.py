"""arithdyn benchmark runner.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Load model: arithdyn is a single-threaded batch verifier, so each workload
is a closed loop with one client that sends a fixed operation list, one
operation at a time.  Every sample is a fresh child process (child.py),
one child at a time, because every CLI user pays to fill the process-wide
sieve and prime caches; a warm in-process repeat would hide that cost.

Children run back to back until the next one would end past --seconds.
With --trace 0 the run reports the median over its children of
norm_wall_s, the operation list's wall time in seconds at a fixed
reference speed (child.Speedometer), and of peak_rss_mb; and setup_s,
the median set-up time at the same reference speed over the children
plus the set-up-only probes that follow each one.  The host's speed
moves by a third or more within seconds, and the normalization is what
makes these times steady from run to run.  The summary lines also print
the measured wall_s, cpu_s and set-up time.  With --trace 1 it
alternates plain and traced children and reports the per-layer metrics
(spans.py): counts from the traced children, which must agree exactly,
and medians of the times, plus the tracing overhead as traced minus
plain measured wall time.

Every operation's result is checked against answers from workloads.py;
wrong answers, exceptions and unexpected exit codes count as failed
operations, and so does CLI output that differs from the run's first child.
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json.  --workload all runs every workload
and prefixes each metric with its workload's name.
"""
from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170          # one workload's run must end within 180 s
MIN_PLAIN, MIN_TRACED = 3, 2
SETUP_PROBES = 4           # set-up-only children after each plain child


class ChildFailed(Exception):
    pass


def spawn(ops: list, deadline: float, trace: bool = False,
          spans_path: Path | None = None) -> dict:
    """Run one cold child that must end by `deadline` (perf_counter);
    returns its reply plus setup_s and norm_setup_s."""
    request = {"ops": ops, "trace": trace,
               "spans_path": str(spans_path) if spans_path else None}
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "child.py"), str(ROOT)],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, cwd=ROOT) as proc:
        try:
            out, err = proc.communicate(json.dumps(request).encode(),
                                        timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"child still running at the {RUN_LIMIT_S} s run limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {err.decode()[-2000:]}")
    reply = json.loads(out)
    reply["setup_s"] = reply["ready"] - start
    reply["norm_setup_s"] = reply["setup_s"] * reply["setup_speed"]
    return reply


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """One workload, one seed: children, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seconds, self.trace = workload, seconds, trace
        self.ops, self.checks = workloads.build(workload, seed)
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.setup: list[float] = []
        self.norm_setup: list[float] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first_cli: dict[int, str] = {}
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def _check(self, reply: dict) -> None:
        for i, (op, result) in enumerate(zip(self.ops, reply["results"])):
            self.attempted += 1
            if isinstance(result, dict) and "error" in result:
                reason = result["error"]
            else:
                reason = self.checks[i](result)
                if reason is None and op["op"] == "cli":
                    first = self.first_cli.setdefault(i, result["out"])
                    if result["out"] != first:
                        reason = "--no-timestamp output differs from the first child's"
            if reason is not None:
                self.failed += 1
                self.problems.append(f"op {i} {json.dumps(op)[:120]}: {reason[:400]}")

    def _child(self, trace: bool) -> None:
        spans_path = None
        if trace:
            spans_path = HERE / "out" / f"{self.workload}.spans.json"
            spans_path.parent.mkdir(exist_ok=True)
        try:
            reply = spawn(self.ops, self.deadline, trace, spans_path)
            probes = [] if trace else [spawn([], self.deadline) for _ in range(SETUP_PROBES)]
        except ChildFailed as exc:
            self.attempted += len(self.ops)
            self.failed += len(self.ops)
            self.problems.append(str(exc))
            return
        self._check(reply)
        (self.traced if trace else self.plain).append(reply)
        if not trace:
            self.setup += [r["setup_s"] for r in [reply] + probes]
            self.norm_setup += [r["norm_setup_s"] for r in [reply] + probes]

    def execute(self) -> None:
        try:  # warm-up: writes bytecode caches and fills the page cache
            spawn([], self.deadline)
        except ChildFailed as exc:
            self.problems.append(str(exc))
        start = time.perf_counter()
        durations: list[float] = []
        while True:
            trace = self.trace and len(self.traced) < len(self.plain)
            t = time.perf_counter()
            self._child(trace)
            durations.append(time.perf_counter() - t)
            next_end = time.perf_counter() + statistics.median(durations)
            enough = len(self.plain) >= (1 if self.trace else MIN_PLAIN) and (
                not self.trace or len(self.traced) >= MIN_TRACED)
            if enough and next_end > start + self.seconds or next_end > self.deadline:
                break
            if self.failed and len(durations) >= 2 * MIN_PLAIN:
                break  # broken children stay broken; do not spend the whole run

    def metrics(self, units: dict[str, str]) -> tuple[dict[str, float], list[str]]:
        """Metric values and summary lines; `units` names the metrics to report."""
        lines = [f"workload {self.workload}: {len(self.plain)} plain and "
                 f"{len(self.traced)} traced children, {self.attempted} operations, "
                 f"{self.failed} failed"]
        values: dict[str, float] = {}

        def median_of(name: str, samples: list[float], unit: str) -> None:
            if not samples:
                return
            q1, q2, q3 = quartiles(samples)
            values[name] = q2
            lines.append(f"  {name:<40} {q2:12.6g} {unit:<6} median of {len(samples)}, "
                         f"quartiles {q1:.6g} .. {q3:.6g}")

        if not self.trace:
            median_of("norm_wall_s", [sum(r["op_norm_seconds"]) for r in self.plain], "s")
            if self.plain:
                kernel = [k for r in self.plain for k in r["op_kernel_seconds"]]
                q1, q2, q3 = quartiles(kernel)
                lines.append(f"  {'reference kernel':<40} {q2 * 1e3:12.6g} ms     median of "
                             f"{len(kernel)} operation means, quartiles "
                             f"{q1 * 1e3:.6g} .. {q3 * 1e3:.6g}")
            median_of("wall_s", [r["wall_s"] for r in self.plain], "s")
            median_of("cpu_s", [r["cpu_s"] for r in self.plain], "s")
            median_of("setup_s", self.norm_setup, "s")
            median_of("measured setup_s", self.setup, "s")
            median_of("peak_rss_mb", [r["peak_rss_mb"] for r in self.plain], "MiB")
            rate = self.failed / self.attempted if self.attempted else 1.0
            lines.append(f"  {'error_rate':<40} {rate:12.6g} ratio  "
                         f"{self.failed} of {self.attempted} operations failed")
            runs = self.plain
        else:
            runs = self.traced
            for name in self.traced[0]["layers"] if self.traced else ():
                samples = [r["layers"][name] for r in self.traced]
                if units.get(name) == "s":
                    median_of(name, samples, "s")
                    continue
                values[name] = samples[0]
                lines.append(f"  {name:<40} {samples[0]:12.6g} same in {len(samples)} "
                             f"traced children")
                if len(set(samples)) > 1:
                    self.problems.append(f"{name} differs between traced runs: {samples}")
            if self.traced and self.plain:
                median_of("trace.wall_s", [r["wall_s"] for r in self.traced], "s")
                values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
                    r["wall_s"] for r in self.plain)
                lines.append(f"  {'trace.overhead_s':<40} "
                             f"{values['trace.overhead_s']:12.6g} s      traced minus plain wall_s")
        missing = sorted(set(units) - set(values))
        if missing:
            self.problems.append(f"metrics not measured: {missing}")
        if runs:
            per_op = [statistics.median(r["op_seconds"][i] for r in runs)
                      for i in range(len(self.ops))]
            for op, sec in zip(self.ops, per_op):
                label = " ".join(op["argv"][:2]) if op["op"] == "cli" else op["op"]
                lines.append(f"    op {label:<38} {sec:10.4f} s median")
        return values, lines

    @property
    def correct(self) -> bool:
        return not self.problems and self.attempted > 0


def main() -> int:
    # a terminated runner unwinds, so spawn() kills the child it waits on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "arithdyn" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no arithdyn sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace))
        run.execute()
        runs.append(run)

    metrics: dict[str, dict] = {}
    for run in runs:
        values, lines = run.metrics(units)
        print("\n".join(lines))
        for problem in run.problems:
            print(f"FAILED {run.workload}: {problem}", file=sys.stderr)
        for metric, unit in units.items():
            if metric in values:
                key = metric if len(runs) == 1 else f"{run.workload}.{metric}"
                metrics[key] = {"value": values[metric], "unit": unit}
    result = {"correct": all(r.correct for r in runs),
              "attempted": sum(r.attempted for r in runs),
              "failed": sum(r.failed for r in runs),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
