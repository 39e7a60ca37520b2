"""One cold benchmark process.

Usage: python3 child.py <checkout root>

Imports arithdyn from <root>/src, then reads a request from stdin:
{"ops": [...], "trace": bool, "spans_path": str or null}.  It runs the
operations one at a time and writes one JSON object to stdout with the
setup end time, wall and CPU time of the operation list, peak RSS, each
operation's result and, when traced, the per-layer metrics.  The parent
takes the spawn time on the same clock: time.perf_counter is
CLOCK_MONOTONIC on Linux, which all processes share.

Untraced children also report each operation's reference-normalized time
(see Speedometer): the host's speed moves by a third or more within
seconds, and a fixed kernel timed on the same thread during the operation
measures that speed.
"""
import gc
import io
import json
import os
import random
import resource
import signal
import sys
import time

sys.path.insert(0, os.path.join(sys.argv[1], "src"))

from arithdyn import arithfun as af, cli, dynamics as dy, preimage as pre, topology as tp  # noqa: E402
from arithdyn.config import ToolConfig  # noqa: E402

CONFIG = ToolConfig()
READY = time.perf_counter()


class Speedometer:
    """Samples the host's speed on this thread while an operation runs.

    Every SAMPLE_EVERY_S of wall time SIGALRM interrupts the operation
    between two bytecodes and times one run of a fixed pure-Python kernel.
    The kernel mixes three kinds of interpreter work, list indexing with
    dict lookups, small-integer arithmetic and trial division, because the
    host's slow spells do not slow each kind alike.  The garbage collector
    is off while it runs, so a collection the operation owes is not timed as
    the kernel's.  It also runs BURST times just before and just after each
    operation, so a short operation has samples too.  An operation's
    normalized time is its wall time minus the time spent in the kernel,
    times REF_S over the kernel's mean time in its samples: the seconds it
    would take at the speed where the kernel takes REF_S.  REF_S is about
    the kernel's median time inside these children on a 2-vCPU Xeon virtual
    machine, so there normalized times read close to measured ones.
    """

    SAMPLE_EVERY_S = 0.025
    BURST = 3
    REF_S = 0.0008
    TRIAL_N = (1999966, 720720, 1000001, 196608, 123456, 987654, 510510) * 2

    def __init__(self):
        rng = random.Random(7)
        self._table = [rng.randrange(1 << 30) for _ in range(4096)]
        self._index = [rng.randrange(4096) for _ in range(1000)]
        self._lookup = {v: i for i, v in enumerate(self._table[:1024])}
        self.samples: list[float] = []

    def _kernel(self) -> None:
        table, lookup = self._table, self._lookup
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        acc = 0
        for i in self._index:
            v = table[i]
            acc = (acc * 31 + v % 1009 + lookup.get(v, i)) % 1000003
        for i in range(1000):
            acc = (acc * 31 + i * i % 1009) % 1000003
        for n in self.TRIAL_N:  # psi(n) by trial division
            out, d = 1, 2
            while d * d <= n:
                if n % d == 0:
                    n //= d
                    power = 1
                    while n % d == 0:
                        n //= d
                        power *= d
                    out *= (d + 1) * power
                d += 1 if d == 2 else 2
            acc = (acc + out * (n + 1 if n > 1 else 1)) % 1000003
        self.samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()

    def burst(self) -> None:
        for _ in range(self.BURST):
            self._kernel()

    def measure(self, fn, *args):
        """fn(*args) -> (result, wall s without the kernel runs, normalized s,
        the kernel's mean s)."""
        self.samples.clear()
        self.burst()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._kernel())
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            return_value = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        inside = sum(self.samples[self.BURST:])
        self.burst()
        wall = elapsed - inside
        kernel_s = sum(self.samples) / len(self.samples)
        return return_value, wall, wall * self.REF_S / kernel_s, kernel_s


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mib() -> float:
    # VmHWM belongs to this process image alone; ru_maxrss also keeps the
    # high-water mark of the process that spawned it
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _open_set(mos) -> dict:
    return {"members": list(mos.members), "completeness": mos.completeness,
            "truncation_bound": mos.truncation_bound}


def _cli(op, tracer):
    buf = io.StringIO()
    rc = cli.run(op["argv"] + ["--format", "json", "--no-timestamp"], out=buf)
    text = buf.getvalue()
    if tracer is not None:
        tracer.add("cli.output_bytes", len(text.encode()))
    return {"rc": rc, "out": text}


def _value_table(op, tracer):
    table = af.value_table(af.PHI, op["bound"], CONFIG)
    return {"length": len(table), "head": table[:2],
            "samples": [table[n] for n in op["samples"]]}


def _search(op, tracer):
    budget = dy.SearchBudget(max_start=op["max_start"], max_depth=op["max_depth"],
                             max_families=op["max_families"], scan_bound=op["scan_bound"])
    found = dy.search_families(af.parse_function(op["fn"]), budget, dy.BACKWARD, CONFIG)
    return [list(c.values) for c in found]


def _min_open_backward(op, tracer):
    return _open_set(tp.min_open_backward(af.parse_function(op["fn"]), op["x"],
                                          op.get("scan_bound"), CONFIG))


OPS = {
    "cli": _cli,
    "monotone_sweep": lambda op, t: af.catalogue_monotone_sweep(op["bound"], config=CONFIG),
    "identity": lambda op, t: af.identity_check_psi_jordan(
        op["k"], op["bound"], CONFIG).to_payload(),
    "tau_subset": lambda op, t: tp.verify_tau_subset(af.PSI, op["bound"], CONFIG).to_payload(),
    "taubar_subset": lambda op, t: tp.verify_taubar_subset(
        af.PHI, op["bound"], CONFIG).to_payload(),
    "value_table": _value_table,
    "min_open_backward": _min_open_backward,
    "search_backward": _search,
    "surjective_core": lambda op, t: dy.surjective_core_membership(
        af.parse_function(op["fn"]), op["x"], CONFIG),
    "inverse_phi": lambda op, t: [list(pre.inverse_phi(m, CONFIG).members)
                                  for m in op["targets"]],
    "min_open_forward": lambda op, t: [
        _open_set(tp.min_open_forward(af.parse_function(op["fn"]), x, op["max_steps"],
                                      op["value_bits"], CONFIG))
        for x in op["starts"]],
}


def _run_op(op, tracer):
    try:
        return OPS[op["op"]](op, tracer)
    except Exception as exc:  # the parent counts it as a failed operation
        return {"error": f"{type(exc).__name__}: {exc}"}


def main() -> None:
    request = json.load(sys.stdin)
    speed = Speedometer()
    # the host's speed just after set-up, after one burst to warm the
    # kernel: the parent's set-up time times this is the set-up time at
    # the reference speed
    speed.burst()
    speed.samples.clear()
    speed.burst()
    setup_speed = speed.REF_S / (sum(speed.samples) / len(speed.samples))
    tracer = None
    if request["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    results, op_seconds, op_norm_seconds, op_kernel_seconds = [], [], [], []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    for i, op in enumerate(request["ops"]):
        if tracer is not None:
            tracer.op_index = i
            start = time.perf_counter()
            results.append(_run_op(op, tracer))
            op_seconds.append(time.perf_counter() - start)
            continue
        result, wall, norm, kernel = speed.measure(_run_op, op, None)
        results.append(result)
        op_seconds.append(wall)
        op_norm_seconds.append(norm)
        op_kernel_seconds.append(kernel)
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    if tracer is None:  # the kernel runs are not the program's work
        sampling = wall - sum(op_seconds)
        wall -= sampling
        cpu -= sampling
    reply = {"ready": READY, "setup_speed": setup_speed, "wall_s": wall, "cpu_s": cpu,
             "peak_rss_mb": _peak_rss_mib(), "op_seconds": op_seconds,
             "op_norm_seconds": op_norm_seconds, "op_kernel_seconds": op_kernel_seconds,
             "results": results}
    if tracer is not None:
        reply["layers"] = tracer.metrics()
        if request.get("spans_path"):
            tracer.dump(request["spans_path"], t0)
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
