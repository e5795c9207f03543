"""Benchmark of beltrami-growth: end-to-end metrics per workload, per-layer
metrics from a traced run.  Stdlib only.

    python3 bench/run.py --workload {certify,ladders,cli_cold} --seed N \
        --seconds S --trace {0,1}

Run from any directory; the package is taken from ``src/`` next to this
directory.  Every workload is a closed loop with one caller: the next
operation starts when the previous one has finished and been checked.  The
loop runs the workload's operations in turn, at least twice each so that
every configuration's outputs are compared with a repeat, and then on until
``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends the first
half of the time untraced and the second half traced, and prints the
per-layer metrics, the tracing overhead and the span coverage.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with the machine and
environment, is written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 5
IMPORT_PROBES = 3
TAIL_BEYOND = 10  # samples strictly beyond the reported tail latency
COVERAGE_FLOOR = 0.95  # share of each operation's wall time the spans must cover

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]


def child_env():
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


# ---------------------------------------------------------------------------
# set-up: fresh interpreter -> package imported and inputs generated


def setup_probe(workload: str, seed: int) -> int:
    """Child side of the set-up measurement."""
    import beltrami_growth  # noqa: F401

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workloads.make_ops(workload, seed, Path(tmp))
        print("ready", flush=True)
    return 0


def measure_setup(workload: str, seed: int, env):
    samples = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        samples.append(elapsed)
    return statistics.median(samples), samples


def import_probe(env):
    """import.* metrics from ``python -X importtime`` and ``sys.modules``."""
    totals, scipy, modules = [], [], []
    code = "import sys, beltrami_growth; print(len(sys.modules))"
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        total = scipy_us = 0
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            name = parts[2].strip()
            if name == "beltrami_growth":
                total = int(parts[1])
            if name.split(".")[0] == "scipy":
                scipy_us += int(parts[0])
        totals.append(total / 1e6)
        scipy.append(scipy_us / 1e6)
        modules.append(int(proc.stdout.strip()))
    return {
        "import.total_s": statistics.median(totals),
        "import.scipy_s": statistics.median(scipy),
        "import.modules": statistics.median(modules),
    }


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    def __init__(self, tracer=None):
        self.records = []  # (phase, kind, latency_s, ok, message)
        self.digests = {}
        self.tracer = tracer
        self.op_walls = {}  # traced op id -> wall time

    def one(self, op, phase: str, traced: bool):
        workdir = Path(tempfile.mkdtemp(dir=OUT))
        op_id = len(self.records)
        latency, ok, message = None, False, ""
        try:
            if traced:
                self.tracer.op = op_id
            start = time.perf_counter()
            try:
                result = op.run(workdir)
            finally:
                latency = time.perf_counter() - start
                if traced:
                    self.tracer.op = None
            if traced:
                self.op_walls[op_id] = latency
                self.collect_child_spans(workdir, op_id, start, start + latency)
            digest = op.check(result, workdir)
            first = self.digests.setdefault(op.kind, digest)
            workloads.expect(digest == first, "output differs from an earlier run of its config")
            ok = True
        except Exception as exc:  # every failure of an operation is counted, not raised
            message = f"{type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.records.append((phase, op.kind, latency, ok, message))
        if not ok:
            print(f"FAILED {op.kind}: {message[:400]}", file=sys.stderr)

    def collect_child_spans(self, workdir: Path, op_id: int, start: float, end: float):
        """Adopt the spans a traced CLI process wrote, and add the process's
        start-up (launch to its first statement) and exit (its last span to
        reaped) as spans of their own.  Both processes read the same
        monotonic clock."""
        path = workdir / "spans.json"
        if not path.exists():  # an in-process operation, or a CLI process that failed
            return
        spans = self.tracer.spans
        offset = len(spans)
        child = json.loads(path.read_text())
        for name, s, e, parent, _, attrs in child:
            spans.append([name, s, e, parent + offset if parent >= 0 else -1, op_id, attrs])
        spans.append(["process.startup", start, min(c[1] for c in child), -1, op_id, None])
        spans.append(["process.exit", max(c[2] for c in child), end, -1, op_id, None])

    def rotate(self, ops, seconds: float, min_cycles: int, phase: str, traced: bool):
        """Run the operations in turn: ``min_cycles`` whole cycles, then on
        until ``seconds`` have passed, stopping after the operation that
        crosses the limit."""
        start = time.perf_counter()
        i = 0
        while i < min_cycles * len(ops) or time.perf_counter() - start < seconds:
            self.one(ops[i % len(ops)], phase, traced)
            i += 1


def latency_metrics(records):
    good = [r[2] for r in records if r[3]] or [r[2] for r in records if r[2] is not None]
    times = sorted(good)
    n = len(times)
    # too few samples for a tail: report the maximum, with none beyond it
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {
        "ops_per_s": sum(r[3] for r in records) / sum(r[2] or 0.0 for r in records),
        "op_p50_s": statistics.median(times),
        "op_tail_s": times[k],
        "tail": {"percentile": 100.0 * (k + 1) / n, "samples_beyond": n - k - 1, "samples": n},
    }


# ---------------------------------------------------------------------------
# environment record


def environment(seed: int):
    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
    }
    for package in ("numpy", "scipy"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = "not installed"
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "unknown"
            )
    except OSError:
        info["cpu_model"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[label] = size
    info["caches"] = caches
    info["commit"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            if proc.returncode == 0:
                info["commit"] = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "beltrami_growth" / "__init__.py").is_file():
        print(f"bench: no beltrami_growth package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    env = child_env()
    setup_s, setup_samples = measure_setup(args.workload, args.seed, env)
    in_process = args.workload != "cli_cold"
    if in_process:
        import beltrami_growth  # noqa: F401

    inputs = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    tracer = tracing.Tracer() if args.trace else None
    loop = Loop(tracer)
    try:
        ops = workloads.make_ops(args.workload, args.seed, inputs, sys.executable, env)
        if in_process:
            # untimed warm-up: lazy set-up inside numpy and scipy is paid once
            # per process, not per operation
            Loop().one(ops[0], "warm-up", False)
        if not args.trace:
            loop.rotate(ops, args.seconds, 2, "untraced", False)
        else:
            loop.rotate(ops, args.seconds / 2, 1, "untraced", False)
            if in_process:
                tracing.install(tracer)
            else:
                ops = workloads.make_ops(
                    args.workload, args.seed, inputs, sys.executable, env, HERE / "launcher.py"
                )
            loop.rotate(ops, args.seconds / 2, 1, "traced", True)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    records = loop.records
    attempted, failed = len(records), sum(not r[3] for r in records)
    untraced = [r for r in records if r[0] == "untraced"]
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    e2e = {
        "setup_s": setup_s,
        **latency_metrics(untraced),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "ops_failed_frac": failed / attempted,
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_samples_s": setup_samples,
        "end_to_end": e2e,
        "failures": [f"{r[1]}: {r[4]}" for r in records if not r[3]],
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({len(untraced)} untraced operations, one closed-loop caller)")
    units = dict(END_TO_END, ops_failed_frac="ratio")
    for name, unit in units.items():
        print(f"  {name:<16} {e2e[name]:<14.6g} {unit}")
    tail = e2e["tail"]
    print(f"  op_tail_s is p{tail['percentile']:.1f}: {tail['samples_beyond']} of "
          f"{tail['samples']} samples lie beyond it")
    print(f"  failed {failed} of {attempted} attempted operations")

    if args.trace:
        traced = [r for r in records if r[0] == "traced"]
        layers = tracing.aggregate(tracer.spans, len(traced))
        layers.update(import_probe(env))
        layers["trace.overhead_ops_per_s"] = latency_metrics(traced)["ops_per_s"] - e2e["ops_per_s"]
        layers["trace.coverage_min"] = min(tracing.coverage(tracer.spans, loop.op_walls))
        if layers["trace.coverage_min"] < COVERAGE_FLOOR:
            print(f"warning: an operation spent {1 - layers['trace.coverage_min']:.1%} of its "
                  "wall time outside every top-level span: a layer is missing from the trace",
                  file=sys.stderr)
        result["per_layer"] = layers
        result["spans"] = len(tracer.spans)
        for name, unit in tracing.LAYER_METRICS:
            print(f"  {name:<44} {layers[name]:<14.6g} {unit}")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in tracing.LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    print("environment " + json.dumps(result["environment"], sort_keys=True))
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stamp}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
