"""Closed-loop end-to-end benchmark of the repro simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sliced-exec --seed 1 --seconds 25 --trace 0

``--workload`` is one of ``ladder-plan``, ``sliced-exec`` and
``sampling-pool`` (see ``workloads.py``).  The seed makes the circuits and
bitstrings.  One client runs operations back to back for ``--seconds``
seconds and every result is checked against a dense statevector oracle.

With ``--trace 0`` the end-to-end metrics are measured with no tracing.
With ``--trace 1`` every other round of operations is traced (see
``tracing.py``) and the per-layer metrics are reported, together with
the traced-versus-untraced latency ratio.  Readable lines go to standard
output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``setup_s`` is the median of several cold setups: this process's and
those of ``SETUP_PROBES`` fresh processes run with ``--setup-probe``.
Each runs from the first line of this script to the first timed
operation (imports, planning of fixed workloads, pool spawn and one
warm-up operation); the oracle and the host roofline are not included.

Every time in seconds is reported at the host's reference speed: the
measured seconds divided by a speed factor, the time of a fixed
reference kernel (``host.ReferenceKernel``, of the kind the workload
names) over its nominal time.  An operation takes the mean of the two
kernel runs around it, a setup the median of the runs right after it,
and per-layer times the median over the run (``host.speed_factor``).
The measured values are printed too.
"""

import os
import time

SCRIPT_START = time.perf_counter()

# Pin BLAS threads before numpy loads; pool workers inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import host  # noqa: E402

#: largest accepted relative error against the oracle's norm
TOLERANCE = 1e-9
#: fresh processes whose setup time joins this process's in the median
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 150
#: a tail percentile needs at least this many operations beyond it
TAIL_BEYOND = 10
#: reference-kernel runs that time the host right after a setup
SETUP_REFERENCE_RUNS = 9
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORK_ROOT = ROOT / ".perfbench-work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "amp_p50_s": "s",
    "batch_p50_s": "s",
    "amps_per_s": "1/s",
    "samples_per_s": "1/s",
    "slicing_overhead": "ratio",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "tensornet.build_s": "s",
    "tensornet.simplify_s": "s",
    "tensornet.tensors": "count",
    "paths.search_s": "s",
    "paths.trials": "count",
    "paths.log10_flops": "log10_flop",
    "core.find_s": "s",
    "core.refine_s": "s",
    "core.secondary_s": "s",
    "core.num_sliced": "count",
    "core.subtasks": "count",
    "pipeline.plan_tree_self_s": "s",
    "plan.compile_s": "s",
    "plan.warm_s": "s",
    "plan.execute_p50_s": "s",
    "plan.executions": "count",
    "plan.steps": "count",
    "plan.gflops": "GFLOP/s",
    "plan.bytes_per_flop": "B/flop",
    "plan.roofline_frac": "ratio",
    "sliced.self_s": "s",
    "backend.run_s": "s",
    "backend.wait_s": "s",
    "backend.session_s": "s",
    "backend.retries": "count",
    "backend.faults": "count",
    "checkpoint.record_s": "s",
    "checkpoint.slots": "count",
    "checkpoint.bytes": "B",
    "sampling.build_s": "s",
    "sampling.plan_s": "s",
    "trace.overhead_frac": "ratio",
    "unattributed_s": "s",
    "amp_tail_s": "s",
    "batch_tail_s": "s",
    "tail.percentile": "%",
    "tail.samples": "count",
    "host.speed_factor": "ratio",
    "raw.batch_p50_s": "s",
}


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", type=Path, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def rung_p50(samples: Sequence[Tuple[int, float]], rungs: int) -> float:
    """Mean over rungs of each rung's median operation time.

    With one rung this is the plain median; with several it is the
    median of a ladder that weighs every rung equally, which stays put
    when the operation count changes parity.
    """
    medians = []
    for rung in range(rungs):
        times = [t for r, t in samples if r == rung]
        if not times:
            raise RuntimeError(f"no operation ran on rung {rung}")
        medians.append(statistics.median(times))
    return sum(medians) / len(medians)


def tail(times: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND operations beyond it.

    With TAIL_BEYOND or fewer operations no percentile qualifies; the
    fastest operation is reported at percentile 0.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], 0.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def slicing_overhead(rung_executors: Sequence[Sequence]) -> float:
    """Geometric mean over rungs of the geometric mean over each rung's plans
    of sliced cost / unsliced cost (every rung weighs the same)."""
    logs = [
        statistics.fmean(
            math.log(e.tree.slicing_overhead(frozenset(e.sliced))) for e in executors
        )
        for executors in rung_executors
    ]
    return math.exp(statistics.fmean(logs))


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def plan_work(executor) -> Tuple[float, float]:
    """Real flops and computed bytes of every contraction step the executor ran.

    Counts come from the executor's ``PlanStats.node_counts`` (worker
    counts merged in); each step's flops and the bytes of its two operands
    and its result come from the tree with the sliced indices removed.
    Bytes are computed from tensor sizes, not measured.
    """
    import numpy as np

    tree = executor.tree
    sliced = frozenset(executor.sliced)
    dtype = np.dtype(getattr(executor.plan, "dtype", None) or np.complex128)
    flops_per_mac = 8.0 if dtype.kind == "c" else 2.0
    flops = moved = 0.0
    for node, count in executor.stats.node_counts.items():
        children = tree.children(node)
        if children is None:
            continue
        flops += count * flops_per_mac * 2.0 ** tree.node_log2_flops(node, sliced)
        moved += count * dtype.itemsize * sum(
            2.0 ** tree.node_log2_size(n, sliced) for n in (*children, node)
        )
    return flops, moved


def layer_metrics(
    ops: List,
    op_executors: List[List],
    setup_trace,
    roofline: Dict[str, float],
) -> Dict[str, float]:
    count = len(ops)

    def per_op(values) -> float:
        return sum(values) / count

    def incl(name: str) -> float:
        return per_op(op.incl_s.get(name, 0.0) for op in ops)

    def self_time(name: str) -> float:
        return per_op(op.self_s.get(name, 0.0) for op in ops)

    executors = [e for group in op_executors for e in group]
    searches = [s for op in ops for s in op.searches]
    samples = [t for e in executors for t in e.stats.subtask_seconds]
    flops = moved = busy = 0.0
    for executor in executors:
        f, b = plan_work(executor)
        flops, moved = flops + f, moved + b
        stages = executor.stats.stage_seconds
        busy += stages.get("execute", 0.0) + stages.get("warm_cache", 0.0)
    gflops = flops / busy / 1e9 if busy else 0.0
    bytes_per_flop = moved / flops if flops else 0.0
    bound = min(
        roofline["gemm_gflops"],
        roofline["copy_gbps"] / bytes_per_flop if bytes_per_flop else math.inf,
    )
    # backend time not covered by worker execute time spread over the
    # workers (an in-process backend counts as one worker)
    wait = [
        op.incl_s.get("backend.run", 0.0)
        - sum(
            e.stats.subtask_seconds_sum / getattr(e.backend, "max_workers", 1)
            for e in group
        )
        for op, group in zip(ops, op_executors)
    ]
    return {
        "tensornet.build_s": incl("tensornet.build"),
        "tensornet.simplify_s": incl("tensornet.simplify"),
        "tensornet.tensors": per_op(op.tensors for op in ops),
        "paths.search_s": incl("paths.search"),
        "paths.trials": per_op(trials for trials, _ in searches),
        "paths.log10_flops": (
            statistics.fmean(tree.log10_total_cost() for _, tree in searches)
            if searches
            else 0.0
        ),
        "core.find_s": incl("core.find"),
        "core.refine_s": incl("core.refine"),
        "core.secondary_s": incl("core.secondary"),
        "core.num_sliced": statistics.fmean(len(e.sliced) for e in executors),
        "core.subtasks": statistics.fmean(e.num_subtasks for e in executors),
        "pipeline.plan_tree_self_s": self_time("pipeline.plan_tree"),
        "plan.compile_s": incl("plan.compile"),
        "plan.warm_s": incl("plan.warm"),
        "plan.execute_p50_s": statistics.median(samples) if samples else 0.0,
        "plan.executions": per_op(e.stats.executions for e in executors),
        "plan.steps": per_op(e.stats.steps_executed for e in executors),
        "plan.gflops": gflops,
        "plan.bytes_per_flop": bytes_per_flop,
        "plan.roofline_frac": gflops / bound if bound else 0.0,
        "sliced.self_s": self_time("sliced"),
        "backend.run_s": incl("backend.run"),
        "backend.wait_s": per_op(wait),
        "backend.session_s": setup_trace.incl_s.get("backend.session", 0.0)
        + sum(op.incl_s.get("backend.session", 0.0) for op in ops),
        "backend.retries": per_op(e.stats.retries for e in executors),
        "backend.faults": per_op(e.stats.faults for e in executors),
        "checkpoint.record_s": incl("checkpoint.record"),
        "checkpoint.slots": per_op(e.stats.checkpointed_slots for e in executors),
        "checkpoint.bytes": per_op(op.checkpoint_bytes for op in ops),
        "sampling.build_s": incl("sampling.build"),
        "sampling.plan_s": incl("sampling.plan"),
        "unattributed_s": per_op(op.unattributed_s for op in ops),
    }


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
def probe_setup(args: argparse.Namespace, work_dir: Path) -> List[Tuple[float, float]]:
    """(setup seconds, speed factor) of SETUP_PROBES fresh processes, one after another."""
    results = []
    for k in range(SETUP_PROBES):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-probe", "--work-dir", str(work_dir / f"probe-{k}"),
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        results.append((probe["setup_s"], probe["speed_factor"]))
    return results


def setup_only(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    args.work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    try:
        workload.setup()
        setup_s = time.perf_counter() - SCRIPT_START
        factor = setup_speed_factor(workload.reference)
    finally:
        workload.close()
    print(json.dumps({"setup_s": setup_s, "speed_factor": factor}))
    return 0


def setup_speed_factor(kind: str) -> float:
    kernel = host.ReferenceKernel(kind)
    return kernel.speed_factor([kernel.seconds() for _ in range(SETUP_REFERENCE_RUNS)])


class Loop:
    """What the timed loop saw."""

    def __init__(self, rungs: int) -> None:
        self.attempted = 0
        self.failed = 0
        self.times: List[float] = []  # every operation, traced or not
        # (rung, seconds) per operation; a failed operation keeps its time
        # here and marks the run incorrect
        self.untraced: List[Tuple[int, float]] = []
        # (rung, seconds at the reference speed) per untraced operation
        self.normalised: List[Tuple[int, float]] = []
        self.normalised_total = 0.0  # every operation at the reference speed
        self.traced: List[Tuple[int, float]] = []
        self.ops: List = []  # OpTrace per traced operation
        self.op_executors: List[List] = []  # executors per traced operation
        self.rung_executors: List[List] = [[] for _ in range(rungs)]
        self.kernel = None  # the host.ReferenceKernel timed between operations
        self.references: List[float] = []  # reference-kernel seconds between operations
        self.problems: List[str] = []


def timed_loop(workload, seconds: float, capture, tracer) -> Loop:
    """Run operations back to back for ``seconds``, checking each result.

    With a tracer, every other round of ``workload.rungs`` operations is
    traced and the rest run untraced, so both see the same host.  The
    reference kernel runs before the first operation and after each one,
    outside the operation's time; each operation is normalised by the
    speed factor of the two runs around it, so a slow phase of a few
    seconds is taken out where it happened.
    """
    rungs = workload.rungs
    loop = Loop(rungs)
    kernel = loop.kernel = host.ReferenceKernel(workload.reference)
    loop.references.append(kernel.seconds())
    index = 0
    min_ops = rungs * (2 if tracer is not None else 1)
    start_loop = time.perf_counter()
    while index < min_ops or time.perf_counter() - start_loop < seconds:
        inp = workload.make_input(index)
        rung = index % rungs
        traced = tracer is not None and (index // rungs) % 2 == 0
        first_executor = len(capture.executors)
        ok = False
        start = time.perf_counter()
        try:
            if traced:
                tracer.begin()
                try:
                    result = workload.run(inp)
                finally:
                    op = tracer.end()
            else:
                result = workload.run(inp)
            elapsed = time.perf_counter() - start
            error = workload.error(inp, result)
            ok = error <= TOLERANCE
            if not ok:
                print(f"operation {index}: relative error {error:.3e}", file=sys.stderr)
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc()
        loop.references.append(kernel.seconds())
        normalised = elapsed / kernel.speed_factor(loop.references[-2:])
        loop.attempted += 1
        loop.failed += not ok
        loop.times.append(elapsed)
        loop.normalised_total += normalised
        executors = capture.executors[first_executor:]
        loop.rung_executors[rung].extend(executors)
        (loop.traced if traced else loop.untraced).append((rung, elapsed))
        if not traced:
            loop.normalised.append((rung, normalised))
        if traced:
            loop.ops.append(op)
            loop.op_executors.append(executors)
            drift = abs(op.attributed_s() - op.wall_s)
            if drift > 1e-6 + 1e-9 * op.wall_s:
                loop.problems.append(
                    f"operation {index}: self times miss wall time by {drift:.3e} s"
                )
        index += 1
    return loop


def measure(args: argparse.Namespace, work_dir: Path) -> int:
    from tracing import PlanCapture, Tracer
    from workloads import WORKLOADS

    shm_before = host.shm_entries()
    problems: List[str] = []
    capture = PlanCapture()
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        if tracer is not None:
            tracer.begin()
        workload.setup()
        setup_trace = tracer.end() if tracer is not None else None
        setup_s = time.perf_counter() - SCRIPT_START
        setup_factor = setup_speed_factor(workload.reference)

        # untimed: host facts, oracle, warm-up check, host ceilings
        fingerprint = host.fingerprint(work_dir)
        workload.prepare_oracle()
        warmup_error = workload.error(workload.warmup_input, workload.warmup_result)
        if not warmup_error <= TOLERANCE:
            problems.append(f"warm-up result off by {warmup_error:.3e}")
        roofline = host.measure_roofline() if args.trace else None
        del capture.executors[:]

        loop = timed_loop(workload, args.seconds, capture, tracer)
        peak_rss = host.peak_rss_mb()
    finally:
        workload.close()
        host.stop_helpers()

    setups = [(setup_s, setup_factor)]
    if not args.trace:
        setups.extend(probe_setup(args, work_dir))
    left = host.leftovers(shm_before, work_dir)
    if left:
        problems.append(f"left behind: {left}")
    stray = host.reap_children()
    if stray:
        problems.append(f"processes still running after close: {stray}")
    problems.extend(loop.problems)

    rungs, amps_per_op = workload.rungs, workload.amps_per_op
    amplitudes = (loop.attempted - loop.failed) * amps_per_op
    factor = loop.kernel.speed_factor(loop.references)
    raw_p50 = rung_p50(loop.untraced, rungs)
    tail_value, tail_pct = tail([t for _, t in loop.untraced])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("host " + json.dumps(fingerprint))
    print(
        f"operations {loop.attempted} failed {loop.failed} "
        f"error_rate {loop.failed / loop.attempted} rungs {rungs}"
    )
    print(
        f"measured: batch p50 {raw_p50} s, {amplitudes / sum(loop.times)} amps/s, "
        f"speed factor {factor}; setups (s, factor) {setups}"
    )
    print(f"tail p{tail_pct:.1f} of {len(loop.untraced)} untraced ops: {tail_value} s")
    if args.trace:
        print("roofline " + json.dumps(roofline))
        metrics = layer_metrics(loop.ops, loop.op_executors, setup_trace, roofline)
        metrics["trace.overhead_frac"] = rung_p50(loop.traced, rungs) / raw_p50 - 1.0
        metrics["amp_tail_s"] = tail_value / amps_per_op
        metrics["batch_tail_s"] = tail_value
        metrics["tail.percentile"] = tail_pct
        metrics["tail.samples"] = len(loop.untraced)
        units = PER_LAYER_UNITS
        metrics = {
            name: value / factor if units[name] == "s" else value
            for name, value in metrics.items()
        }
        metrics["host.speed_factor"] = factor
        metrics["raw.batch_p50_s"] = raw_p50
    else:
        p50 = rung_p50(loop.normalised, rungs)
        metrics = {
            "setup_s": statistics.median(s / f for s, f in setups),
            "amp_p50_s": p50 / amps_per_op,
            "batch_p50_s": p50,
            "amps_per_s": amplitudes / loop.normalised_total,
            "samples_per_s": amplitudes / loop.normalised_total,
            "slicing_overhead": slicing_overhead(loop.rung_executors),
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END_UNITS
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    bad_names = [name for name in metrics if not METRIC_NAME.fullmatch(name)]
    if bad_names:
        problems.append(f"bad metric names: {bad_names}")
    for name in sorted(metrics):
        print(f"  {name} {metrics[name]} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    result = {
        "correct": loop.failed == 0 and not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def end_processes() -> None:
    """Stop and wait for every process this one started, on any way out."""
    host.stop_helpers()
    host.reap_children()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        try:
            return setup_only(args)
        finally:
            end_processes()
    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work_dir)
    finally:
        end_processes()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
