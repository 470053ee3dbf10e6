"""Host facts the benchmark records next to every result.

* :func:`fingerprint` — CPU model, CPU count, Python/numpy/BLAS versions,
  BLAS thread settings and the filesystem of the work directory.
* :func:`measure_roofline` — single-thread complex128 GEMM rate and copy
  bandwidth, the two ceilings ``plan.roofline_frac`` is taken against.
* :func:`peak_rss_mb` — summed peak resident set of this process and its
  live descendants (the process-pool workers).
* :func:`stop_helpers` and :func:`reap_children` — end every process a
  run started before it exits.
* :func:`leftovers` — what a run left in ``/dev/shm`` and its work
  directory.
* :class:`ReferenceKernel` — a fixed piece of work timed between
  operations, giving the host's current speed.
"""

from __future__ import annotations

import heapq
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHM_DIR = Path("/dev/shm")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    path = path.resolve()
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def last_level_cache_bytes() -> int:
    """Sum of the distinct last-level caches serving this process's CPUs."""
    caches: Dict[str, int] = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        base = Path(f"/sys/devices/system/cpu/cpu{cpu}/cache")
        levels = sorted(base.glob("index*"), key=lambda p: int(p.name[5:]))
        if not levels:
            continue
        top = levels[-1]
        try:
            size = (top / "size").read_text().strip()
            shared = (top / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        caches[shared] = int(size.rstrip("KMG")) * scale
    return sum(caches.values()) or 32 << 20


def fingerprint(work_dir: Path) -> Dict[str, object]:
    import numpy as np

    blas: Dict[str, object] = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # numpy < 1.26 has no dict mode; the fingerprint stays partial
        pass
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "work_dir_fs": _filesystem_of(work_dir),
        "llc_bytes": last_level_cache_bytes(),
    }


def measure_roofline(repeats: int = 3) -> Dict[str, float]:
    """Single-thread complex128 GEMM GFLOP/s and copy GB/s (best of ``repeats``).

    The copy arrays are each at least four times the last-level cache, so
    the copy streams from memory; their size is returned with the rates.
    """
    import numpy as np

    n = 512
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    out = np.empty_like(a)
    np.matmul(a, b, out=out)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - start)
    gemm_gflops = 8.0 * n**3 / best / 1e9  # a complex multiply-add is 8 real flops

    llc = last_level_cache_bytes()
    count = 4 * llc // 8 + 1
    src = np.ones(count, dtype=np.float64)
    dst = np.zeros(count, dtype=np.float64)
    np.copyto(dst, src)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    copy_gbps = 2.0 * src.nbytes / best / 1e9  # read source + write destination
    return {
        "gemm_gflops": gemm_gflops,
        "gemm_n": n,
        "copy_gbps": copy_gbps,
        "copy_array_bytes": int(src.nbytes),
        "llc_bytes": llc,
    }


def _children(pid: int) -> List[int]:
    found: List[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found.extend(int(c) for c in (task / "children").read_text().split())
        except OSError:
            continue
    return found


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Sum of the peak RSS of this process and every live descendant, in MiB."""
    total, todo, seen = 0, [os.getpid()], set()
    while todo:
        pid = todo.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += _hwm_kb(pid)
        todo.extend(_children(pid))
    return total / 1024.0


def stop_helpers() -> None:
    """Stop ``multiprocessing``'s helper processes and wait for them.

    Creating a shared-memory segment starts the resource tracker, a child
    process that otherwise ends only after this process has exited, and
    then as an orphan that nothing may reap.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (resource_tracker._resource_tracker, forkserver._forkserver):
        try:
            helper._stop()
        except ChildProcessError:  # already reaped by reap_children
            pass


def reap_children(grace_s: float = 5.0) -> List[int]:
    """Stop and wait for every child process still alive; return their pids."""
    import signal

    children = _children(os.getpid())
    waiting = set(children)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in waiting:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while waiting and time.monotonic() < deadline:
            for pid in list(waiting):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        waiting.discard(pid)
                except ChildProcessError:
                    waiting.discard(pid)
            time.sleep(0.01)
        if not waiting:
            break
    return children


def shm_entries() -> Set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def leftovers(shm_before: Set[str], work_dir: Path) -> List[str]:
    """New ``/dev/shm`` entries and any file left under ``work_dir``.

    A finished checkpoint job removes its ledger (manifest, slot records,
    stats, lock and tmp files); empty directories are not reported.
    """
    left = [f"/dev/shm/{name}" for name in sorted(shm_entries() - shm_before)]
    if work_dir.exists():
        left.extend(str(p) for p in sorted(work_dir.rglob("*")) if not p.is_dir())
    return left


class ReferenceKernel:
    """A fixed piece of work, about 10-20 ms, timed between operations.

    On a shared host the speed of one core drifts by tens of percent over
    minutes.  Timing this kernel around each operation measures that
    drift: :meth:`speed_factor` of its samples is above 1 when the host is
    slower than it was when :data:`NOMINAL_S` was taken.  The kernel never
    calls the program, so a change to the program cannot move it.

    ``kind`` picks the work that slows down as the workload does:

    * ``"mixed"`` — an integer loop, complex GEMMs and strided copies,
      for workloads that run numpy kernels;
    * ``"containers"`` — dict, set, sort and heap work in the
      interpreter, for workloads that run pure-Python search code.
    """

    #: median seconds of one run of each kind on the host where the bounds
    #: were set (2-vCPU KVM guest on an Intel Xeon, model 207)
    NOMINAL_S = {"mixed": 0.017, "containers": 0.0123}

    def __init__(self, kind: str = "mixed") -> None:
        import numpy as np

        self.kind = kind
        self.nominal_s = self.NOMINAL_S[kind]
        rng = np.random.default_rng(0)
        self._gemm = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self._cube = rng.standard_normal((64, 64, 64)) + 0j
        self._np = np

    def _mixed(self) -> None:
        total = 0
        for j in range(60000):
            total += j * j
        for _ in range(30):
            self._gemm @ self._gemm
        for _ in range(6):
            self._np.ascontiguousarray(self._cube.transpose(2, 0, 1))

    @staticmethod
    def _containers() -> None:
        table: Dict[Tuple[int, int], int] = {}
        seen: Set[int] = set()
        for i in range(20000):
            table[(i * 7919) % 5003, i & 7] = i
            seen.add(i * 31 % 4099)
        items = sorted(table.items(), key=lambda kv: kv[1] % 977)
        heap: List[Tuple[int, Tuple[int, int]]] = []
        for key, value in items[:5000]:
            heapq.heappush(heap, (value % 101, key))

    def seconds(self) -> float:
        start = time.perf_counter()
        if self.kind == "containers":
            self._containers()
        else:
            self._mixed()
        return time.perf_counter() - start

    def speed_factor(self, seconds: Sequence[float]) -> float:
        """Median of ``seconds`` over the nominal time (> 1: host slower)."""
        return statistics.median(seconds) / self.nominal_s
