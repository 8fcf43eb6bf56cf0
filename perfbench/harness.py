"""Measurement machinery shared by the three workloads.

- :func:`rng_for` derives every random stream of a run from its seed,
- :class:`Tracer` keeps benchmark-side spans and kernel-dispatch records
  in memory and computes self time from them,
- :func:`host_manifest` describes the machine a result was measured on,
- :func:`run_workers` times fresh set-ups and measures on each CPU at once,
- :func:`live_children` lists processes this one started and has not
  reaped.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional

import numpy as np


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for stream ``key`` of workload seed ``seed``.

    Keys never collide with one another, and no stream depends on the
    interpreter's hash salt or on how many other streams were drawn.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def int_seed(seed: int, *key: int) -> int:
    """A plain integer seed for program APIs that take ``seed: int``."""
    return int(rng_for(seed, *key).integers(2**31))


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


class Digest:
    """SHA-256 over arrays, numbers and JSON-able values, in call order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, value) -> "Digest":
        if isinstance(value, np.ndarray):
            self._h.update(str((value.dtype.str, value.shape)).encode())
            self._h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, dict):
            for key in sorted(value):
                self.add(key).add(value[key])
        elif isinstance(value, (list, tuple)) and any(
                isinstance(v, (np.ndarray, dict, list, tuple)) for v in value):
            for v in value:
                self.add(v)
        else:
            self._h.update(json.dumps(value, sort_keys=True).encode())
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


@dataclass
class Round:
    """One whole round of a workload's operations."""

    ops: int                  # operations completed: scans, steps or requests
    op_times: List[float]     # wall seconds per operation, inputs excluded
    input_times: List[float]  # wall seconds per input the program generated
    inputs: object            # what the program was given (digested)
    outputs: object           # what it returned (digested, and re-checked when traced)
    wall: float = 0.0         # wall seconds of the whole round, inputs included


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Optional[int]
    flops: int = 0
    bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans around calls into the program's layers.

    :meth:`span` opens a benchmark-side span; :meth:`record` is the
    ``repro.backend.trace_dispatches`` sink, turning every kernel
    dispatch into a child span of whatever span is open.  A span
    inherits the scan, step or request-round id of its parent.
    """

    enabled = True

    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []

    def _parent(self):
        parent = self._open[-1] if self._open else None
        item = self.spans[parent].item if parent is not None else None
        return parent, item

    @contextmanager
    def span(self, name: str, item: Optional[int] = None):
        parent, inherited = self._parent()
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent,
                               inherited if item is None else item))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def record(self, kind, site, counts, time_s) -> None:
        end = time.perf_counter()
        parent, item = self._parent()
        self.spans.append(Span("backend." + site, end - time_s, end, parent, item,
                               int(counts.flops), int(counts.bytes_moved)))

    def self_times(self) -> List[float]:
        """Each span's duration minus the union of its children."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered, edge = 0.0, s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(s.duration - covered)
        return out

    def coverage(self, parent_name: str, child_names: Iterable[str]) -> float:
        """Share of ``parent_name`` span time covered by named children."""
        wanted = set(child_names)
        total = sum(s.duration for s in self.spans if s.name == parent_name)
        covered = sum(s.duration for s in self.spans
                      if s.name in wanted and s.parent is not None
                      and self.spans[s.parent].name == parent_name)
        return covered / total if total else 0.0

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class NullTracer:
    """The untraced run: spans cost one no-op context manager."""

    enabled = False

    @contextmanager
    def span(self, name: str, item: Optional[int] = None):
        yield


@contextmanager
def spans_around(tracer: Tracer, targets):
    """Wrap public methods of program classes in spans, then restore them.

    ``targets`` holds ``(cls, method, name)``; ``name`` is a span name or
    a function of the instance returning ``(name, item)``.  Only the
    traced run enters this, so the untraced run calls the program as is.
    """
    saved = []

    def wrap(original, name):
        @functools.wraps(original)
        def timed(self, *args, **kwargs):
            span_name, item = name(self) if callable(name) else (name, None)
            with tracer.span(span_name, item):
                return original(self, *args, **kwargs)
        return timed

    try:
        for cls, method, name in targets:
            original = cls.__dict__[method]
            setattr(cls, method, wrap(original, name))
            saved.append((cls, method, original))
        yield
    finally:
        for cls, method, original in reversed(saved):
            setattr(cls, method, original)


# ---------------------------------------------------------------------------
# Host manifest
# ---------------------------------------------------------------------------
def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy loaded, read from the library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_manifest(root: Path) -> Dict[str, object]:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------
def run_workers(script: Path, workload: str, seed: int, seconds: float,
                roles: List[str], cpus: List[int]) -> List[tuple]:
    """Set up one fresh interpreter per role, then measure on ``cpus`` at once.

    The processes start one after another, so that set-ups do not
    overlap: each prints ``ready`` once it has imported, built its models
    from the seed and made one warm-up call, and then waits.  The first
    ``len(cpus)`` roles measure, each pinned to its own CPU, and are told
    to start together once every set-up is done; the others only set up.
    Returns, per role, the seconds from process start to ``ready``
    (interpreter start-up counts) and the JSON object on the last line of
    a measuring process (``None`` for the others).  Every process is
    waited for, and killed first if anything goes wrong.
    """
    procs: List[subprocess.Popen] = []
    setups: List[float] = []
    try:
        for k, role in enumerate(roles):
            cpu = ["--cpu", str(cpus[k])] if k < len(cpus) else []
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
                 "--seconds", repr(seconds), "--worker", role, *cpu],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            procs.append(proc)
            ready = proc.stdout.readline()
            setups.append(time.perf_counter() - t0)
            if ready.strip() != "ready":
                raise RuntimeError(f"{workload} worker {k} did not set up")
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.close()
        results = []
        for k, proc in enumerate(procs):
            lines = proc.stdout.read().splitlines()
            code = proc.wait(timeout=170)
            if code != 0 or (k < len(cpus) and not lines):
                raise RuntimeError(f"{workload} worker {k} failed (exit {code})")
            results.append(json.loads(lines[-1]) if k < len(cpus) else None)
        return list(zip(setups, results))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass


def live_children() -> List[int]:
    """Child processes of this process that have not been reaped."""
    pids: List[int] = []
    task_dir = Path(f"/proc/{os.getpid()}/task")
    for task in task_dir.iterdir() if task_dir.exists() else ():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids
