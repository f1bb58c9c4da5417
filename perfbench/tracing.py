"""Span recorder and the wrappers that time the public calls into each layer.

Tracing lives entirely in the benchmark: :func:`install` rebinds a fixed set
of public functions and methods of the program to timing wrappers, and the
returned callable puts the originals back.  Nothing is patched unless a
traced run asks for it, so the untraced timings run the program untouched.

Spans are kept in memory.  Each SPMD rank records into its own
:class:`Recorder`; the rank-program wrapper ships the rank's spans home
inside the rank's result dict, the path every backend already uses for
results (the process backend forks, so the wrappers exist in every rank).
The ``run_spmd`` wrapper takes them back out before the variant assembles
its result.  :func:`chrome_trace` writes them once, at the end, as Chrome
trace-event JSON (open it in https://ui.perfetto.dev).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from typing import Callable, Dict, List, Optional

SPANS_KEY = "_perfbench_spans"

_tls = threading.local()
_ranks: Dict[int, "Recorder"] = {}
_ranks_lock = threading.Lock()


class Recorder:
    """In-memory spans of one rank (or of the parent process)."""

    def __init__(self, rank):
        self.rank = rank
        self.spans: List[dict] = []
        self._ids = itertools.count(1)

    def begin(self, name: str) -> dict:
        stack = _stack()
        span = {
            "name": name,
            "id": f"{self.rank}:{os.getpid()}:{next(self._ids)}",
            "parent": stack[-1]["id"] if stack else None,
            "rank": self.rank,
            "tid": threading.get_native_id(),
            "thread": threading.current_thread().name,
            "args": {},
            "start": time.perf_counter(),
        }
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        _stack().pop()
        self.spans.append(span)


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def current() -> Optional[Recorder]:
    return getattr(_tls, "recorder", None)


def bind(recorder: Optional[Recorder]) -> None:
    """Make ``recorder`` the calling thread's recorder (``None`` unbinds)."""
    _tls.recorder = recorder
    _tls.stack = []


def _recorder_for_comm(comm) -> Optional[Recorder]:
    """A helper thread's recorder, found through its communicator's world rank."""
    rec = current()
    if rec is not None:
        return rec
    try:
        world_rank = comm.group_ranks[comm.rank]
    except (AttributeError, IndexError):
        return None
    with _ranks_lock:
        rec = _ranks.get(world_rank)
        if rec is None and len(_ranks) == 1:
            rec = next(iter(_ranks.values()))
    if rec is not None:
        bind(rec)
    return rec


def timed(fn: Callable, name: str, count: Optional[Callable] = None,
          recorder_of: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` so each call is one span; ``count`` fills the span's args."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = recorder_of(args) if recorder_of is not None else current()
        if rec is None:
            return fn(*args, **kwargs)
        span = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if count is not None:
            count(span["args"], args, kwargs, out)
        return out

    return wrapper


# -- counts kept at the span boundaries -----------------------------------------

def _mm_a_ht(args_out, args, kwargs, out):
    from measure import mm_counts

    A_block, Ht = args[0], args[1]
    args_out["flops"], args_out["bytes"] = mm_counts(A_block, Ht.shape[1])


def _mm_wt_a(args_out, args, kwargs, out):
    from measure import mm_counts

    W_block, A_block = args[0], args[1]
    args_out["flops"], args_out["bytes"] = mm_counts(A_block, W_block.shape[1])


def _nls(args_out, args, kwargs, out):
    solver, rhs = args[0], args[2] if len(args) > 2 else kwargs["rhs"]
    args_out["columns"] = int(rhs.shape[1]) if getattr(rhs, "ndim", 1) == 2 else 1
    state = getattr(solver, "last_state", None)
    if state is not None:
        args_out["pivot_rounds"] = int(state.iterations)
        args_out["backup_exchanges"] = int(state.backup_exchanges)


def _collective(op: str):
    def count(args_out, args, kwargs, out):
        args_out["op"] = op
        array = args[1] if len(args) > 1 else None
        args_out["words"] = float(getattr(array, "size", 0))
    return count


def _handle_op(args_out, args, kwargs, out):
    args_out["op"] = str(getattr(args[0], "op", "?")).lstrip("i").replace("allgatherv",
                                                                          "allgather")


def _distribute(args_out, args, kwargs, out):
    args_out["nnz"] = int(out.local_nnz)


# -- installation ----------------------------------------------------------------

def _defining(base: type, attr: str) -> List[type]:
    """``base`` and its subclasses that define ``attr`` themselves."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if attr in cls.__dict__:
            found.append(cls)
    return found


def install(parent: Recorder) -> Callable[[], None]:
    """Rebind the layer entry points to timing wrappers; returns the undo.

    ``parent`` receives the spans of ``run_spmd`` and, after each SPMD run,
    every rank's spans.
    """
    import repro.comm.collectives as collectives
    import repro.comm.nonblocking as nonblocking
    import repro.comm.panels as panels
    import repro.core.anls as anls
    import repro.core.hpc_nmf as hpc
    import repro.core.variants.parallel as parallel
    from repro.comm.communicator import Comm
    from repro.dist.distmatrix import DistMatrix2D
    from repro.nls.base import NLSSolver

    undo: List[tuple] = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                     else getattr(owner, attr)))
        setattr(owner, attr, value)

    for module in (hpc, anls):
        patch(module, "matmul_a_ht", timed(module.matmul_a_ht, "local_ops.mm", _mm_a_ht))
        patch(module, "matmul_wt_a", timed(module.matmul_wt_a, "local_ops.mm", _mm_wt_a))
        patch(module, "gram", timed(module.gram, "local_ops.gram"))

    for cls in _defining(NLSSolver, "solve"):
        patch(cls, "solve", timed(cls.__dict__["solve"], "nls.solve", _nls))

    for method, op in (("allreduce", "allreduce"), ("reduce_scatter", "reduce_scatter"),
                       ("allgatherv", "allgather"), ("iallreduce", "allreduce"),
                       ("ireduce_scatter", "reduce_scatter"), ("iallgatherv", "allgather")):
        kind = "comm.issue" if method.startswith("i") else "comm.collective"
        patch(Comm, method, timed(Comm.__dict__[method], kind, _collective(op)))

    for cls in _defining(nonblocking.CommHandle, "wait"):
        patch(cls, "wait", timed(cls.__dict__["wait"], "comm.wait", _handle_op))
    for module in (hpc, panels):
        patch(module, "finish", timed(module.finish, "comm.finish", _handle_op))
    patch(collectives, "recursive_doubling_allgather",
          timed(collectives.recursive_doubling_allgather, "comm.helper",
                recorder_of=lambda a: _recorder_for_comm(a[0])))

    for factory in ("from_global", "from_block_generator"):
        original = DistMatrix2D.__dict__[factory].__func__
        patch(DistMatrix2D, factory,
              classmethod(timed(original, "dist.distribute", _distribute)))

    rank_program = parallel.hpc_nmf

    @functools.wraps(rank_program)
    def traced_rank_program(comm, *args, **kwargs):
        rec = Recorder(comm.rank)
        with _ranks_lock:
            _ranks[comm.rank] = rec
        bind(rec)
        try:
            span = rec.begin("core.rank")
            try:
                out = rank_program(comm, *args, **kwargs)
            finally:
                rec.end(span)
            out[SPANS_KEY] = rec.spans
            return out
        finally:
            bind(None)
            with _ranks_lock:
                _ranks.pop(comm.rank, None)

    spmd = parallel.run_spmd

    @functools.wraps(spmd)
    def traced_run_spmd(*args, **kwargs):
        span = parent.begin("backends.run_spmd")
        try:
            per_rank = spmd(*args, **kwargs)
        finally:
            parent.end(span)
        for entry in per_rank:
            if isinstance(entry, dict):
                for rank_span in entry.get(SPANS_KEY, ()):
                    if rank_span["name"] == "core.rank":  # launched by this run_spmd
                        rank_span["parent"] = span["id"]
                parent.spans.extend(entry.pop(SPANS_KEY, ()))
        return per_rank

    patch(parallel, "hpc_nmf", traced_rank_program)
    patch(parallel, "run_spmd", traced_run_spmd)

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


# -- analysis ---------------------------------------------------------------------

def children_of(spans: List[dict]) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            out.setdefault(s["parent"], []).append(s)
    return out


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of ``[start, end]`` covered by the union of intervals."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_time(span: dict, kids: Dict[str, List[dict]]) -> float:
    """A span's duration minus the part its direct child spans cover."""
    intervals = [(c["start"], c["end"]) for c in kids.get(span["id"], ())]
    return (span["end"] - span["start"]) - covered(span["start"], span["end"], intervals)


def self_times_by_layer(spans: List[dict]) -> Dict[str, float]:
    """Total self time per span name (the layer's own work, children excluded)."""
    kids = children_of(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + self_time(s, kids)
    return out


def chrome_trace(spans: List[dict], path: str, origin: float) -> None:
    """Write spans as Chrome trace-event JSON (complete events, µs).

    SPMD ranks become processes ``0 .. p-1``; the parent, the sequential fit
    and the server get processes numbered from 1000.
    """
    import json

    named: Dict[str, int] = {}

    def pid_of(rank) -> int:
        return rank if isinstance(rank, int) else named.setdefault(rank, 1000 + len(named))

    events, threads, processes = [], {}, {}
    for s in spans:
        pid = pid_of(s["rank"])
        processes[pid] = f"rank {s['rank']}" if isinstance(s["rank"], int) else s["rank"]
        threads[(pid, s["tid"])] = s["thread"]
        events.append({
            "name": s["name"], "ph": "X", "pid": pid, "tid": s["tid"],
            "ts": (s["start"] - origin) * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
            "args": dict(s["args"], id=s["id"], parent=s["parent"]),
        })
    for (pid, tid), name in threads.items():
        events.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                       "args": {"name": name}})
    for pid, name in processes.items():
        events.append({"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}})
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
