"""Timed ``repro.fit`` calls and the correctness gate every fit passes through."""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import numpy as np

from measure import relative_residual

#: The benchmark's own residual must match the reported error this closely.
REL_ERROR_RTOL = 1e-6


class Gate:
    """Checks fits against same-seed sequential references (§6.1.3 protocol).

    A reference is the sequential fit for an iteration count, made once,
    untimed; its relative error is recomputed directly from the factors.
    """

    def __init__(self, A, k: int, seed: int):
        self.A, self.k, self.seed = A, k, seed
        self.refs: Dict[int, tuple] = {}
        self.failures: List[str] = []

    def reference(self, iters: int):
        if iters not in self.refs:
            import repro

            ref = repro.fit(self.A, self.k, n_ranks=1, max_iters=iters, tol=0, seed=self.seed)
            self.refs[iters] = (ref, relative_residual(self.A, ref.W, ref.H))
        return self.refs[iters]

    def check(self, result, iters: int, label: str) -> bool:
        """True when ``result`` passes; otherwise records why and returns False."""
        m, n = self.A.shape
        problems = []
        if result.W.shape != (m, self.k) or result.H.shape != (self.k, n):
            problems.append(f"shapes {result.W.shape} x {result.H.shape}")
        elif not (np.isfinite(result.W).all() and np.isfinite(result.H).all()):
            problems.append("non-finite factors")
        elif (result.W < 0).any() or (result.H < 0).any():
            problems.append("negative factors")
        else:
            ref, direct = self.reference(iters)
            reported = result.relative_error
            if not abs(reported - direct) <= REL_ERROR_RTOL * abs(direct):
                problems.append(f"rel_error {reported!r} vs direct residual {direct!r}")
            if not (np.allclose(result.W, ref.W, atol=1e-8)
                    and np.allclose(result.H, ref.H, atol=1e-8)):
                problems.append("factors differ from the sequential reference")
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return not problems


def timed_fit(A, k: int, seed: int, ranks: int, iters: int, **kwargs):
    """Wall time of one ``repro.fit`` call and its result (or the exception)."""
    import repro

    start = time.perf_counter()
    try:
        result = repro.fit(A, k, n_ranks=ranks, max_iters=iters, tol=0, seed=seed, **kwargs)
    except Exception as exc:  # noqa: BLE001 - a raising fit is a counted failure
        return time.perf_counter() - start, exc
    return time.perf_counter() - start, result


class FitPhase:
    """Timed rounds within a budget.

    A round is a set-up sample, ``fits_per_round`` pairs of a parallel and a
    sequential fit, and then whatever the caller runs ``after`` it (a chunk
    of serving traffic).

    Set-up samples are spread over the run, one per round, rather than taken
    back to back: on a 2-vCPU guest the host switches between fast and slow
    spells lasting seconds (server launches of 0.57 s or 0.80 s, several in a
    row), and a median of adjacent samples would report whichever spell it hit.
    """

    def __init__(self, workload, A, seed: int, gate: Gate):
        self.w, self.A, self.seed, self.gate = workload, A, seed, gate
        self.samples: Dict[str, List[float]] = {"setup_s": [], "fit_s": [], "fit_seq_s": []}
        self.attempted = 0
        self.failed = 0
        self.rel_error: Optional[float] = None

    def op(self, key: str, ranks: int, iters: int, label: str):
        kw = self.w.fit_kwargs() if ranks > 1 else {}
        seconds, result = timed_fit(self.A, self.w.k, self.seed, ranks, iters, **kw)
        self.attempted += 1
        if isinstance(result, Exception):
            self.failed += 1
            self.gate.failures.append(f"{label}: raised {type(result).__name__}: {result}")
            return seconds, None
        if not self.gate.check(result, iters, label):
            self.failed += 1
            return seconds, result
        self.samples[key].append(seconds)
        return seconds, result

    def setup_call(self) -> None:
        """The set-up sample of a fit workload: the same fit with ``max_iters=1``."""
        self.op("setup_s", 2, 1, "setup call (n_ranks=2, max_iters=1)")

    def launch(self, start_server: Callable) -> None:
        """The set-up sample of a serving workload: one server launch, then stop it."""
        self.attempted += 1
        try:
            server = start_server()
        except RuntimeError as exc:
            self.failed += 1
            self.gate.failures.append(f"server launch: {exc}")
            return
        server.stop()
        self.samples["setup_s"].append(server.setup_s)

    def round(self, setup: Callable[[], None], after: Callable[[], None]) -> None:
        w = self.w
        setup()
        for _ in range(w.fits_per_round):
            _, par = self.op("fit_s", 2, w.iters, f"fit n_ranks=2 max_iters={w.iters}")
            self.op("fit_seq_s", 1, w.iters, f"fit n_ranks=1 max_iters={w.iters}")
            if par is not None:
                self.rel_error = par.relative_error
        after()

    def run(self, budget: float, setup: Callable[[], None], after: Callable[[], None]) -> None:
        """At least one round; another only while it should fit in ``budget``."""
        start = time.perf_counter()
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            self.round(setup, after)
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - start + longest > budget:
                break
