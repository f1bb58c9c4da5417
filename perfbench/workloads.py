"""The benchmark workloads: their inputs, fit settings and serving traffic.

Every workload fits a model to its matrix and then serves that model, so each
reports every end-to-end metric; they differ in which layers carry the work.
``dsyn-dense`` is bulk fitting: bandwidth-bound local MM and large collective
transfers on the process backend; it serves only briefly, at a fixed rate.
``serve-project`` is serving: its model is served with many small NLS solves
against a frozen Gram, behind HTTP and the micro-batcher, and its rate ladder
finds the capacity.  Its fits are mid-sized (2048 features): at 1024
features, sequential fits ran 1.7-2.2x as long while one other process kept
a core busy, and their medians moved 20-50% between sets of runs half an
hour apart; at 2048 features the slowdown is 1.4x, near dsyn-dense's 1.3x.
Its fits are short (5 iterations, about 1 s sequential) and noisy: back to
back, sequential fits spread 0.14-0.20 (quartiles over median) on a 2-vCPU
guest, where the two OpenBLAS threads wait on each other whenever the host
takes a vCPU away.  So each of its rounds runs two fit pairs, and its rate
ladder gets a tenth of the run, so that the medians rest on 12 or more fits.

Both fit on the process backend.  The library's default thread backend is
bimodal on a 2-CPU host: each fit settles into a fast (~20 ms/iteration) or
a slow (~55 ms/iteration) mode, depending on whether OpenBLAS worker threads
end up competing with the rank threads, and the median of ten such fits
moves by half between runs, more than any regression bound could absorb.
Inputs come only from ``repro.data``'s public generators, seeded by the
benchmark's ``--seed``.  The program under test receives only the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple


def llc_bytes() -> Optional[int]:
    """Size of the last-level cache of CPU 0, as sysfs reports it."""
    import glob

    best = None
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(f"{index}/level") as fh:
                level = int(fh.read())
            with open(f"{index}/size") as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


@dataclass(frozen=True)
class Traffic:
    """Open-loop serving traffic against the workload's fitted model.

    The fixed rate sits at a fifth to a seventh of the server's capacity on a
    2-CPU host, so its latencies measure service time; nearer capacity,
    queueing turns every slow spell of the host into a latency spike.
    """

    columns: Tuple[int, int]     # columns per request, inclusive range
    fixed_rps: float             # the rate serve_p50_ms is measured at
    chunk_requests: int          # requests sent at fixed_rps after each fit round
    ladder_base: float = 0.0     # first rung of the serve_max_rps ladder
    ladder_rungs: int = 0        # rungs: ladder_base * 2**(i/8), i < ladder_rungs; 0: no ladder


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str               # the repro.data call, as provenance
    build: Callable              # seed -> matrix
    k: int
    iters: int
    backend: str
    traffic: Traffic
    setup: str                   # what setup_s times: "fit" or "serve" (see SETUP)
    fit_share: float             # share of --seconds spent in fit rounds; the rest: the ladder
    fits_per_round: int = 1      # parallel + sequential fit pairs per set-up sample

    def fit_kwargs(self) -> dict:
        return {"backend": self.backend}

    def provenance(self, A) -> dict:
        out = {
            "generator": self.generator, "shape": list(A.shape), "k": self.k,
            "iterations": self.iters, "backend": self.backend,
            "setup_s": SETUP[self.setup], "why": self.why,
            "traffic": {
                "columns_per_request": list(self.traffic.columns),
                "fixed_rps": self.traffic.fixed_rps,
                "chunk_requests": self.traffic.chunk_requests,
                "ladder_rps": ladder(self.traffic),
            },
        }
        out["a_bytes"] = int(A.nbytes)
        out["llc_bytes"] = llc_bytes()
        return out


def ladder(traffic: Traffic) -> list:
    return [round(traffic.ladder_base * 2 ** (i / 8), 3) for i in range(traffic.ladder_rungs)]


def _dense(seed):
    from repro.data.synthetic import dense_synthetic

    return dense_synthetic(8000, 7000, seed=seed)


def _serve_model(seed):
    from repro.data.lowrank import planted_lowrank

    return planted_lowrank(2048, 1024, 16, seed=seed, noise_std=NOISE)


#: Additive noise on the planted matrix.  Noise-free planted data converge
#: at a seed-dependent rate (rel_error 0.009 ± 25% across seeds after 50
#: iterations); with noise the error settles at the noise floor, so the
#: quality metric compares across seeds.
NOISE = 0.2


SETUP = {
    "fit": "fit(A, k, n_ranks=2, max_iters=1): validation, rank launch, distribution, "
           "||A||^2 and one iteration",
    "serve": "launch of python -m repro serve MODEL --port 0 until /healthz answers",
}

#: serve-project's requests carry 1-8 in-model columns.  dsyn-dense serves
#: only because every workload reports every end-to-end metric, so it sends
#: only fixed-rate traffic, of the smallest of those requests: one column.
#: At 8000 features a request's latency grows with its width (p50 11 ms at one
#: column, 25 ms over the 1-8 mix), and 80 requests of mixed width gave a p50
#: that spread 0.17 across ten seeds, against 0.04 for 250 one-column requests.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dsyn-dense",
            why="dense_synthetic(8000, 7000): 427 MiB, >=4x the 105 MiB LLC; k=16, 2 iters, process "
                "backend: bulk MM and collective transfer; served 1 column a call at a fixed rate",
            generator="repro.data.synthetic.dense_synthetic(8000, 7000, seed=SEED)",
            build=_dense, k=16, iters=2, backend="process",
            traffic=Traffic(columns=(1, 1), fixed_rps=20.0, chunk_requests=30),
            setup="fit", fit_share=1.0,
        ),
        Workload(
            name="serve-project",
            why="planted_lowrank(2048, 1024, 16, noise_std=0.2); k=16, 5 iters, process backend; "
                "its model served open loop, 1-8 columns a call: frozen-Gram NLS, HTTP, batching",
            generator="repro.data.lowrank.planted_lowrank(2048, 1024, 16, seed=SEED, noise_std=0.2)",
            build=_serve_model, k=16, iters=5, backend="process",
            traffic=Traffic(columns=(1, 8), fixed_rps=20.0, chunk_requests=40,
                            ladder_base=40.0, ladder_rungs=20),
            setup="serve", fit_share=0.9, fits_per_round=2,
        ),
    )
}
