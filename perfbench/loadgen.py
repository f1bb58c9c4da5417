"""Serving: launch ``repro serve``, drive it open loop, check every response.

One generator process (this one) sends requests on a fixed schedule from at
most ``nproc`` concurrent connections.  A request's latency is timed from
when it was due, so a stall also counts against the requests queued behind
it; the generator reports its own lateness (send time minus due time).
A request that is refused, shed (503/504) or errors is a failure and counts
as missing the latency limit.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from measure import nearest_rank, tail_percentile

#: serve_max_rps is the highest ladder rate whose tail latency stays within this.
LATENCY_LIMIT_S = 0.050
MODEL_NAME = "model"

PYCACHE = Path(__file__).resolve().parent / "out" / "pycache"

#: A server launch that has not answered /healthz by then has failed.
START_TIMEOUT_S = 60.0


@dataclass
class Pool:
    """Pre-encoded in-model requests and their directly projected answers."""

    bodies: List[bytes]
    expected_h: List[np.ndarray]
    expected_res: List[np.ndarray]


def make_pool(W: np.ndarray, seed: int, columns: tuple, size: int = 32) -> Pool:
    """Columns near the served basis: ``x = max(W h + noise, 0)``, h ≥ 0.25."""
    from repro.serve.project import project, projection_residuals

    rng = np.random.default_rng([seed, 7])
    m, k = W.shape
    scale = float(np.mean(W)) * k
    widths = range(columns[0], columns[1] + 1)
    bodies, hs, rs = [], [], []
    for i in range(size):
        c = widths[i % len(widths)]  # every width equally often, whatever the seed
        X = W @ (0.25 + rng.random((k, c))) + 0.02 * scale * rng.standard_normal((m, c))
        X = np.maximum(X, 0.0)
        bodies.append(json.dumps({"columns": X.T.tolist()}).encode())
        H = project(W, X, kernel="auto")
        hs.append(H)
        rs.append(projection_residuals(W, X, H))
    return Pool(bodies, hs, rs)


class Server:
    """A ``python -m repro serve`` child (or the traced launcher) on port 0."""

    def __init__(self, root, model_path, launcher: Optional[List[str]] = None):
        cmd = launcher or [sys.executable, "-m", "repro", "serve"]
        # The port is read from the child's first stdout line, so that line
        # must not sit in a pipe's block buffer.  Bytecode is cached under
        # out/, as an installed package caches it, whether or not the caller
        # set PYTHONDONTWRITEBYTECODE: a launch imports, it does not compile.
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1",
                   PYTHONPYCACHEPREFIX=str(PYCACHE))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.log = tempfile.TemporaryFile(mode="w+")  # stderr, read back on failure
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd + [f"{MODEL_NAME}={model_path}", "--port", "0"],
            cwd=str(root), env=env, stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        line = self._first_line(START_TIMEOUT_S)
        if " on http://" not in line:
            self.stop()
            self.log.seek(0)
            raise RuntimeError(f"server did not start: {line!r} {self.log.read()!r}")
        self.port = int(line.split(" on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        while True:
            try:
                status, _ = request(self.port, "GET", "/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or self._waited() > START_TIMEOUT_S:
                self.stop()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - self.started

    def _waited(self) -> float:
        return time.perf_counter() - self.started

    def _first_line(self, timeout: float) -> str:
        """The child's first stdout line, or "" if none comes within ``timeout``."""
        box: List[str] = []
        reader = threading.Thread(target=lambda: box.append(self.proc.stdout.readline()),
                                  name="serve-stdout", daemon=True)
        reader.start()
        reader.join(max(0.0, timeout - self._waited()))
        if reader.is_alive():  # killing the child closes the pipe and ends the read
            self.proc.kill()
            self.proc.wait()
            reader.join()
        return box[0] if box else ""

    def stats(self) -> dict:
        status, body = request(self.port, "GET", "/stats")
        return json.loads(body) if status == 200 else {}

    def stop(self) -> None:
        """Interrupt (the CLI's clean shutdown path), then wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(2)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def request(port: int, method: str, path: str, body: Optional[bytes] = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


@dataclass
class Rung:
    rate: float
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    status: np.ndarray
    which: np.ndarray
    bodies: list = field(repr=False)

    @property
    def latency(self) -> np.ndarray:
        """Seconds from due to completion; failures count as infinitely late."""
        lat = self.done - self.due
        lat[self.status != 200] = math.inf
        return lat

    @property
    def lateness(self) -> np.ndarray:
        return self.sent - self.due

    def p(self, q: float) -> float:
        return nearest_rank(list(self.latency), q)

    def tail(self) -> float:
        """The highest percentile with 10 samples beyond it (the maximum below 20)."""
        q = tail_percentile(len(self.due))
        return self.p(q) if q is not None else float(np.max(self.latency))

    def ok(self) -> bool:
        """Tail within the latency limit, nothing failed, and no growing backlog.

        The tail is p99 once a rung has 1000 requests; shorter rungs judge by
        the highest percentile their sample supports, so one stray stall
        cannot decide a rung.
        """
        quarter = max(1, len(self.due) // 4)
        growth = np.median(self.lateness[-quarter:]) - np.median(self.lateness[:quarter])
        return bool((self.status == 200).all() and self.tail() <= LATENCY_LIMIT_S
                    and growth <= LATENCY_LIMIT_S / 4)


def open_loop(port: int, pool: Pool, rate: float, seconds: float, seed: int,
              concurrency: int) -> Rung:
    """Send ``rate * seconds`` requests, request i due at ``i / rate``."""
    n = max(1, int(round(rate * seconds)))
    which = np.random.default_rng([seed, int(rate * 1000)]).permutation(n) % len(pool.bodies)
    due = np.empty(n)
    sent, done = np.full(n, np.nan), np.full(n, np.nan)
    status = np.zeros(n, dtype=int)
    bodies: list = [None] * n
    counter = iter(range(n))
    lock = threading.Lock()
    path = f"/v1/models/{MODEL_NAME}/project"
    t0 = time.perf_counter() + 0.01
    due[:] = t0 + np.arange(n) / rate

    def worker():
        while True:
            with lock:
                i = next(counter, None)
            if i is None:
                return
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[i] = time.perf_counter()
            try:
                status[i], bodies[i] = request(port, "POST", path, pool.bodies[which[i]])
            except OSError:
                status[i] = -1
            done[i] = time.perf_counter()

    threads = [threading.Thread(target=worker, name=f"loadgen-{j}") for j in range(concurrency)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return Rung(rate, due, sent, done, status, which, bodies)


def check_responses(rung: Rung, pool: Pool) -> List[str]:
    """Every 200 must carry finite residuals matching a direct projection."""
    problems = []
    for i, body in enumerate(rung.bodies):
        if rung.status[i] != 200:
            problems.append(f"request {i} at {rung.rate:g} req/s: status {rung.status[i]}")
            continue
        payload = json.loads(body)
        h = np.asarray(payload["h"]).T
        res = np.asarray(payload["residuals"])
        j = rung.which[i]
        if not (np.isfinite(res).all() and np.isfinite(h).all()):
            problems.append(f"request {i}: non-finite response")
        elif not (np.allclose(h, pool.expected_h[j], rtol=1e-9, atol=1e-12)
                  and np.allclose(res, pool.expected_res[j], rtol=1e-9, atol=1e-12)):
            problems.append(f"request {i}: response differs from a direct project()")
    return problems
