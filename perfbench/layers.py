"""Per-layer metrics of one traced parallel fit (plus its sequential twin).

Time metrics are taken on the critical rank, the rank whose program ran
longest; counts are summed over ranks; imbalances compare ranks.
"""

from __future__ import annotations

from typing import Dict, List

from tracing import children_of, self_time

COMM_SPANS = ("comm.collective", "comm.issue", "comm.wait", "comm.finish")


def _sum(spans, name, key=None) -> float:
    return sum((s["args"].get(key, 0) if key else s["end"] - s["start"])
               for s in spans if s["name"] == name)


def fit_layers(par_spans: List[dict], seq_spans: List[dict], result) -> Dict[str, float]:
    by_id = {s["id"]: s for s in par_spans}
    ranks = sorted({s["rank"] for s in par_spans if isinstance(s["rank"], int)})
    rank_span = {s["rank"]: s for s in par_spans if s["name"] == "core.rank"}
    per_rank = {r: [s for s in par_spans if s["rank"] == r] for r in ranks}
    crit = max(ranks, key=lambda r: rank_span[r]["end"] - rank_span[r]["start"])
    mine = per_rank[crit]
    kids = children_of(par_spans)
    iters = max(1, result.iterations)
    out: Dict[str, float] = {}

    rank_s = rank_span[crit]["end"] - rank_span[crit]["start"]
    out["core.rank_s"] = rank_s
    out["core.iter_s"] = sum(h.seconds for h in result.history) / max(1, len(result.history))
    out["core.self_s"] = self_time(rank_span[crit], kids)

    mm_s = _sum(mine, "local_ops.mm")
    out["local_ops.mm_s"] = mm_s
    out["local_ops.mm_calls"] = float(sum(1 for s in mine if s["name"] == "local_ops.mm"))
    out["local_ops.gram_s"] = _sum(mine, "local_ops.gram")
    out["local_ops.mm_gflops"] = _sum(mine, "local_ops.mm", "flops") / mm_s / 1e9 if mm_s else 0.0
    flops = _sum(par_spans, "local_ops.mm", "flops")
    nbytes = _sum(par_spans, "local_ops.mm", "bytes")
    out["local_ops.mm_flops"] = flops
    out["local_ops.mm_bytes"] = nbytes
    out["local_ops.mm_flop_per_byte"] = flops / nbytes if nbytes else 0.0

    nls_by_rank = {r: _sum(per_rank[r], "nls.solve") for r in ranks}
    seq_nls = _sum(seq_spans, "nls.solve")
    columns = _sum(par_spans, "nls.solve", "columns")
    out["nls.solve_s"] = nls_by_rank[crit]
    out["nls.seq_solve_s"] = seq_nls
    out["nls.rank_over_seq"] = max(nls_by_rank.values()) / seq_nls if seq_nls else 0.0
    out["nls.calls"] = float(sum(1 for s in par_spans if s["name"] == "nls.solve"))
    out["nls.columns"] = columns
    out["nls.us_per_col"] = sum(nls_by_rank.values()) / columns * 1e6 if columns else 0.0
    out["nls.pivot_rounds"] = _sum(par_spans, "nls.solve", "pivot_rounds")
    out["nls.backup_exchanges"] = _sum(par_spans, "nls.solve", "backup_exchanges")
    mean_nls = sum(nls_by_rank.values()) / len(ranks)
    out["nls.rank_imbalance"] = max(nls_by_rank.values()) / mean_nls if mean_nls else 1.0

    def outermost_comm(s):
        parent = by_id.get(s["parent"])
        return s["name"] in COMM_SPANS and not (parent and parent["name"] in COMM_SPANS)

    top = [s for s in mine if outermost_comm(s)]
    exposed = sum(s["end"] - s["start"] for s in top)
    calls = [s for s in top if s["name"] in ("comm.collective", "comm.issue")]
    out["comm.exposed_s"] = exposed
    out["comm.wait_s"] = _sum(mine, "comm.wait")
    out["comm.helper_busy_s"] = _sum(mine, "comm.helper")
    for op in ("allreduce", "reduce_scatter", "allgather"):
        out[f"comm.{op}_s"] = sum(s["end"] - s["start"] for s in top if s["args"].get("op") == op)
    out["comm.calls"] = float(len(calls))
    out["comm.us_per_call"] = exposed / len(calls) * 1e6 if calls else 0.0
    ledger = result.ledger_summary
    out["comm.words_per_iter"] = sum(e["words"] for e in ledger.values()) / iters
    out["comm.messages_per_iter"] = sum(e["messages"] for e in ledger.values()) / iters

    launch = [s for s in par_spans if s["name"] == "backends.run_spmd"]
    longest = max(s["end"] - s["start"] for s in rank_span.values())
    out["backends.launch_s"] = (launch[0]["end"] - launch[0]["start"]) - longest

    dist = {s["rank"]: s for s in par_spans if s["name"] == "dist.distribute"}
    out["dist.distribute_s"] = dist[crit]["end"] - dist[crit]["start"]
    nnz = [dist[r]["args"]["nnz"] for r in ranks]
    out["dist.nnz_imbalance"] = max(nnz) / (sum(nnz) / len(nnz)) if sum(nnz) else 1.0
    return out


def plan_layers(A, result, layers: Dict[str, float], machine) -> Dict[str, float]:
    """The planner's per-iteration prediction for this run's variant, grid and backend."""
    from repro.core.variants import get_variant
    from repro.perf.model import pipelined_breakdown
    from repro.plan import ProblemSpec

    problem = ProblemSpec.from_matrix(A, result.config.k)
    blocking = get_variant(result.variant).predicted_breakdown(
        problem, result.n_ranks, grid=tuple(result.grid_shape), machine=machine)
    pred = pipelined_breakdown(blocking, result.variant, result.backend, machine)
    iters = max(1, result.iterations)
    actual_comm = layers["comm.exposed_s"] / iters
    pred_comm = pred.communication

    def ratio(p, a):
        return p / a if a else 0.0

    return {
        "plan.pred_iter_s": pred.total,
        "plan.pred_over_actual": ratio(pred.total, layers["core.iter_s"]),
        "plan.nls_pred_over_actual": ratio(pred.get("NLS"), layers["nls.solve_s"] / iters),
        "plan.mm_pred_over_actual": ratio(pred.get("MM"), layers["local_ops.mm_s"] / iters),
        "plan.comm_pred_over_actual": ratio(pred_comm, actual_comm),
    }
