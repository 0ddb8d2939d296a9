"""Statistics of the benchmark: metric tables, and the reduction of the op
driver's records (one JSON object per line) to those metrics."""

import statistics

# End-to-end metrics (the untraced run), name -> unit.
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "cpu_per_op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics (the traced run), name -> unit. "_s" is seconds per
# call unless the name says per_op; a "call" on fem_table4 is one call on
# each of its three meshes. A workload that makes no call into a layer
# reports 0 for that layer's metrics.
PER_LAYER = {
    "core.launches_per_op": "count",
    "core.flops_per_op": "flop",
    "core.bytes_per_op": "B",  # computed from the kernels' annotations
    "core.sim_s_per_op": "sim_s",  # the simulated clock; repeats exactly
    "fem.assemble_diagonal_s": "s",
    "fem.assemble_lor_s": "s",
    "fem.pa_apply_s": "s",
    "fem.span.formulation_s": "s",
    "fem.span.preconditioner_s": "s",
    "fem.span.solve_s": "s",
    "fem.unspanned_per_op_s": "s",
    "amg.setup_s": "s",
    "amg.vcycle_s": "s",
    "amg.operator_complexity": "ratio",
    "amg.levels": "count",
    "la.spmv_s": "s",
    "la.cg_iters_per_solve": "count",
    "la.mass_cg_iters_per_op": "count",
    "la.span.cg.spmv_s": "s",
    "la.span.cg.precond_s": "s",
    "la.span.cg.blas1_s": "s",
    "ode.steps_per_op": "count",
    "ode.lin_setups_per_op": "count",
    "ode.rhs_evals_per_op": "count",
    "ode.newton_iters_per_op": "count",
    "ode.failed_step_ratio": "ratio",
    "amr.compute_dt_s": "s",
    "amr.step_s": "s",
    "amr.fill_ghosts_s": "s",
    "amr.value_at_ns": "ns",
    "amr.cells_per_op": "count",
    "stencil.wave_step_s": "s",
    "net.halo_exchange_s": "s",
    "net.allreduce_s": "s",
    "net.messages_per_op": "count",
    "net.bytes_per_op": "B",
    "net.reductions_per_op": "count",
    "mpi.world_spawn_s": "s",
    "mpi.messages_per_op": "count",
    "mpi.bytes_per_op": "B",
    "mpi.retries_per_op": "count",
    "md.pair_forces_s": "s",
    "md.neighbor_build_s": "s",
    "bench.layer_coverage": "ratio",
    "bench.trace_overhead": "ratio",
    "host.calib_s": "s",
}

TAIL_BEYOND = 10


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, n). With `beyond` or fewer samples no
    percentile qualifies; the maximum is returned with percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return s[-1], 100.0, n
    k = n - 1 - beyond  # exactly `beyond` samples sit above index k
    return s[k], 100.0 * (k + 1) / n, n


def ops_of(records, phase):
    return [r for r in records if r["rec"] == "op" and r["phase"] == phase]


def failures(records):
    """(attempted, failed) over every op run: warm-up, timed and traced."""
    ops = [r for r in records if r["rec"] == "op"]
    return len(ops), sum(1 for r in ops if not r["ok"])


def ops_per_s(ops):
    """Ops completed correctly per wall second of the phase's ops."""
    busy = sum(r["wall_s"] for r in ops)
    return sum(1 for r in ops if r["ok"]) / busy if busy > 0 else 0.0


def end_to_end(records):
    """The end-to-end metrics of an untraced run, plus the tail's label.

    Only the timed phase counts: warm-up ops belong to set-up. Latencies
    are over the ops that passed their checks; a failed op counts in
    ops_per_s's time but not as completed.
    """
    timed = ops_of(records, "timed")
    if not timed:
        raise ValueError("no timed ops")
    good = [r["wall_s"] for r in timed if r["ok"]] or [
        r["wall_s"] for r in timed]
    value, pct, n = tail(good)
    setups = [r["wall_s"] for r in records if r["rec"] == "setup"]
    rss = [r["peak_mb"] for r in records if r["rec"] == "rss"]
    metrics = {
        "ops_per_s": ops_per_s(timed),
        "op_p50_s": statistics.median(good),
        "op_tail_s": value,
        "cpu_per_op_s": sum(r["cpu_s"] for r in timed) / len(timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss[-1],
    }
    return metrics, {"percentile": pct, "n": n, "beyond": min(TAIL_BEYOND, n)}


def per_layer(records):
    """The per-layer metrics of a traced run; layers it never calls are 0."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for r in records:
        if r["rec"] == "layer":
            if r["name"] not in PER_LAYER:
                raise ValueError("unknown layer metric " + r["name"])
            metrics[r["name"]] = r["value"]
    untraced = ops_per_s(ops_of(records, "timed"))
    traced = ops_per_s(ops_of(records, "traced"))
    metrics["bench.trace_overhead"] = untraced / traced if traced > 0 else 0.0
    metrics["host.calib_s"] = calib_s(records)
    return metrics


def calib_s(records):
    """Mean of the host calibration kernel's start and end times."""
    c = [r for r in records if r["rec"] == "calib"][-1]
    return 0.5 * (c["start_s"] + c["end_s"])


def spread(values):
    """Interquartile range over the median, as the benchmark's bounds use."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
