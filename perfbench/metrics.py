"""The benchmark's metrics: name, unit, which way is better, and what each should move.

``END_TO_END`` is what a user of wittenlab sees, printed by an untraced
run; ``PER_LAYER`` comes from a traced run.  ``BENCHMARK.json`` at the
repository root lists the same names and units; the smoke test checks
that the two agree and that every run prints every name.

Each per-layer entry names the end-to-end metric it is predicted to move
and on which workload, so that a change to one layer says beforehand
where its gain should appear and where nothing should change.
"""

from collections import namedtuple

Metric = namedtuple("Metric", "name unit better moves")

# Where a metric is the same for all workloads it is written once.
SWEEP = "job_s_p50 and answered_per_min on index and crosscheck; on scenario only via answered or post-sweep-refused jobs"
REFUSALS = "answered_share (via refusal_rate) and answered_per_min on scenario"

END_TO_END = (
    Metric("job_s_p50", "s", "lower", "median wall time of one job"),
    Metric("job_s_p90", "s", "lower", "nearest-rank 90th percentile of job wall time"),
    Metric("answered_per_min", "1/min", "higher", "jobs answered within tolerance per minute"),
    Metric("answered_share", "ratio", "higher", "jobs answered within tolerance over jobs attempted"),
    Metric("err_over_tol", "ratio", "lower", "worst answered job's error over its acceptance tolerance"),
    Metric("peak_rss_mb", "MB", "lower", "peak resident memory of the benchmark process"),
    Metric("setup_s", "s", "lower", "fresh process: import wittenlab and build the jobs"),
)

PER_LAYER = (
    Metric("discretize.matrix.calls", "count", "lower", SWEEP),
    Metric("discretize.matrix.busy_s", "s", "lower", SWEEP),
    Metric("discretize.matrix.bytes_computed", "B", "lower", SWEEP),
    Metric("determinants.det2.calls", "count", "lower", SWEEP),
    Metric("determinants.det2.busy_s", "s", "lower", SWEEP),
    Metric("determinants.det2.flops_computed", "flop", "lower", SWEEP),
    Metric("discretize.build_grid.calls", "count", "lower", "job_s_p50 on index"),
    Metric("discretize.build_grid.busy_s", "s", "lower", "job_s_p50 on index"),
    Metric("discretize.family_init.calls", "count", "lower", "job_s_p50 on index"),
    Metric("discretize.family_init.busy_s", "s", "lower", "job_s_p50 on index"),
    Metric("discretize.fourier_pair.calls", "count", "lower", "job_s_p50 and peak_rss_mb on crosscheck; no change elsewhere"),
    Metric("discretize.fourier_pair.busy_s", "s", "lower", "job_s_p50 and peak_rss_mb on crosscheck; no change elsewhere"),
    Metric("discretize.fourier_pair.M", "count", "lower", "peak_rss_mb and job_s_p50 on crosscheck"),
    Metric("discretize.trace_gz_diff.calls", "count", "lower", "job_s_p50 and peak_rss_mb on crosscheck; no change elsewhere"),
    Metric("discretize.trace_gz_diff.busy_s", "s", "lower", "job_s_p50 and peak_rss_mb on crosscheck; no change elsewhere"),
    Metric("determinants.phase_curve.calls", "count", "lower", "job_s_p50 on every workload, by little"),
    Metric("determinants.phase_curve.busy_s", "s", "lower", "job_s_p50 on every workload, by little"),
    Metric("ssf.sweep.busy_over_wall", "ratio", "higher", "job_s_p50 on crosscheck (thread pool); at most 1 on index"),
    Metric("ssf.ssf_mollified.calls", "count", "lower", "job_s_p50 on every workload"),
    Metric("ssf.ssf_mollified.busy_s", "s", "lower", "job_s_p50 on every workload"),
    Metric("ssf.ssf_mollified.self_s", "s", "lower", "job_s_p50 on every workload"),
    Metric("ssf.pushnitski.calls", "count", "lower", "job_s_p50 on index and scenario once the sweep is cheap"),
    Metric("ssf.pushnitski.busy_s", "s", "lower", "job_s_p50 on index and scenario once the sweep is cheap"),
    Metric("ssf.ssf_2d_curve.calls", "count", "lower", "job_s_p50 on scenario once the sweep is cheap"),
    Metric("ssf.ssf_2d_curve.busy_s", "s", "lower", "job_s_p50 on scenario once the sweep is cheap"),
    Metric("ssf.krein_check_trn.self_s", "s", "lower", "job_s_p50 on crosscheck (quadrature tails)"),
    Metric("ssf.trace_identity_eq1.self_s", "s", "lower", "job_s_p50 on crosscheck (quadrature tails)"),
    Metric("witten.witten_index.self_s", "s", "lower", "job_s_p50 on index"),
    Metric("witten.delta_r.calls", "count", "lower", "job_s_p50 on index"),
    Metric("witten.delta_r.busy_s", "s", "lower", "job_s_p50 on index"),
    Metric("kernels.eta_n_im.calls", "count", "lower", "no effect on any workload"),
    Metric("kernels.eta_n_im.busy_s", "s", "lower", "no effect on any workload"),
    Metric("discretize.oscillation_refusals", "count", "lower", REFUSALS),
    Metric("determinants.phase_curve.refusals", "count", "lower", REFUSALS),
    Metric("determinants.phase_curve.refusals.jump", "count", "lower", REFUSALS),
    Metric("determinants.phase_curve.refusals.settle", "count", "lower", REFUSALS),
    Metric("determinants.phase_curve.refusals.anchor", "count", "lower", REFUSALS),
    Metric("determinants.phase_curve.refusals.near_singular", "count", "lower", REFUSALS),
    Metric("determinants.wasted_det2_share", "ratio", "lower", REFUSALS),
    Metric("refusal_rate", "ratio", "lower", "answered_share on scenario (refused jobs over attempted)"),
    Metric("wrong_rate", "ratio", "lower", "answered_share and err_over_tol (answers outside tolerance over attempted)"),
    Metric("kernels.self_s", "s", "lower", "job_s_p50: layer self time"),
    Metric("discretize.self_s", "s", "lower", "job_s_p50: layer self time"),
    Metric("determinants.self_s", "s", "lower", "job_s_p50: layer self time"),
    Metric("ssf.self_s", "s", "lower", "job_s_p50: layer self time"),
    Metric("witten.self_s", "s", "lower", "job_s_p50: layer self time"),
    Metric("bench.self_s", "s", "lower", "none: the benchmark's own time between layer calls"),
    Metric("trace.job_wall_s", "s", "lower", "job_s_p50: traced wall time of the pass, the sum of the self times"),
    Metric("trace_overhead_pct", "%", "lower", "none: traced against untraced pass wall time"),
)
