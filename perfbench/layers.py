"""Where the traced run wraps the library, and the per-layer metrics it reports.

Each wrapper sits in the namespace that makes the call. `build_lp` and
`solve_lp` are imported by name into `hca`, which solves the cluster-agreement
LP, and into `hcc`, which solves the lower-bound LP, so wrapping each name in
its caller tells the two LPs apart. Counts are read from the values the
wrapped calls return; nothing inside the library is changed.
"""
from __future__ import annotations

from types import SimpleNamespace

from spans import Span, Tracer, layer_seconds

# (name, unit, better, end-to-end metric and workload it should move)
PER_LAYER = (
    ("simplex.solve_dense.s", "s", "lower", "wall_s, fit_s.p90 on desk-batch"),
    ("simplex.iterations", "count", "lower", "wall_s, fit_s.p90 on desk-batch"),
    ("lp.solves.simplex", "count", "lower", "wall_s, fit_s.p90 on desk-batch"),
    ("lp.highs.s", "s", "lower", "wall_s on tree-pivots"),
    ("lp.sparse_matrix.s", "s", "lower", "wall_s on tree-pivots"),
    ("lp.check.s", "s", "lower", "wall_s on tree-pivots"),
    ("lp.build_lp.agree.s", "s", "lower", "wall_s on tree-pivots"),
    ("lp.build_lp.bound.s", "s", "lower", "wall_s on tree-pivots"),
    ("lp.solve_lp.agree.s", "s", "lower", "wall_s on tree-pivots"),
    ("lp.solve_lp.bound.s", "s", "lower", "wall_s on tree-pivots"),
    ("lp.rows", "count", "lower", "wall_s, peak_rss_mb on tree-pivots"),
    ("lp.vars", "count", "lower", "wall_s on tree-pivots"),
    ("lp.solves.highs", "count", "lower", "wall_s on tree-pivots"),
    ("treemetric.gromov_transform.s", "s", "lower", "wall_s on tree-pivots"),
    ("treemetric.pivot_subfits", "count", "lower", "wall_s on tree-pivots"),
    ("treemetric.restricted_to_tree.s", "s", "lower", "wall_s on tree-pivots"),
    ("treemetric.pseudometric_to_metric.s", "s", "lower", "wall_s on tree-pivots"),
    ("corrclust.corr_cluster.s", "s", "lower", "wall_s on planted-large"),
    ("corrclust.calls", "count", "lower", "wall_s on planted-large"),
    ("ultrametric.slice.s", "s", "lower", "wall_s on planted-large"),
    ("ultrametric.realize.s", "s", "lower", "wall_s on planted-large"),
    ("ultrametric.levels", "count", "lower", "wall_s on planted-large"),
    ("core.lp_norm_error.s", "s", "lower", "wall_s on planted-large"),
    ("io.parse_matrix.s", "s", "lower", "wall_s on planted-large"),
    ("io.newick_string.s", "s", "lower", "wall_s on planted-large"),
    ("hcc.fit_hcc.self_s", "s", "lower", "wall_s on tree-pivots and desk-batch"),
    ("hcc.fast_path_hits", "count", "higher", "wall_s on tree-pivots and desk-batch"),
    ("hca.fit_hca_report.self_s", "s", "lower", "wall_s on tree-pivots and desk-batch"),
    ("hca.lp_cleaning.s", "s", "lower", "wall_s on tree-pivots and desk-batch"),
    ("hca.derive_hierarchy.s", "s", "lower", "wall_s on tree-pivots and desk-batch"),
    ("hca.clusters_in", "count", "lower", "err_over_lb on desk-batch"),
    ("hca.clusters_kept", "count", "higher", "err_over_lb on desk-batch"),
    ("hca.empty_core_skips", "count", "lower", "err_over_lb on desk-batch"),
    ("l1_error_sum", "distance", "lower", "err_over_lb on every workload"),
    ("lp_lower_bound_sum", "distance", "higher", "err_over_lb on every workload"),
    ("trace.wall_s", "s", "lower", "wall_s on every workload"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
)

# per-layer metrics the runner computes from whole passes, not from spans
RUN_METRICS = ("l1_error_sum", "lp_lower_bound_sum", "trace.wall_s", "trace.overhead_s")


def public_api(tf) -> SimpleNamespace:
    """The calls a user makes, in a namespace of the benchmark's own."""
    return SimpleNamespace(parse_matrix=tf.parse_matrix,
                           fit_ultrametric=tf.fit_ultrametric,
                           fit_tree_metric=tf.fit_tree_metric,
                           newick_string=tf.io.newick_string)


def _count_fit(counts: dict, fitted) -> None:
    """Cleaning and assembly counts of one ultrametric fit.

    Fits whose partitions were already hierarchical take the fast path and
    skip cleaning; only fits that ran cleaning add to the cluster counts.
    """
    hcc_result = fitted.details.get("hcc")
    if hcc_result is None:  # single label or a single distinct distance
        return
    report = hcc_result.hca
    if report.fast_path:
        counts["hcc.fast_path_hits"] += 1
        return
    kept = sum(len(level) for level in report.families.levels)
    counts["hca.clusters_in"] += sum(len(q.parts) for q in report.partitions)
    counts["hca.clusters_kept"] += kept
    counts["hca.empty_core_skips"] += kept - len(report.forest.internal())


def _count_subfit(counts: dict, fitted) -> None:
    counts["treemetric.pivot_subfits"] += 1
    _count_fit(counts, fitted)


def _count_levels(counts: dict, sliced) -> None:
    _, levels = sliced
    counts["ultrametric.levels"] += levels.n_levels


def _count_lp(counts: dict, lp) -> None:
    counts["lp.rows"] += lp.n_rows
    counts["lp.vars"] += lp.n_vars


def _count_solve(counts: dict, solution) -> None:
    counts[f"lp.solves.{solution.backend}"] += 1


def _count_simplex(counts: dict, result) -> None:
    counts["simplex.iterations"] += result.iterations


def _count_cluster_call(counts: dict, _partition) -> None:
    counts["corrclust.calls"] += 1


def install(tracer: Tracer, api: SimpleNamespace) -> None:
    """Wrap every traced call; `tracer.restore()` undoes all of it."""
    import scipy.optimize
    from treefit import hca, hcc, lp, treemetric, ultrametric

    wrap = tracer.wrap
    wrap(api, "parse_matrix", "io.parse_matrix")
    wrap(api, "newick_string", "io.newick_string")
    wrap(api, "fit_ultrametric", "api.fit_ultrametric", _count_fit)
    wrap(api, "fit_tree_metric", "api.fit_tree_metric")

    wrap(treemetric, "gromov_transform", "treemetric.gromov_transform")
    wrap(treemetric, "fit_ultrametric", "treemetric.fit_ultrametric", _count_subfit)
    wrap(treemetric, "restricted_to_tree", "treemetric.restricted_to_tree")
    wrap(treemetric, "pseudometric_to_metric", "treemetric.pseudometric_to_metric")
    wrap(treemetric, "lp_norm_error", "core.lp_norm_error")

    wrap(ultrametric, "hcc_instance_from_distances", "ultrametric.slice", _count_levels)
    wrap(ultrametric, "fit_hcc", "hcc.fit_hcc")
    wrap(ultrametric, "hierarchy_to_ultrametric", "ultrametric.realize")
    wrap(ultrametric, "lp_norm_error", "core.lp_norm_error")

    wrap(hcc, "corr_cluster", "corrclust.corr_cluster", _count_cluster_call)
    wrap(hcc, "fit_hca_report", "hca.fit_hca_report")
    wrap(hcc, "build_lp", "lp.build_lp.bound", _count_lp)
    wrap(hcc, "solve_lp", "lp.solve_lp.bound", _count_solve)

    wrap(hca, "build_lp", "lp.build_lp.agree", _count_lp)
    wrap(hca, "solve_lp", "lp.solve_lp.agree", _count_solve)
    wrap(hca, "lp_cleaning", "hca.lp_cleaning")
    wrap(hca, "derive_hierarchy", "hca.derive_hierarchy")

    wrap(lp, "solve_dense", "simplex.solve_dense", _count_simplex)
    wrap(lp.LinearProgram, "sparse_matrix", "lp.sparse_matrix")
    wrap(lp.LpSolution, "max_violation", "lp.check")
    # lp imports linprog from scipy.optimize at each call
    wrap(scipy.optimize, "linprog", "lp.highs")


def layer_values(spans: list[Span], counts: dict) -> dict[str, float]:
    """Span- and count-based per-layer metrics of one traced pass."""
    inclusive, own = layer_seconds(spans)
    out: dict[str, float] = {}
    for name, _, _, _ in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = own.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".s"):
            out[name] = inclusive.get(name[: -len(".s")], 0.0)
        elif name not in RUN_METRICS:
            out[name] = counts.get(name, 0)
    return out
