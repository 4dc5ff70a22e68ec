"""Declared metrics: names, units, direction, and what each layer should move.

``BENCHMARK.json`` lists the same names; ``selftest.py`` keeps the two in
step.  ``MOVES`` records, before any optimisation is measured, which
end-to-end metric on which workload a change to each layer should move.
"""

from __future__ import annotations

from tracing import ORACLE_LAYER_IDS

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cmd_s.p50", "s", "lower"),
    ("cmd_s.tail", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_STARTUP = "cmd_s.p50 on cli-interactive"
_CLI = "wall_s on style-bulk; cmd_s.p50 on cli-interactive"
_ORACLE = "wall_s on oracle-deep"
_FILEIO = "wall_s and peak_rss_mb on style-bulk; wall_s on image-losses"
_BULK = "wall_s on style-bulk"
_LOSSES = "wall_s on image-losses"
_NONE = "none expected: negligible on every workload, kept so a regression shows"
_TRACE = "none: cost of the traced run itself"

# (name, unit, better, end-to-end metric and workload it should move)
PER_LAYER = [
    ("startup.import_s", "s", "lower", _STARTUP),
    ("startup.import_s.numpy", "s", "lower", _STARTUP),
    ("startup.import_s.scipy", "s", "lower", _STARTUP),
    ("startup.import_s.click", "s", "lower", _STARTUP),
    ("startup.import_s.genfields", "s", "lower", _STARTUP),
    ("cli.self_s", "s", "lower", _CLI),
    ("cli.out_mb", "MB", "lower", _CLI),
    ("oracle.boolean_s", "s", "lower", _ORACLE),
    ("oracle.numeric_s", "s", "lower", _ORACLE),
    ("oracle.calls", "count", "lower", _ORACLE),
    ("oracle.cells", "count", "lower", _ORACLE),
] + [
    (f"oracle.numeric_s.{layer_id}", "s", "lower", _ORACLE) for layer_id in ORACLE_LAYER_IDS
] + [
    ("fileio.vectors_s", "s", "lower", _FILEIO),
    ("fileio.vectors_mb", "MB", "lower", _FILEIO),
    ("fileio.vectors_mb_per_s", "MB/s", "higher", _FILEIO),
    ("fileio.images_s", "s", "lower", _FILEIO),
    ("sparsity.histogram_s", "s", "lower", _BULK),
    ("sparsity.topk_s", "s", "lower", _BULK),
    ("sparsity.topk_calls", "count", "lower", _BULK),
    ("sparsity.reuse_s", "s", "lower", _BULK),
    ("sparsity.union_dims", "count", "lower", _BULK),
    ("regularizer.estimate_s", "s", "lower", _BULK),
    ("regularizer.loglik_s", "s", "lower", _BULK),
    ("regularizer.loglik_calls", "count", "lower", _BULK),
    ("regularizer.grad_s", "s", "lower", _BULK),
    ("regularizer.stats_io_s", "s", "lower", _BULK),
    ("losses.ms_ssim_s", "s", "lower", _LOSSES),
    ("losses.ms_ssim_mpx", "Mpx", "lower", _LOSSES),
    ("losses.other_s", "s", "lower", _LOSSES),
    ("archgraph.s", "s", "lower", _NONE),
    ("archgraph.calls", "count", "lower", _NONE),
    ("fields.s", "s", "lower", _NONE),
    ("fields.calls", "count", "lower", _NONE),
    ("stylespace.s", "s", "lower", _NONE),
    ("stylespace.calls", "count", "lower", _NONE),
    ("trace.untraced_wall_s", "s", "lower", _TRACE),
    ("trace.traced_wall_s", "s", "lower", _TRACE),
    ("trace.overhead_s", "s", "lower", _TRACE),
]

MOVES = {name: moves for name, _, _, moves in PER_LAYER}
