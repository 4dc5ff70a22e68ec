"""Command-line surface: every analysis as a reproducible report generator.

Subcommands: ``fields``, ``verify``, ``plan``, ``analyze``, ``stats``,
``loglik``, ``losses``.  Identical invocations produce byte-identical output
(randomized steps are seeded; the default seed is 7).

Every report is rendered by :func:`_report`, in the format ``--format``
picks: ``table`` (the default), ``csv`` or ``json``.  ``losses`` has no csv
format and ``stats`` writes csv only.

- csv: a header block (``# genfields <version>``, ``# subcommand: <name>``,
  ``# parameters: k=v ...``), then ``# note: ...`` lines, then ``# ...``
  summary lines, then the CSV body, its column names first;
- table: the same header block, then the summary lines, then the
  column-aligned table, then ``note: ...`` lines;
- json: one object: ``tool``, ``version``, ``subcommand`` and
  ``parameters`` (values as strings), then the subcommand's own fields.

Exit codes: 0 success; 1 input or usage error; 2 a verification or
consistency check failed.

The command line is parsed by :mod:`argparse` from the table that
:func:`_command` fills, and argparse lays out ``--help`` and usage errors,
wrapped to the terminal's width (``COLUMNS``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from ._np import np
from .archgraph import _CONTROL, ArchSpec, _layer_span, load_arch, stylegan2_preset
from .fields import CSV_COLUMNS, fields_table, table_csv, table_row
from .fileio import _naming, _save, csv_text, load_landmarks_csv, load_vectors_csv, read_pgm, read_ppm
from .losses import (
    DEFAULT_ALPHA,
    DEFAULT_LAMBDAS,
    EulerAngles,
    _check_alpha,
    _components,
    attr_loss,
    identity_loss,
    landmark_loss,
    min_side_for_scales,
    pose_loss,
    reconstruction_loss,
    total_loss,
)
from .oracle import (
    DEFAULT_SEED,
    MATCH_OVER,
    Semantics,
    VERIFY_CSV_COLUMNS,
    _check_seed,
    _check_sim_base,
    numeric_footprint,
    verification_row,
    verify_arch,
)
from .regularizer import (
    DEFAULT_EPSILON_FLOOR,
    _check_floor,
    estimate_stats,
    load_stats_csv,
    log_likelihood,
    log_likelihood_grad,
    stats_csv,
)
from .sparsity import (
    DEFAULT_BINS,
    DEFAULT_TOP_K,
    _check_bins,
    _check_k,
    mean_histogram,
    reuse_rates,
    topk_set,
)
from .stylespace import mask_rle  # noqa: F401 -- unused; bound here for perfbench/tracing.py
from .stylespace import plan_by_gf, plan_by_layers, style_layout

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_CHECK_FAILURE = 2

FD_TOLERANCE = 1e-6

# Named control-unit configurations: contiguous layer ranges of the
# stylegan2-256 stack used in the published field-threshold experiments.
PLAN_CONFIGS = {1: "conv0..conv7", 2: "conv0..conv4", 3: "conv0..conv2", 4: "conv3..conv6",
                5: "conv6..conv11"}


class CheckFailure(Exception):
    """A report was produced but a verification/consistency check failed."""


class UsageError(Exception):
    """A malformed command line; :func:`main` prints the usage before the message."""


def _report(subcommand, params, fmt, payload, columns=(), rows=(), lines=(), notes=(),
            csv=None) -> str:
    """Render one report in ``fmt``, in the layout the module docstring gives.

    csv: header, ``# note:``, ``# `` + ``lines``, then ``csv()`` or else ``columns``
    and ``rows``; table: header, ``lines``, a table if there are ``columns``,
    ``note:``; json: tool, version, subcommand, parameters, then ``payload()``.
    ``payload`` and ``csv`` take no arguments: a format not using them never calls them.
    """
    if fmt == "json":
        meta = {
            "tool": "genfields",
            "version": __version__,
            "subcommand": subcommand,
            "parameters": {k: str(v) for k, v in params.items()},
        }
        return _json_text({**meta, **payload()}) + "\n"
    rendered = " ".join(f"{k}={_escaped(v)}" for k, v in params.items())
    out = [f"# genfields {__version__}", f"# subcommand: {subcommand}", f"# parameters: {rendered}"]
    if fmt == "csv":
        out += [f"# note: {n}" for n in notes] + [f"# {line}" for line in lines]
        body = csv() if csv else csv_text(itertools.chain([columns], rows))
        return "\n".join(out) + "\n" + body
    out += lines
    if columns:
        out += _render_table(columns, rows)
    out += [f"note: {n}" for n in notes]
    return "\n".join(out) + "\n"


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``; keys must be str.

    The stdlib runs its pure-Python encoder whenever ``indent`` is set, one
    chunk per scalar; here a list of plain ints or of finite plain floats is
    one join, and json itself writes every scalar but those and every empty
    container, or raises its own error for it.
    """
    out: list[str] = []
    _json_into(obj, "\n", out)
    return "".join(out)


def _json_into(obj, newline: str, out: list[str]) -> None:
    """Append ``obj`` to ``out``, nested at the indent ``newline`` ends in."""
    inner = newline + "  "
    if type(obj) is int or type(obj) is float and math.isfinite(obj):
        out.append(repr(obj))
    elif isinstance(obj, dict) and obj:
        for i, (key, value) in enumerate(obj.items()):
            out += [("," if i else "{") + inner, encode_basestring_ascii(key), ": "]
            _json_into(value, inner, out)
        out += [newline, "}"]
    elif isinstance(obj, (list, tuple)) and obj:
        kind = set(map(type, obj))
        if kind == {int} or kind == {float} and all(map(math.isfinite, obj)):
            out += ["[", inner, ("," + inner).join(map(repr, obj)), newline, "]"]
            return
        for i, item in enumerate(obj):
            out.append(("," if i else "[") + inner)
            _json_into(item, inner, out)
        out += [newline, "]"]
    else:
        out.append(json.dumps(obj, indent=2, allow_nan=False))


def _escaped(value) -> str:
    """``str(value)`` with each C0 and C1 control character written ``\\xNN``, so it stays on one line."""
    return _CONTROL.sub(lambda m: f"\\x{ord(m[0]):02x}", str(value))


def _render_table(columns, rows) -> list[str]:
    cells = [[str(c) for c in columns]] + [[str(r[i]) for i in range(len(columns))] for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(columns))]
    lines = []
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return lines


def _emit(text: str, output: str | None, *files: tuple[str, str]) -> None:
    """Write the report ``text`` to ``output`` or stdout, and the ``(path, text)`` ``files``.

    With ``output``, all are written together: a failure changes none of them.
    """
    if output is not None:
        _save((output, text), *files)
    else:
        _write(sys.stdout, text)
        _save(*files)


def _write(stream, text: str) -> None:
    """Write ``text`` and flush it, so that a closed pipe fails here, inside :func:`main`."""
    stream.write(text)
    stream.flush()


def _resolve_arch(preset: str | None, arch_path: str | None) -> ArchSpec:
    if (preset is None) == (arch_path is None):
        raise ValueError("pass exactly one of --preset or --arch")
    if preset is not None:
        # A number of over 18 digits is no resolution; int() refuses one of over 4300.
        match = re.fullmatch(r"stylegan2-([1-9][0-9]{0,17})", preset)
        if match is None:
            raise ValueError(f"unknown preset {preset!r}; use e.g. stylegan2-256")
        return stylegan2_preset(int(match[1]))
    return load_arch(arch_path)


def _range_ends(spec: str) -> tuple[str, str]:
    """The layer ids ``first`` and ``last`` of a range ``first..last``."""
    first, sep, last = spec.partition("..")
    if not sep or not first or not last:
        raise ValueError(f"layer range must look like conv0..conv7, got {spec!r}")
    return first, last


def _layer_range(arch: ArchSpec, spec: str) -> range:
    """Indices of the layers ``first..last`` names, both ends included."""
    return _layer_span([layer.id for layer in arch.layers], *_range_ends(spec), arch.name)


def _paired(first: str, a, second: str, b) -> bool:
    """Whether the input pair ``first``/``second`` was given; one alone is an error."""
    if (a is None) != (b is None):
        raise ValueError(f"{first} and {second} must be given together")
    return a is not None


def _fmt_float(x: float) -> str:
    return repr(float(x))


# ------------------------------------------------------- command table ---

# Subcommand name -> (function, params), filled by @_command.  A param is
# (name, dest, kind, default, help): an option when the name
# starts with "--", else a positional argument named by its metavar.  ``kind``
# is a metavar ("TEXT", "PATH", "INTEGER" or "FLOAT"), a tuple of choices, a
# range of allowed integers, or None for a flag.
COMMANDS = {}

ABOUT = """Static generative-field analysis for convolutional generator stacks.

Computes analytic generative fields, verifies them against brute-force
influence oracles, plans style-space control masks by field thresholds,
and evaluates control-signal sparsity, Gaussian style regularization and
editing losses.  All randomized steps are seeded (default seed 7)."""


def _option(flag, kind="TEXT", help="", default=None, dest=None):
    dest = dest or flag.lstrip("-").replace("-", "_").lower()
    return flag, dest, kind, default, help


def _command(name, *params):
    """Register the decorated function as subcommand ``name``, taking ``params``."""
    def register(fn):
        COMMANDS[name] = fn, params
        return fn
    return register


_PRESET = _option("--preset", help="Built-in architecture, e.g. stylegan2-256.")
_FORMAT = _option("--format", ("table", "csv", "json"), default="table", dest="fmt")
_OUTPUT = _option("--output", "PATH")


# ---------------------------------------------------------------- fields ---

@_command(
    "fields", _PRESET, _option("--arch", "PATH", "Architecture file to analyze.", dest="arch_path"),
    _FORMAT, _option("--output", "PATH", "Write the report to a file."),
)
def cmd_fields(preset, arch_path, fmt, output):
    """Emit the per-layer generative field table."""
    arch = _resolve_arch(preset, arch_path)
    table = fields_table(arch)
    _emit(_report(
        "fields", {"arch": arch.name, "format": fmt}, fmt,
        lambda: {"records": [vars(r) for r in table.records], "notes": list(table.notes)},
        columns=CSV_COLUMNS, rows=map(table_row, table.records), notes=table.notes,
        csv=lambda: table_csv(table),
    ), output)


# ---------------------------------------------------------------- verify ---

@_command(
    "verify", _PRESET, _option("--arch", "PATH", "Architecture file to verify.", dest="arch_path"),
    _option("--semantics", tuple(s.value for s in Semantics), "Upsampling semantics "
            "(default: %(default)s).", default=Semantics.ZERO_INSERT.value),
    _option("--sim-base", "INTEGER", "Simulated base resolution, replacing the architecture's "
            "(default: %(default)s).", default=16),
    _option("--layers", help="Restrict to a range, e.g. conv0..conv3.", dest="layer_span"),
    _option("--numeric", None, "Also run the numeric executor and check agreement."),
    _option("--seed", "INTEGER", "Seed of the numeric executor's weights (default: %(default)s).",
            default=DEFAULT_SEED), _FORMAT, _OUTPUT,
)
def cmd_verify(preset, arch_path, semantics, sim_base, layer_span, numeric, seed, fmt, output):
    """Measure impulse footprints and compare them with the analytic fields.

    Footprints below the analytic value are expected for upsampling stacks;
    a footprint above it is classified OVER-BUG and the command exits 2.
    """
    _naming("--sim-base", _check_sim_base, sim_base)  # before any input is read
    if numeric:
        _naming("--seed", _check_seed, seed)
    arch = _resolve_arch(preset, arch_path)
    sem = Semantics(semantics)
    params = {"arch": arch.name, "semantics": sem.value, "sim_base": sim_base, "format": fmt}
    indices = None
    if layer_span is not None:
        indices = tuple(_layer_range(arch, layer_span))
        params["layers"] = layer_span
    results = verify_arch(arch, sem, sim_base, dims=1, layers=indices)

    disagreements, notes = [], []
    if numeric:
        params.update(numeric="true", seed=seed)
        for res in results:
            num = numeric_footprint(arch, res.layer_index, sem, sim_base, seed=seed)
            if num.footprint != res.footprint:
                disagreements.append(f"{arch.layers[res.layer_index].id}: numeric footprint "
                                     f"{num.footprint} != boolean {res.footprint}")
        notes = ["numeric executor agreement: " + ("FAILED" if disagreements else "ok"),
                 *disagreements]

    rows = [verification_row(arch, r) for r in results]
    _emit(_report(
        "verify", params, fmt,
        lambda: {"results": [dict(zip(VERIFY_CSV_COLUMNS, row)) for row in rows], "notes": notes},
        columns=VERIFY_CSV_COLUMNS, rows=rows, notes=notes,
    ), output)

    over = [arch.layers[r.layer_index].id for r in results if r.match_class == MATCH_OVER]
    if over:
        raise CheckFailure(f"verification found {len(over)} OVER-BUG row(s) under {sem.value}: "
                           + " ".join(over))
    if disagreements:
        raise CheckFailure(f"numeric executor disagreed on {len(disagreements)} layer(s)")


# ------------------------------------------------------------------ plan ---

@_command(
    "plan", _PRESET,
    _option("--arch", "PATH", "Architecture file to plan against.", dest="arch_path"),
    _option("--config", range(1, 6), "Named control-unit configuration (1..5).",
            dest="config_index"),
    _option("--min-gf", "INTEGER", "Smallest generative field to enable."),
    _option("--max-gf", "INTEGER", "Largest generative field to enable."),
    _option("--layers", help="Explicit range, e.g. conv0..conv7.", dest="layer_span"),
    _FORMAT, _OUTPUT,
)
def cmd_plan(preset, arch_path, config_index, min_gf, max_gf, layer_span, fmt, output):
    """Build a control-signal mask plan from field thresholds or layer ranges."""
    arch = _resolve_arch(preset, arch_path)
    table = fields_table(arch)
    layout = style_layout(arch)

    by_gf = min_gf is not None or max_gf is not None
    modes = sum([config_index is not None, by_gf, layer_span is not None])
    if modes != 1:
        raise ValueError(
            "pass exactly one selection mode: --config, --min-gf/--max-gf, or --layers"
        )

    if by_gf:
        _paired("--min-gf", min_gf, "--max-gf", max_gf)
        plan = _naming("--min-gf, --max-gf", plan_by_gf, table, layout, min_gf, max_gf)
    else:
        ends = _range_ends(PLAN_CONFIGS.get(config_index, layer_span))
        plan = plan_by_layers(table, layout, *ends)
    mode = {"config": config_index, "min_gf": min_gf, "max_gf": max_gf, "layers": layer_span}
    params = {"arch": arch.name, **{k: v for k, v in mode.items() if v is not None}, "format": fmt}

    dims = plan.dims  # the mask's runs, read from its span without building the mask
    runs = ((0, dims.start), (1, plan.enabled_dims), (0, plan.total_dims - dims.stop))
    rle = [run for run in runs if run[1]]
    rows = [(r.layer_id, r.style_label or "", rec.generative_field, r.start, r.stop,
             str(r.start in dims).lower()) for r, rec in zip(layout.ranges, table.records)]
    columns = ("layer_id", "style_label", "generative_field", "dim_start", "dim_stop", "enabled")
    summary = [
        f"enabled_layers: {' '.join(plan.enabled_layers)}",
        f"gf_range: ({plan.gf_range[0]}, {plan.gf_range[1]})",
        f"enabled_dims: {plan.enabled_dims} of {layout.total_dims}",
        "mask_rle: " + " ".join(f"{value}*{run}" for value, run in rle),
    ]
    _emit(_report(
        "plan", params, fmt,
        lambda: {
            "enabled_layers": list(plan.enabled_layers),
            "gf_range": list(plan.gf_range),
            "total_dims": layout.total_dims,
            "enabled_dims": plan.enabled_dims,
            "mask_rle": [list(run) for run in rle],
            "layers": [dict(zip(columns, row)) for row in rows],
        },
        columns=columns, rows=rows, lines=summary,
    ), output)


# --------------------------------------------------------------- analyze ---

@_command(
    "analyze", _option("DELTAS_CSV"),
    _option("--top-k", "INTEGER", "Size of each test's top-k set (default: %(default)s).",
            default=DEFAULT_TOP_K),
    _option("--bins", "INTEGER", "Histogram bins (default: %(default)s).", default=DEFAULT_BINS),
    _FORMAT, _OUTPUT,
    _option("--membership-out", "PATH", "Write the per-test top-k membership matrix as CSV."),
)
def cmd_analyze(deltas_csv, top_k, bins, fmt, output, membership_out):
    """Sparsity report over control signals (one test per CSV row)."""
    _naming("--bins", _check_bins, bins)  # bad options fail before the CSV is read
    _naming("--top-k", _check_k, top_k)
    deltas = load_vectors_csv(deltas_csv)
    report = mean_histogram(deltas, bins=bins)
    sets = [topk_set(row, top_k) for row in deltas]
    reuse = reuse_rates(sets)

    notes = [f"test {i} is all-zero; normalized to zeros (whole mass in bin 0)"
             for i in np.flatnonzero(~deltas.any(axis=1))]

    params = {
        "input": deltas_csv,
        "tests": deltas.shape[0],
        "dims": deltas.shape[1],
        "top_k": top_k,
        "bins": bins,
        "format": fmt,
    }
    lines = [
        "bins_mean: " + " ".join(_fmt_float(v) for v in report.bins_mean),
        "bins_std: " + " ".join(_fmt_float(v) for v in report.bins_std),
        f"high_functional_count: {_fmt_float(report.high_functional_count)}",
    ]
    if fmt == "table":  # the union is listed in table output only
        lines.append(f"union_size: {len(reuse.union_dims)}")
        lines.append("union_dims: " + " ".join(str(d) for d in reuse.union_dims))
    files = []
    if membership_out is not None:
        header = ("test", *(f"d{d}" for d in reuse.union_dims))
        members = ((t, *row) for t, row in enumerate(reuse.membership.tolist()))
        files.append((membership_out, csv_text(itertools.chain([header], members))))
    _emit(_report(
        "analyze", params, fmt,
        lambda: {
            "bins_mean": report.bins_mean.tolist(),
            "bins_std": report.bins_std.tolist(),
            "high_functional_count": report.high_functional_count,
            "union_dims": list(reuse.union_dims),
            "rates": {str(d): reuse.rates[d] for d in reuse.union_dims},
            "membership": reuse.membership.tolist(),
            "notes": notes,
        },
        columns=("dim", "reuse_rate"),
        rows=((d, reuse.rates[d]) for d in reuse.union_dims),
        lines=lines, notes=notes,
    ), output, *files)


# ----------------------------------------------------------------- stats ---

@_command(
    "stats", _option("STYLES_CSV"),
    _option("--epsilon-floor", "FLOAT", "Smallest sigma (default: %(default)s).",
            default=DEFAULT_EPSILON_FLOOR), _OUTPUT,
)
def cmd_stats(styles_csv, epsilon_floor, output):
    """Estimate per-channel Gaussian statistics from style vectors (CSV rows)."""
    _naming("--epsilon-floor", _check_floor, epsilon_floor)  # a bad floor fails before the CSV is read
    styles = load_vectors_csv(styles_csv)
    stats = _naming(styles_csv, estimate_stats, styles, epsilon_floor=epsilon_floor)
    params = {
        "input": styles_csv,
        "samples": stats.sample_count,
        "dims": stats.dims,
        "epsilon_floor": epsilon_floor,
    }
    _emit(_report("stats", params, "csv", None, csv=lambda: stats_csv(stats)), output)


# ---------------------------------------------------------------- loglik ---

@_command(
    "loglik", _option("STATS_CSV", dest="stats_csv_path"), _option("SAMPLES_CSV"),
    _option("--grad", None, "Also print the analytic gradient.", dest="with_grad"),
    _option("--fd-check", None,
            "Check the gradient against central finite differences (exit 2 on mismatch)."),
    _FORMAT, _OUTPUT,
)
def cmd_loglik(stats_csv_path, samples_csv, with_grad, fd_check, fmt, output):
    """Log-likelihood of style vectors under estimated channel statistics."""
    stats = load_stats_csv(stats_csv_path)
    samples = load_vectors_csv(samples_csv)
    if samples.shape[1] != stats.dims:
        raise ValueError(f"{stats_csv_path}, {samples_csv}: sample dimension {samples.shape[1]} "
                         f"does not match statistics dimension {stats.dims}")

    values, grads = [], []
    for t, row in enumerate(samples):
        values.append(_naming(f"{samples_csv}: sample {t}", log_likelihood, row, stats))
        if with_grad or fd_check:
            grads.append(_naming(f"{samples_csv}: sample {t}", log_likelihood_grad, row, stats))

    params = {"stats": stats_csv_path, "samples": samples_csv, "format": fmt}
    fd_errors, notes = [], []
    if fd_check:
        # Central difference of each channel's own quadratic term -z_i^2 / 2: exact but for
        # rounding.  It is stepped in d = s - mu, finite once every gradient is, so the step
        # max(sigma_i, |d_i|) never rounds away in d_i ± h.  Halving d and sigma keeps z exact
        # and d_i ± h finite, and dividing the factored difference by the step first overflows
        # no sooner than the gradient.
        d, sigma = (samples - stats.mu) / 2, stats.sigma / 2
        with np.errstate(over="ignore", invalid="ignore"):
            step = np.maximum(sigma, np.abs(d))
            hi, lo = d + step, d - step
            z_hi, z_lo = hi / sigma, lo / sigma
            fd = 0.25 * (z_lo - z_hi) / (hi - lo) * (z_lo + z_hi)
        g = np.array(grads)
        fd_errors = np.max(np.abs(fd - g) / (1.0 + np.abs(g)), axis=1).tolist()
        params["fd_step"] = "sigma"
        worst = max(fd_errors)
        notes.append(
            f"finite-difference check: max relative error {worst:.3e} "
            f"({'ok' if worst < FD_TOLERANCE else 'FAILED'}, tolerance {FD_TOLERANCE:.0e})"
        )

    def payload():
        doc = {"log_likelihood": values}
        if with_grad:
            doc["gradient"] = [g.tolist() for g in grads]
        if fd_check:
            doc["fd_max_relative_error"] = fd_errors
        return {**doc, "notes": notes}

    columns = ("sample", "loglik", *(f"g{i}" for i in range(stats.dims if with_grad else 0)))
    rows = ((t, v, *(grads[t].tolist() if with_grad else ())) for t, v in enumerate(values))
    lines = []
    if fmt == "table":  # one line per sample, not a table
        columns = ()
        for t, v in enumerate(values):
            lines.append(f"sample {t}: loglik = {_fmt_float(v)}")
            if with_grad:
                lines.append("  gradient: " + " ".join(_fmt_float(x) for x in grads[t]))
    _emit(_report("loglik", params, fmt, payload, columns=columns, rows=rows, lines=lines,
                  notes=notes), output)

    if fd_check and not max(fd_errors) < FD_TOLERANCE:
        raise CheckFailure("analytic gradient disagrees with finite differences")


# ---------------------------------------------------------------- losses ---

def _parse_triple(text: str, what: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"{what} must be three comma-separated numbers, got {text!r}")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{what} must be numeric, got {text!r}") from None
    if not all(math.isfinite(v) for v in (a, b, c)):
        raise ValueError(f"{what} must be finite, got {text!r}")
    return a, b, c


def _load_one(path: str, load, what: str) -> np.ndarray:
    """The one item, an embedding row or a face, that ``load`` reads from ``path``."""
    items = load(path)
    if len(items) != 1:
        raise ValueError(f"{path}: expected {what}, got {len(items)}")
    return items[0]


def _load_image(path: str) -> np.ndarray:
    if path.endswith(".ppm"):
        return read_ppm(path)
    if path.endswith(".pgm"):
        return read_pgm(path)
    raise ValueError(f"{path}: image must be a .ppm (P6) or .pgm (P5) file")


@_command(
    "losses",
    _option("--components", help="Skip inputs and combine precomputed id,attr,rec components."),
    *(_option(f"--{name}", "PATH") for name in ("id-embedding", "out-embedding", "attr-landmarks",
                                                "out-landmarks")),
    _option("--attr-angles", help="yaw,pitch,roll for the attribute image."),
    _option("--out-angles", help="yaw,pitch,roll for the edited image."),
    _option("--attr-image", "PATH"), _option("--out-image", "PATH"),
    _option("--same-inputs", None,
            "Attribute and identity images are the same source (enables the pixel term)."),
    _option("--alpha", "FLOAT", "MS-SSIM weight of the pixel term (default: %(default)s).",
            default=DEFAULT_ALPHA),
    _option("--lambdas", help="Loss weights id,attr,rec (default 1,0.01,0.02)."),
    _option("--scales", "INTEGER", "MS-SSIM scale count, 1..5 (default: %(default)s).", default=5),
    _option("--all-landmarks", None, "Use all 68 landmarks, not the 51 inner ones."),
    _option("--degrees", None, "Interpret --attr-angles/--out-angles in degrees."),
    _option("--format", ("table", "json"), default="table", dest="fmt"), _OUTPUT,
)
def cmd_losses(components, id_embedding, out_embedding, attr_landmarks, out_landmarks,
               attr_angles, out_angles, attr_image, out_image, same_inputs, alpha,
               lambdas, scales, all_landmarks, degrees, fmt, output):
    """Evaluate editing loss components and their weighted total."""
    _naming("--alpha", _check_alpha, alpha)  # bad options fail before any input is read
    _naming("--scales", min_side_for_scales, scales)
    lam = _parse_triple(lambdas, "--lambdas") if lambdas is not None else DEFAULT_LAMBDAS
    terms = ("identity_loss", "attr_loss", "reconstruction_loss")

    if components is not None:
        parts = dict(zip(terms, _parse_triple(components, "--components")))
        _naming("--components", _components, *parts.values())
    else:
        parts = {}
        # Errors of a pair's loss name both its files; load errors name their own.
        if _paired("--id-embedding", id_embedding, "--out-embedding", out_embedding):
            a = _load_one(id_embedding, load_vectors_csv, "a single embedding row")
            b = _load_one(out_embedding, load_vectors_csv, "a single embedding row")
            parts["identity_loss"] = _naming(f"{id_embedding}, {out_embedding}", identity_loss,
                                             a, b)
        if _paired("--attr-landmarks", attr_landmarks, "--out-landmarks", out_landmarks):
            a = _load_one(attr_landmarks, load_landmarks_csv, "landmarks for one face")
            b = _load_one(out_landmarks, load_landmarks_csv, "landmarks for one face")
            parts["landmark_loss"] = _naming(f"{attr_landmarks}, {out_landmarks}", landmark_loss,
                                             a, b, inner_only=not all_landmarks)
        if _paired("--attr-angles", attr_angles, "--out-angles", out_angles):
            scale = math.pi / 180.0 if degrees else 1.0
            a = _naming("--attr-angles", EulerAngles,
                        *[v * scale for v in _parse_triple(attr_angles, "--attr-angles")])
            b = _naming("--out-angles", EulerAngles,
                        *[v * scale for v in _parse_triple(out_angles, "--out-angles")])
            parts["pose_loss"] = pose_loss(a, b)
        if "landmark_loss" in parts or "pose_loss" in parts:
            parts["attr_loss"] = attr_loss(parts.get("landmark_loss", 0.0),
                                           parts.get("pose_loss", 0.0))
        if _paired("--attr-image", attr_image, "--out-image", out_image):
            a, b = _load_image(attr_image), _load_image(out_image)
            parts["reconstruction_loss"] = _naming(
                f"{attr_image}, {out_image}", reconstruction_loss, a, b, alpha=alpha,
                same_inputs=same_inputs, scales=scales)
        if not parts:
            raise ValueError("no inputs given; see --help for the accepted pairs")

    total = total_loss(*(parts.get(term, 0.0) for term in terms), *lam)
    params = {"alpha": alpha, "lambdas": ",".join(_fmt_float(v) for v in lam), "format": fmt}
    if components is not None:
        params["components"] = components

    _emit(_report(
        "losses", params, fmt,
        lambda: {"components": {k: float(v) for k, v in parts.items()}, "total_loss": float(total)},
        lines=[f"{k} = {_fmt_float(v)}" for k, v in [*parts.items(), ("total_loss", total)]],
    ), output)


# ---------------------------------------------------------- command line ---

_TYPES = {"INTEGER": int, "FLOAT": float}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors raise :class:`UsageError` instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _prog() -> str:
    """How the program was run: the script's file name, or ``python -m <module>``."""
    path = os.path.basename(sys.argv[0]) if sys.argv else ""
    package = getattr(sys.modules.get("__main__"), "__package__", None)
    if not package:
        return path
    name = os.path.splitext(path)[0]
    return "python -m " + (package if name == "__main__" else f"{package}.{name}").lstrip(".")


def _parser(name: str | None) -> _Parser:
    """The parser of subcommand ``name`` from :data:`COMMANDS`, or of the program when None.

    Each parser's ``--help`` is its docstring and its options' help; the
    program's lists the commands with their docstrings' first lines.
    """
    prog = " ".join(filter(None, (_prog(), name)))
    if name is None:  # main() answers --version and picks the command itself
        parser = _Parser(prog=prog, description=ABOUT, add_help=False)
        parser.add_argument("--version", action="store_true", help="show the version and exit")
        commands = parser.add_subparsers(title="commands", metavar="COMMAND")
        for command, (fn, _) in COMMANDS.items():
            commands.add_parser(command, help=fn.__doc__.partition("\n")[0], add_help=False)
    else:
        fn, params = COMMANDS[name]
        parser = _Parser(prog=prog, description=fn.__doc__, add_help=False, allow_abbrev=False)
        for flag, dest, kind, default, text in params:
            if not flag.startswith("--"):
                parser.add_argument(dest, metavar=flag, help=text)
            elif kind is None:
                parser.add_argument(flag, dest=dest, action="store_true", help=text)
            else:
                parser.add_argument(flag, dest=dest, default=default, help=text,
                                    type=int if isinstance(kind, range) else _TYPES.get(kind, str),
                                    choices=None if isinstance(kind, str) else kind,
                                    metavar=kind if isinstance(kind, str) else None)
    parser.add_argument("--help", action="help", help="show this help message and exit")
    return parser


def _parse(parser: _Parser, name: str, args: list[str]) -> dict | None:
    """Keyword arguments of subcommand ``name`` from ``args``; None if they ask for ``--help``."""
    valued = {flag for flag, _, kind, *_ in COMMANDS[name][1] if flag[:2] == "--" and kind is not None}
    # An option taking a value takes the next word, even one that starts with "-",
    # but not "--": every word after "--" is an argument.  An empty value is
    # refused as a missing one.
    words, tail = [], iter(args)
    for arg in tail:
        if arg == "--":
            break
        flag, eq, value = arg.partition("=")
        if flag in valued:
            value = value if eq else next(tail, "--")
            if value in ("", "--"):
                raise UsageError(f"Option '{flag}' requires an argument.")
            arg = f"{flag}={value}"
        words.append(arg)
    if "--help" in words:
        return None
    rest = list(tail)
    return vars(parser.parse_args(words + ["--"] * bool(rest) + rest))


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    args = sys.argv[1:] if argv is None else list(argv)
    command = args[0] if args and args[0] in COMMANDS else None
    parser = _parser(command)
    try:
        if not args:
            _write(sys.stderr, parser.format_help())
            return EXIT_INPUT_ERROR
        kwargs = _parse(parser, command, args[1:]) if command else None
        if kwargs is not None:
            COMMANDS[command][0](**kwargs)
        elif command or args[0] == "--help":
            _write(sys.stdout, parser.format_help())
        elif args[0] == "--version":
            _write(sys.stdout, f"genfields, version {__version__}\n")
        else:
            kind = "option" if args[0].startswith("-") else "command"
            raise UsageError(f"No such {kind} '{args[0]}'.")
    except UsageError as exc:
        _write(sys.stderr, f"{parser.format_usage()}Try '{parser.prog} --help' for help.\n\n"
                           f"Error: {exc}\n")
        return EXIT_INPUT_ERROR
    except CheckFailure as exc:
        _write(sys.stderr, f"check failed: {exc}\n")
        return EXIT_CHECK_FAILURE
    except (ValueError, OSError) as exc:  # library and file errors, ArchError included
        _write(sys.stderr, f"Error: {exc}\n")
        return EXIT_INPUT_ERROR
    except KeyboardInterrupt:
        _write(sys.stderr, "\n")
        return EXIT_INPUT_ERROR
    return EXIT_OK
