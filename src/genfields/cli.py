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
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from dataclasses import asdict

import click

from . import __version__
from ._np import np
from .archgraph import _CONTROL, ArchSpec, _layer_span, load_arch, stylegan2_preset
from .fields import CSV_COLUMNS, fields_table, table_csv, table_row
from .fileio import csv_text, load_landmarks_csv, load_vectors_csv, read_pgm, read_ppm
from .losses import (
    DEFAULT_ALPHA,
    DEFAULT_LAMBDAS,
    EulerAngles,
    _check_alpha,
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
    numeric_footprint,
    verification_row,
    verify_arch,
)
from .regularizer import (
    DEFAULT_EPSILON_FLOOR,
    estimate_stats,
    load_stats_csv,
    log_likelihood,
    log_likelihood_grad,
    stats_csv,
)
from .sparsity import (
    DEFAULT_BINS,
    DEFAULT_TOP_K,
    mean_histogram,
    reuse_rates,
    topk_set,
)
from .stylespace import mask_rle, plan_by_gf, plan_by_layers, style_layout

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
        return json.dumps({**meta, **payload()}, indent=2, allow_nan=False) + "\n"
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


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _resolve_arch(preset: str | None, arch_path: str | None) -> ArchSpec:
    if (preset is None) == (arch_path is None):
        raise click.ClickException("pass exactly one of --preset or --arch")
    if preset is not None:
        match = re.fullmatch(r"stylegan2-([1-9][0-9]*)", preset)
        if match is None:
            raise click.ClickException(f"unknown preset {preset!r}; use e.g. stylegan2-256")
        return stylegan2_preset(int(match[1]))
    return load_arch(arch_path)


def _layer_range(arch: ArchSpec, spec: str) -> range:
    """Indices of the layers ``first..last`` names, both ends included."""
    first, sep, last = spec.partition("..")
    if not sep or not first or not last:
        raise click.ClickException(f"layer range must look like conv0..conv7, got {spec!r}")
    return _layer_span([layer.id for layer in arch.layers], first, last, arch.name)


def _paired(first: str, a, second: str, b) -> bool:
    """Whether the input pair ``first``/``second`` was given; one alone is an error."""
    if (a is None) != (b is None):
        raise click.ClickException(f"{first} and {second} must be given together")
    return bool(a)


def _fmt_float(x: float) -> str:
    return repr(float(x))


_preset_option = click.option("--preset", help="Built-in architecture, e.g. stylegan2-256.")
_format_option = click.option("--format", "fmt", type=click.Choice(["table", "csv", "json"]),
                              default="table")
_output_option = click.option("--output", type=click.Path(), default=None)


@click.group()
@click.version_option(version=__version__, prog_name="genfields")
def cli():
    """Static generative-field analysis for convolutional generator stacks.

    Computes analytic generative fields, verifies them against brute-force
    influence oracles, plans style-space control masks by field thresholds,
    and evaluates control-signal sparsity, Gaussian style regularization and
    editing losses.  All randomized steps are seeded (default seed 7).
    """


# ---------------------------------------------------------------- fields ---

@cli.command("fields")
@_preset_option
@click.option("--arch", "arch_path", type=click.Path(), help="Architecture file to analyze.")
@_format_option
@click.option("--output", type=click.Path(), default=None, help="Write the report to a file.")
def cmd_fields(preset, arch_path, fmt, output):
    """Emit the per-layer generative field table."""
    arch = _resolve_arch(preset, arch_path)
    table = fields_table(arch)
    _emit(_report(
        "fields", {"arch": arch.name, "format": fmt}, fmt,
        lambda: {"records": [asdict(r) for r in table.records], "notes": list(table.notes)},
        columns=CSV_COLUMNS, rows=map(table_row, table.records), notes=table.notes,
        csv=lambda: table_csv(table),
    ), output)


# ---------------------------------------------------------------- verify ---

@cli.command("verify")
@_preset_option
@click.option("--arch", "arch_path", type=click.Path(), help="Architecture file to verify.")
@click.option(
    "--semantics",
    type=click.Choice([s.value for s in Semantics]),
    default=Semantics.ZERO_INSERT.value,
    show_default=True,
)
@click.option("--sim-base", type=int, default=16, show_default=True,
              help="Simulated base resolution (replaces the architecture's).")
@click.option("--layers", "layer_span", default=None, help="Restrict to a range, e.g. conv0..conv3.")
@click.option("--numeric", is_flag=True, help="Also run the numeric executor and check agreement.")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@_format_option
@_output_option
def cmd_verify(preset, arch_path, semantics, sim_base, layer_span, numeric, seed, fmt, output):
    """Measure impulse footprints and compare them with the analytic fields.

    Footprints below the analytic value are expected for upsampling stacks;
    a footprint above it is classified OVER-BUG and the command exits 2.
    """
    if numeric and seed < 0:
        raise click.ClickException(f"--seed must be non-negative with --numeric, got {seed}")
    arch = _resolve_arch(preset, arch_path)
    sem = Semantics(semantics)
    params = {"arch": arch.name, "semantics": sem.value, "sim_base": sim_base, "format": fmt}
    indices = None
    if layer_span:
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

@cli.command("plan")
@_preset_option
@click.option("--arch", "arch_path", type=click.Path(), help="Architecture file to plan against.")
@click.option("--config", "config_index", type=click.IntRange(1, 5), default=None,
              help="Named control-unit configuration (1..5).")
@click.option("--min-gf", type=int, default=None, help="Smallest generative field to enable.")
@click.option("--max-gf", type=int, default=None, help="Largest generative field to enable.")
@click.option("--layers", "layer_span", default=None, help="Explicit range, e.g. conv0..conv7.")
@_format_option
@_output_option
def cmd_plan(preset, arch_path, config_index, min_gf, max_gf, layer_span, fmt, output):
    """Build a control-signal mask plan from field thresholds or layer ranges."""
    arch = _resolve_arch(preset, arch_path)
    table = fields_table(arch)
    layout = style_layout(arch)

    by_gf = min_gf is not None or max_gf is not None
    modes = sum([config_index is not None, by_gf, layer_span is not None])
    if modes != 1:
        raise click.ClickException(
            "pass exactly one selection mode: --config, --min-gf/--max-gf, or --layers"
        )

    if by_gf:
        _paired("--min-gf", min_gf, "--max-gf", max_gf)
        plan = plan_by_gf(table, layout, min_gf, max_gf)
    else:
        span = _layer_range(arch, PLAN_CONFIGS.get(config_index, layer_span))
        plan = plan_by_layers(table, layout, arch.layers[span[0]].id, arch.layers[span[-1]].id)
    mode = {"config": config_index, "min_gf": min_gf, "max_gf": max_gf, "layers": layer_span}
    params = {"arch": arch.name, **{k: v for k, v in mode.items() if v is not None}, "format": fmt}

    rle = mask_rle(plan.mask)
    enabled = set(plan.enabled_layers)
    rows = [
        (
            r.layer_id,
            r.style_label or "",
            table.record(r.layer_id).generative_field,
            r.start,
            r.stop,
            str(r.layer_id in enabled).lower(),
        )
        for r in layout.ranges
    ]
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

@cli.command("analyze")
@click.argument("deltas_csv", type=click.Path())
@click.option("--top-k", type=int, default=DEFAULT_TOP_K, show_default=True)
@click.option("--bins", type=int, default=DEFAULT_BINS, show_default=True)
@_format_option
@_output_option
@click.option("--membership-out", type=click.Path(), default=None,
              help="Write the per-test top-k membership matrix as CSV.")
def cmd_analyze(deltas_csv, top_k, bins, fmt, output, membership_out):
    """Sparsity report over control signals (one test per CSV row)."""
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
    ), output)

    if membership_out:
        header = ("test", *(f"d{d}" for d in reuse.union_dims))
        members = ((t, *row) for t, row in enumerate(reuse.membership.tolist()))
        _emit(csv_text(itertools.chain([header], members)), membership_out)


# ----------------------------------------------------------------- stats ---

@cli.command("stats")
@click.argument("styles_csv", type=click.Path())
@click.option("--epsilon-floor", type=float, default=DEFAULT_EPSILON_FLOOR, show_default=True)
@_output_option
def cmd_stats(styles_csv, epsilon_floor, output):
    """Estimate per-channel Gaussian statistics from style vectors (CSV rows)."""
    styles = load_vectors_csv(styles_csv)
    try:
        stats = estimate_stats(styles, epsilon_floor=epsilon_floor)
    except ValueError as exc:
        raise click.ClickException(f"{styles_csv}: {exc}") from None
    params = {
        "input": styles_csv,
        "samples": stats.sample_count,
        "dims": stats.dims,
        "epsilon_floor": epsilon_floor,
    }
    _emit(_report("stats", params, "csv", None, csv=lambda: stats_csv(stats)), output)


# ---------------------------------------------------------------- loglik ---

@cli.command("loglik")
@click.argument("stats_csv_path", metavar="STATS_CSV", type=click.Path())
@click.argument("samples_csv", type=click.Path())
@click.option("--grad", "with_grad", is_flag=True, help="Also print the analytic gradient.")
@click.option("--fd-check", is_flag=True,
              help="Check the gradient against central finite differences (exit 2 on mismatch).")
@_format_option
@_output_option
def cmd_loglik(stats_csv_path, samples_csv, with_grad, fd_check, fmt, output):
    """Log-likelihood of style vectors under estimated channel statistics."""
    stats = load_stats_csv(stats_csv_path)
    samples = load_vectors_csv(samples_csv)
    if samples.shape[1] != stats.dims:
        raise click.ClickException(
            f"sample dimension {samples.shape[1]} does not match statistics dimension {stats.dims}"
        )

    values, grads = [], []
    for t, row in enumerate(samples):
        try:
            values.append(log_likelihood(row, stats))
            if with_grad or fd_check:
                grads.append(log_likelihood_grad(row, stats))
        except ValueError as exc:
            raise click.ClickException(f"{samples_csv}: sample {t}: {exc}") from None

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
        raise click.ClickException(f"{what} must be three comma-separated numbers, got {text!r}")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError:
        raise click.ClickException(f"{what} must be numeric, got {text!r}") from None
    if not all(math.isfinite(v) for v in (a, b, c)):
        raise click.ClickException(f"{what} must be finite, got {text!r}")
    return a, b, c


def _load_one(path: str, load, what: str) -> np.ndarray:
    """The one item, an embedding row or a face, that ``load`` reads from ``path``."""
    items = load(path)
    if len(items) != 1:
        raise click.ClickException(f"{path}: expected {what}, got {len(items)}")
    return items[0]


def _load_image(path: str) -> np.ndarray:
    if path.endswith(".ppm"):
        return read_ppm(path)
    if path.endswith(".pgm"):
        return read_pgm(path)
    raise click.ClickException(f"{path}: image must be a .ppm (P6) or .pgm (P5) file")


@cli.command("losses")
@click.option("--components", default=None,
              help="Skip inputs and combine precomputed id,attr,rec components.")
@click.option("--id-embedding", type=click.Path(), default=None)
@click.option("--out-embedding", type=click.Path(), default=None)
@click.option("--attr-landmarks", type=click.Path(), default=None)
@click.option("--out-landmarks", type=click.Path(), default=None)
@click.option("--attr-angles", default=None, help="yaw,pitch,roll for the attribute image.")
@click.option("--out-angles", default=None, help="yaw,pitch,roll for the edited image.")
@click.option("--attr-image", type=click.Path(), default=None)
@click.option("--out-image", type=click.Path(), default=None)
@click.option("--same-inputs", is_flag=True,
              help="Attribute and identity images are the same source (enables the pixel term).")
@click.option("--alpha", type=float, default=DEFAULT_ALPHA, show_default=True)
@click.option("--lambdas", default=None, help="Loss weights id,attr,rec (default 1,0.01,0.02).")
@click.option("--scales", type=int, default=5, show_default=True,
              help="MS-SSIM scale count (1..5).")
@click.option("--all-landmarks", is_flag=True, help="Use all 68 landmarks, not the 51 inner ones.")
@click.option("--degrees", is_flag=True, help="Interpret --attr-angles/--out-angles in degrees.")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@_output_option
def cmd_losses(components, id_embedding, out_embedding, attr_landmarks, out_landmarks,
               attr_angles, out_angles, attr_image, out_image, same_inputs, alpha,
               lambdas, scales, all_landmarks, degrees, fmt, output):
    """Evaluate editing loss components and their weighted total."""
    try:  # the library's checks, whose messages begin with the option's name
        _check_alpha(alpha)
        min_side_for_scales(scales)
    except ValueError as exc:
        raise click.ClickException(f"--{exc}") from None
    lam = _parse_triple(lambdas, "--lambdas") if lambdas else DEFAULT_LAMBDAS
    terms = ("identity_loss", "attr_loss", "reconstruction_loss")

    if components is not None:
        parts = dict(zip(terms, _parse_triple(components, "--components")))
    else:
        parts = {}
        if _paired("--id-embedding", id_embedding, "--out-embedding", out_embedding):
            parts["identity_loss"] = identity_loss(
                _load_one(id_embedding, load_vectors_csv, "a single embedding row"),
                _load_one(out_embedding, load_vectors_csv, "a single embedding row"))
        if _paired("--attr-landmarks", attr_landmarks, "--out-landmarks", out_landmarks):
            parts["landmark_loss"] = landmark_loss(
                _load_one(attr_landmarks, load_landmarks_csv, "landmarks for one face"),
                _load_one(out_landmarks, load_landmarks_csv, "landmarks for one face"),
                inner_only=not all_landmarks)
        if _paired("--attr-angles", attr_angles, "--out-angles", out_angles):
            scale = math.pi / 180.0 if degrees else 1.0
            a = EulerAngles(*(v * scale for v in _parse_triple(attr_angles, "--attr-angles")))
            b = EulerAngles(*(v * scale for v in _parse_triple(out_angles, "--out-angles")))
            parts["pose_loss"] = pose_loss(a, b)
        if "landmark_loss" in parts or "pose_loss" in parts:
            parts["attr_loss"] = attr_loss(parts.get("landmark_loss", 0.0),
                                           parts.get("pose_loss", 0.0))
        if _paired("--attr-image", attr_image, "--out-image", out_image):
            parts["reconstruction_loss"] = reconstruction_loss(
                _load_image(attr_image), _load_image(out_image), alpha=alpha,
                same_inputs=same_inputs, scales=scales)
        if not parts:
            raise click.ClickException("no inputs given; see --help for the accepted pairs")

    total = total_loss(*(parts.get(term, 0.0) for term in terms), *lam)
    params = {"alpha": alpha, "lambdas": ",".join(_fmt_float(v) for v in lam), "format": fmt}
    if components is not None:
        params["components"] = components

    _emit(_report(
        "losses", params, fmt,
        lambda: {"components": {k: float(v) for k, v in parts.items()}, "total_loss": float(total)},
        lines=[f"{k} = {_fmt_float(v)}" for k, v in [*parts.items(), ("total_loss", total)]],
    ), output)


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except CheckFailure as exc:
        click.echo(f"check failed: {exc}", err=True)
        return EXIT_CHECK_FAILURE
    except click.ClickException as exc:
        exc.show()
        return EXIT_INPUT_ERROR
    except (ValueError, OSError) as exc:  # library and file errors, ArchError included
        click.echo(f"Error: {exc}", err=True)
        return EXIT_INPUT_ERROR
    except click.exceptions.Abort:
        return EXIT_INPUT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
