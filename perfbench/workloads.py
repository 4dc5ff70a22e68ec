"""The benchmark's workloads: one pass of ``genfields`` invocations each.

A pass is the list of command lines a user would type, in order.  Every
invocation carries the exit code it must return, the files it writes with
``--output``, and a check that recomputes its report from the generated
inputs (see ``checks.py``).  Why each workload exists is recorded in
``BENCHMARK.json``; the notes below say what each one stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as ck
import gen

# Percentile reported as ``cmd_s.tail``: the highest of 99/95/90/75/50 with
# at least ten invocations above it in a run of the declared length at this
# commit.  It is fixed per workload so that two commits are compared at the
# same percentile even when one of them completes more invocations.
TAIL_PERCENTILE = {
    "cli-interactive": 75,
    "oracle-deep": 50,
    "style-bulk": 50,
    "image-losses": 50,
}


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]
    check: Callable[[str, str, dict], None]
    expect: int = 0
    outputs: tuple[str, ...] = ()


def _text(files: dict, name: str) -> str:
    return files[name].decode("utf-8")


# ------------------------------------------------------ cli-interactive ---
# Built-in presets and tiny files: interpreter start, import and rendering
# are nearly all of each call, the compute layers idle.

def cli_interactive(info: dict, data: dict) -> list[Invocation]:
    small = ck.Arch.from_doc(data["small"])
    sg256, sg1024, sg64 = (ck.Arch.stylegan2(r) for r in (256, 1024, 64))
    styles, mu, sigma = data["styles"], data["mu"], data["sigma"]
    lo, hi = ck.PLAN_CONFIGS[info["config"]]
    comps = ",".join(repr(v) for v in info["components"])

    def fields(arch, fmt):
        return lambda out, err, files: ck.check_fields(out, fmt, arch)

    def plan(fmt, enabled):
        return lambda out, err, files: ck.check_plan(out, fmt, sg256, enabled)

    return [
        Invocation("fields-256-table", ("fields", "--preset", "stylegan2-256"), fields(sg256, "table")),
        Invocation("fields-1024-csv", ("fields", "--preset", "stylegan2-1024", "--format", "csv"),
                   fields(sg1024, "csv")),
        Invocation("fields-64-json", ("fields", "--preset", "stylegan2-64", "--format", "json"),
                   fields(sg64, "json")),
        Invocation("fields-arch-csv", ("fields", "--arch", "small.json", "--format", "csv"),
                   fields(small, "csv")),
        Invocation("fields-arch-json", ("fields", "--arch", "small.json", "--format", "json"),
                   fields(small, "json")),
        Invocation("plan-config", ("plan", "--preset", "stylegan2-256", "--config", str(info["config"])),
                   plan("table", list(range(lo, hi + 1)))),
        Invocation("plan-gf-json", ("plan", "--preset", "stylegan2-256", "--min-gf", str(info["min_gf"]),
                                    "--max-gf", str(info["max_gf"]), "--format", "json"),
                   plan("json", ck.planned_layers_by_gf(sg256, info["min_gf"], info["max_gf"]))),
        Invocation("plan-layers-csv", ("plan", "--preset", "stylegan2-256", "--layers", "conv0..conv2",
                                       "--format", "csv"), plan("csv", [0, 1, 2])),
        Invocation("verify-256-numeric", ("verify", "--preset", "stylegan2-256", "--numeric"),
                   lambda out, err, files: ck.check_verify(out, "table", sg256)),
        Invocation("verify-arch-numeric-csv", ("verify", "--arch", "small.json", "--numeric",
                                               "--format", "csv"),
                   lambda out, err, files: ck.check_verify(out, "csv", small)),
        Invocation("losses-components", ("losses", "--components", comps),
                   lambda out, err, files: ck.check_components(out, info["components"])),
        Invocation("stats-4rows", ("stats", "styles4.csv"),
                   lambda out, err, files: ck.check_stats(out, styles)),
        Invocation("loglik-4rows-grad", ("loglik", "stats16.csv", "styles4.csv", "--grad"),
                   lambda out, err, files: ck.check_loglik_table(out, styles, mu, sigma, True)),
        Invocation("malformed-arch", ("fields", "--arch", "malformed.json"),
                   lambda out, err, files: ck.check_input_error(err, "malformed.json"), expect=1),
        Invocation("ragged-csv", ("stats", "ragged.csv"),
                   lambda out, err, files: ck.check_input_error(err, "ragged.csv"), expect=1),
    ]


# ---------------------------------------------------------- oracle-deep ---
# The numeric executor at sim-base 1024 dominates; file I/O, sparsity and the
# losses idle.

def oracle_deep(info: dict, data: dict) -> list[Invocation]:
    deep = ck.Arch.from_doc(data["deep"])
    sg1024 = ck.Arch.stylegan2(1024)
    preset = ("verify", "--preset", "stylegan2-1024", "--numeric", "--sim-base", "1024")
    arch = ("verify", "--arch", "deep.json", "--numeric", "--sim-base", str(info["deep_sim_base"]))
    nearest = ("--semantics", "nearest-upsample-conv")

    def verify(a, fmt):
        return lambda out, err, files: ck.check_verify(out, fmt, a)

    return [
        Invocation("verify-1024-zero-table", preset, verify(sg1024, "table")),
        Invocation("verify-1024-zero-json", preset + ("--format", "json"), verify(sg1024, "json")),
        Invocation("verify-1024-nearest-table", preset + nearest, verify(sg1024, "table")),
        Invocation("verify-1024-nearest-json", preset + nearest + ("--format", "json"),
                   verify(sg1024, "json")),
        Invocation("verify-deep-zero-table", arch, verify(deep, "table")),
        Invocation("verify-deep-nearest-json", arch + nearest + ("--format", "json"),
                   verify(deep, "json")),
        Invocation("verify-deep-zero-csv", arch + ("--format", "csv"), verify(deep, "csv")),
    ]


# ----------------------------------------------------------- style-bulk ---
# CSV parsing of 4928-dim rows, top-k sparsity, the regularizer and large
# renders; the write-heavy commands make a faster parse that slows rendering
# show.

def style_bulk(info: dict, data: dict) -> list[Invocation]:
    ref = ck.sparsity_reference(data["deltas"], gen.TOP_K, 20)
    info["union_dims"] = len(ref["union"])
    info["reuse_rate_mean"] = float(np.mean(ref["rates"]))
    styles, samples, mu, sigma = data["styles"], data["samples"], data["mu"], data["sigma"]
    fd = samples[:gen.FD_SAMPLES]

    def analyze_table(out, err, files):
        ck.check_analyze_table(out, ref)
        ck.check_membership(_text(files, "membership.csv"), ref)

    return [
        Invocation("loglik-fd-check", ("loglik", "stats.csv", "fd.csv", "--fd-check"),
                   lambda out, err, files: ck.check_fd(out, fd, mu, sigma)),
        Invocation("analyze-membership", ("analyze", "deltas.csv", "--membership-out", "membership.csv"),
                   analyze_table, outputs=("membership.csv",)),
        Invocation("analyze-json-output", ("analyze", "deltas.csv", "--format", "json",
                                           "--output", "analyze.json"),
                   lambda out, err, files: ck.check_analyze_json(_text(files, "analyze.json"), ref),
                   outputs=("analyze.json",)),
        Invocation("stats-output", ("stats", "styles.csv", "--output", "stats_out.csv"),
                   lambda out, err, files: ck.check_stats(_text(files, "stats_out.csv"), styles),
                   outputs=("stats_out.csv",)),
        Invocation("loglik-grad-csv-output", ("loglik", "stats.csv", "samples.csv", "--grad",
                                              "--format", "csv", "--output", "loglik.csv"),
                   lambda out, err, files: ck.check_loglik_csv(_text(files, "loglik.csv"), samples, mu, sigma),
                   outputs=("loglik.csv",)),
    ]


# --------------------------------------------------------- image-losses ---
# The only workload where the losses layer (5-scale MS-SSIM) is hot.

def image_losses(info: dict, data: dict) -> list[Invocation]:
    want = {}

    def reference(side):
        if side not in want:
            want[side] = ck.losses_reference(
                data["id_emb"], data["out_emb"], data["attr_lm"], data["out_lm"],
                *data["angles"], data[f"attr{side}"], data[f"out{side}"])
        return want[side]

    def losses(side, fmt):
        argv = ("losses", "--id-embedding", "id_emb.csv", "--out-embedding", "out_emb.csv",
                "--attr-landmarks", "attr_lm.csv", "--out-landmarks", "out_lm.csv",
                "--attr-angles", info["attr_angles"], "--out-angles", info["out_angles"],
                "--attr-image", f"attr{side}.ppm", "--out-image", f"out{side}.ppm", "--same-inputs",
                "--format", fmt)
        return Invocation(f"losses-{side}-{fmt}", argv,
                          lambda out, err, files: ck.check_losses(out, fmt, reference(side)))

    return [losses(256, "table"), losses(1024, "table"), losses(256, "json")]


PASSES = {
    "cli-interactive": cli_interactive,
    "oracle-deep": oracle_deep,
    "style-bulk": style_bulk,
    "image-losses": image_losses,
}
