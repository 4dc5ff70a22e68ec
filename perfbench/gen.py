"""Seeded input generator for the benchmark workloads.

Every file a workload feeds to ``genfields`` is written here from a numpy
``Generator`` seeded by ``--seed``; the same seed gives byte-identical files.
The generator writes the file formats directly and never imports
``genfields``, so the program under test does not produce its own inputs.

Each ``make_*`` function returns a dict of input properties (rows x dims,
bytes, union size, image sides, ...) that the run records in its results,
and a dict of the generated arrays the checks recompute from.  Values are
written in shortest round-trip form, so the arrays equal what the program
parses from the files.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

# Style space of the stylegan2-256 preset: the sum of the input channel
# counts of its 13 layers.
STYLE_DIMS = 4928
TOP_K = 50

# style-bulk sizes.  The rows are scaled down from the 1000-row bulk size so
# that set-up plus a 20 s measurement stays near 30 s per run (92 runs must
# fit in under an hour); the per-row width stays the full 4928-dim space.
ANALYZE_TESTS = 160
STATS_ROWS = 160
GRAD_SAMPLES = 40
FD_SAMPLES = 1
FAMILY_SIZE = 40
PRIVATE_DIMS = 20

# Sized so the deep arch's oracle work (about 0.35 s per semantics) is the
# largest compute in oracle-deep, next to the start-up every call pays.
DEEP_SIM_BASE = 16384

IMAGE_SIDES = (1024, 256)
EMBEDDING_DIMS = 512
LANDMARKS = 68


def _write(path: str, text: str) -> int:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return len(text.encode("utf-8"))


def vectors_csv(matrix: np.ndarray) -> str:
    """One row per vector, values in shortest round-trip form (``repr``)."""
    return "".join(",".join(map(repr, row)) + "\n" for row in matrix.tolist())


def write_vectors(path: str, matrix: np.ndarray) -> int:
    return _write(path, vectors_csv(matrix))


def write_ppm(path: str, raster: np.ndarray) -> int:
    h, w, _ = raster.shape
    data = f"P6\n{w} {h}\n255\n".encode() + raster.astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def write_stats(path: str, mu: np.ndarray, sigma: np.ndarray) -> int:
    lines = ["dim,mu,sigma"] + [f"{d},{m!r},{s!r}" for d, (m, s) in
                                enumerate(zip(mu.tolist(), sigma.tolist()))]
    return _write(path, "\n".join(lines) + "\n")


def arch_doc(name: str, base: int, layers: list[tuple[int, int]], channels: int = 8) -> dict:
    return {
        "name": name,
        "base_resolution": base,
        "layers": [
            {"kernel": k, "upsample": u, "channels_in": channels, "channels_out": channels}
            for k, u in layers
        ],
    }


def write_arch(path: str, doc: dict) -> int:
    return _write(path, json.dumps(doc, indent=2) + "\n")


# ------------------------------------------------------------ workloads ---

def make_cli_interactive(rng: np.random.Generator, out: str) -> tuple[dict, dict]:
    small = [(int(k), int(u)) for k, u in zip(rng.choice([1, 3, 5], 5), rng.choice([1, 2], 5))]
    small_doc = arch_doc("bench-small", 4, small)
    write_arch(os.path.join(out, "small.json"), small_doc)
    _write(os.path.join(out, "malformed.json"), '{"name": "broken", "layers": [\n')
    styles = rng.normal(0.0, 1.0, size=(4, 16))
    write_vectors(os.path.join(out, "styles4.csv"), styles)
    mu = rng.normal(0.0, 0.5, size=16)
    sigma = rng.uniform(0.5, 1.5, size=16)
    write_stats(os.path.join(out, "stats16.csv"), mu, sigma)
    ragged = vectors_csv(styles[:2]) + ",".join(map(repr, styles[2, :15].tolist())) + "\n"
    _write(os.path.join(out, "ragged.csv"), ragged)
    return {
        "small_arch_layers": len(small),
        "styles_rows_x_dims": "4x16",
        "config": int(rng.integers(1, 6)),
        "min_gf": int(rng.choice([7, 11, 19])),
        "max_gf": int(rng.choice([59, 91, 123])),
        "components": [round(float(v), 6) for v in rng.uniform(0.0, 2.0, size=3)],
    }, {"small": small_doc, "styles": styles, "mu": mu, "sigma": sigma}


def make_oracle_deep(rng: np.random.Generator, out: str) -> tuple[dict, dict]:
    # Upsampling layers keep kernel >= 3: with kernel 1 the nearest semantics
    # exceeds the analytic bound by design (OVER-BUG, exit 2).
    layers = [(5, 1), (5, 4), (3, 1), (3, 4), (5, 2), (3, 1)]
    extra = [(int(k), 1) for k in rng.choice([1, 3, 5], int(rng.integers(2, 5)))]
    layers = layers[:3] + extra + layers[3:]
    doc = arch_doc("bench-deep", 4, layers)
    size = write_arch(os.path.join(out, "deep.json"), doc)
    return {"deep_arch_layers": len(layers), "deep_sim_base": DEEP_SIM_BASE,
            "deep_output_cells": DEEP_SIM_BASE * 32, "arch_bytes": size}, {"deep": doc}


def _hot_deltas(rng: np.random.Generator, tests: int) -> tuple[np.ndarray, int]:
    """Control signals whose top-k sets share a seeded number of dim families.

    Each test raises one shared family of FAMILY_SIZE dims and PRIVATE_DIMS
    dims of its own to the same magnitude over low background noise, so its
    top-k set mixes shared and private dims.  More families means less
    shared work across tests and a larger union.
    """
    families = int(rng.integers(22, 27))
    dims = rng.permutation(STYLE_DIMS)[: families * FAMILY_SIZE].reshape(families, FAMILY_SIZE)
    deltas = rng.normal(0.0, 0.05, size=(tests, STYLE_DIMS))
    for t in range(tests):
        hot = np.concatenate([dims[rng.integers(families)],
                              rng.choice(STYLE_DIMS, PRIVATE_DIMS, replace=False)])
        deltas[t, hot] += rng.normal(0.0, 1.0, hot.size) + np.sign(rng.normal(size=hot.size)) * 1.5
    return deltas, families


def make_style_bulk(rng: np.random.Generator, out: str) -> tuple[dict, dict]:
    deltas, families = _hot_deltas(rng, ANALYZE_TESTS)
    info = {"hot_families": families}
    info["deltas_bytes"] = write_vectors(os.path.join(out, "deltas.csv"), deltas)
    mu = rng.normal(0.0, 0.3, size=STYLE_DIMS)
    sigma = rng.uniform(0.2, 1.2, size=STYLE_DIMS)
    styles = mu + sigma * rng.normal(size=(STATS_ROWS, STYLE_DIMS))
    info["styles_bytes"] = write_vectors(os.path.join(out, "styles.csv"), styles)
    info["stats_bytes"] = write_stats(os.path.join(out, "stats.csv"), mu, sigma)
    samples = mu + sigma * rng.normal(size=(GRAD_SAMPLES, STYLE_DIMS))
    info["samples_bytes"] = write_vectors(os.path.join(out, "samples.csv"), samples)
    write_vectors(os.path.join(out, "fd.csv"), samples[:FD_SAMPLES])
    info.update({
        "deltas_rows_x_dims": f"{ANALYZE_TESTS}x{STYLE_DIMS}",
        "styles_rows_x_dims": f"{STATS_ROWS}x{STYLE_DIMS}",
        "samples_rows_x_dims": f"{GRAD_SAMPLES}x{STYLE_DIMS}",
        "fd_rows_x_dims": f"{FD_SAMPLES}x{STYLE_DIMS}",
    })
    return info, {"deltas": deltas, "styles": styles, "samples": samples, "mu": mu, "sigma": sigma}


def _smooth_image(rng: np.random.Generator, side: int) -> np.ndarray:
    """Low-frequency colour field plus pixel noise, as floats in [0, 255]."""
    coarse = rng.uniform(0.0, 255.0, size=(side // 32 + 1, side // 32 + 1, 3))
    img = np.repeat(np.repeat(coarse, 32, axis=0), 32, axis=1)[:side, :side]
    return np.clip(img + rng.normal(0.0, 12.0, size=img.shape), 0.0, 255.0)


def make_image_losses(rng: np.random.Generator, out: str) -> tuple[dict, dict]:
    info, data = {}, {}
    for side in IMAGE_SIDES:
        attr = np.rint(_smooth_image(rng, side))
        edited = np.rint(np.clip(attr + rng.normal(0.0, 20.0, size=attr.shape), 0.0, 255.0))
        info[f"image_{side}_bytes"] = write_ppm(os.path.join(out, f"attr{side}.ppm"), attr)
        write_ppm(os.path.join(out, f"out{side}.ppm"), edited)
        data[f"attr{side}"], data[f"out{side}"] = attr / 255.0, edited / 255.0
    emb = rng.normal(0.0, 1.0, size=(2, EMBEDDING_DIMS))
    write_vectors(os.path.join(out, "id_emb.csv"), emb[:1])
    write_vectors(os.path.join(out, "out_emb.csv"), emb[1:])
    face = rng.uniform(40.0, 216.0, size=(LANDMARKS, 3))
    write_vectors(os.path.join(out, "attr_lm.csv"), face)
    moved = face + rng.normal(0.0, 2.0, size=face.shape)
    write_vectors(os.path.join(out, "out_lm.csv"), moved)
    angles = rng.uniform(-0.6, 0.6, size=(2, 3))
    data.update(id_emb=emb[0], out_emb=emb[1], attr_lm=face, out_lm=moved, angles=angles)
    info.update({
        "image_sides": list(IMAGE_SIDES),
        "embedding_dims": EMBEDDING_DIMS,
        "attr_angles": ",".join(repr(v) for v in angles[0].tolist()),
        "out_angles": ",".join(repr(v) for v in angles[1].tolist()),
    })
    return info, data


MAKERS = {
    "cli-interactive": make_cli_interactive,
    "oracle-deep": make_oracle_deep,
    "style-bulk": make_style_bulk,
    "image-losses": make_image_losses,
}


def generate(workload: str, seed: int, out: str) -> tuple[dict, dict]:
    """Write ``workload``'s inputs for ``seed`` into ``out``; return (properties, arrays)."""
    os.makedirs(out, exist_ok=True)
    return MAKERS[workload](np.random.default_rng([seed, zlib.crc32(workload.encode())]), out)
