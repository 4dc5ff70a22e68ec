"""Output checks that recompute every reported value with plain numpy.

Nothing here imports ``genfields``: field sizes come from the published
formula, sparsity and statistics from direct numpy expressions, and MS-SSIM
from an independent separable-filter implementation.  Each check takes the
bytes a command printed (and the files it wrote) and raises
:class:`CheckError` with a reason when a value disagrees.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REL_TOL = 1e-9


class CheckError(Exception):
    """A command's output disagrees with the reference recomputation."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(got: float, want: float, what: str, rel: float = REL_TOL) -> None:
    expect(math.isclose(got, want, rel_tol=rel, abs_tol=1e-12),
           f"{what}: reported {got!r}, recomputed {want!r}")


def data_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


# ------------------------------------------------------ architectures ---

class Arch:
    """Plain (kernel, upsample, channels_in, id) layer list for reference math."""

    def __init__(self, layers: list[tuple[int, int, int, str]], base: int):
        self.layers = layers
        self.base = base

    @classmethod
    def stylegan2(cls, resolution: int) -> "Arch":
        def width(res: int) -> int:
            return min(512, 16384 // res)

        layers = [(3, 1, width(4), "conv0")]
        res = 8
        while res <= resolution:
            layers.append((3, 2, width(res // 2), f"conv{len(layers)}"))
            layers.append((3, 1, width(res), f"conv{len(layers)}"))
            res *= 2
        return cls(layers, 4)

    @classmethod
    def from_doc(cls, doc: dict) -> "Arch":
        return cls([(ly["kernel"], ly["upsample"], ly["channels_in"], f"conv{i}")
                    for i, ly in enumerate(doc["layers"])], doc["base_resolution"])

    def field(self, layer: int) -> int:
        """g(L) = 1 + sum_{l>=L} (k_l - 1) * prod_{i=l}^{N-1} u_i."""
        total, stride = 1, 1
        for k, u, _, _ in reversed(self.layers[layer:]):
            stride *= u
            total += (k - 1) * stride
        return total

    def fields(self) -> list[int]:
        return [self.field(i) for i in range(len(self.layers))]

    def input_resolution(self, layer: int) -> int:
        return self.base * math.prod(u for _, u, _, _ in self.layers[:layer])

    def ids(self) -> list[str]:
        return [ly[3] for ly in self.layers]


# -------------------------------------------------------------- fields ---

def check_fields(text: str, fmt: str, arch: Arch) -> None:
    if fmt == "json":
        recs = json.loads(text)["records"]
        rows = [(r["layer_id"], r["input_resolution"], r["generative_field"], r["channels_in"])
                for r in recs]
    else:
        lines = data_lines(text)
        expect(lines and lines[0].split(",")[0].split()[0] == "layer_id", "fields: no column header")
        rows = []
        for ln in lines[1:]:
            if ln.startswith("note:"):
                continue
            cells = ln.split(",") if fmt == "csv" else ln.split()
            rows.append((cells[0], int(cells[-3]), int(cells[-2]), int(cells[-1])))
    want = [(lid, arch.input_resolution(i), arch.field(i), cin)
            for i, (_, _, cin, lid) in enumerate(arch.layers)]
    expect(rows == want, f"fields ({fmt}): rows {rows} != recomputed {want}")


# ---------------------------------------------------------------- plan ---

# Named control-unit configurations as published (layer index ranges of the
# stylegan2-256 stack), see the README's `plan --config 1..5`.
PLAN_CONFIGS = {1: (0, 7), 2: (0, 4), 3: (0, 2), 4: (3, 6), 5: (6, 11)}


def planned_layers_by_gf(arch: Arch, min_gf: int, max_gf: int) -> list[int]:
    gfs = arch.fields() + [0]
    return [i for i in range(len(arch.layers)) if gfs[i] >= min_gf and gfs[i + 1] < max_gf]


def check_plan(text: str, fmt: str, arch: Arch, enabled: list[int]) -> None:
    ids = [arch.layers[i][3] for i in enabled]
    dims = sum(arch.layers[i][2] for i in enabled)
    total = sum(ly[2] for ly in arch.layers)
    if fmt == "json":
        doc = json.loads(text)
        got = (doc["enabled_layers"], doc["enabled_dims"], doc["total_dims"])
    else:
        layers = re.search(r"enabled_layers: (.*)", text)
        counts = re.search(r"enabled_dims: (\d+) of (\d+)", text)
        expect(layers is not None and counts is not None, "plan: summary lines missing")
        got = (layers.group(1).split(), int(counts.group(1)), int(counts.group(2)))
    expect(got == (ids, dims, total), f"plan ({fmt}): {got} != recomputed {(ids, dims, total)}")


# -------------------------------------------------------------- verify ---

def check_verify(text: str, fmt: str, arch: Arch) -> None:
    if fmt == "json":
        doc = json.loads(text)
        rows = [(r["layer_id"], int(r["analytic"]), int(r["footprint"]), r["match_class"])
                for r in doc["results"]]
        notes = doc["notes"]
    else:
        lines = data_lines(text)
        sep = "," if fmt == "csv" else None
        rows = [(c[0], int(c[1]), int(c[2]), c[5]) for c in
                (ln.split(sep) for ln in lines[1:] if not ln.startswith("note:"))]
        notes = re.findall(r"^(?:# )?note: (.*)$", text, re.M)
    expect("numeric executor agreement: ok" in notes, f"verify: notes {notes}")
    expect([r[0] for r in rows] == arch.ids(), "verify: layer rows differ from the architecture")
    for (lid, analytic, footprint, match), gf in zip(rows, arch.fields()):
        expect(match != "OVER-BUG", f"verify: {lid} is OVER-BUG")
        expect(analytic == gf, f"verify: {lid} analytic {analytic} != formula {gf}")
        expect(0 < footprint <= analytic, f"verify: {lid} footprint {footprint} > field {analytic}")


# ------------------------------------------------------------ sparsity ---

def sparsity_reference(deltas: np.ndarray, k: int, bins: int) -> dict:
    mag = np.abs(deltas)
    norm = mag / mag.max(axis=1, keepdims=True)
    idx = np.minimum((norm * bins).astype(int), bins - 1)
    hist = np.array([np.bincount(row, minlength=bins) for row in idx], dtype=float)
    top = [set(np.argsort(-row, kind="stable")[:k].tolist()) for row in mag]
    union = sorted(set().union(*top))
    membership = np.array([[int(d in s) for d in union] for s in top])
    return {
        "bins_mean": hist.mean(axis=0),
        "bins_std": hist.std(axis=0),
        "high": float(np.mean((norm > 0.6).sum(axis=1))),
        "union": union,
        "rates": [float(c) / len(top) for c in membership.sum(axis=0)],
        "membership": membership,
    }


def _close_all(got, want, what: str) -> None:
    expect(len(got) == len(want), f"{what}: {len(got)} values, expected {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        close(float(g), float(w), f"{what}[{i}]")


def check_analyze_table(text: str, ref: dict) -> None:
    fields = dict(re.findall(r"^(bins_mean|bins_std|high_functional_count|union_size|union_dims): (.*)$",
                             text, re.M))
    _close_all(fields["bins_mean"].split(), ref["bins_mean"], "analyze bins_mean")
    _close_all(fields["bins_std"].split(), ref["bins_std"], "analyze bins_std")
    close(float(fields["high_functional_count"]), ref["high"], "analyze high_functional_count")
    expect(int(fields["union_size"]) == len(ref["union"]), "analyze: union size differs")
    expect([int(d) for d in fields["union_dims"].split()] == ref["union"], "analyze: union dims differ")
    rates = [float(c[1]) for c in (ln.split() for ln in text.splitlines())
             if len(c) == 2 and c[0].isdigit()]
    expect(rates == ref["rates"], "analyze: reuse rates differ")


def check_analyze_json(text: str, ref: dict) -> None:
    doc = json.loads(text)
    _close_all(doc["bins_mean"], ref["bins_mean"], "analyze json bins_mean")
    _close_all(doc["bins_std"], ref["bins_std"], "analyze json bins_std")
    expect(doc["union_dims"] == ref["union"], "analyze json: union dims differ")
    expect([doc["rates"][str(d)] for d in ref["union"]] == ref["rates"], "analyze json: rates differ")
    expect(np.array_equal(np.array(doc["membership"]), ref["membership"]),
           "analyze json: membership differs")


def check_membership(text: str, ref: dict) -> None:
    lines = text.splitlines()
    expect(lines[0] == "test," + ",".join(f"d{d}" for d in ref["union"]), "membership: header differs")
    got = np.array([[int(c) for c in ln.split(",")[1:]] for ln in lines[1:]])
    expect(np.array_equal(got, ref["membership"]), "membership: matrix differs")


# --------------------------------------------------------- regularizer ---

def stats_reference(styles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return styles.mean(axis=0), np.maximum(styles.std(axis=0), 1e-8)


def read_stats(text: str) -> tuple[np.ndarray, np.ndarray]:
    lines = data_lines(text)
    expect(lines[0] == "dim,mu,sigma", "stats: header differs")
    rows = [ln.split(",") for ln in lines[1:]]
    expect([int(r[0]) for r in rows] == list(range(len(rows))), "stats: dims not dense")
    return np.array([float(r[1]) for r in rows]), np.array([float(r[2]) for r in rows])


def check_stats(text: str, styles: np.ndarray) -> None:
    mu, sigma = read_stats(text)
    want_mu, want_sigma = stats_reference(styles)
    _close_all(mu, want_mu, "stats mu")
    _close_all(sigma, want_sigma, "stats sigma")


def loglik_reference(samples: np.ndarray, mu: np.ndarray, sigma: np.ndarray):
    z = (samples - mu) / sigma
    return -0.5 * (z * z).sum(axis=1), -(samples - mu) / sigma**2


def check_loglik_table(text: str, samples: np.ndarray, mu, sigma, grad: bool) -> None:
    values, grads = loglik_reference(samples, mu, sigma)
    got = [float(v) for v in re.findall(r"^sample \d+: loglik = (\S+)$", text, re.M)]
    _close_all(got, values, "loglik")
    if grad:
        rows = re.findall(r"^  gradient: (.*)$", text, re.M)
        expect(len(rows) == len(samples), "loglik: gradient rows missing")
        for t, row in enumerate(rows):
            _close_all(row.split(), grads[t], f"loglik gradient {t}")


def check_loglik_csv(text: str, samples: np.ndarray, mu, sigma) -> None:
    values, grads = loglik_reference(samples, mu, sigma)
    lines = data_lines(text)
    expect(lines[0].startswith("sample,loglik,g0,"), "loglik csv: header differs")
    got = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    expect(got.shape == (len(samples), 2 + samples.shape[1]), f"loglik csv: shape {got.shape}")
    expect(np.array_equal(got[:, 0], np.arange(len(samples))), "loglik csv: sample column")
    expect(np.allclose(got[:, 1], values, rtol=REL_TOL, atol=0), "loglik csv: values differ")
    expect(np.allclose(got[:, 2:], grads, rtol=REL_TOL, atol=1e-12), "loglik csv: gradient differs")


def check_fd(text: str, samples: np.ndarray, mu, sigma) -> None:
    check_loglik_table(text, samples, mu, sigma, grad=False)
    expect(re.search(r"finite-difference check: .*\(ok,", text) is not None,
           "loglik --fd-check did not report ok")


# -------------------------------------------------------------- losses ---

MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
C1, C2 = 0.01**2, 0.03**2


def _filter_valid(plane: np.ndarray, window: np.ndarray) -> np.ndarray:
    out = sliding_window_view(plane, window.size, axis=0) @ window
    return sliding_window_view(out, window.size, axis=1) @ window


def ms_ssim_reference(a: np.ndarray, b: np.ndarray) -> float:
    """5-scale MS-SSIM: 11-tap Gaussian (sigma 1.5), valid region, 2x2 mean pooling."""
    offsets = np.arange(11) - 5.0
    window = np.exp(-(offsets**2) / (2 * 1.5**2))
    window /= window.sum()
    per_channel = []
    for c in range(a.shape[2]):
        x, y, value = a[:, :, c], b[:, :, c], 1.0
        for level, weight in enumerate(MS_SSIM_WEIGHTS):
            mx, my = _filter_valid(x, window), _filter_valid(y, window)
            vx = _filter_valid(x * x, window) - mx * mx
            vy = _filter_valid(y * y, window) - my * my
            cov = _filter_valid(x * y, window) - mx * my
            cs = (2 * cov + C2) / (vx + vy + C2)
            if level == len(MS_SSIM_WEIGHTS) - 1:
                term = float(((2 * mx * my + C1) / (mx * mx + my * my + C1) * cs).mean())
            else:
                term = float(cs.mean())
                h, w = (x.shape[0] // 2) * 2, (x.shape[1] // 2) * 2
                x = x[:h, :w].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
                y = y[:h, :w].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
            value *= max(term, 0.0) ** weight
        per_channel.append(value)
    return float(np.mean(per_channel))


def losses_reference(id_a, id_b, lm_a, lm_b, ang_a, ang_b, img_a, img_b) -> dict:
    """Loss components at the CLI defaults: alpha 0.84, lambdas (1, 0.01, 0.02)."""
    parts = {
        "identity_loss": float(np.abs(id_a - id_b).sum()),
        "landmark_loss": float(np.sqrt(((lm_a[17:] - lm_b[17:]) ** 2).sum())),
        "pose_loss": float(np.sqrt(((ang_a - ang_b) ** 2).sum())),
    }
    parts["attr_loss"] = parts["landmark_loss"] + parts["pose_loss"]
    parts["reconstruction_loss"] = (0.84 * (1.0 - ms_ssim_reference(img_a, img_b))
                                    + 0.16 * float(np.abs(img_a - img_b).mean()))
    parts["total_loss"] = (parts["identity_loss"] + 0.01 * parts["attr_loss"]
                           + 0.02 * parts["reconstruction_loss"])
    return parts


def read_losses(text: str, fmt: str) -> dict:
    if fmt == "json":
        doc = json.loads(text)
        return {**doc["components"], "total_loss": doc["total_loss"]}
    return {k: float(v) for k, v in re.findall(r"^(\w+) = (\S+)$", text, re.M)}


def check_losses(text: str, fmt: str, want: dict) -> None:
    got = read_losses(text, fmt)
    expect(sorted(got) == sorted(want), f"losses: components {sorted(got)} != {sorted(want)}")
    for key, value in want.items():
        close(got[key], value, f"losses {key}")


def check_components(text: str, components: list[float]) -> None:
    got = read_losses(text, "table")
    a, b, c = components
    close(got["total_loss"], a + 0.01 * b + 0.02 * c, "losses --components total")


def check_input_error(stderr: str, name: str) -> None:
    expect("Error" in stderr and name in stderr, f"exit-1 message does not name {name}: {stderr!r}")
