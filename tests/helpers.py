"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from genfields.archgraph import ArchSpec, LayerSpec


def make_arch(name, kernels, ups, base=4, channels=4):
    layers = tuple(
        LayerSpec(f"conv{i}", int(k), int(u), channels, channels)
        for i, (k, u) in enumerate(zip(kernels, ups))
    )
    return ArchSpec(name=name, base_resolution=base, layers=layers)


def random_arch(rng: np.random.Generator, max_depth=6, stride1=False, name="rand"):
    """Random stack with kernels in {1,3,5,7} and upsample factors in {1,2}."""
    depth = int(rng.integers(1, max_depth + 1))
    kernels = rng.choice([1, 3, 5, 7], size=depth)
    ups = np.ones(depth, dtype=int) if stride1 else rng.choice([1, 2], size=depth)
    return make_arch(name, kernels, ups)


def write_netpbm(path, img) -> None:
    """Write an image in [0, 1] as binary netpbm, 8-bit: (h, w) as P5, (h, w, 3) as P6."""
    img = np.asarray(img, dtype=float)
    header = f"{'P6' if img.ndim == 3 else 'P5'}\n{img.shape[1]} {img.shape[0]}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode() + np.rint(img * 255).astype(np.uint8).tobytes())


def literal_field(arch: ArchSpec, layer: int) -> int:
    """Direct transcription of the field formula, as an independent oracle.

    1-based layer indices: g0 = sum_{l=1}^{N-L} (k_{N-l+1} - 1) *
    prod_{i=N-l+1}^{N} s_i + 1, evaluated term by term with explicit
    products.  Deliberately not shared with the package implementation.
    """
    ks = [None] + [spec.kernel for spec in arch.layers]
    ss = [None] + [spec.upsample for spec in arch.layers]
    n = arch.depth
    total = 0
    for l in range(1, n - layer + 1):
        prod = 1
        for i in range(n - l + 1, n + 1):
            prod *= ss[i]
        total += (ks[n - l + 1] - 1) * prod
    return total + 1


# Published reference column for the stylegan2-256 stack (conv0..conv12).
# conv0 is printed as 506 in the reference listing; the formula yields 507.
PUBLISHED_FIELDS_256 = [506, 379, 251, 187, 123, 91, 59, 43, 27, 19, 11, 7, 3]
PUBLISHED_CHANNELS_256 = [512, 512, 512, 512, 512, 512, 512, 512, 256, 256, 128, 128, 64]
