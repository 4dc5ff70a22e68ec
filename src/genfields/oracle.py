"""Exact brute-force influence measurement for generator stacks.

An impulse placed at one interior position of a chosen layer's input is
propagated through an executable model of the remaining stack, and the span
of affected output positions is measured.  This bounds and validates the
analytic generative-field values: for the default zero-insert-transposed
upsampling the measured footprint never exceeds the analytic value, and at
stride 1 the two agree exactly.

Two independent propagation routes are implemented on purpose:

* :func:`boolean_footprint` tracks the sorted set of affected positions
  using index adjacency rules only;
* :func:`numeric_footprint` runs a real convolution executor with strictly
  positive random weights and diffs a perturbed pass against a baseline.

Positive weights forbid cancellation, so the two must agree; the test suite
asserts that they do.  Neither route shares code with the analytic formula.

The boolean route holds the exact affected positions of one axis, with no
window.  Every adjacency rule acts on one axis at a time and the impulse is
one point, so the 2-D affected set is exactly S x S for the 1-D set S.

The numeric route computes both passes only on the impulse's cone: at each
layer, the positions where the perturbed pass can differ from the baseline,
plus the inputs that later layers read.  This is exact, not an
approximation: outside the cone both passes read identical inputs, so their
difference there is exactly zero, and inside it each output reads the same
values and sums them in the same order as a full-map pass would, so it is
bitwise equal.  The boolean route uses neither the cone nor any window, so
a cone that was too narrow would show as an executor disagreement.  Both
routes cost in proportion to the field, not to ``sim_base``.

Upsampling semantics are first-class because nothing pins how a factor-2
layer is realized.  ``zero-insert-transposed`` (the default) interleaves
zeros before convolving, the classic transposed convolution.
``nearest-upsample-conv`` duplicates positions before convolving; note that
duplication alone spreads influence, so with kernel-1 upsampling layers this
semantics can legitimately exceed the analytic bound and will be flagged
OVER-BUG by :func:`verify_arch`.

By default verification runs in 1D: fields are separable per axis for square
kernels, and 1D keeps deep stacks cheap.  2D mode is retained for small
stacks as a safety net.  Footprint sizes are padding-invariant away from
borders; the ``clipped`` flag records whether the affected region touched a
boundary at any stage of the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ._np import np
from .archgraph import ArchSpec, LayerSpec, _check_layer, map_sides
from .fields import generative_field
from .fileio import csv_text

__all__ = [
    "DEFAULT_SEED",
    "Semantics",
    "FootprintResult",
    "boolean_footprint",
    "numeric_footprint",
    "verify_arch",
    "verification_csv",
]

DEFAULT_SEED = 7

AFFECTED_THRESHOLD = 1e-9
WEIGHT_LOW, WEIGHT_HIGH = 0.1, 1.0
# Largest map, in cells, either oracle accepts; neither allocates it.  The
# limit keeps every position index and generator ``advance`` step bounded.
# It also caps each stage's positions x taps array, which both oracles build.
MAX_ORACLE_CELLS = 2**26


class Semantics(str, Enum):
    """How upsampling layers (factor >= 2) are realized by the executor."""

    ZERO_INSERT = "zero-insert-transposed"
    NEAREST = "nearest-upsample-conv"


MATCH_EXACT = "exact"
MATCH_UNDER = "under"
MATCH_OVER = "OVER-BUG"


@dataclass(frozen=True)
class FootprintResult:
    """Measured influence span of one layer input, paired with the analytic value."""

    layer_index: int
    semantics: Semantics
    dims: int
    footprint: int
    analytic: int
    clipped: bool

    @property
    def match_class(self) -> str:
        if self.footprint == self.analytic:
            return MATCH_EXACT
        if self.footprint < self.analytic:
            return MATCH_UNDER
        return MATCH_OVER


def _check_args(arch: ArchSpec, layer: int, sim_base: int, dims: int) -> list[int]:
    """The map sides at ``sim_base`` (see :func:`map_sides`), once the arguments are checked."""
    _check_layer(arch, layer)
    if dims not in (1, 2):
        raise ValueError(f"dims must be 1 or 2, got {dims}")
    if sim_base < 3:
        raise ValueError(
            f"sim_base {sim_base} is too small to place an interior impulse; use at least 3"
        )
    # Maps only grow along the stack, so the first map over the limit names
    # the layer; checked before anything is allocated.
    sides = map_sides(arch, sim_base)
    for spec, side in zip(arch.layers, sides[1:]):
        if side**dims > MAX_ORACLE_CELLS:
            raise ValueError(
                f"layer {spec.id}: its output map at sim_base {sim_base} has "
                f"{side**dims} cells in {dims}-D, above the oracle limit of "
                f"{MAX_ORACLE_CELLS}; use a smaller sim_base"
            )
    return sides


def _check_stage(spec: LayerSpec, cells: int) -> None:
    """Refuse a stage whose positions x taps array, its largest, passes the oracle limit."""
    if cells > MAX_ORACLE_CELLS:
        raise ValueError(
            f"layer {spec.id}: kernel {spec.kernel} needs {cells} position x tap cells, "
            f"above the oracle limit of {MAX_ORACLE_CELLS}; use a smaller kernel or sim_base"
        )


# --------------------------------------------------------------------------
# Boolean route: track the sorted affected positions along one axis.

def _spread(pos: np.ndarray, spec: LayerSpec, semantics: Semantics, length: int) -> np.ndarray:
    """The outputs, sorted and clipped to [0, length), that inputs ``pos`` affect.

    Zero-insert (u > 1): p reaches u*p .. u*p+k-1.  Otherwise p repeats to
    u*p .. u*p+u-1 and the SAME window spreads q to q-k//2 .. q+(k-1)//2.
    ``pos`` is sorted and every window has the same width, so the clipped
    windows merge into runs wherever one starts past the previous one's end;
    the runs are expanded directly, in memory linear in the output.
    """
    k, u = spec.kernel, spec.upsample
    if u > 1 and semantics is Semantics.ZERO_INSERT:
        lo, hi = 0, k
    else:
        lo, hi = -(k // 2), u + (k - 1) // 2
    _check_stage(spec, pos.size * (hi - lo))
    # Each window holds u*p, which lies in [0, length), so none clips to empty.
    starts = np.maximum(u * pos + lo, 0)
    ends = np.minimum(u * pos + hi, length)
    new_run = np.flatnonzero(starts[1:] > ends[:-1]) + 1
    run_starts = starts[np.concatenate(([0], new_run))]
    sizes = ends[np.append(new_run - 1, -1)] - run_starts
    return np.arange(sizes.sum()) + np.repeat(run_starts - (np.cumsum(sizes) - sizes), sizes)


def boolean_footprint(
    arch: ArchSpec,
    layer: int,
    semantics: Semantics = Semantics.ZERO_INSERT,
    sim_base: int = 16,
    dims: int = 1,
) -> FootprintResult:
    """Measure the output span affected by one interior position of a layer input.

    ``sim_base`` replaces the architecture's base resolution for the
    simulation so the impulse has room to spread; if the affected region
    touches a boundary at any stage the result is flagged ``clipped`` and the
    measured span is a lower bound.
    """
    semantics = Semantics(semantics)
    sides = _check_args(arch, layer, sim_base, dims)
    pos = np.array([sides[layer] // 2])
    clipped = False
    for spec, length in zip(arch.layers[layer:], sides[layer + 1 :]):
        pos = _spread(pos, spec, semantics, length)
        clipped |= bool(pos[0] == 0 or pos[-1] == length - 1)
    return FootprintResult(
        layer_index=layer,
        semantics=semantics,
        dims=dims,
        footprint=int(pos[-1] - pos[0] + 1),
        analytic=generative_field(arch, layer),
        clipped=clipped,
    )


# --------------------------------------------------------------------------
# Numeric route: a real convolution executor with positive random weights.
#
# Each layer is one stage: z = expand(x), the identity at u = 1 and otherwise
# x zero-inserted or repeated by u on every axis, then
# out[q] = sum_i v[i] * z[q + off + i] with zeros outside z.  The taps v are
# w, reversed on every axis for zero-insert; off is -(k-1)//2, or -(k-1) for
# zero-insert.  Stages run on windows only (see numeric_footprint).

def _offset(k: int, u: int, semantics: Semantics) -> int:
    if u > 1 and semantics is Semantics.ZERO_INSERT:
        return -(k - 1)
    return -((k - 1) // 2)


def _z_reads(window: tuple[int, int], k: int, off: int, length: int) -> tuple[int, int]:
    """Positions of z, clipped to [0, length), that the outputs in ``window`` read."""
    lo, hi = window
    return max(0, lo + off), min(length, hi + off + k - 1)


def _cone(
    arch: ArchSpec, layer: int, semantics: Semantics, lengths: list[int]
) -> list[tuple[int, int]]:
    """Window to compute per stage, on maps of ``lengths``; index 0 is the layer input.

    Forward, D_s is where the two passes may differ: D_0 = [c, c+1) is the
    impulse and D_s = [u*a - off - k + 1, u*b - off), clipped to the map, for
    D_{s-1} = [a, b).  Backward, the last window is D_last and each earlier
    one is the hull of D_{s-1} and the inputs the next window reads.
    """
    specs = arch.layers[layer:]
    diff = [(lengths[0] // 2, lengths[0] // 2 + 1)]
    for spec, length in zip(specs, lengths[1:]):
        k, u = spec.kernel, spec.upsample
        off = _offset(k, u, semantics)
        a, b = diff[-1]
        diff.append((max(0, u * a - off - k + 1), min(length, u * b - off)))
    windows = [diff[-1]]
    for s in range(len(specs), 0, -1):
        k, u = specs[s - 1].kernel, specs[s - 1].upsample
        zl, zh = _z_reads(windows[0], k, _offset(k, u, semantics), lengths[s])
        a, b = diff[s - 1]
        windows.insert(0, (min(a, zl // u), max(b, -(-zh // u))))
    return windows


def _expand(x: np.ndarray, u: int, semantics: Semantics) -> np.ndarray:
    """Zero-insert or repeat by ``u`` on every axis but the leading pass axis."""
    if semantics is Semantics.ZERO_INSERT:
        z = np.zeros((x.shape[0],) + tuple(u * n for n in x.shape[1:]), dtype=x.dtype)
        z[(slice(None),) + (slice(None, None, u),) * (x.ndim - 1)] = x
        return z
    for axis in range(1, x.ndim):
        x = np.repeat(x, u, axis=axis)
    return x


def _stage(
    x: np.ndarray,
    x_lo: int,
    w: np.ndarray,
    u: int,
    semantics: Semantics,
    window: tuple[int, int],
    length: int,
) -> np.ndarray:
    """Both passes' outputs of one stage on ``window``, the same on every axis.

    ``x`` stacks the base and perturbed inputs on axis 0 and holds input
    positions from ``x_lo`` on each spatial axis, covering what the window
    reads.  Zeros pad only where those reads pass an end of the map.
    """
    dims = x.ndim - 1
    k = w.shape[0]
    off = _offset(k, u, semantics)
    lo, hi = window
    zl, zh = _z_reads(window, k, off, length)
    xl = zl // u
    z = x[(slice(None),) + (slice(xl - x_lo, -(-zh // u) - x_lo),) * dims]
    if u > 1:
        z = _expand(z, u, semantics)
        if semantics is Semantics.ZERO_INSERT:
            w = w[(slice(None, None, -1),) * dims]
    z = z[(slice(None),) + (slice(zl - u * xl, zh - u * xl),) * dims]
    zp = np.pad(z, ((0, 0),) + ((zl - (lo + off), hi + off + k - 1 - zh),) * dims)
    window_view = np.lib.stride_tricks.sliding_window_view
    if dims == 1:
        return window_view(zp, k, axis=1) @ w
    return np.einsum("pqrij,ij->pqr", window_view(zp, (k, k), axis=(1, 2)), w)


def _base_window(
    rng: np.random.Generator, n: int, dims: int, window: tuple[int, int]
) -> np.ndarray:
    """The baseline input on ``window`` per axis, as drawn with all n**dims values.

    ``default_rng``'s PCG64 takes one step per uniform double, so the steps
    outside the window are skipped with ``advance`` and the kernels drawn
    afterwards are unchanged.  In 2-D each window row is one run of the
    row-major draw.
    """
    lo, hi = window
    starts = [lo] if dims == 1 else [row * n + lo for row in range(lo, hi)]
    runs, pos = [], 0
    for start in starts:
        rng.bit_generator.advance(start - pos)
        runs.append(rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=hi - lo))
        pos = start + hi - lo
    rng.bit_generator.advance(n**dims - pos)
    return np.concatenate(runs).reshape((hi - lo,) * dims)


def _span(mask: np.ndarray) -> int:
    """Side length of the bounding box of the True region (max over axes)."""
    hit = np.argwhere(mask)
    return int((hit.max(axis=0) - hit.min(axis=0)).max()) + 1 if hit.size else 0


def _reaches_end(mask: np.ndarray, window: tuple[int, int], length: int) -> bool:
    """Whether a window's mask is True at position 0 or length-1 of the map."""
    lo, hi = window
    for axis in range(mask.ndim):
        if lo == 0 and bool(np.any(mask.take(0, axis=axis))):
            return True
        if hi == length and bool(np.any(mask.take(-1, axis=axis))):
            return True
    return False


def numeric_footprint(
    arch: ArchSpec,
    layer: int,
    semantics: Semantics = Semantics.ZERO_INSERT,
    sim_base: int = 16,
    seed: int = DEFAULT_SEED,
    dims: int = 1,
    magnitude: float = 1.0,
    threshold: float = AFFECTED_THRESHOLD,
) -> FootprintResult:
    """Measure the footprint with a real executor instead of adjacency rules.

    The stack is instantiated with seeded random weights drawn uniformly from
    (0.1, 1.0); a baseline forward pass is diffed against a pass with
    ``magnitude`` added at one interior input position, and positions whose
    absolute difference exceeds ``threshold`` count as affected.  Positivity
    of the weights forbids cancellation, so this agrees with
    :func:`boolean_footprint` on every architecture.

    Both passes are computed only on the impulse's cone (see :func:`_cone`):
    the positions where they may differ, plus the inputs those positions
    read.  Outside the cone the two passes read identical inputs and run
    identical arithmetic, so their difference there is exactly zero; inside
    it each stage reads the same values and contracts them in the same order
    as a full-map pass, so every value computed is bitwise equal to it.  The
    random input is drawn on the cone only, skipping the generator past the
    rest, so the cost follows the field size, not ``sim_base``.
    """
    semantics = Semantics(semantics)
    lengths = _check_args(arch, layer, sim_base, dims)[layer:]
    if magnitude == 0.0:
        raise ValueError("impulse magnitude must be nonzero")
    rng = np.random.default_rng(seed)
    n = lengths[0]
    windows = _cone(arch, layer, semantics, lengths)
    for spec, (lo, hi) in zip(arch.layers[layer:], windows[1:]):
        # Both passes' positions x taps; with at least one position, it bounds
        # the padded window, 2 * (hi - lo + k - 1)**dims, and the k**dims weights.
        _check_stage(spec, 2 * ((hi - lo) * spec.kernel) ** dims)
    x = np.stack([_base_window(rng, n, dims, windows[0])] * 2)
    x[(1,) + (n // 2 - windows[0][0],) * dims] += magnitude

    clipped = False
    for s, spec in enumerate(arch.layers[layer:], start=1):
        w = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=(spec.kernel,) * dims)
        x = _stage(x, windows[s - 1][0], w, spec.upsample, semantics, windows[s], lengths[s])
        diff_mask = np.abs(x[1] - x[0]) > threshold
        clipped = clipped or _reaches_end(diff_mask, windows[s], lengths[s])

    footprint = _span(diff_mask)
    if footprint == 0:
        raise ValueError("perturbation produced no affected output positions")
    return FootprintResult(
        layer_index=layer,
        semantics=semantics,
        dims=dims,
        footprint=footprint,
        analytic=generative_field(arch, layer),
        clipped=clipped,
    )


def verify_arch(
    arch: ArchSpec,
    semantics: Semantics = Semantics.ZERO_INSERT,
    sim_base: int = 16,
    dims: int = 1,
    layers: tuple[int, ...] | None = None,
) -> list[FootprintResult]:
    """Run boolean_footprint for every layer (or a subset) of an architecture.

    Each result pairs the measured footprint with the analytic value; a
    footprint below the analytic value is expected for upsampling stacks,
    while a footprint above it is classified OVER-BUG.
    """
    semantics = Semantics(semantics)
    indices = tuple(range(arch.depth)) if layers is None else layers
    return [boolean_footprint(arch, L, semantics, sim_base, dims) for L in indices]


VERIFY_CSV_COLUMNS = ("layer_id", "analytic", "footprint", "semantics", "clipped", "match_class")


def verification_csv(arch: ArchSpec, results: list[FootprintResult]) -> str:
    return csv_text([VERIFY_CSV_COLUMNS, *(verification_row(arch, r) for r in results)])


def verification_row(arch: ArchSpec, res: FootprintResult) -> tuple:
    """One result's cells in ``VERIFY_CSV_COLUMNS`` order."""
    return (arch.layers[res.layer_index].id, res.analytic, res.footprint,
            res.semantics.value, str(res.clipped).lower(), res.match_class)
