"""Exact brute-force influence measurement for generator stacks.

An impulse placed at one interior position of a chosen layer's input is
propagated through an executable model of the remaining stack, and the span
of affected output positions is measured.  This bounds and validates the
analytic generative-field values: for the default zero-insert-transposed
upsampling the measured footprint never exceeds the analytic value, and at
stride 1 the two agree exactly.

Two independent propagation routes are implemented on purpose:

* :func:`boolean_footprint` tracks the sorted runs of affected positions
  using index adjacency rules only;
* :func:`numeric_footprint` runs a real convolution executor with strictly
  positive seeded pseudo-random weights and measures the impulse response,
  counting a position as affected where that response is nonzero.

Positive weights forbid cancellation, so the two must agree; the test suite
asserts that they do.  Neither route shares code with the analytic formula.

The boolean route holds the exact affected positions of one axis, with no
window, as sorted half-open runs.  Every adjacency rule acts on one axis at a
time and the impulse is one point, so the 2-D affected set is exactly S x S
for the 1-D set S.

The numeric route propagates the impulse alone: the stack is linear and has
no bias, so the response to one impulse is exactly the change it makes to
any input.  Each layer is computed only on the window where that response
may be nonzero.  This is exact, not an approximation: outside the window
each output reads zeros only, and inside it each output reads the same
values and sums them in the same order as a full-map pass would, so it is
bitwise equal.  The boolean route uses no window, so a window that was
too narrow would show as an executor disagreement.  Both routes cost in
proportion to the field, not to ``sim_base``.

Both routes run on Python ints and floats only: one impulse through windows
of a few thousand positions is cheaper in plain Python than numpy's import,
so ``verify`` never loads numpy.

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

import math
import operator
import random
import sys
from enum import Enum

from ._record import record
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

WEIGHT_LOW, WEIGHT_HIGH = 0.1, 1.0
# Largest map, in cells, either oracle accepts; neither allocates it.  The
# limit keeps every position index bounded.  It also caps each stage's
# positions x taps count, which bounds that stage's work in either oracle
# and the k**dims weights it draws, though neither builds such an array.
MAX_ORACLE_CELLS = 2**26


class Semantics(str, Enum):
    """How upsampling layers (factor >= 2) are realized by the executor."""

    ZERO_INSERT = "zero-insert-transposed"
    NEAREST = "nearest-upsample-conv"


MATCH_EXACT = "exact"
MATCH_UNDER = "under"
MATCH_OVER = "OVER-BUG"


@record
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


def _check_sim_base(sim_base) -> int:
    """``sim_base`` as an int; ValueError if it is below 3 or above the oracle limit."""
    sim_base = operator.index(sim_base)
    if sim_base < 3:
        raise ValueError(
            f"sim_base {sim_base} is too small to place an interior impulse; use at least 3"
        )
    # Every map is at least sim_base wide, so conv0's would pass the limit too,
    # and its message would print numbers that may pass Python's digit limit.
    if sim_base > MAX_ORACLE_CELLS:
        raise ValueError(f"sim_base is above the oracle limit of {MAX_ORACLE_CELLS} cells")
    return sim_base


def _check_args(arch: ArchSpec, layer, sim_base, dims) -> tuple[int, int, list[int]]:
    """``layer`` and ``dims`` as ints, and the map sides at ``sim_base`` (see :func:`map_sides`)."""
    layer, dims = _check_layer(arch, layer), operator.index(dims)
    if dims not in (1, 2):
        raise ValueError(f"dims must be 1 or 2, got {dims}")
    sim_base = _check_sim_base(sim_base)
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
    return layer, dims, sides


def _check_stage(spec: LayerSpec, cells: int) -> None:
    """Refuse a stage whose positions x taps, a bound on its work, pass the oracle limit."""
    if cells > MAX_ORACLE_CELLS:
        raise ValueError(
            f"layer {spec.id}: kernel {spec.kernel} needs {cells} position x tap cells, "
            f"above the oracle limit of {MAX_ORACLE_CELLS}; use a smaller kernel or sim_base"
        )


# --------------------------------------------------------------------------
# Boolean route: track the sorted runs of affected positions along one axis.

def _spread(
    runs: list[tuple[int, int]], spec: LayerSpec, semantics: Semantics, length: int
) -> list[tuple[int, int]]:
    """The runs of outputs, clipped to [0, length), that the inputs in ``runs`` affect.

    ``runs`` are sorted, disjoint, non-adjacent half-open [a, b), and so are
    the runs returned.  Zero-insert (u > 1): p reaches u*p .. u*p+k-1.
    Otherwise p repeats to u*p .. u*p+u-1 and the SAME window spreads q to
    q-k//2 .. q+(k-1)//2.  Every window has the same width, so the windows
    of adjacent inputs p and p+1 meet exactly when that width is at least u:
    then a run's windows merge into one, and otherwise each position keeps
    its own.  A window that starts at or before the previous one's end
    joins it.
    """
    k, u = spec.kernel, spec.upsample
    if u > 1 and semantics is Semantics.ZERO_INSERT:
        lo, hi = 0, k
    else:
        lo, hi = -(k // 2), u + (k - 1) // 2
    _check_stage(spec, sum(b - a for a, b in runs) * (hi - lo))
    meet = hi - lo >= u
    out: list[tuple[int, int]] = []
    for a, b in runs:
        for first, last in [(a, b - 1)] if meet else ((p, p) for p in range(a, b)):
            # Each window holds u*p, which lies in [0, length), so none clips to empty.
            start, end = max(u * first + lo, 0), min(u * last + hi, length)
            if out and start <= out[-1][1]:
                out[-1] = (out[-1][0], end)
            else:
                out.append((start, end))
    return out


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
    layer, dims, sides = _check_args(arch, layer, sim_base, dims)
    runs = [(sides[layer] // 2, sides[layer] // 2 + 1)]
    clipped = False
    for spec, length in zip(arch.layers[layer:], sides[layer + 1 :]):
        runs = _spread(runs, spec, semantics, length)
        clipped |= runs[0][0] == 0 or runs[-1][1] == length
    return FootprintResult(
        layer_index=layer,
        semantics=semantics,
        dims=dims,
        footprint=runs[-1][1] - runs[0][0],
        analytic=generative_field(arch, layer),
        clipped=clipped,
    )


# --------------------------------------------------------------------------
# Numeric route: a real convolution executor with positive seeded weights.
#
# Each layer is one stage: z = expand(x), the identity at u = 1 and otherwise
# x zero-inserted or repeated by u on every axis, then
# out[q] = sum_i v[i] * z[q + off + i] with zeros outside z, the taps added
# in order (row-major in 2-D).  The taps v are w, reversed on every axis for
# zero-insert; off is -(k-1)//2, or -(k-1) for zero-insert.  Stages run on
# windows only (see numeric_footprint).  A 1-D map is a list of floats, a
# 2-D one a list of such rows.

def _offset(k: int, u: int, semantics: Semantics) -> int:
    if u > 1 and semantics is Semantics.ZERO_INSERT:
        return -(k - 1)
    return -((k - 1) // 2)


def _cone(
    arch: ArchSpec, layer: int, semantics: Semantics, lengths: list[int]
) -> list[tuple[int, int]]:
    """Window D_s per stage, on maps of ``lengths``, where the impulse response may be nonzero.

    D_0 = [c, c+1) is the impulse, index 0 the layer input, and
    D_s = [u*a - off - k + 1, u*b - off), clipped to the map, for
    D_{s-1} = [a, b): the outputs whose taps reach a nonzero z position.
    """
    windows = [(lengths[0] // 2, lengths[0] // 2 + 1)]
    for spec, length in zip(arch.layers[layer:], lengths[1:]):
        k, u = spec.kernel, spec.upsample
        off = _offset(k, u, semantics)
        a, b = windows[-1]
        windows.append((max(0, u * a - off - k + 1), min(length, u * b - off)))
    return windows


def _stage(x: list, x_lo: int, w: list, u: int, semantics: Semantics,
           window: tuple[int, int]) -> list:
    """One stage's output on ``window``, the same on every axis.

    ``x`` is the input from ``x_lo`` on each axis, zero outside it, and ``w``
    the kernel, both 1-D or both 2-D.  Expanded, from z position u*x_lo on,
    it is written into zeroed lists of the z positions the window reads,
    from lo + off on, which hold every nonzero z position: in 2-D each row
    first, then the rows.
    """
    k = len(w)
    lo, hi = window
    n = hi - lo
    start, size = u * x_lo - (lo + _offset(k, u, semantics)), n + k - 1
    flip = u > 1 and semantics is Semantics.ZERO_INSERT
    if not isinstance(w[0], list):
        return _accumulate([0.0] * n, w[::-1] if flip else w,
                           _expand(x, start, size, u, semantics, 0.0))
    if flip:
        w = [row[::-1] for row in reversed(w)]
    rows = [_expand(row, start, size, u, semantics, 0.0) for row in x]
    z = _expand(rows, start, size, u, semantics, [0.0] * size)
    out = []
    for q in range(n):
        acc = [0.0] * n
        for w_row, z_row in zip(w, z[q : q + k]):
            acc = _accumulate(acc, w_row, z_row)
        out.append(acc)
    return out


def _expand(x: list, start: int, size: int, u: int, semantics: Semantics, zero) -> list:
    """``size`` copies of ``zero``, with x expanded by u written from ``start`` on.

    Zero-insert puts x[i] at start + u*i, nearest at start + u*i .. start +
    u*i + u-1; at u = 1 both copy x.  The caller only reads the list, so a
    repeated or zero row may be one shared list.
    """
    z = [zero] * size
    if u > 1 and semantics is Semantics.NEAREST:
        z[start : start + u * len(x)] = [v for v in x for _ in range(u)]
    else:
        z[start : start + u * len(x) : u] = x
    return z


def _accumulate(acc: list[float], w: list[float], z: list[float]) -> list[float]:
    """acc[q] + w[0]*z[q] + w[1]*z[q+1] + ..., one pass over z per tap, in tap order."""
    n = len(acc)
    for i, wi in enumerate(w):
        acc = [a + wi * b for a, b in zip(acc, z[i : i + n])]
    return acc


def _span(x: list) -> int:
    """Side length of the bounding box of the nonzero response (max over axes).

    A 1-D map is taken as one row, whose side of 1 never exceeds its columns'.
    """
    rows = x if isinstance(x[0], list) else [x]
    hits = [[i for i, line in enumerate(lines) if any(line)] for lines in (zip(*rows), rows)]
    return max(hit[-1] - hit[0] + 1 for hit in hits)


def _reaches_end(x: list, window: tuple[int, int], length: int) -> bool:
    """Whether a window's response is nonzero at position 0 or length-1 of the map on any axis."""
    lo, hi = window
    ends = [e for e, at_end in ((0, lo == 0), (-1, hi == length)) if at_end]
    if isinstance(x[0], list):
        cells = [v for e in ends for v in (*x[e], *(row[e] for row in x))]
    else:
        cells = [x[e] for e in ends]
    return any(cells)


def _check_seed(seed) -> int:
    """``seed`` as an int; ValueError if it is None or negative."""
    if seed is None:
        raise ValueError("seed must be a non-negative integer, got None")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def numeric_footprint(
    arch: ArchSpec,
    layer: int,
    semantics: Semantics = Semantics.ZERO_INSERT,
    sim_base: int = 16,
    seed: int = DEFAULT_SEED,
    dims: int = 1,
    magnitude: float = 1.0,
) -> FootprintResult:
    """Measure the footprint with a real executor instead of adjacency rules.

    The stack is instantiated with weights in [0.1, 1.0) drawn from one
    ``random.Random(seed)``, each stage's kernel whole and row-major, in stage
    order, and ``magnitude`` at one interior input position is propagated
    alone; positions whose response is nonzero count as affected.  The stack
    is linear with no bias, so this is exactly the change the impulse makes to
    any input, f(base + d) - f(base) = f(d), and no base values round its
    edges away.
    Positive weights forbid cancellation, so this agrees with
    :func:`boolean_footprint` on every architecture, even where the response
    overflows: its terms share the impulse's sign, so it becomes an infinity
    of that sign, never NaN.

    Each stage is computed only on the window where the response may be
    nonzero (see :func:`_cone`), bitwise equal to a full-map pass there, so
    the cost follows the field size, not ``sim_base``.

    ``seed`` is any non-negative integer, numpy's included; ``magnitude`` must
    be finite, nonzero and large enough that no response underflows to zero.
    Then some output is always affected: every path product stays at or above
    the smallest normal float, no sum cancels, and every window of the cone
    holds a reached position.
    """
    semantics = Semantics(semantics)
    layer, dims, sides = _check_args(arch, layer, sim_base, dims)
    lengths = sides[layer:]
    seed = _check_seed(seed)
    if not math.isfinite(magnitude):
        raise ValueError(f"impulse magnitude must be finite, got {magnitude}")
    if magnitude == 0.0:
        raise ValueError("impulse magnitude must be nonzero")
    windows = _cone(arch, layer, semantics, lengths)
    for spec, (lo, hi) in zip(arch.layers[layer:], windows[1:]):
        # Positions x taps; with at least one position, it bounds the
        # buffer, (hi - lo + k - 1)**dims, and the k**dims weights.
        _check_stage(spec, ((hi - lo) * spec.kernel) ** dims)
    x = [float(magnitude)] if dims == 1 else [[float(magnitude)]]

    # Each nonzero response holds a path's |magnitude| x one weight per stage.
    # Python floats overflow to an infinity of the same sign, without a warning.
    floor = abs(magnitude)
    clipped = False
    rng, scale = random.Random(seed), WEIGHT_HIGH - WEIGHT_LOW
    for s, spec in enumerate(arch.layers[layer:], start=1):
        k = spec.kernel
        # random() is at most 1 - 2**-53, which maps just below WEIGHT_HIGH.
        w = [WEIGHT_LOW + scale * rng.random() for _ in range(k**dims)]
        floor *= min(w)
        if floor < sys.float_info.min:
            raise ValueError(f"layer {spec.id}: impulse magnitude {magnitude} may underflow to 0")
        if dims == 2:
            w = [w[i : i + k] for i in range(0, k * k, k)]
        x = _stage(x, windows[s - 1][0], w, spec.upsample, semantics, windows[s])
        clipped = clipped or _reaches_end(x, windows[s], lengths[s])

    return FootprintResult(
        layer_index=layer,
        semantics=semantics,
        dims=dims,
        footprint=_span(x),
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
