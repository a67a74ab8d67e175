"""Binary median filters.

On a binary image the n x n median equals a majority vote: the output is 1
iff at least ceil(n^2/2) pixels of the window are 1.  Two stride policies:

* overlap: classic sliding window, stride 1, zero padding, output per pixel.
* non-overlap: the image is tiled into disjoint n x n patches from (0,0) and
  one majority decision is written to every pixel of the patch.  Edge tiles
  with m < n^2 present pixels use threshold ceil(m/2).

Both are pure functions of the input frame.  Each is written once, as a
kernel over an (N, H, W) uint8 stack of frames, such as a chunk of
frames.iter_recording; the per-frame functions call it on a stack of one.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

import numpy as np

from .frames import BinaryFrame
from .params import KernelSpec


class StrideMode(enum.Enum):
    OVERLAP = "overlap"
    NON_OVERLAP = "non_overlap"


def median_filter_overlap_stack(stack: np.ndarray, n: int) -> np.ndarray:
    """Stride-1 binary median with zero padding over an (N, H, W) stack of
    {0,1} frames; the output has the input's shape."""
    _, h, w = stack.shape
    r = n // 2
    rows = stack.astype(np.min_scalar_type(min(n, h) * min(n, w)))  # holds a window's ones
    for d in range(1, min(r, w - 1) + 1):  # horizontal window sums; pixels past the edge add 0
        rows[:, :, d:] += stack[:, :, :-d]
        rows[:, :, :-d] += stack[:, :, d:]
    sums = rows.copy()
    for d in range(1, min(r, h - 1) + 1):
        sums[:, d:] += rows[:, :-d]
        sums[:, :-d] += rows[:, d:]
    return (sums >= (n * n + 1) // 2).view(np.uint8)


def nomf_stack(stack: np.ndarray, n: int) -> np.ndarray:
    """Non-overlapping median over an (N, H, W) stack of {0,1} frames: one
    majority decision per disjoint n x n tile, edge tiles voting over the
    m pixels they hold."""
    _, h, w = stack.shape
    th, tw = min(n, h), min(n, w)   # the largest tile the frame holds
    sums = np.zeros((len(stack), -(-h // n), -(-w // n)), dtype=np.min_scalar_type(th * tw))
    for i in range(th):
        for j in range(tw):
            part = stack[:, i::n, j::n]
            sums[:, : part.shape[1], : part.shape[2]] += part
    tile_rows = np.minimum(n, h - n * np.arange(sums.shape[1]))
    tile_cols = np.minimum(n, w - n * np.arange(sums.shape[2]))
    bits = (sums >= (np.outer(tile_rows, tile_cols) + 1) // 2).view(np.uint8)
    return bits.repeat(th, axis=1).repeat(tw, axis=2)[:, :h, :w]


KERNELS = {"omf": median_filter_overlap_stack, "nomf": nomf_stack}


def denoise(chunks: Iterable[tuple[int, np.ndarray]], name: str, n: int) -> Iterator[tuple]:
    """The denoise command: each (first index, stack) chunk of a recording
    filtered by KERNELS[name], as (first, output stack, report.csv rows)."""
    kernel = KERNELS[name]
    for first, chunk in chunks:
        out = kernel(chunk, n)
        yield first, out, [(i, int(np.count_nonzero(px)), int(np.count_nonzero(res)),
                            int(res.any())) for i, (px, res) in enumerate(zip(chunk, out), first)]


def median_filter_overlap(frame: BinaryFrame, spec: KernelSpec) -> BinaryFrame:
    """Stride-1 binary median with zero padding; output has the input's shape."""
    return BinaryFrame(median_filter_overlap_stack(frame.pixels[None], spec.n)[0])


def nomf(frame: BinaryFrame, spec: KernelSpec) -> BinaryFrame:
    """Non-overlapping median: one majority decision per disjoint n x n tile."""
    return BinaryFrame(nomf_stack(frame.pixels[None], spec.n)[0])


def apply_filter(frame: BinaryFrame, spec: KernelSpec, mode: StrideMode) -> BinaryFrame:
    if mode is StrideMode.OVERLAP:
        return median_filter_overlap(frame, spec)
    return nomf(frame, spec)

