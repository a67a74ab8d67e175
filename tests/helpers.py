"""Shared test utilities: random frames, event arrays from columns, on-disk
fixtures, CLI invocation, the macro kernel on a lottery stream of its own."""

from contextlib import closing
from itertools import repeat
from pathlib import Path

import numpy as np

from imfsim.cli import main
from imfsim.frames import EVENT_DTYPE, BinaryFrame, write_pbm
from imfsim.sram_macro import filter_in_memory_stack, lottery_stream


def random_frame(rng, width, height, p=0.5) -> BinaryFrame:
    return BinaryFrame((rng.random((height, width)) < p).astype(np.uint8))


def event_array(t, x, y, polarity) -> np.ndarray:
    """An EVENT_DTYPE array from its four columns."""
    events = np.empty(len(t), EVENT_DTYPE)
    events["t"], events["x"], events["y"], events["polarity"] = t, x, y, polarity
    return events


def write_frames_dir(frames, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for i, fr in enumerate(frames):
        write_pbm(fr, directory / f"frame_{i:05d}.pbm")
    return directory


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def tree_bytes(root: Path) -> dict:
    """Map of relative path -> file bytes for every file under root."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def filter_stack(frames, first_seed, device, variation, n):
    """filter_in_memory_stack, the simulate kernel, on a lottery stream of its
    own, seeded first_seed: the (frames, rows, cols) stack filtered in place;
    its report rows."""
    with closing(lottery_stream(repeat(frames.shape[1:]), first_seed)) as lotteries:
        return filter_in_memory_stack(frames, lotteries, device, variation, n)
