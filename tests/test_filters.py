import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from imfsim.errors import InvalidParamsError
from imfsim.filters import (
    KernelSpec,
    StrideMode,
    apply_filter,
    median_filter_overlap,
    median_filter_overlap_stack,
    nomf,
    nomf_stack,
)
from imfsim.frames import BinaryFrame
from imfsim.perf_model import rho_lambda_bound
from imfsim.sram_macro import CellVariation, DeviceParams, ber_pattern_sweep

small_frames = hnp.arrays(
    np.uint8,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24),
    elements=st.integers(0, 1),
)


def test_kernel_spec_thresholds():
    assert KernelSpec(3).threshold == 5
    assert KernelSpec(5).threshold == 13
    for bad in (0, 1, 2, 4, -3):
        with pytest.raises(InvalidParamsError):
            KernelSpec(bad)


@pytest.mark.parametrize(
    "count,n,expected",
    [(5, 3, 1), (4, 3, 0), (9, 3, 1), (0, 3, 0), (13, 5, 1), (12, 5, 0), (25, 5, 1)],
)
def test_patch_majority(count, n, expected):
    # one full n x n tile holding `count` ones; every placement votes alike
    tiles = np.zeros((3, n * n), dtype=np.uint8)
    tiles[0, :count] = 1
    tiles[1, n * n - count:] = 1
    tiles[2, np.random.default_rng(count).permutation(n * n)[:count]] = 1
    out = nomf_stack(tiles.reshape(3, n, n), n)
    assert (out == expected).all()


def test_patch_majority_rejects_out_of_range_counts():
    # the sweeps reject a ones count that no n x n patch can hold
    for k in (-1, 10):
        with pytest.raises(InvalidParamsError, match=f"k={k} impossible for n=3"):
            ber_pattern_sweep(3, k, DeviceParams(), CellVariation(), trials=1, patterns=1)
        with pytest.raises(InvalidParamsError, match=f"k={k} impossible for n=3"):
            rho_lambda_bound(k, 3)


def test_all_zero_frame_stays_zero():
    fr = BinaryFrame.zeros(17, 11)
    assert median_filter_overlap(fr, KernelSpec(3)) == fr
    assert nomf(fr, KernelSpec(3)) == fr


@given(st.integers(0, 19), st.integers(0, 19))
def test_overlap_removes_isolated_speck(y, x):
    px = np.zeros((20, 20), dtype=np.uint8)
    px[y, x] = 1
    out = median_filter_overlap(BinaryFrame(px), KernelSpec(3))
    assert out.popcount() == 0


def test_overlap_fills_isolated_hole():
    px = np.ones((7, 7), dtype=np.uint8)
    px[3, 3] = 0
    out = median_filter_overlap(BinaryFrame(px), KernelSpec(3))
    assert out.pixels[3, 3] == 1
    assert (out.pixels[1:6, 1:6] == 1).all()


def test_nomf_tile_votes():
    px = np.zeros((3, 3), dtype=np.uint8)
    px.flat[:5] = 1
    assert nomf(BinaryFrame(px), KernelSpec(3)).popcount() == 9
    px.flat[4] = 0  # four ones: below majority
    assert nomf(BinaryFrame(px), KernelSpec(3)).popcount() == 0


def test_nomf_partial_edge_tiles_vote_over_present_pixels():
    px = np.zeros((4, 4), dtype=np.uint8)
    px[:, 3] = 1   # 3x1 edge tile holds 3 ones, 1x1 corner tile holds 1
    px[3, 0] = 1   # 1x3 edge tile holds a single 1, below ceil(3/2) = 2
    out = nomf(BinaryFrame(px), KernelSpec(3))
    want = np.zeros((4, 4), dtype=np.uint8)
    want[:, 3] = 1
    assert np.array_equal(out.pixels, want)


@pytest.mark.parametrize("n,count,seed", [(3, 60, 11), (5, 40, 12)])
def test_filters_match_naive_oracles(n, count, seed):
    rng = np.random.default_rng(seed)
    spec = KernelSpec(n)
    for _ in range(count):
        w = int(rng.integers(1, 65))
        h = int(rng.integers(1, 65))
        px = (rng.random((h, w)) < rng.random()).astype(np.uint8)
        fr = BinaryFrame(px)
        assert np.array_equal(
            median_filter_overlap(fr, spec).pixels, oracles.median_overlap_naive(px, n)
        )
        assert np.array_equal(nomf(fr, spec).pixels, oracles.nomf_naive(px, n))


def test_apply_filter_dispatch():
    rng = np.random.default_rng(1)
    px = (rng.random((12, 15)) < 0.4).astype(np.uint8)
    fr = BinaryFrame(px)
    spec = KernelSpec(3)
    assert apply_filter(fr, spec, StrideMode.OVERLAP) == median_filter_overlap(fr, spec)
    assert apply_filter(fr, spec, StrideMode.NON_OVERLAP) == nomf(fr, spec)


@given(small_frames)
def test_nomf_is_idempotent(px):
    spec = KernelSpec(3)
    once = nomf(BinaryFrame(px), spec)
    assert nomf(once, spec) == once


@given(small_frames)
def test_nomf_output_constant_per_tile(px):
    out = nomf(BinaryFrame(px), KernelSpec(3)).pixels
    h, w = out.shape
    for y0 in range(0, h, 3):
        for x0 in range(0, w, 3):
            tile = out[y0 : y0 + 3, x0 : x0 + 3]
            assert tile.min() == tile.max()


@given(
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=20).flatmap(
        lambda s: st.tuples(
            hnp.arrays(np.uint8, s, elements=st.integers(0, 1)),
            hnp.arrays(np.uint8, s, elements=st.integers(0, 1)),
        )
    )
)
@settings(max_examples=30)
def test_filters_are_monotone(pair):
    lo, extra = pair
    hi = np.maximum(lo, extra)
    spec = KernelSpec(3)
    for fn in (median_filter_overlap, nomf):
        a = fn(BinaryFrame(lo), spec).pixels
        b = fn(BinaryFrame(hi), spec).pixels
        assert (a <= b).all()


@given(hnp.arrays(np.uint8, (12, 9), elements=st.integers(0, 1)))
def test_nomf_popcount_is_tile_multiple_when_dims_divide(px):
    out = nomf(BinaryFrame(px), KernelSpec(3))
    assert out.popcount() % 9 == 0


# ---------------------------------------------------------------------------
# frame-stack kernels
# ---------------------------------------------------------------------------

frame_stacks = hnp.arrays(
    np.uint8,
    st.tuples(st.integers(1, 3), st.integers(1, 17), st.integers(1, 17)),
    elements=st.integers(0, 1),
)


@given(frame_stacks, st.sampled_from([3, 5, 7]))
def test_stack_kernels_match_naive_oracles(stack, n):
    # shapes run from 1 to 17, so most are not multiples of n and have edge tiles
    got_nomf = nomf_stack(stack, n)
    got_omf = median_filter_overlap_stack(stack, n)
    assert got_nomf.shape == got_omf.shape == stack.shape
    assert got_nomf.dtype == got_omf.dtype == np.uint8
    for px, a, b in zip(stack, got_nomf, got_omf):
        assert np.array_equal(a, oracles.nomf_naive(px, n))
        assert np.array_equal(b, oracles.median_overlap_naive(px, n))


@given(frame_stacks, st.sampled_from([3, 5, 7]))
@settings(max_examples=25)
def test_per_frame_filters_are_their_kernels_on_a_stack_of_one(stack, n):
    spec = KernelSpec(n)
    for px in stack:
        frame = BinaryFrame(px)
        assert np.array_equal(nomf(frame, spec).pixels, nomf_stack(px[None], n)[0])
        assert np.array_equal(median_filter_overlap(frame, spec).pixels,
                              median_filter_overlap_stack(px[None], n)[0])


def test_stack_kernels_count_past_255_for_large_kernels():
    # 17 x 17 = 289 ones in a window: in uint8 the count would wrap to 33
    px = np.ones((1, 20, 20), dtype=np.uint8)
    assert nomf_stack(px, 17).all()
    assert median_filter_overlap_stack(px, 17)[0, 8:12, 8:12].all()  # windows inside


def test_stack_kernels_count_past_65535_for_frame_sized_kernels():
    # a 240 x 301 tile of a full 240 x 320 frame holds 72,240 ones: past uint16
    px = np.ones((1, 240, 320), dtype=np.uint8)
    assert nomf_stack(px, 301).all()
    r = 150
    spans = [np.minimum(size - 1, np.arange(size) + r) - np.maximum(0, np.arange(size) - r) + 1
             for size in (240, 320)]                # window rows and columns inside the frame
    want = np.outer(*spans) >= (301 * 301 + 1) // 2
    assert np.array_equal(median_filter_overlap_stack(px, 301)[0], want)
    assert 0 < want.sum() < want.size
