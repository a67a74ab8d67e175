"""numpy's Generator streams, pinned bit for bit.

Every golden digest (GOLDEN_TREES, bench/golden.json and the calibration
pins) was recorded on the default_rng streams of numpy 2.4.6, and numpy does
not promise those streams across versions (NEP 19).  When a numpy moves them,
this test fails with one message naming the pinned version, where otherwise
every digest would fail at once.
"""

import numpy as np

PINNED_NUMPY = "2.4.6"
# the first draws of default_rng(0), as float.hex
PINNED_DRAWS = {
    "standard_normal": ["0x1.017ed89db8441p-3", "-0x1.0e8cfe9bd45ccp-3",
                        "0x1.47e57a468b06dp-1", "0x1.adabbec84d4f0p-4"],
    "random": ["0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2",
               "0x1.4fa7b529d9bd0p-5", "0x1.0ec9ed84d0bc0p-6"],
}


def test_default_rng_streams_match_the_pinned_numpy():
    got = {method: [float(x).hex() for x in getattr(np.random.default_rng(0), method)(4)]
           for method in PINNED_DRAWS}
    assert got == PINNED_DRAWS, (
        f"numpy {np.__version__} draws other default_rng(0) values than numpy {PINNED_NUMPY}, "
        "whose streams every golden digest was recorded on; run the tests with numpy "
        f"{PINNED_NUMPY}, as CI does")


def test_a_one_plane_normal_draw_is_the_first_plane_of_a_two_plane_draw():
    # a lottery's current plane is a prefix of its (2, h, w) draw, so a draw
    # of the current plane alone leaves every bit of it unchanged
    for seed in (0, 5, 17, 2**32 + 3):
        for h, w in ((1, 1), (3, 5), (9, 14), (180, 240)):
            one = np.random.default_rng(seed).standard_normal((1, h, w))[0]
            two = np.random.default_rng(seed).standard_normal((2, h, w))
            assert np.array_equal(one, two[0]), (seed, h, w)


def test_a_normal_draw_into_a_used_buffer_writes_the_bits_of_a_fresh_draw():
    # a lottery stream draws each lottery into the buffer of one two earlier,
    # which still holds that lottery's draws
    shapes = ((1, 1), (3, 5), (9, 14), (180, 240), (240, 320))
    buffers = {shape: np.random.default_rng(99).standard_normal((2, *shape)) for shape in shapes}
    for seed in (0, 5, 17, 2**32 + 3):
        for h, w in shapes:
            buf = buffers[h, w]
            fresh = np.random.default_rng(seed).standard_normal((2, h, w))
            assert np.random.default_rng(seed).standard_normal(out=buf) is buf
            assert np.array_equal(buf.view(np.uint64), fresh.view(np.uint64)), (seed, h, w)
