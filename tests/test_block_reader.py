"""Properties of the one block reader behind frame dumps and grid stores.

Any frame count, frame shape, window start and ``_CHUNK_FRAMES`` value gives
blocks that equal slices of the written array, read through one reused
buffer; a file cut at any byte after its size was checked fails the read
with an error naming the file and the first frame it no longer holds.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyppg import SubregionGrid, session
from bodyppg.session import (
    FrameDump,
    extract_traces,
    open_grid_store,
    read_frame_dump,
    write_frame_dump,
    write_grid,
)

DUMP_HEADER_BYTES, GRID_HEADER_BYTES = 32, 16


def _address(block: np.ndarray) -> int:
    return block.__array_interface__["data"][0]


@st.composite
def _frames(draw) -> np.ndarray:
    """Planar uint8 frames of any count and size."""
    shape = (draw(st.integers(1, 12)), 3, draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


@st.composite
def _grid(draw) -> SubregionGrid:
    """Cell means of any frame count and cell layout."""
    n, rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SubregionGrid(rng.uniform(0.0, 255.0, (n, rows, cols, 3)), 30.0, 2.0, (3, 5), 20,
                         rng.uniform(0.0, 1.0, (rows, cols)))


def _short_read(path, payload: str, missing: int) -> str:
    return (re.escape(f"{path}: truncated {payload}: read ") + r"\d+ of \d+ bytes of frames "
            + r"\d+ to \d+; " + re.escape(f"frame {missing} is missing"))


@settings(max_examples=60, deadline=None)
@given(frames=_frames(), chunk=st.integers(1, 14))
def test_dump_blocks_are_slices_through_one_buffer(tmp_path_factory, frames, chunk):
    path = tmp_path_factory.mktemp("dump") / "f.rfd"
    write_frame_dump(path, frames, 90.0)
    dump, fps = read_frame_dump(path)
    seen = []

    def spy(size):
        for block in FrameDump.blocks(dump, size):
            seen.append((block.copy(), _address(block)))
            yield block

    dump.blocks = spy
    n, _, h, w = frames.shape
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session, "_CHUNK_FRAMES", chunk)
        traces = extract_traces(dump, fps, {"all": np.ones((h, w), dtype=bool)})
    starts = range(0, n, chunk)
    assert len(seen) == len(starts)
    for start, (block, _) in zip(starts, seen):
        assert np.array_equal(block, frames[start : start + chunk])
    assert len({address for _, address in seen}) == 1
    sums = frames.reshape(n, 3, h * w).sum(axis=2, dtype=np.int64)
    assert np.array_equal(traces["all"].channel_matrix(), sums / (h * w))


@settings(max_examples=60, deadline=None)
@given(grid=_grid(), data=st.data())
def test_grid_windows_are_slices_through_one_buffer(tmp_path_factory, grid, data):
    root = tmp_path_factory.mktemp("grid")
    write_grid(root / "g.rgm", root / "g.json", grid)
    store = open_grid_store(root / "g.rgm", root / "g.json")
    n_frames = len(grid.values)
    size = data.draw(st.integers(1, n_frames + 2), label="size")
    starts = data.draw(st.lists(st.integers(0, n_frames - 1), max_size=8), label="starts")
    addresses = set()
    windows = zip(store.windows(starts, size), grid.windows(starts, size), strict=True)
    for got, want in windows:
        # Past the last frame a window is cut short, as SubregionGrid.windows cuts it.
        assert got.values.tobytes() == want.values.tobytes()
        assert got.start_time_s == want.start_time_s
        addresses.add(_address(got.values))
    assert len(addresses) <= 1


@settings(max_examples=60, deadline=None)
@given(frames=_frames(), chunk=st.integers(1, 14), data=st.data())
def test_dump_cut_after_its_check_names_the_first_missing_frame(tmp_path_factory, frames,
                                                                chunk, data):
    path = tmp_path_factory.mktemp("cut_dump") / "f.rfd"
    write_frame_dump(path, frames, 90.0)
    dump, _ = read_frame_dump(path)
    whole = path.read_bytes()
    cut = data.draw(st.integers(0, len(whole) - 1), label="cut")
    path.write_bytes(whole[:cut])
    missing = max(0, cut - DUMP_HEADER_BYTES) // frames[0].nbytes
    with pytest.raises(ValueError, match=_short_read(path, "frame data", missing)):
        list(dump.blocks(chunk))
    # Opened again, the cut file fails its size check, which names the same frame.
    incomplete = (f"; frame {missing}, starting at byte "
                  f"{DUMP_HEADER_BYTES + missing * frames[0].nbytes}, is incomplete")
    header_cut = cut < DUMP_HEADER_BYTES
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*"
                       + ("header|magic" if header_cut else re.escape(incomplete) + "$")):
        read_frame_dump(path)


@settings(max_examples=60, deadline=None)
@given(grid=_grid(), data=st.data())
def test_grid_cut_after_its_check_names_the_first_missing_frame(tmp_path_factory, grid, data):
    root = tmp_path_factory.mktemp("cut_grid")
    write_grid(root / "g.rgm", root / "g.json", grid)
    store = open_grid_store(root / "g.rgm", root / "g.json")
    whole = (root / "g.rgm").read_bytes()
    cut = data.draw(st.integers(0, len(whole) - 1), label="cut")
    (root / "g.rgm").write_bytes(whole[:cut])
    n_frames = len(grid.values)
    size = data.draw(st.integers(1, n_frames), label="size")
    missing = max(0, cut - GRID_HEADER_BYTES) // grid.values[0].nbytes
    with pytest.raises(ValueError, match=_short_read(root / "g.rgm", "grid values", missing)):
        list(store.windows(range(0, n_frames, size), size))
