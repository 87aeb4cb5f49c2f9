import json
import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference
from bodyppg import PoseKeypoints, PulseRateSeries, RGBTrace, SubregionGrid, Waveform, session
from bodyppg.grid import DEFAULT_CELL_PX
from bodyppg.session import (
    RATE_TOLERANCE,
    SessionManifest,
    extract_traces,
    open_grid_store,
    read_frame_dump,
    read_grid,
    read_oximeter_csv,
    read_pgm,
    read_poses_json,
    read_rate_csv,
    read_sensor_csv,
    read_trace_csv,
    read_waveform_csv,
    write_csv,
    write_frame_dump,
    write_grid,
    write_oximeter_csv,
    write_pgm,
    write_rate_csv,
    write_sensor_csv,
    write_trace_csv,
    write_waveform_csv,
)
from bodyppg.synthetic_session import SyntheticSessionConfig, build_synthetic_session


def _flat_trace(n: int) -> RGBTrace:
    return RGBTrace(*(Waveform(np.full(n, 1.5), 90.0) for _ in range(3)))


class TestWaveformCsv:
    """Uniformly sampled CSVs; a trace CSV checks the rate its manifest declares."""

    def test_round_trip(self, tmp_path):
        w = Waveform(np.sin(np.arange(400) / 7.0), 90.0, start_time_s=2.0)
        path = tmp_path / "w.csv"
        write_waveform_csv(path, w)
        back = read_waveform_csv(path)
        assert np.allclose(back.samples, w.samples, atol=1e-9)
        assert back.sample_rate_hz == pytest.approx(90.0, rel=1e-9)
        assert back.start_time_s == pytest.approx(2.0)

    def test_rate_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(path, _flat_trace(100))
        with pytest.raises(ValueError, match="declared"):
            read_trace_csv(path, declared_rate_hz=60.0)
        write_oximeter_csv(path, np.arange(60) / 60.0, np.full(60, 72.0))
        with pytest.raises(ValueError, match="declared"):
            read_oximeter_csv(path, declared_rate_hz=90.0)

    def test_nan_declared_rate_rejected(self, tmp_path):
        # Every comparison with NaN is false, so a check written as "deviates
        # by more than" would accept any stream.
        path = tmp_path / "oximeter.csv"
        write_oximeter_csv(path, np.arange(60) / 60.0, np.full(60, 72.0))
        with pytest.raises(ValueError, match=re.escape(f"{path}: inferred sample rate 60 Hz")):
            read_oximeter_csv(path, declared_rate_hz=float("nan"))

    def test_within_tolerance_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(path, _flat_trace(1000))
        back = read_trace_csv(path, declared_rate_hz=90.005)
        assert back.r.sample_rate_hz == 90.005

    @settings(max_examples=100, deadline=None)
    @given(
        samples=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300),
        rate=st.floats(1.0, 1000.0),
        start=st.floats(0.0, 3600.0),
    )
    def test_round_trip_property(self, tmp_path_factory, samples, rate, start):
        w = Waveform(np.asarray(samples), rate, start_time_s=start)
        path = tmp_path_factory.mktemp("waveform") / "w.csv"
        write_waveform_csv(path, w)
        back = read_waveform_csv(path)
        assert len(back) == len(w)
        assert back.start_time_s == float("%.12g" % start)
        assert back.samples.tolist() == [float("%.12g" % x) for x in samples]
        assert abs(back.sample_rate_hz - rate) <= RATE_TOLERANCE * rate


class TestOtherCsv:
    def test_sensor_channels(self, tmp_path):
        t = np.arange(100) / 400.0
        red = np.sin(t)
        ir = np.cos(t)
        path = tmp_path / "s.csv"
        np.savetxt(
            path,
            np.column_stack([t, red, ir]),
            delimiter=",",
            header="time_s,red,ir",
            comments="",
        )
        assert np.allclose(read_sensor_csv(path, "ir").samples, ir, atol=1e-6)
        assert np.allclose(read_sensor_csv(path, "red").samples, red, atol=1e-6)
        with pytest.raises(ValueError):
            read_sensor_csv(path, "green")

    def test_oximeter_ignores_spo2(self, tmp_path):
        t = np.arange(60) / 60.0
        path = tmp_path / "ox.csv"
        np.savetxt(
            path,
            np.column_stack([t, np.full(60, 72.0), np.full(60, 98.0)]),
            delimiter=",",
            header="time_s,bpm,spo2",
            comments="",
        )
        series = read_oximeter_csv(path, declared_rate_hz=60.0)
        assert np.all(series.rates_bpm == 72.0)

    def test_rate_series_round_trip(self, tmp_path):
        series = PulseRateSeries(
            np.array([5.0, 6.0, 7.0]), np.array([70.0, 71.0, 72.0]), 10.0, (40.0, 180.0), 2
        )
        path = tmp_path / "r.csv"
        write_rate_csv(path, series)
        back = read_rate_csv(path)
        assert np.allclose(back.rates_bpm, series.rates_bpm)
        assert back.window_length_s == 10.0
        assert back.band_bpm == (40.0, 180.0)
        assert back.n_skipped == 2

    @pytest.mark.parametrize("token, problem", [
        ("band_bpm=40", "could not convert string to float: ''"),
        ("window_length_s=ten", "could not convert string to float: 'ten'"),
    ])
    def test_bad_rate_metadata_names_file_and_token(self, tmp_path, token, problem):
        path = tmp_path / "r.csv"
        path.write_text(f"time_s,bpm\n# n_skipped=0 {token}\n1,70\n2,71\n")
        with pytest.raises(ValueError) as info:
            read_rate_csv(path)
        assert str(info.value) == f"{path}: bad metadata token {token!r}: {problem}"

    @pytest.mark.parametrize("rows, problem", [
        ("1,70\n1,71\n", "entry times must be strictly increasing"),
        ("1,70\n2,200\n", "rates fall outside the stated band (40.0, 180.0)"),
    ])
    def test_bad_rate_series_names_file(self, tmp_path, rows, problem):
        path = tmp_path / "r.csv"
        path.write_text(f"time_s,bpm\n# band_bpm=40:180\n{rows}")
        with pytest.raises(ValueError) as info:
            read_rate_csv(path)
        assert str(info.value) == f"{path}: {problem}"

    def test_trace_round_trip(self, tmp_path):
        n = 200
        rng = np.random.default_rng(0)
        trace = RGBTrace(
            Waveform(rng.uniform(0.4, 0.6, n), 90.0),
            Waveform(rng.uniform(0.4, 0.6, n), 90.0),
            Waveform(rng.uniform(0.4, 0.6, n), 90.0),
            roi_label="face",
        )
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        back = read_trace_csv(path, roi_label="face", declared_rate_hz=90.0)
        assert np.allclose(back.channel_matrix(), trace.channel_matrix(), atol=1e-9)


_UNIFORM_READERS = {
    "sensor": (lambda path, t: write_sensor_csv(path, t, np.sin(t), np.cos(t)), read_sensor_csv),
    "trace": (lambda path, t: write_trace_csv(path, _flat_trace(len(t))), read_trace_csv),
    "waveform": (lambda path, t: write_waveform_csv(path, Waveform(np.sin(t), 90.0)),
                 read_waveform_csv),
}


class TestHeaderOnlyCsv:
    """A CSV with no data rows is a ValueError naming the file, raised before
    numpy's loadtxt warns of empty input and finds one column."""

    @pytest.mark.parametrize("read, text", [
        (read_sensor_csv, "time_s,red,ir\n"),
        (read_trace_csv, "time_s,r,g,b\n"),
        (read_oximeter_csv, "time_s,bpm,spo2\n\n"),
        (read_rate_csv, "time_s,bpm\n# window_length_s=10 band_bpm=40:180 n_skipped=0\n"),
        (read_waveform_csv, "time_s,value\n"),
        (read_waveform_csv, ""),
    ], ids=["sensor", "trace", "oximeter", "rate", "waveform", "empty"])
    def test_rejected_without_a_warning(self, tmp_path, read, text):
        path = tmp_path / "hdr.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no data rows below "
                                                 "the header$"):
                read(path)


class TestTimeColumn:
    """Every interval of a uniform stream is checked on its first parse; the
    error names the file and the first bad line, the header being line 1."""

    @staticmethod
    def damaged(tmp_path, kind, damage):
        write, read = _UNIFORM_READERS[kind]
        path = tmp_path / f"{kind}.csv"
        write(path, np.arange(100) / 90.0)
        lines = path.read_text().splitlines(keepends=True)
        damage(lines)
        path.write_text("".join(lines))
        return lambda: read(path)

    @pytest.mark.parametrize("kind", sorted(_UNIFORM_READERS))
    def test_swapped_rows_rejected_at_the_first_long_step(self, tmp_path, kind):
        def swap(lines):
            lines[10], lines[11] = lines[11], lines[10]

        read = self.damaged(tmp_path, kind, swap)
        wanted = (rf"{kind}\.csv, line 11: time_s 0\.111111111111 follows 0\.0888888888889 "
                  r"on the line before; intervals must be within 0\.1% of the median "
                  r"0\.0111111 s$")
        with pytest.raises(ValueError, match=wanted):
            read()

    @pytest.mark.parametrize("kind", sorted(_UNIFORM_READERS))
    def test_repeated_row_rejected(self, tmp_path, kind):
        def repeat(lines):
            lines[51] = lines[50]

        read = self.damaged(tmp_path, kind, repeat)
        wanted = rf"{kind}\.csv, line 52: .* on the line before; timestamps must increase$"
        with pytest.raises(ValueError, match=wanted):
            read()

    @pytest.mark.parametrize("kind", sorted(_UNIFORM_READERS))
    def test_dropped_rows_named_at_the_gap(self, tmp_path, kind):
        def drop(lines):
            del lines[20:25]

        read = self.damaged(tmp_path, kind, drop)
        with pytest.raises(ValueError, match=rf"{kind}\.csv, line 21: time_s 0\.266666666667 "):
            read()

    def test_line_counts_blank_and_comment_lines(self, tmp_path):
        def repeat_after_skipped_lines(lines):
            lines[51] = lines[50]
            lines[5:5] = ["\n", "# a note\n"]

        read = self.damaged(tmp_path, "sensor", repeat_after_skipped_lines)
        with pytest.raises(ValueError, match=r"sensor\.csv, line 54: .* timestamps must increase$"):
            read()

    def test_small_jitter_accepted(self, tmp_path):
        t = np.arange(100) / 400.0
        t[1:-1] += np.random.default_rng(3).uniform(-1e-7, 1e-7, 98)  # 0.004% of 2.5 ms
        write_sensor_csv(tmp_path / "s.csv", t, np.sin(t), np.cos(t))
        assert read_sensor_csv(tmp_path / "s.csv").sample_rate_hz == pytest.approx(400.0)

    def test_oximeter_may_step_irregularly_but_must_increase(self, tmp_path):
        path = tmp_path / "ox.csv"
        t = np.cumsum(np.random.default_rng(4).uniform(0.01, 0.03, 60))
        write_oximeter_csv(path, t, np.full(60, 72.0))
        assert read_oximeter_csv(path).times_s.tolist() == _as_written(t).tolist()
        t[30] = t[29]
        write_oximeter_csv(path, t, np.full(60, 72.0))
        with pytest.raises(ValueError, match=r"ox\.csv, line 32: .* timestamps must increase$"):
            read_oximeter_csv(path)


class TestWriteCsvOracle:
    """write_csv writes the bytes np.savetxt writes, block by block, with %d
    for integer columns and %.12g for the others."""

    @staticmethod
    def _assert_savetxt_bytes(tmp_path, columns, header="", fmt="%.12g"):
        write_csv(tmp_path / "block.csv", columns, header)
        np.savetxt(tmp_path / "rows.csv", np.column_stack(columns), delimiter=",",
                   header=header, comments="", fmt=fmt)
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_special_floats(self, tmp_path):
        values = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.7976931348623157e308,
                           1 / 3, 123456789012.5, 1e-13])
        self._assert_savetxt_bytes(tmp_path, [values, values[::-1]], "a,b")

    def test_integer_formats_and_blocks_of_columns(self, tmp_path):
        rng = np.random.default_rng(0)
        block = rng.normal(0.0, 1e3, (50, 3))
        ints = rng.integers(-10**6, 10**6, 50)
        self._assert_savetxt_bytes(tmp_path, [np.arange(50) / 90.0, ints, ints // 2, block],
                                   "t,i,j,r,g,b", fmt=["%.12g", "%d", "%d", "%.12g", "%.12g", "%.12g"])
        self._assert_savetxt_bytes(tmp_path, [ints * 2.0, ints.astype(np.uint8)], "x,i",
                                   fmt=["%.12g", "%d"])
        self._assert_savetxt_bytes(tmp_path, [rng.integers(0, 9, (4, 5))], fmt="%d")

    @pytest.mark.parametrize("header", ["", "time_s,value"])
    def test_no_rows(self, tmp_path, header):
        self._assert_savetxt_bytes(tmp_path, [np.empty(0), np.empty(0)], header)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_boundaries(self, tmp_path, offset):
        n = session._CSV_BLOCK_ROWS + offset
        rng = np.random.default_rng(n)
        self._assert_savetxt_bytes(tmp_path, [np.arange(n) / 400.0, rng.standard_normal(n)], "t,x")

    @pytest.mark.parametrize("block_rows", [1, 2, 7])
    def test_many_small_blocks(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(session, "_CSV_BLOCK_ROWS", block_rows)
        values = np.random.default_rng(block_rows).standard_normal((20, 2))
        self._assert_savetxt_bytes(tmp_path, [values], "x,y")


def _float_from_bits(bits: int) -> float:
    return float(np.array(bits, np.uint64).view(np.float64))


def _ulps_away(x: float, k: int) -> float:
    return float((np.array(x).view(np.int64) + k).view(np.float64))


# Decades of fixed notation (-4 to 11) and their neighbours.
_DECADES = st.integers(-6, 13)
_NEARBY = st.integers(-3, 3)
_FLOAT_CASES = st.one_of(
    st.integers(0, 2**64 - 1).map(_float_from_bits),  # any bit pattern
    st.integers(1, 2**52 - 1).map(lambda m: _float_from_bits(0x7FF0_0000_0000_0000 | m)),  # NaNs
    st.integers(1, 2**52 - 1).map(_float_from_bits),  # subnormals
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]),
    # Values that round to 12 digits across a power of ten, and those next to them.
    st.tuples(_DECADES, st.integers(-2**20, 2**20)).map(lambda t: _ulps_away(10.0 ** t[0], t[1])),
    # The nearest floats to ties at the 13th significant digit, 999999999999.5
    # (which rounds into the next decade) among them.
    st.tuples(st.just(10**12 - 1) | st.integers(10**11, 10**12 - 1), _DECADES, _NEARBY).map(
        lambda t: _ulps_away((t[0] + 0.5) * 10.0 ** (t[1] - 11), t[2])),
    st.floats(-1e15, 1e15),
)


@st.composite
def _tables(draw):
    """Columns of floats, float32s, int64s and uint8s, 1-D or 2-D blocks of
    columns, in any order, with any number of rows (none too)."""
    n = draw(st.integers(0, 24))
    kinds = draw(st.lists(st.sampled_from(["float", "float32", "int64", "uint8"]), min_size=1,
                          max_size=4))
    # Stacked beside floats, the loop's integers pass through float64, so
    # only those within 2**53 are written exactly there.
    low, high = (-2**53, 2**53) if {"float", "float32"} & set(kinds) else (-2**63, 2**63 - 1)
    columns = []
    for kind in kinds:
        shape = (n,) if draw(st.booleans()) else (n, draw(st.integers(0, 3)))
        size = int(np.prod(shape))
        if kind == "float":
            values = draw(st.lists(_FLOAT_CASES, min_size=size, max_size=size))
            columns.append(np.array(values, np.float64).reshape(shape))
        elif kind == "float32":
            values = draw(st.lists(st.floats(width=32), min_size=size, max_size=size))
            columns.append(np.array(values, np.float32).reshape(shape))
        elif kind == "int64":
            values = draw(st.lists(st.integers(low, high), min_size=size, max_size=size))
            columns.append(np.array(values, np.int64).reshape(shape))
        else:
            values = draw(st.lists(st.integers(0, 255), min_size=size, max_size=size))
            columns.append(np.array(values, np.uint8).reshape(shape))
    return columns


class TestWriteCsvLoopOracle:
    """The digit tables write the bytes that one ``%`` per value writes
    (``loop_reference.write_csv``), over any float64 bit pattern, integer
    columns, mixed tables and block boundaries."""

    @staticmethod
    def _assert_loop_bytes(directory, columns, header=""):
        write_csv(directory / "tables.csv", columns, header)
        loop_reference.write_csv(directory / "loop.csv", columns, header)
        assert (directory / "tables.csv").read_bytes() == (directory / "loop.csv").read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_FLOAT_CASES, min_size=1, max_size=64), width=st.integers(1, 4))
    def test_float_bit_patterns(self, tmp_path_factory, values, width):
        values = np.array(values + [0.0] * (-len(values) % width)).reshape(-1, width)
        self._assert_loop_bytes(tmp_path_factory.mktemp("csv"), [values], "x")

    @settings(max_examples=150, deadline=None)
    @given(columns=_tables(), header=st.sampled_from(["", "a,b", "h\n# note=1"]),
           block_values=st.integers(1, 9), block_rows=st.integers(1, 9))
    def test_tables_across_block_boundaries(self, tmp_path_factory, columns, header,
                                            block_values, block_rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(session, "_CSV_BLOCK_VALUES", block_values)
            mp.setattr(session, "_CSV_BLOCK_ROWS", block_rows)
            self._assert_loop_bytes(tmp_path_factory.mktemp("csv"), columns, header)

    def test_extreme_integers(self, tmp_path):
        ints = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 10**4, -10**16])
        self._assert_loop_bytes(tmp_path, [ints, ints[::-1].reshape(-1, 1)], "i,j")

    def test_columns_of_no_width(self, tmp_path):
        self._assert_loop_bytes(tmp_path, [np.empty((3, 0))], "none")

    def test_wide_map_blocks_hold_a_bounded_number_of_values(self, tmp_path, monkeypatch):
        # A 400-column map is spelled ten rows at a time, not 1,024.
        sizes = []
        spell = session._csv_text

        def counted(parts, integer):
            sizes.append(sum(p.size for p in parts))
            return spell(parts, integer)

        monkeypatch.setattr(session, "_csv_text", counted)
        rng = np.random.default_rng(4)
        values = rng.uniform(0.0, 30.0, (300, 400))
        values[rng.random(values.shape) < 0.3] = np.nan
        self._assert_loop_bytes(tmp_path, [values])
        assert max(sizes) <= session._CSV_BLOCK_VALUES and sum(sizes) == values.size

    def test_session_files_equal_those_of_the_loop(self, tmp_path, monkeypatch):
        cfg = SyntheticSessionConfig(seed=3, duration_s=12.0, grid_rows=3, grid_cols=4)
        build_synthetic_session(tmp_path / "tables", cfg)
        monkeypatch.setattr(session, "write_csv", loop_reference.write_csv)
        build_synthetic_session(tmp_path / "loop", cfg)
        files = sorted(p.relative_to(tmp_path / "tables")
                       for p in (tmp_path / "tables").rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(tmp_path / "loop")
                               for p in (tmp_path / "loop").rglob("*") if p.is_file())
        assert len([f for f in files if f.suffix == ".csv"]) >= 10
        for f in files:
            assert (tmp_path / "tables" / f).read_bytes() == (tmp_path / "loop" / f).read_bytes(), f


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).ravel().tolist()


def _as_written(values) -> np.ndarray:
    """The values a ``%.12g`` CSV round trip gives, one ``%`` at a time."""
    values = np.asarray(values, dtype=np.float64)
    return np.array([float("%.12g" % v) for v in values.ravel().tolist()]).reshape(values.shape)


def _write_grid_store(tmp_path, n_frames=4, rows=2, cols=3):
    rng = np.random.default_rng(5)
    grid = SubregionGrid(
        rng.uniform(0.2, 0.8, (n_frames, rows, cols, 3)), 30.0, 1.5, (4, 8), 20,
        rng.uniform(0.0, 1.0, (rows, cols)),
    )
    write_grid(tmp_path / "grid.rgm", tmp_path / "grid.json", grid)
    return grid


def _read_grid_store(tmp_path):
    return read_grid(tmp_path / "grid.rgm", tmp_path / "grid.json")


def _edit_grid_meta(tmp_path, key, value):
    import json

    meta_path = tmp_path / "grid.json"
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    return meta_path, meta


class TestGridCsv:
    """The grid store keeps what the grid CSV it replaced guaranteed, whole
    frames at frame times that increase, and holds the written values exactly."""

    def test_round_trip(self, tmp_path):
        grid = _write_grid_store(tmp_path)
        back = _read_grid_store(tmp_path)
        assert back.values.shape == (4, 2, 3, 3)
        assert _bits(back.values) == _bits(grid.values)
        np.testing.assert_array_equal(back.skin_fraction, grid.skin_fraction)
        assert (back.sample_rate_hz, back.start_time_s) == (30.0, 1.5)
        assert (back.origin_px, back.cell_px) == ((4, 8), 20)
        assert (tmp_path / "grid.rgm").stat().st_size == 16 + 4 * 2 * 3 * 3 * 8

    def test_short_file_names_the_incomplete_frame(self, tmp_path):
        _write_grid_store(tmp_path)
        path = tmp_path / "grid.rgm"
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match=r"grid\.rgm: truncated grid values: the file has "
                           r"582 bytes, but its header declares 4 frames of 2x3x3 float64, "
                           r"592 bytes with the header; frame 3, starting at byte 448, "
                           r"is incomplete$"):
            _read_grid_store(tmp_path)

    def test_frame_times_must_increase(self, tmp_path):
        # Frame i is at start_time_s + i / sample_rate_hz of the meta file.
        _write_grid_store(tmp_path)
        for fps in [0.0, -30.0, float("nan"), float("inf")]:
            meta_path, _ = _edit_grid_meta(tmp_path, "sample_rate_hz", fps)
            wanted = re.escape(f"{meta_path}: sample_rate_hz {fps} must be finite and "
                               "positive, or the frame times of the grid do not increase")
            with pytest.raises(ValueError, match=wanted):
                _read_grid_store(tmp_path)


class TestGridStore:
    """Grid stores hold the header's frames of cells, as the meta file's rows x cols."""

    def test_old_csv_grid_rejected(self, tmp_path):
        _write_grid_store(tmp_path)
        (tmp_path / "grid.rgm").write_text("time_s,row,col,r,g,b\n1.5,0,0,0.5,0.5,0.5\n")
        with pytest.raises(ValueError, match=r"grid\.rgm: bad grid-store magic b'time'.*"
                           r"re-run `bodyppg synth`"):
            _read_grid_store(tmp_path)

    def test_truncated_header_rejected(self, tmp_path):
        _write_grid_store(tmp_path)
        path = tmp_path / "grid.rgm"
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match=r"grid\.rgm: truncated grid-store header"):
            _read_grid_store(tmp_path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _write_grid_store(tmp_path)
        path = tmp_path / "grid.rgm"
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match=r"grid\.rgm: trailing bytes: the file has 600 "
                           r"bytes, but its header declares 4 frames[^;]*$"):
            _read_grid_store(tmp_path)

    @pytest.mark.parametrize("key, value", [("rows", 3), ("cols", 2)])
    def test_shape_must_match_the_meta(self, tmp_path, key, value):
        _write_grid_store(tmp_path)
        meta_path, meta = _edit_grid_meta(tmp_path, key, value)
        wanted = (re.escape(f"{tmp_path / 'grid.rgm'}: the header declares 2x3 cells, but ")
                  + re.escape(f"{meta_path} declares {meta['rows']}x{meta['cols']}"))
        with pytest.raises(ValueError, match=wanted):
            _read_grid_store(tmp_path)


class TestGridSidecar:
    """A bad sidecar is named with the key at fault."""

    @pytest.mark.parametrize("key", ["rows", "cols", "cell_px", "origin_px", "sample_rate_hz",
                                     "start_time_s", "skin_fraction"])
    def test_missing_key_named(self, tmp_path, key):
        _write_grid_store(tmp_path)
        meta_path = tmp_path / "grid.json"
        meta = json.loads(meta_path.read_text())
        del meta[key]
        meta_path.write_text(json.dumps(meta))
        wanted = re.escape(f"{meta_path}: the grid sidecar has no key {key!r}")
        with pytest.raises(ValueError, match=wanted):
            _read_grid_store(tmp_path)

    @pytest.mark.parametrize("skin", [[[0.5, 0.5, 0.5]], [[0.5, 0.5]] * 3, [0.5] * 6,
                                      [[0.5, 0.5, 0.5], [0.5, 0.5]], 0.5, [["a", 0.5, 0.5]] * 2],
                             ids=["one-row", "transposed", "flat", "ragged", "scalar", "text"])
    def test_skin_fraction_of_another_shape_named(self, tmp_path, skin):
        _write_grid_store(tmp_path)
        meta_path, _ = _edit_grid_meta(tmp_path, "skin_fraction", skin)
        wanted = re.escape(f"{meta_path}: skin_fraction must be a 2x3 array of numbers")
        with pytest.raises(ValueError, match=wanted):
            _read_grid_store(tmp_path)

    @pytest.mark.parametrize("key, value, wanted", [
        ("cell_px", 0, "cell_px 0 must be an integer of at least 1"),
        ("cell_px", "20", "cell_px '20' must be an integer of at least 1"),
        ("origin_px", [4], "origin_px [4] must be two integers"),
        ("start_time_s", None, "start_time_s None must be a finite number"),
        ("sample_rate_hz", "30", "sample_rate_hz 30 must be finite and positive"),
    ])
    def test_bad_value_named(self, tmp_path, key, value, wanted):
        _write_grid_store(tmp_path)
        meta_path, _ = _edit_grid_meta(tmp_path, key, value)
        with pytest.raises(ValueError, match=re.escape(f"{meta_path}: {wanted}")):
            _read_grid_store(tmp_path)

    def test_not_json_named(self, tmp_path):
        _write_grid_store(tmp_path)
        (tmp_path / "grid.json").write_text("{")
        with pytest.raises(ValueError, match=r"grid\.json: not a JSON grid sidecar"):
            _read_grid_store(tmp_path)


class TestGridWindows:
    """The store is checked once and read one window of frames at a time."""

    def test_windows_equal_slices_of_the_whole_grid(self, tmp_path):
        _write_grid_store(tmp_path, n_frames=9)
        whole = _read_grid_store(tmp_path)
        store = open_grid_store(tmp_path / "grid.rgm", tmp_path / "grid.json")
        assert (store.n_frames, store.rows, store.cols) == (9, 2, 3)
        assert (store.sample_rate_hz, store.origin_px, store.cell_px) == (30.0, (4, 8), 20)
        starts = [0, 2, 5, 1]
        buffers = set()
        for start, window in zip(starts, store.windows(starts, 4)):
            want = whole.values[start : start + 4]
            assert _bits(window.values) == _bits(want)
            assert window.start_time_s == 1.5 + start / 30.0
            np.testing.assert_array_equal(window.skin_fraction, whole.skin_fraction)
            buffers.add(window.values.__array_interface__["data"][0])
        assert len(buffers) == 1  # one buffer, reused

    def test_store_shrunk_after_its_check_names_the_missing_frame(self, tmp_path):
        _write_grid_store(tmp_path, n_frames=9)
        store = open_grid_store(tmp_path / "grid.rgm", tmp_path / "grid.json")
        path = tmp_path / "grid.rgm"
        path.write_bytes(path.read_bytes()[: 16 + 6 * 144 + 50])  # frame 6 is partial
        windows = store.windows([0, 4], 4)
        next(windows)
        wanted = re.escape(f"{path}: truncated grid values: read 338 of 576 bytes of frames "
                           "4 to 7; frame 6 is missing")
        with pytest.raises(ValueError, match=wanted):
            next(windows)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.25])
    def test_bad_cell_mean_names_the_frame_and_cell(self, tmp_path, value):
        grid = _write_grid_store(tmp_path, n_frames=9)
        values = grid.values.copy()
        values[6, 1, 2, 1] = value
        values[8, 0, 0, 0] = value
        write_grid(tmp_path / "grid.rgm", tmp_path / "grid.json", replace(grid, values=values))
        wanted = re.escape(f"{tmp_path / 'grid.rgm'}: frame 6, cell (1, 2) has a G mean of "
                           f"{value!r}; cell means must be finite and non-negative")
        store = open_grid_store(tmp_path / "grid.rgm", tmp_path / "grid.json")
        assert len(list(store.windows([0], 6))) == 1  # frames before 6 are sound
        with pytest.raises(ValueError, match=wanted):
            list(store.windows([4], 4))
        with pytest.raises(ValueError, match=wanted):
            _read_grid_store(tmp_path)


_GRID_MUTATIONS = st.one_of(
    st.tuples(st.just("magic"), st.binary(min_size=4, max_size=4)),
    st.tuples(st.sampled_from(["frames", "rows", "cols"]), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("payload"), st.integers(-16 - 4 * 144, 300)),
    st.tuples(st.just("drop_key"), st.sampled_from(
        ["rows", "cols", "cell_px", "origin_px", "sample_rate_hz", "start_time_s",
         "skin_fraction"])),
    st.tuples(st.just("skin_shape"), st.sampled_from(
        [(3, 2), (6,), (1, 6), (1, 2, 3), (2, 3, 1), (2, 2), (), "ragged"])),
    st.tuples(st.just("rate"), st.sampled_from([np.nan, np.inf, -np.inf])),
)


class TestGridStoreMutations:
    """A damaged store or sidecar reads as the clean grid or is named."""

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("clean_grid")
        _write_grid_store(root)
        store, meta = (root / "grid.rgm").read_bytes(), json.loads((root / "grid.json").read_text())
        return store, meta, _read_grid_store(root)

    @settings(max_examples=300, deadline=None)
    @given(mutation=_GRID_MUTATIONS)
    def test_mutation_read_as_clean_or_named(self, clean, tmp_path_factory, mutation):
        store, meta, want = bytearray(clean[0]), dict(clean[1]), clean[2]
        kind, arg = mutation
        if kind == "magic":
            store[:4] = arg
        elif kind in ("frames", "rows", "cols"):
            offset = 4 + 4 * ["frames", "rows", "cols"].index(kind)
            store[offset : offset + 4] = struct.pack("<I", arg)
        elif kind == "payload":
            store = store[:arg] if arg < 0 else store + bytes(range(arg % 256)) * (arg // 256 + 1)
        elif kind == "drop_key":
            del meta[arg]
        elif kind == "skin_shape":
            flat = np.asarray(meta["skin_fraction"]).ravel()
            meta["skin_fraction"] = ([[0.5, 0.5, 0.5], [0.5, 0.5]] if arg == "ragged"
                                     else np.resize(flat, arg).tolist())
        else:
            meta["sample_rate_hz"] = arg
        root = tmp_path_factory.mktemp("mutated")
        (root / "grid.rgm").write_bytes(bytes(store))
        (root / "grid.json").write_text(json.dumps(meta))
        mutated_file = "grid.json" if kind in ("drop_key", "skin_shape", "rate") else "grid.rgm"
        try:
            got = _read_grid_store(root)
        except ValueError as exc:
            assert str(root / mutated_file) in str(exc), (mutation, str(exc))
            return
        assert _bits(got.values) == _bits(want.values), mutation
        np.testing.assert_array_equal(got.skin_fraction, want.skin_fraction)
        assert (got.sample_rate_hz, got.start_time_s, got.origin_px, got.cell_px) == (
            want.sample_rate_hz, want.start_time_s, want.origin_px, want.cell_px)


class TestRasters:
    def test_pgm_round_trip(self, tmp_path):
        mask = np.zeros((12, 17), dtype=bool)
        mask[3:9, 5:14] = True
        path = tmp_path / "m.pgm"
        write_pgm(path, mask)
        assert np.array_equal(read_pgm(path), mask)

    def test_frame_dump_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = rng.integers(0, 256, size=(5, 3, 8, 10), dtype=np.uint8)
        path = tmp_path / "f.rfd"
        write_frame_dump(path, frames, 90.0)
        back, fps = read_frame_dump(path)
        assert fps == 90.0
        [block] = back.blocks(len(back))
        assert np.array_equal(block, frames)

    def test_truncated_dump_rejected(self, tmp_path):
        path = tmp_path / "f.rfd"
        write_frame_dump(path, np.zeros((2, 3, 4, 4), dtype=np.uint8), 90.0)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ValueError, match="truncated"):
            read_frame_dump(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "f.rfd"
        write_frame_dump(path, np.zeros((2, 3, 4, 4), dtype=np.uint8), 90.0)
        path.write_bytes(path.read_bytes() + b"\0" * 5)
        expected = r"f\.rfd: trailing bytes: the file has 133 bytes.* 128 bytes"
        with pytest.raises(ValueError, match=expected):
            read_frame_dump(path)

    @pytest.mark.parametrize("dtype", [np.float64, np.int16])
    def test_writer_rejects_frames_that_are_not_uint8(self, tmp_path, dtype):
        frames = np.array([300.0, -1.0, 127.9, 0.0]).reshape(1, 1, 2, 2).repeat(3, axis=1)
        with pytest.raises(ValueError, match=f"uint8, not {np.dtype(dtype)}"):
            write_frame_dump(tmp_path / "f.rfd", frames.astype(dtype), 90.0)
        assert not (tmp_path / "f.rfd").exists()

    @pytest.mark.parametrize(
        "n, h, w, fps, problem",
        [
            (0, 4, 4, 90.0, "0 frames of 4x4 pixels"),
            (2, 4, 0, 90.0, "2 frames of 0x4 pixels"),
            (2, 0, 4, 90.0, "2 frames of 4x0 pixels"),
            (2, 4, 4, float("nan"), "nan fps"),
            (2, 4, 4, float("inf"), "inf fps"),
            (2, 4, 4, 0.0, "0.0 fps"),
            (2, 4, 4, -90.0, "-90.0 fps"),
        ],
    )
    def test_header_declaring_no_frames_or_no_rate_rejected(self, tmp_path, n, h, w, fps, problem):
        path = tmp_path / "f.rfd"
        with pytest.raises(ValueError, match=rf"f\.rfd: the header declares {problem}"):
            write_frame_dump(path, np.zeros((n, 3, h, w), dtype=np.uint8), fps)
        assert not path.exists()
        # The 32-byte header: magic, width, height, frames, fps, zero padding.
        header = struct.pack("<4sIII d", b"RFD1", w, h, n, fps).ljust(32, b"\0")
        path.write_bytes(header + bytes(n * 3 * h * w))
        with pytest.raises(ValueError, match=rf"f\.rfd: the header declares {problem}"):
            read_frame_dump(path)

    def test_pgm_threshold_is_half_of_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n3 2\n1\n" + bytes([0, 1, 1, 1, 0, 0]))
        assert read_pgm(path).tolist() == [[False, True, True], [True, False, False]]
        path.write_bytes(b"P5\n3 1\n255\n" + bytes([127, 128, 255]))
        assert read_pgm(path).tolist() == [[False, True, True]]

    def test_pgm_maxval_zero_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n0\n" + bytes([0, 0]))
        with pytest.raises(ValueError, match=r"m\.pgm: PGM maxval must be at least 1, got 0"):
            read_pgm(path)

    def test_pgm_value_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n1\n" + bytes([0, 7]))
        with pytest.raises(ValueError, match=r"m\.pgm: PGM pixel value 7 exceeds maxval 1"):
            read_pgm(path)

    def test_pgm_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n1\n" + bytes([0, 1]) + b"\0" * 5)
        with pytest.raises(ValueError, match=r"m\.pgm: trailing bytes after the 2x1 PGM raster"):
            read_pgm(path)


    def test_pgm_bad_header_field_named(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\nx 2\n255\n" + bytes(4))
        with pytest.raises(ValueError) as info:
            read_pgm(path)
        assert str(info.value) == f"{path}: PGM header field b'x' is not an integer"


class TestPosesJson:
    """A bad keypoint file is named."""

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "poses.json"
        path.write_text('{"frames": [{"time_s": 0, "points": [{"name": "a", "x": 1, '
                        '"visibility": 1}]}]}')
        with pytest.raises(ValueError) as info:
            read_poses_json(path)
        assert str(info.value) == f"{path}: keypoint data has no key 'y'"

    def test_value_of_the_wrong_type_named(self, tmp_path):
        path = tmp_path / "poses.json"
        path.write_text('{"frames": [{"time_s": 0, "points": [{"name": "a", "x": "left", '
                        '"y": 1, "visibility": 1}]}]}')
        with pytest.raises(ValueError) as info:
            read_poses_json(path)
        assert str(info.value) == f"{path}: could not convert string to float: 'left'"

    def test_not_json_named(self, tmp_path):
        path = tmp_path / "poses.json"
        path.write_text('{"frames": [')
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a JSON keypoint file: ")):
            read_poses_json(path)


def _dump(tmp_path, frames):
    """``frames`` at 90 fps, written to a frame dump and opened for extraction."""
    write_frame_dump(tmp_path / "frames.rfd", frames, 90.0)
    return read_frame_dump(tmp_path / "frames.rfd")[0]


class TestExtractTraces:
    def test_uniform_gray(self, tmp_path):
        frames = _dump(tmp_path, np.full((4, 3, 6, 6), 128, dtype=np.uint8))
        mask = np.zeros((6, 6), dtype=bool)
        mask[2:5, 2:5] = True
        traces = extract_traces(frames, 90.0, {"roi": mask})
        assert np.all(traces["roi"].channel_matrix() == 128.0)

    def test_single_pixel_mask(self, tmp_path):
        frames = np.zeros((3, 3, 4, 4), dtype=np.uint8)
        frames[:, 0, 1, 2] = 200
        frames[:, 1, 1, 2] = 100
        frames[:, 2, 1, 2] = 50
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = True
        traces = extract_traces(_dump(tmp_path, frames), 90.0, {"pixel": mask})
        assert np.all(traces["pixel"].r.samples == 200.0)
        assert np.all(traces["pixel"].g.samples == 100.0)
        assert np.all(traces["pixel"].b.samples == 50.0)

    def test_checkerboard_mean(self, tmp_path):
        frames = np.zeros((2, 3, 4, 4), dtype=np.uint8)
        checker = np.indices((4, 4)).sum(axis=0) % 2 == 0
        frames[:, :, checker] = 255
        all_pixels = {"all": np.ones((4, 4), dtype=bool)}
        traces = extract_traces(_dump(tmp_path, frames), 90.0, all_pixels)
        assert np.all(traces["all"].channel_matrix() == 127.5)

    def test_empty_mask_rejected(self, tmp_path):
        frames = _dump(tmp_path, np.zeros((2, 3, 4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="no pixels"):
            extract_traces(frames, 90.0, {"empty": np.zeros((4, 4), dtype=bool)})

    def test_dimension_mismatch_rejected(self, tmp_path):
        frames = _dump(tmp_path, np.zeros((2, 3, 4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="shape"):
            extract_traces(frames, 90.0, {"bad": np.ones((5, 5), dtype=bool)})

    def test_grid_cells_and_skin_fraction(self, tmp_path):
        frames = _dump(tmp_path, np.full((3, 3, 8, 12), 100, dtype=np.uint8))
        mask = np.zeros((8, 12), dtype=bool)
        mask[0:8, 0:8] = True  # bbox 8x8 -> 2x2 cells of 4px
        mask[4:8, 4:8] = False  # lower-right cell has no skin
        grids = extract_traces(frames, 90.0, {"roi": mask}, grid_cell_px=4)
        grid = grids["roi"]
        assert (grid.rows, grid.cols) == (2, 2)
        assert grid.skin_fraction[0, 0] == 1.0
        assert grid.skin_fraction[1, 1] == 0.0
        assert np.all(grid.values == 100.0)

    def test_float_frames_rejected(self, tmp_path):
        # Frames reach extraction only through a dump, whose writer takes uint8 alone.
        with pytest.raises(ValueError, match="uint8, not float64"):
            _dump(tmp_path, np.zeros((2, 3, 4, 4)))

    def test_zero_cell_size_rejected(self, tmp_path):
        frames = _dump(tmp_path, np.zeros((2, 3, 4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="cell_px"):
            extract_traces(frames, 90.0, {"all": np.ones((4, 4), dtype=bool)}, grid_cell_px=0)


def _oracle_masks(rng, h, w):
    """Irregular masks: sparse and dense speckle spanning the frame, a holed
    interior blob whose bounding box is no multiple of any cell size, and one
    touching only the frame corners."""
    blob = np.zeros((h, w), dtype=bool)
    blob[5:46, 3:50] = rng.random((41, 47)) < 0.7
    blob[5, 3] = blob[45, 49] = True
    corners = np.zeros((h, w), dtype=bool)
    corners[0, 0] = corners[-1, -1] = corners[0, -1] = True
    return {
        "sparse": rng.random((h, w)) < 0.05,
        "dense": rng.random((h, w)) < 0.9,
        "blob": blob,
        "corners": corners,
    }


class TestExtractTracesOracle:
    """The integer-sum means equal the float64-copy, per-cell loop ones exactly."""

    @pytest.mark.parametrize("cell_px", [1, 3, 20])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_loop_reference(self, tmp_path, cell_px, seed):
        rng = np.random.default_rng(seed)
        h, w = 49, 53
        frames = rng.integers(0, 256, size=(7, 3, h, w), dtype=np.uint8)
        masks = _oracle_masks(rng, h, w)
        dump = _dump(tmp_path, frames)
        traces = extract_traces(dump, 90.0, masks)
        grids = extract_traces(dump, 90.0, masks, cell_px)
        want_traces, want_grids = loop_reference.extract_traces(frames, 90.0, masks, cell_px)
        assert traces.keys() == grids.keys() == masks.keys()
        assert all(isinstance(trace, RGBTrace) for trace in traces.values())
        assert all(isinstance(grid, SubregionGrid) for grid in grids.values())
        for label in masks:
            assert np.array_equal(
                traces[label].channel_matrix(), want_traces[label].channel_matrix()
            )
            got, want = grids[label], want_grids[label]
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.skin_fraction, want.skin_fraction)
            assert got.origin_px == want.origin_px
            assert (got.rows, got.cols) == (want.rows, want.cols)


def _frame_session(root, frames, masks):
    """A manifest over a frame dump of ``frames`` at 90 fps and one PGM mask
    per entry of ``masks``; no trace, grid or sensor CSVs."""
    import json

    write_frame_dump(root / "frames.rfd", frames, 90.0)
    for label, mask in masks.items():
        write_pgm(root / f"mask_{label}.pgm", mask)
    write_oximeter_csv(root / "oximeter.csv", np.arange(60) / 60.0, np.full(60, 72.0))
    doc = {
        "session_id": "frames-only",
        "video": {"fps": 90.0, "width": frames.shape[3], "height": frames.shape[2],
                  "frames": "frames.rfd"},
        "sensors": [],
        "oximeter": {"path": "oximeter.csv", "rate_hz": 60.0},
        "rois": [{"label": label, "mask": f"mask_{label}.pgm"} for label in masks],
    }
    (root / "manifest.json").write_text(json.dumps(doc))
    return SessionManifest.load(root / "manifest.json")


class TestStreamedIngestion:
    """Frames are summed block by block; no block size changes a result."""

    @pytest.mark.parametrize("chunk_frames", [1, 7])
    def test_blocks_equal_loop_reference(self, tmp_path, monkeypatch, chunk_frames):
        monkeypatch.setattr(session, "_CHUNK_FRAMES", chunk_frames)
        rng = np.random.default_rng(4)
        h, w, cell_px = 49, 53, 3
        frames = rng.integers(0, 256, size=(20, 3, h, w), dtype=np.uint8)
        masks = _oracle_masks(rng, h, w)
        manifest = _frame_session(tmp_path, frames, masks)
        want_traces, want_grids = loop_reference.extract_traces(frames, 90.0, masks, cell_px)
        _, want_loaded_grids = loop_reference.extract_traces(frames, 90.0, masks, DEFAULT_CELL_PX)
        dump, _ = read_frame_dump(manifest.frames_path)
        dump_traces = extract_traces(dump, 90.0, masks)
        dump_grids = extract_traces(dump, 90.0, masks, cell_px)
        loaded = manifest.load_traces(list(masks))
        for label in masks:
            want = want_traces[label].channel_matrix()
            assert np.array_equal(loaded[label].channel_matrix(), want)
            assert np.array_equal(dump_traces[label].channel_matrix(), want)
            for grid, want_grid in ((manifest.load_grid(label), want_loaded_grids[label]),
                                    (dump_grids[label], want_grids[label])):
                assert np.array_equal(grid.values, want_grid.values)
                assert np.array_equal(grid.skin_fraction, want_grid.skin_fraction)
                assert grid.origin_px == want_grid.origin_px

    def test_dump_truncated_after_its_header_check_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(session, "_CHUNK_FRAMES", 7)
        path = tmp_path / "f.rfd"
        write_frame_dump(path, np.zeros((20, 3, 4, 4), dtype=np.uint8), 90.0)
        frames, fps = read_frame_dump(path)
        path.write_bytes(path.read_bytes()[:-10])
        expected = r"f\.rfd: truncated frame data: read 278 of 288 bytes"
        with pytest.raises(ValueError, match=expected):
            extract_traces(frames, fps, {"all": np.ones((4, 4), dtype=bool)})
        with pytest.raises(ValueError, match=r"f\.rfd: truncated frame data"):
            list(frames.blocks(len(frames)))

    def test_memory_grows_only_by_the_outputs(self, tmp_path):
        import tracemalloc

        h, w, n = 48, 64, 64
        mask = np.zeros((h, w), dtype=bool)
        mask[5:40, 3:50] = True
        peaks = []
        for frames in (n, 4 * n):
            root = tmp_path / str(frames)
            root.mkdir()
            pixels = np.random.default_rng(2).integers(0, 256, (frames, 3, h, w), dtype=np.uint8)
            manifest = _frame_session(root, pixels, {"face": mask})
            del pixels
            tracemalloc.start()
            try:
                manifest.load_traces(["face"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Per extra frame: the (n, 3) float64 means and the trace's three
        # float64 channels. Holding the video would add 3 * 48 * 64 bytes.
        assert peaks[1] - peaks[0] <= 3 * n * 2 * 3 * 8


# Each key a manifest must have, as (its parent key or None, the key).
_MANIFEST_KEYS = [(None, "session_id"), (None, "video"), ("video", "fps"), ("video", "width"),
                  ("video", "height"), (None, "oximeter"), ("oximeter", "path"),
                  ("oximeter", "rate_hz")]


class TestManifestErrors:
    """A manifest that is not JSON, or lacks a key it needs, is named with the key."""

    @pytest.fixture(scope="class")
    def manifest_path(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("manifest")
        return build_synthetic_session(root, SyntheticSessionConfig(seed=3, duration_s=20.0))

    @pytest.mark.parametrize("parent, key", _MANIFEST_KEYS,
                             ids=[f"{p}.{k}" if p else k for p, k in _MANIFEST_KEYS])
    def test_missing_key_named(self, manifest_path, parent, key):
        doc = json.loads(manifest_path.read_text())
        del (doc[parent] if parent else doc)[key]
        path = manifest_path.with_name(f"manifest_without_{key}.json")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            SessionManifest.load(path)
        assert str(info.value) == f"{path}: the manifest has no key {key!r}"

    def test_value_of_the_wrong_type_named(self, manifest_path):
        doc = json.loads(manifest_path.read_text())
        doc["video"]["fps"] = "fast"
        path = manifest_path.with_name("manifest_fps_text.json")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            SessionManifest.load(path)
        assert str(info.value) == f"{path}: could not convert string to float: 'fast'"

    @pytest.mark.parametrize("parent, key", [("video", "fps"), ("oximeter", "rate_hz")])
    def test_nan_rate_named(self, manifest_path, parent, key):
        doc = json.loads(manifest_path.read_text())
        doc[parent][key] = float("nan")  # written as NaN, which json parses
        path = manifest_path.with_name(f"manifest_nan_{key}.json")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            SessionManifest.load(path)
        assert str(info.value) == f"{path}: {parent}.{key} is nan; it must be finite and positive"

    @pytest.mark.parametrize("text", ["{", "[1, 2]"], ids=["not-json", "not-an-object"])
    def test_not_a_json_object_named(self, manifest_path, text):
        path = manifest_path.with_name("manifest_broken.json")
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            SessionManifest.load(path)


class TestManifest:
    def test_synthetic_session_loads(self, tmp_path):
        cfg = SyntheticSessionConfig(seed=3, duration_s=20.0)
        manifest_path = build_synthetic_session(tmp_path, cfg)
        manifest = SessionManifest.load(manifest_path)
        assert manifest.fps == 90.0
        assert len(manifest.sensors) == 9
        assert sorted(manifest.trace_paths) == [
            "face",
            "left-arm",
            "left-leg",
            "palm",
            "right-arm",
            "right-leg",
        ]
        trace = manifest.load_trace("face")
        assert trace.duration_s == pytest.approx(20.0)
        bank = manifest.load_sensor_bank()
        assert len(bank.channels) == 9
        grid = manifest.load_grid("face")
        assert (grid.rows, grid.cols) == (3, 4)
        assert len(manifest.load_poses()) == 2

    def test_sensor_rate_mismatch_names_both_files(self, tmp_path):
        manifest = SessionManifest.load(
            build_synthetic_session(tmp_path, SyntheticSessionConfig(seed=3, duration_s=20.0))
        )
        (site_a, path_a, _), (site_b, path_b, _) = manifest.sensors[:2]
        lines = path_a.read_text().splitlines(keepends=True)
        # 20 rows lost and the rest retimed evenly over the same span: a
        # regular stream at a lower rate.
        rows = lines[1:100] + lines[120:]
        times = np.linspace(0.0, float(rows[-1].split(",")[0]), len(rows))
        path_a.write_text(lines[0] + "".join(
            f"{t:.12g},{row.split(',', 1)[1]}" for t, row in zip(times, rows)
        ))
        wanted = (re.escape(f"{path_a}, {path_b}: channels '{site_a}' and '{site_b}' differ in ")
                  + r"sample rate: 398\.\d+ Hz and 400 Hz$")
        with pytest.raises(ValueError, match=wanted):
            manifest.load_sensor_bank()

    def test_missing_file_rejected(self, tmp_path):
        manifest_path = build_synthetic_session(
            tmp_path, SyntheticSessionConfig(seed=3, duration_s=20.0)
        )
        (tmp_path / "oximeter.csv").unlink()
        with pytest.raises(FileNotFoundError):
            SessionManifest.load(manifest_path)

    def test_unknown_roi_names_valid_labels(self, tmp_path):
        manifest_path = build_synthetic_session(
            tmp_path, SyntheticSessionConfig(seed=3, duration_s=20.0)
        )
        manifest = SessionManifest.load(manifest_path)
        with pytest.raises(KeyError, match="face"):
            manifest.load_trace("forehead")

    def test_portion_beyond_duration_rejected(self, tmp_path):
        import json

        manifest_path = build_synthetic_session(
            tmp_path, SyntheticSessionConfig(seed=3, duration_s=20.0)
        )
        doc = json.loads(manifest_path.read_text())
        doc["portions"] = [{"name": "late", "start_s": 0.0, "end_s": 500.0}]
        manifest_path.write_text(json.dumps(doc))
        # Each stream is checked against the portions when it is first parsed.
        manifest = SessionManifest.load(manifest_path)
        with pytest.raises(ValueError, match="portion 'late'.*trace_face.csv"):
            manifest.load_trace("face")
        with pytest.raises(ValueError, match="portion 'late'.*sensor_"):
            manifest.load_sensor_bank()

    def test_frame_dump_ingestion(self, tmp_path):
        import json

        rng = np.random.default_rng(6)
        n_frames, h, w = 40, 30, 44
        frames = rng.integers(40, 200, size=(n_frames, 3, h, w), dtype=np.uint8)
        write_frame_dump(tmp_path / "frames.rfd", frames, 90.0)
        mask = np.zeros((h, w), dtype=bool)
        mask[4:28, 2:42]= True
        write_pgm(tmp_path / "mask_face.pgm", mask)
        t_ox = np.arange(60) / 60.0
        np.savetxt(
            tmp_path / "oximeter.csv",
            np.column_stack([t_ox, np.full(60, 72.0), np.full(60, 98.0)]),
            delimiter=",",
            header="time_s,bpm,spo2",
            comments="",
        )
        doc = {
            "session_id": "frames-only",
            "video": {"fps": 90.0, "width": w, "height": h, "frames": "frames.rfd"},
            "sensors": [],
            "oximeter": {"path": "oximeter.csv", "rate_hz": 60.0},
            "rois": [{"label": "face", "mask": "mask_face.pgm"}],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        manifest = SessionManifest.load(tmp_path / "manifest.json")
        trace = manifest.load_trace("face")
        assert len(trace) == n_frames
        expected = frames[:, :, mask].astype(float).mean(axis=2)
        assert np.allclose(trace.channel_matrix(), expected)
        grid = manifest.load_grid("face")  # 20 px cells over the 40x24 box
        assert (grid.rows, grid.cols) == (1, 2)
        assert np.all(grid.skin_fraction == 1.0)

    def test_dump_size_differs_from_manifest(self, tmp_path):
        import json

        write_frame_dump(tmp_path / "frames.rfd", np.zeros((20, 3, 6, 8), dtype=np.uint8), 90.0)
        write_pgm(tmp_path / "mask_face.pgm", np.ones((6, 8), dtype=bool))
        write_oximeter_csv(tmp_path / "oximeter.csv", np.arange(60) / 60.0, np.full(60, 72.0))
        doc = {
            "session_id": "frames-only",
            "video": {"fps": 90.0, "width": 8, "height": 7, "frames": "frames.rfd"},
            "sensors": [],
            "oximeter": {"path": "oximeter.csv", "rate_hz": 60.0},
            "rois": [{"label": "face", "mask": "mask_face.pgm"}],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        manifest = SessionManifest.load(tmp_path / "manifest.json")
        expected = r"frames\.rfd: frames are 8x6 pixels, the manifest declares 8x7"
        with pytest.raises(ValueError, match=expected):
            manifest.load_trace("face")

    @pytest.mark.parametrize("load", ["load_trace", "load_grid"])
    def test_mask_size_differs_from_the_frames(self, tmp_path, load):
        import json

        write_frame_dump(tmp_path / "frames.rfd", np.zeros((20, 3, 40, 48), dtype=np.uint8), 90.0)
        write_pgm(tmp_path / "mask_face.pgm", np.ones((40, 47), dtype=bool))
        write_oximeter_csv(tmp_path / "oximeter.csv", np.arange(60) / 60.0, np.full(60, 72.0))
        doc = {
            "session_id": "frames-only",
            "video": {"fps": 90.0, "width": 48, "height": 40, "frames": "frames.rfd"},
            "sensors": [],
            "oximeter": {"path": "oximeter.csv", "rate_hz": 60.0},
            "rois": [{"label": "face", "mask": "mask_face.pgm"}],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        manifest = SessionManifest.load(tmp_path / "manifest.json")
        expected = (f"{tmp_path / 'mask_face.pgm'}: the mask of ROI 'face' is 47x40 pixels, "
                    f"the frames of {tmp_path / 'frames.rfd'} are 48x40")
        with pytest.raises(ValueError) as error:
            getattr(manifest, load)("face")
        assert str(error.value) == expected

    def test_unparsable_cell_names_file(self, tmp_path):
        manifest_path = build_synthetic_session(
            tmp_path, SyntheticSessionConfig(seed=3, duration_s=20.0)
        )
        path = tmp_path / "sensor_neck.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = lines[5].rsplit(",", 1)[0] + ",abc\n"
        path.write_text("".join(lines))
        # The sensors are parsed when the bank is first loaded, not with the manifest.
        manifest = SessionManifest.load(manifest_path)
        manifest.load_trace("face")
        with pytest.raises(ValueError, match="sensor_neck.csv"):
            manifest.load_sensor_bank()

    def test_unknown_grid_roi_names_grid_labels(self, tmp_path):
        manifest_path = build_synthetic_session(
            tmp_path, SyntheticSessionConfig(seed=3, duration_s=20.0)
        )
        manifest = SessionManifest.load(manifest_path)
        with pytest.raises(KeyError, match=r"valid labels: \['face'\]"):
            manifest.load_grid("forehead")

    def test_unknown_roi_names_mask_labels(self, tmp_path):
        import json

        frames = np.full((20, 3, 6, 8), 100, dtype=np.uint8)
        write_frame_dump(tmp_path / "frames.rfd", frames, 90.0)
        write_pgm(tmp_path / "mask_face.pgm", np.ones((6, 8), dtype=bool))
        t_ox = np.arange(60) / 60.0
        write_oximeter_csv(tmp_path / "oximeter.csv", t_ox, np.full(60, 72.0))
        doc = {
            "session_id": "frames-only",
            "video": {"fps": 90.0, "width": 8, "height": 6, "frames": "frames.rfd"},
            "sensors": [],
            "oximeter": {"path": "oximeter.csv", "rate_hz": 60.0},
            "rois": [{"label": "face", "mask": "mask_face.pgm"}],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        manifest = SessionManifest.load(tmp_path / "manifest.json")
        for load in (manifest.load_trace, manifest.load_grid):
            with pytest.raises(KeyError, match=r"valid labels: \['face'\]"):
                load("forehead")
