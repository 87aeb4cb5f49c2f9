"""Session data model and file formats.

One recording session is described by a JSON manifest pointing at sensor
CSVs, an oximeter CSV, RGB traces (or a raw frame dump plus masks), grid
cell means, and pose keypoints. All 1-D signals travel as CSV, structured
results as JSON, and maps as plain float grids, so every artifact stays
diffable and language-neutral; only the bulk inputs, video frames and grid
cell means, are raw binary.

File formats:
  - waveform CSV: header ``time_s,value``
  - sensor CSV: header ``time_s,red,ir`` (manifest selects the channel)
  - oximeter CSV: header ``time_s,bpm,spo2`` (spo2 is ignored)
  - pulse-rate CSV: header ``time_s,bpm`` with a ``#`` metadata comment line
  - RGB trace CSV: header ``time_s,r,g,b``
  - mask raster: binary PGM (P5), 0 = background, 255 = skin
  - frame dump (.rfd): 32-byte header (magic ``RFD1``, uint32 width, height,
    frame count, float64 fps, little endian, zero padded), then per frame the
    R, G, B planes as row-major uint8
  - grid store (.rgm): 16-byte header (magic ``RGM1``, uint32 frames, rows,
    cols, little endian), then the cell means as C-ordered little-endian
    float64 of shape (frames, rows, cols, 3), exactly as given to the writer;
    a JSON sidecar holds the rate, start time, geometry and per-cell skin
    fraction

Frame dumps and grid stores share one block reader, which reads the frames a
block at a time into one buffer; one extraction sums each ROI's masked pixels
(traces) or its grid cells (grids), never both. The manifest's loaders keep
no cache. Config echoes hash every file the loaders read, PGM masks
included; frame dumps are not hashed (see the README).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fusion import DELTA_Y_BPM_DEFAULT, OXIMETER_BAND_BPM, SensorBank, channel_conflict
from .grid import (DEFAULT_CELL_PX, PoseKeypoints, SubregionGrid, first_bad_cell_mean,
                   grid_geometry)
from .pulse_rate import PulseRateSeries
from .rppg import RGBTrace
from .signals import Waveform

__all__ = [
    "SessionManifest",
    "read_waveform_csv",
    "write_waveform_csv",
    "read_sensor_csv",
    "write_sensor_csv",
    "read_oximeter_csv",
    "write_oximeter_csv",
    "read_rate_csv",
    "write_rate_csv",
    "read_trace_csv",
    "write_trace_csv",
    "read_pgm",
    "write_pgm",
    "FrameDump",
    "read_frame_dump",
    "write_frame_dump",
    "read_poses_json",
    "write_poses_json",
    "GridStore",
    "open_grid_store",
    "read_grid",
    "write_grid",
    "extract_traces",
    "write_csv",
    "write_json",
    "RATE_TOLERANCE",
]

# Declared and inferred sample rates must agree to within this fraction.
RATE_TOLERANCE = 1e-3

# Frames read and summed at a time: ingestion holds one block of this many
# frames, never the whole video.
_CHUNK_FRAMES = 16

# Every float this package writes to CSV uses this format, every integer %d.
_FLOAT_FMT = "%.12g"
# write_csv spells a block of at most _CSV_BLOCK_ROWS rows and at most
# _CSV_BLOCK_VALUES values at a time (ten rows of a 400-column map). Its
# temporaries peak at up to 170 bytes a value, so a block stays under 1 MB
# however wide the table.
_CSV_BLOCK_ROWS = 4096
_CSV_BLOCK_VALUES = 4096


def _digit_table() -> np.ndarray:
    """write_csv's spelling table: one 4-byte word a row, with NUL bytes in
    place of the zeros a number does not write.

    For a group g of four digits, _FULL + g spells all four ("0042"),
    _LEAD + g drops leading zeros ("42", nothing for 0), _ONES + g too but
    spells 0 as "0", and _TRAIL + g drops trailing zeros ("42" for 4200,
    nothing for 0). For the first three digits g after the point, _POINT + g
    is "." and all three, _POINT_LAST + g drops their trailing zeros and is
    nothing for 0. Then "nan", "inf" and, at _SEP, the text before a value:
    ",", "\\n" or nothing, each also with "-"."""
    g = np.arange(10_000, dtype=np.int16)[:, None]
    place = 10 ** np.arange(3, -1, -1, dtype=np.int16)  # of each of the four digits
    full = (g // place % 10 + ord("0")).astype(np.uint8)
    ones = np.where(g // place > 0, full, 0)
    ones[0, 3] = ord("0")
    lead = ones.copy()
    lead[0] = 0
    trail = np.where(g % (10 * place) > 0, full, 0)
    point = full[:1000].copy()
    point[:, 0] = ord(".")
    point_last = trail[:1000].copy()
    point_last[1:, 0] = ord(".")
    words = np.frombuffer(b"nan\0inf\0,\0\0\0,-\0\0\n\0\0\0\n-\0\0\0\0\0\0-\0\0\0", np.uint8)
    table = [full, lead, ones, trail, point, point_last, words.reshape(-1, 4)]
    return np.concatenate(table).view(np.uint32).ravel()


_FULL, _LEAD, _ONES, _TRAIL, _POINT, _POINT_LAST, _NAN, _INF, _SEP = (
    0, 10_000, 20_000, 30_000, 40_000, 41_000, 42_000, 42_001, 42_002)
_DIGITS = _digit_table()
# 10**(11 - e) for decimal exponents e = -5 .. 12: it scales a value of
# exponent e to its 12-digit mantissa, exactly in float64 for each e of fixed
# notation (-4 to 11); the two ends only tell the values next to those apart.
_MANTISSA_SCALE = np.array([float(10 ** (11 - e)) for e in range(-5, 13)])
# The scaled products are below 2**40, so each is within 2**-14 of the exact
# product, and rint rounds it as '%' would unless its fraction is this near 1/2.
_NEAR_TIE = 0.5 - 2.0**-13

# Every key of a grid store's sidecar: the writer writes each, the reader needs each.
_GRID_META_KEYS = ("rows", "cols", "cell_px", "origin_px", "sample_rate_hz", "start_time_s",
                   "skin_fraction")


def _data_lines(fh):
    """The numbers of the data lines of an open CSV (line 1 is the header),
    as :func:`_load_csv` counts rows, skipping blank and comment lines."""
    fh.readline()
    return (n for n, line in enumerate(fh, start=2) if line.split("#", 1)[0].strip())


def _load_csv(path: Path | str, expected_columns: int) -> np.ndarray:
    with open(path) as fh:
        if next(_data_lines(fh), None) is None:
            raise ValueError(f"{path}: no data rows below the header")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if data.shape[1] != expected_columns:
        raise ValueError(
            f"{path}: expected {expected_columns} columns, found {data.shape[1]}"
        )
    return data


def _line_of_row(path: Path | str, row: int) -> int:
    """The file line of data row ``row``."""
    with open(path) as fh:
        return next(itertools.islice(_data_lines(fh), row, None))


def _load_uniform_csv(
    path: Path | str, expected_columns: int, declared: float | None, regular: bool = True
) -> tuple[np.ndarray, float]:
    """A CSV sampled at one rate, and that rate, inferred from the time
    column; a declared rate wins when the two agree within RATE_TOLERANCE.

    Times must increase strictly. In a ``regular`` stream every interval
    must also be within RATE_TOLERANCE of the median interval, so that a gap
    is named at its own line: measured against the row count over the span,
    every interval of a stream with a gap would be off. Errors name the file
    and the first bad line (line 1 is the header)."""
    data = _load_csv(path, expected_columns)
    times = data[:, 0]
    if times.size < 2:
        raise ValueError(f"{path}: need at least two samples to infer a rate")
    intervals = np.diff(times)
    bad = ~(intervals > 0)
    if regular:
        period = float(np.median(intervals))
        # A median that does not increase means most intervals are bad already.
        if period > 0:
            bad |= ~(np.abs(intervals / period - 1) <= RATE_TOLERANCE)
    if bad.any():
        i = int(np.argmax(bad))
        if intervals[i] > 0:
            problem = f"intervals must be within {RATE_TOLERANCE:.1%} of the median {period:.6g} s"
        else:
            problem = "timestamps must increase"
        raise ValueError(
            f"{path}, line {_line_of_row(path, i + 1)}: time_s {times[i + 1]:.12g} follows "
            f"{times[i]:.12g} on the line before; {problem}"
        )
    inferred = (times.size - 1) / (times[-1] - times[0])
    if declared is None:
        return data, inferred
    # Written so that a NaN declared rate fails too.
    if not abs(inferred - declared) <= RATE_TOLERANCE * declared:
        raise ValueError(
            f"{path}: inferred sample rate {inferred:.6g} Hz deviates more than "
            f"{RATE_TOLERANCE:.1%} from the declared {declared:.6g} Hz"
        )
    return data, declared


def _whole_digits(u: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` (G, n) the _DIGITS rows that spell each of the n
    integers ``u`` (at most 4G digits) right-aligned in G groups of four."""
    for i in range(len(out) - 1, -1, -1):
        higher = u // 10_000
        np.subtract(u, higher * 10_000, out=out[i])
        out[i] += (higher == 0) * (_ONES if i == len(out) - 1 else _LEAD)
        u = higher


def _n_groups(top) -> int:
    """Groups of four digits that spell the integers up to ``top``."""
    return max(1, (len(str(int(top))) + 3) // 4)


def _int_digits(parts: list[np.ndarray]) -> tuple:
    """Signs, _DIGITS rows (row 0 left free) and the values left to ``%``
    (none) that spell the integers of ``parts``, side by side, as
    ``'%d' % abs(v)``."""
    neg = np.concatenate([p < 0 for p in parts], axis=1).ravel()
    # A negative value wraps, and negating it gives |v|.
    u = np.concatenate(parts, axis=1, dtype=np.uint64, casting="unsafe").ravel()
    np.negative(u, out=u, where=neg)
    rows = np.empty((1 + _n_groups(u.max()), u.size), np.intp)
    _whole_digits(u, rows[1:])
    return neg, rows, np.empty(0, np.intp), np.empty(0)


def _float_digits(parts: list[np.ndarray]) -> tuple:
    """Signs, _DIGITS rows (row 0 left free) and the values left to ``%``
    (their positions and magnitudes) that spell the floats of ``parts``, side
    by side, as ``'%.12g' % abs(v)``.

    A finite nonzero value whose decimal exponent e, after rounding to 12
    digits, is -4 to 11 is spelled in fixed notation from m = rint(|v| *
    10**(11 - e)), the 12-digit mantissa: G groups for its whole part, then
    "." and the first three fraction digits, then three groups, the last
    fraction group the last nonzero one. NaN, inf and 0 are whole words.
    The values in exponent notation and the near ties, whose product rint
    might round the other way, are left to ``%``; their rows spell "0"."""
    x = np.concatenate(parts, axis=1, dtype=np.float64).ravel()
    ax = np.abs(x)
    nonzero = (ax > 0) & (ax < np.inf)  # finite and not 0: NaN fails both
    ax = np.where(nonzero, ax, 1.0)
    e = np.clip(np.floor(np.log10(ax)), -5, 12).astype(np.intp)
    scale = _MANTISSA_SCALE[e + 5]
    scaled = ax * scale
    m = np.rint(scaled)
    near_tie = np.abs(scaled - m) >= _NEAR_TIE
    # log10 may be off at a power of ten and rounding may carry into a 13th
    # digit: those values are moved one decade and scaled again. A near tie
    # in either product stays near one, as that product set the decade.
    off = np.flatnonzero((m < 1e11) | (m >= 1e12))
    if off.size:
        e[off] = np.clip(e[off] + np.where(m[off] < 1e11, -1, 1), -5, 12)
        scale[off] = _MANTISSA_SCALE[e[off] + 5]
        scaled[off] = ax[off] * scale[off]
        m[off] = np.rint(scaled[off])
        near_tie[off] |= np.abs(scaled[off] - m[off]) >= _NEAR_TIE
    fast = nonzero & (e >= -4) & (e <= 11) & (m >= 1e11) & (m < 1e12) & ~near_tie
    m *= fast
    whole = np.floor(m / scale)
    fraction = ((m - whole * scale) * (1e15 / scale)).astype(np.int64)  # 15 digits
    n_whole = _n_groups(whole.max())
    rows = np.empty((5 + n_whole, x.size), np.intp)
    _whole_digits(whole.astype(np.int64), rows[1 : 1 + n_whole])
    later = np.zeros(x.size, bool)  # whether a nonzero digit follows the group
    for i in range(4 + n_whole, 1 + n_whole, -1):
        higher = fraction // 10_000
        np.subtract(fraction, higher * 10_000, out=rows[i])
        digits = rows[i] > 0
        rows[i] += ~later * _TRAIL
        later |= digits
        fraction = higher
    np.add(fraction, np.where(later, _POINT, _POINT_LAST), out=rows[1 + n_whole])
    neg = np.signbit(x)
    if not nonzero.all():
        nan = np.isnan(x)
        neg &= ~nan
        rows[n_whole, nan] = _NAN
        rows[n_whole, np.isinf(x)] = _INF
    at = np.flatnonzero(nonzero & ~fast)
    return neg, rows, at, np.abs(x[at])


def _csv_text(parts: list[np.ndarray], integer: list[bool]) -> bytes:
    """The CSV lines of one block: ``parts`` are (rows, k) blocks of columns,
    ``integer`` says which are written with ``%d``.

    Each value is one record of words from _DIGITS: the separator before it
    (and its "-"), then its digits. The text is the records' bytes with the
    NUL bytes dropped."""
    n_rows = len(parts[0])
    starts = np.cumsum([0] + [p.shape[1] for p in parts])
    spelled = []  # (columns, signs, rows) of each kind
    left = []  # (columns, positions, magnitudes) of the values each kind leaves to %
    for kind, digits in ((False, _float_digits), (True, _int_digits)):
        picked = [i for i, k in enumerate(integer) if k == kind and parts[i].shape[1]]
        if picked:
            cols = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in picked])
            kneg, rows, at, values = digits([parts[i] for i in picked])
            spelled.append((cols, kneg, rows))
            left.append((cols, at, values))
    depth = max(len(rows) for _, _, rows in spelled)
    records = np.full((n_rows, starts[-1], depth), _LEAD)
    neg = np.empty((n_rows, starts[-1]), bool)
    for cols, kneg, rows in spelled:
        records[:, cols, : len(rows)] = rows.reshape(len(rows), n_rows, -1).transpose(1, 2, 0)
        neg[:, cols] = kneg.reshape(n_rows, -1)
    # Dropping each array once it is copied keeps a block's digits in memory once.
    del spelled, kneg, rows
    separator = np.zeros(starts[-1], np.intp)
    separator[0] = 2
    np.add(_SEP + separator, neg, out=records[:, :, 0])
    records[0, 0, 0] += 2  # nothing before the block's first value
    words = _DIGITS[records]
    del records
    for cols, at, values in left:
        # Fixed-width bytes pad each text with NUL bytes to the record's digit words.
        text = np.fromiter((_FLOAT_FMT % v for v in values.tolist()), f"S{4 * depth - 4}", at.size)
        digits = text.view(np.uint32).reshape(at.size, depth - 1)
        words[at // len(cols), cols[at % len(cols)], 1:] = digits
    return words.tobytes().translate(None, b"\0") + b"\n"


def write_csv(path: Path | str, columns: list, header: str = "") -> None:
    """Columns (1-D arrays, or 2-D blocks of columns) side by side as CSV;
    no header line when ``header`` is empty.

    Integer columns are written with ``%d`` and the others with
    ``_FLOAT_FMT``, with the bytes numpy's ``savetxt`` writes with these
    formats, ``delimiter=","`` and ``comments=""``, but for one case: an
    integer column is always written exactly, where ``savetxt`` would stack
    it with float columns as float64, so the two differ for an integer of
    magnitude above 2**53 beside float columns. Blocks of at most
    ``_CSV_BLOCK_ROWS`` rows and ``_CSV_BLOCK_VALUES`` values are spelled by
    array operations over the block (see :func:`_float_digits`), so the
    whole table is never held as one array and ``%`` formats only the values
    in exponent notation and the near ties.
    """
    columns = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    integer = [bool(np.issubdtype(c.dtype, np.integer)) for c in columns]
    n_cols = sum(c.shape[1] if c.ndim == 2 else 1 for c in columns)
    block_rows = max(1, min(_CSV_BLOCK_ROWS, _CSV_BLOCK_VALUES // max(n_cols, 1)))
    with open(path, "wb") as fh:
        if header:
            fh.write(header.encode() + b"\n")
        if not n_cols:  # blocks of no columns: savetxt writes an empty line a row
            fh.write(b"\n" * n_rows)
            return
        for i in range(0, n_rows, block_rows):
            parts = [c[i : i + block_rows].reshape(min(block_rows, n_rows - i), -1)
                     for c in columns]
            fh.write(_csv_text(parts, integer))


def write_json(path: Path | str, doc: dict) -> None:
    """JSON with sorted keys, two-space indent and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path: Path | str, what: str):
    """The JSON document in ``path``, a ``what``; text that is not JSON is
    a ValueError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON {what}: {exc}") from None


def read_waveform_csv(path: Path | str) -> Waveform:
    data, rate = _load_uniform_csv(path, 2, None)
    return Waveform(data[:, 1], rate, float(data[0, 0]))


def write_waveform_csv(path: Path | str, w: Waveform) -> None:
    write_csv(path, [w.times(), w.samples], "time_s,value")


def read_sensor_csv(path: Path | str, channel: str = "ir") -> Waveform:
    """One channel of a two-channel (red, infrared) contact sensor CSV."""
    columns = {"red": 1, "ir": 2}
    if channel not in columns:
        raise ValueError(f"unknown sensor channel {channel!r}; expected one of {sorted(columns)}")
    data, rate = _load_uniform_csv(path, 3, None)
    return Waveform(data[:, columns[channel]], rate, float(data[0, 0]))


def write_sensor_csv(
    path: Path | str, times_s: np.ndarray, red: np.ndarray, ir: np.ndarray
) -> None:
    write_csv(path, [times_s, red, ir], "time_s,red,ir")


def read_oximeter_csv(
    path: Path | str, declared_rate_hz: float | None = None
) -> PulseRateSeries:
    """Fingertip oximeter pulse-rate stream; the SpO2 column is ignored.
    Its times must increase, but may step irregularly."""
    data, _ = _load_uniform_csv(path, 3, declared_rate_hz, regular=False)
    return PulseRateSeries(
        times_s=data[:, 0],
        rates_bpm=data[:, 1],
        window_length_s=0.0,
        band_bpm=OXIMETER_BAND_BPM,
    )


def write_oximeter_csv(path: Path | str, times_s: np.ndarray, bpm: np.ndarray) -> None:
    write_csv(path, [times_s, bpm, np.full(len(times_s), 98.0)], "time_s,bpm,spo2")


def write_rate_csv(path: Path | str, series: PulseRateSeries) -> None:
    header = (
        "time_s,bpm\n"
        f"# window_length_s={series.window_length_s:g} "
        f"band_bpm={series.band_bpm[0]:g}:{series.band_bpm[1]:g} "
        f"n_skipped={series.n_skipped}"
    )
    write_csv(path, [series.times_s, series.rates_bpm], header)


def read_rate_csv(path: Path | str) -> PulseRateSeries:
    meta = {"window_length_s": 0.0, "band_bpm": (0.1, 1e6), "n_skipped": 0}
    with open(path) as fh:
        lines = [fh.readline() for _ in range(3)]
    comment = next((line for line in lines if line.startswith("#")), "")
    for token in comment[1:].split():
        key, _, value = token.partition("=")
        try:
            if key == "window_length_s":
                meta["window_length_s"] = float(value)
            elif key == "band_bpm":
                lo, _, hi = value.partition(":")
                meta["band_bpm"] = (float(lo), float(hi))
            elif key == "n_skipped":
                meta["n_skipped"] = int(value)
        except ValueError as exc:
            raise ValueError(f"{path}: bad metadata token {token!r}: {exc}") from exc
    data = _load_csv(path, 2)
    try:
        return PulseRateSeries(
            times_s=data[:, 0],
            rates_bpm=data[:, 1],
            window_length_s=meta["window_length_s"],
            band_bpm=meta["band_bpm"],
            n_skipped=meta["n_skipped"],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_trace_csv(path: Path | str, trace: RGBTrace) -> None:
    columns = [trace.r.times(), trace.r.samples, trace.g.samples, trace.b.samples]
    write_csv(path, columns, "time_s,r,g,b")


def read_trace_csv(
    path: Path | str, roi_label: str = "", declared_rate_hz: float | None = None
) -> RGBTrace:
    data, rate = _load_uniform_csv(path, 4, declared_rate_hz)
    start = float(data[0, 0])
    return RGBTrace(
        Waveform(data[:, 1], rate, start),
        Waveform(data[:, 2], rate, start),
        Waveform(data[:, 3], rate, start),
        roi_label=roi_label,
    )


def write_pgm(path: Path | str, mask: np.ndarray) -> None:
    mask = np.asarray(mask)
    data = np.where(mask, 255, 0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode())
        fh.write(data.tobytes())


def read_pgm(path: Path | str) -> np.ndarray:
    """Boolean mask from a binary PGM; values above half the header's
    ``maxval`` count as true (128 and above for the usual 255). A value above
    ``maxval``, or any byte after the raster, is rejected."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError(f"{path}: not a binary PGM (P5) file")
        fields: list[int] = []
        while len(fields) < 3:
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: truncated PGM header")
            if line.startswith(b"#"):
                continue
            for v in line.split():
                try:
                    fields.append(int(v))
                except ValueError:
                    raise ValueError(f"{path}: PGM header field {v!r} is not an integer") from None
        width, height, maxval = fields[:3]
        if maxval > 255:
            raise ValueError(f"{path}: 16-bit PGM not supported")
        if maxval < 1:
            raise ValueError(f"{path}: PGM maxval must be at least 1, got {maxval}")
        raw = fh.read(width * height)
        if len(raw) != width * height:
            raise ValueError(f"{path}: truncated PGM pixel data")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the {width}x{height} PGM raster")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
    if np.any(pixels > maxval):
        raise ValueError(f"{path}: PGM pixel value {pixels.max()} exceeds maxval {maxval}")
    # For integers, 2 * v > maxval is v > maxval // 2.
    return pixels > maxval // 2


def _check_dump_header(path: Path | str, n: int, w: int, h: int, fps: float) -> None:
    """A frame-dump header must declare at least one frame of at least 1x1
    pixels at a finite positive fps; the writer and the reader both check it."""
    if min(n, w, h) < 1:
        raise ValueError(
            f"{path}: the header declares {n} frames of {w}x{h} pixels; "
            "frame count, width and height must be at least 1"
        )
    if not (math.isfinite(fps) and fps > 0):
        raise ValueError(
            f"{path}: the header declares {fps} fps; the rate must be finite and positive"
        )


class _BlockFile:
    """Frames along the first axis of ``shape``, after a header in ``path``,
    which holds exactly those: the one reader and writer of frame dumps and
    grid stores. A subclass gives the format: ``_header`` packs ``_magic`` and
    the header fields, zero padded to ``_header_size`` bytes, then come the
    ``_dtype`` frames. Errors name the format ``_name`` and its frames
    ``_payload``; ``_magic_hint`` ends a bad-magic error."""

    _magic_hint = ""

    def __init__(self, path: Path | str, shape: tuple[int, ...]):
        self.path, self.shape, self.n_frames = path, shape, shape[0]
        self._frame_bytes = math.prod(shape[1:]) * self._dtype.itemsize
        size = os.stat(path).st_size
        expected = self._header_size + self.n_frames * self._frame_bytes
        if size == expected:
            return
        problem = f"truncated {self._payload}" if size < expected else "trailing bytes"
        message = (f"{path}: {problem}: the file has {size} bytes, but its header declares "
                   f"{self.n_frames} frames of {'x'.join(map(str, shape[1:]))} "
                   f"{self._dtype.name}, {expected} bytes with the header")
        if size < expected:
            whole = (size - self._header_size) // self._frame_bytes
            message += (f"; frame {whole}, starting at byte "
                        f"{self._header_size + whole * self._frame_bytes}, is incomplete")
        raise ValueError(message)

    @classmethod
    def _write(cls, path: Path | str, frames: np.ndarray, *fields) -> None:
        """``frames`` after a header of ``fields``."""
        with open(path, "wb") as fh:
            fh.write(cls._header.pack(cls._magic, *fields).ljust(cls._header_size, b"\0"))
            # The array's own buffer; tobytes() would be a second copy of the video.
            fh.write(np.ascontiguousarray(frames, dtype=cls._dtype).data)

    @classmethod
    def _read_header(cls, path: Path | str) -> tuple:
        """The fields after the magic of the header of ``path``."""
        with open(path, "rb") as fh:
            header = fh.read(cls._header_size)
        if header[:4] != cls._magic:
            raise ValueError(f"{path}: bad {cls._name} magic {header[:4]!r}, expected "
                             f"{cls._magic!r}{cls._magic_hint}")
        if len(header) < cls._header_size:
            raise ValueError(f"{path}: truncated {cls._name} header")
        return cls._header.unpack(header[: cls._header.size])[1:]

    def _blocks(self, starts, size: int):
        """For each of ``starts``, that start and its frames [start, start +
        size), or those up to the last frame, all read into one buffer: a block
        holds its frames only until the next is read."""
        buffer = np.empty((min(size, self.n_frames), *self.shape[1:]), dtype=self._dtype)
        with open(self.path, "rb") as fh:
            for start in starts:
                block = buffer[: max(0, min(size, self.n_frames - start))]
                fh.seek(self._header_size + start * self._frame_bytes)
                got = fh.readinto(block.data)
                if got != block.nbytes:
                    raise ValueError(
                        f"{self.path}: truncated {self._payload}: read {got} of {block.nbytes} "
                        f"bytes of frames {start} to {start + len(block) - 1}; frame "
                        f"{start + got // self._frame_bytes} is missing, so the file shrank "
                        "after its size was checked"
                    )
                yield start, block


def write_frame_dump(path: Path | str, frames: np.ndarray, fps: float) -> None:
    """Write planar 8-bit RGB frames of shape (n_frames, 3, height, width)."""
    frames = np.asarray(frames)
    if frames.ndim != 4 or frames.shape[1] != 3:
        raise ValueError("frames must have shape (n_frames, 3, height, width)")
    if frames.dtype != np.uint8:
        raise ValueError(f"frames must be uint8, not {frames.dtype}")
    n, _, h, w = frames.shape
    _check_dump_header(path, n, w, h, fps)
    FrameDump._write(path, frames, w, h, n, fps)


class FrameDump(_BlockFile):
    """A frame dump whose header and size :func:`read_frame_dump` checked.

    It holds no pixels: ``len()`` is the frame count, ``shape`` is
    (n_frames, 3, height, width) of uint8, and :meth:`blocks` reads the
    frames in order.
    """

    _name, _payload, _magic, _dtype = "frame-dump", "frame data", b"RFD1", np.dtype(np.uint8)
    _header, _header_size = struct.Struct("<4sIII d"), 32  # magic, width, height, frames, fps

    def __len__(self) -> int:
        return self.n_frames

    def blocks(self, size: int):
        """Consecutive blocks of at most ``size`` frames, all read into one
        buffer: a block holds its frames only until the next is read."""
        for _, block in self._blocks(range(0, len(self), size), size):
            yield block


def read_frame_dump(path: Path | str) -> tuple[FrameDump, float]:
    """A :class:`FrameDump` of shape (n_frames, 3, height, width) and the fps
    of a frame dump. Only the header is read: it must declare at least one
    frame of at least 1x1 pixels at a finite positive fps, and the file must
    hold exactly the header and the frames it declares."""
    w, h, n, fps = FrameDump._read_header(path)
    _check_dump_header(path, n, w, h, fps)
    return FrameDump(path, (n, 3, h, w)), fps


def write_poses_json(path: Path | str, poses: list[PoseKeypoints]) -> None:
    doc = {
        "frames": [
            {
                "time_s": p.frame_time_s,
                "points": [
                    {
                        "name": name,
                        "x": float(p.xy[i, 0]),
                        "y": float(p.xy[i, 1]),
                        "visibility": float(p.visibility[i]),
                    }
                    for i, name in enumerate(p.names)
                ],
            }
            for p in poses
        ]
    }
    write_json(path, doc)


def read_poses_json(path: Path | str) -> list[PoseKeypoints]:
    """The keypoints of each frame; text that is not JSON, a missing key or a
    value of the wrong type is named with the file."""
    doc = _load_json(path, "keypoint file")
    poses = []
    try:
        for frame in doc["frames"]:
            names = tuple(pt["name"] for pt in frame["points"])
            xy = np.asarray([[pt["x"], pt["y"]] for pt in frame["points"]], dtype=np.float64)
            vis = np.asarray([pt["visibility"] for pt in frame["points"]], dtype=np.float64)
            poses.append(
                PoseKeypoints(names=names, xy=xy, visibility=vis, frame_time_s=frame["time_s"])
            )
    except KeyError as exc:
        raise ValueError(f"{path}: keypoint data has no key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return poses


def write_grid(path_means: Path | str, path_meta: Path | str, grid: SubregionGrid) -> None:
    """Cell means as a grid store plus a JSON geometry sidecar; a grid read
    back equals ``grid`` bit for bit."""
    n, rows, cols, _ = grid.values.shape
    GridStore._write(path_means, grid.values, n, rows, cols)
    meta = {key: getattr(grid, key) for key in _GRID_META_KEYS}
    write_json(path_meta, {**meta, "skin_fraction": grid.skin_fraction.tolist()})


class GridStore(_BlockFile):
    """A grid store whose header, size and sidecar :func:`open_grid_store`
    checked.

    It holds no cell means: ``n_frames`` is the header's frame count, the
    rate, start time, geometry and skin fraction are the sidecar's, and
    :meth:`windows` reads frames.
    """

    _name, _payload, _magic, _dtype = "grid-store", "grid values", b"RGM1", np.dtype("<f8")
    _header, _header_size = struct.Struct("<4sIII"), 16  # magic, frames, rows, cols
    _magic_hint = ("; grid cell means are no longer read from CSV, so re-run `bodyppg synth` "
                   "to write the session's grid store")

    def __init__(self, path: Path | str, n_frames: int, geometry: SubregionGrid):
        super().__init__(path, (n_frames, geometry.rows, geometry.cols, 3))
        self._geometry = geometry
        self.rows, self.cols = geometry.rows, geometry.cols
        self.sample_rate_hz, self.start_time_s = geometry.sample_rate_hz, geometry.start_time_s
        self.origin_px, self.cell_px = geometry.origin_px, geometry.cell_px
        self.skin_fraction = geometry.skin_fraction

    def windows(self, starts, n: int):
        """For each of ``starts``, the grid of frames [start, start + n), or of
        those up to the last frame as :meth:`SubregionGrid.windows` gives, all
        read into one buffer: a window holds its frames only until the next is
        read. Each block must be whole, and each mean finite and non-negative."""
        for start, block in self._blocks(starts, n):
            _check_cell_means(self.path, block, start)
            yield self._geometry.at_frame(start, block)


def _check_cell_means(path: Path | str, block: np.ndarray, first_frame: int) -> None:
    """Cell means are averages of pixel intensities: each value of ``block``,
    frames ``first_frame`` onwards of ``path``, must be finite and non-negative."""
    bad = first_bad_cell_mean(block)
    if bad is None:
        return
    f, row, col, ch = bad
    raise ValueError(
        f"{path}: frame {first_frame + f}, cell ({row}, {col}) has a {'RGB'[ch]} mean of "
        f"{float(block[f, row, col, ch])!r}; cell means must be finite and non-negative"
    )



def _grid_geometry(path_means: Path | str, path_meta: Path | str,
                   rows: int, cols: int) -> SubregionGrid:
    """The rate, start time and geometry of sidecar ``path_meta`` over zero
    frames of the ``rows`` x ``cols`` cells of store ``path_means``; the
    sidecar must have every key, those cells and a finite positive rate."""
    meta = _load_json(path_meta, "grid sidecar")
    if not isinstance(meta, dict):
        raise ValueError(f"{path_meta}: a grid sidecar must hold a JSON object")
    for key in _GRID_META_KEYS:
        if key not in meta:
            raise ValueError(f"{path_meta}: the grid sidecar has no key {key!r}")
    fps = meta["sample_rate_hz"]
    if not (_is_number(fps) and math.isfinite(fps) and fps > 0):
        raise ValueError(
            f"{path_meta}: sample_rate_hz {fps} must be finite and positive, "
            "or the frame times of the grid do not increase"
        )
    if (rows, cols) != (meta["rows"], meta["cols"]):
        raise ValueError(
            f"{path_means}: the header declares {rows}x{cols} cells, but "
            f"{path_meta} declares {meta['rows']}x{meta['cols']}"
        )
    try:
        skin = np.asarray(meta["skin_fraction"], dtype=np.float64)
    except (TypeError, ValueError):
        skin = None
    if skin is None or skin.shape != (rows, cols):
        raise ValueError(
            f"{path_meta}: skin_fraction must be a {rows}x{cols} array of numbers, "
            "one per cell"
        )
    start_s, origin, cell_px = meta["start_time_s"], meta["origin_px"], meta["cell_px"]
    if not (_is_int(cell_px) and cell_px >= 1):
        raise ValueError(f"{path_meta}: cell_px {cell_px!r} must be an integer of at least 1")
    if not (isinstance(origin, list) and len(origin) == 2 and all(map(_is_int, origin))):
        raise ValueError(f"{path_meta}: origin_px {origin!r} must be two integers")
    if not (_is_number(start_s) and math.isfinite(start_s)):
        raise ValueError(f"{path_meta}: start_time_s {start_s!r} must be a finite number")
    return SubregionGrid(np.empty((0, rows, cols, 3)), meta["sample_rate_hz"], start_s,
                         tuple(origin), cell_px, skin)


def _is_int(value) -> bool:
    """An int that is not a bool, as a JSON integer parses."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or float that is not a bool, as a JSON number parses."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def open_grid_store(path_means: Path | str, path_meta: Path | str) -> GridStore:
    """A :class:`GridStore` of a store :func:`write_grid` wrote. Only the
    header and the sidecar are read: the store must have the magic, exactly
    the values its header declares, and the rows and cols of the sidecar,
    whose rate must be finite and positive so frame times increase."""
    n, rows, cols = GridStore._read_header(path_means)
    return GridStore(path_means, n, _grid_geometry(path_means, path_meta, rows, cols))


def read_grid(path_means: Path | str, path_meta: Path | str) -> SubregionGrid:
    """The whole grid of a store :func:`write_grid` wrote: the one window of
    :meth:`GridStore.windows` over all its frames."""
    store = open_grid_store(path_means, path_meta)
    (grid,) = store.windows([0], store.n_frames)
    return grid


def _cell_sums(a: np.ndarray, rows: int, cols: int, cell_px: int) -> np.ndarray:
    """Exact int64 sums over the ``cell_px`` x ``cell_px`` cells tiling the
    top-left ``rows`` x ``cols`` cells of the last two axes of ``a``: each
    cell's pixel rows are added first, then the columns of those row sums."""
    a = a[..., : rows * cell_px, : cols * cell_px]
    lead = a.shape[:-2]
    rows_summed = a.reshape(lead + (rows, cell_px, cols * cell_px)).sum(axis=-2, dtype=np.int64)
    return rows_summed.reshape(lead + (rows, cols, cell_px)).sum(axis=-1)


class _Region:
    """Per-frame sums over one mask: of its pixels or, given a cell size, of
    the grid cells tiling its bounding box, never both. The sums are exact
    integers, kept in the float64 array that becomes the means once divided
    by pixel counts."""

    def __init__(self, label: str, mask: np.ndarray, n_frames: int, cell_px: int | None):
        ys, xs = np.nonzero(mask)
        if not ys.size:
            raise ValueError(f"mask {label!r} selects no pixels")
        self.label, self.cell_px = label, cell_px
        if cell_px is None:
            self.picked = np.flatnonzero(mask)
            self.sums = np.empty((n_frames, 3))
            return
        self.box = np.s_[int(ys.min()) : int(ys.max()) + 1, int(xs.min()) : int(xs.max()) + 1]
        bh, bw = mask[self.box].shape
        cols, rows = grid_geometry(bw, bh, cell_px)
        if cols < 1 or rows < 1:
            raise ValueError(
                f"mask {label!r} bounding box {bw}x{bh} is smaller than one {cell_px}px cell"
            )
        self.sums = np.empty((n_frames, rows, cols, 3))
        self.skin_fraction = _cell_sums(mask[self.box], rows, cols, cell_px) / cell_px**2

    def add(self, block: np.ndarray, f0: int) -> None:
        """Sum the frames of ``block``, frames ``f0`` onwards of the video."""
        f1 = f0 + len(block)
        if self.cell_px is None:
            planes = block.reshape(len(block), 3, -1)
            self.sums[f0:f1] = np.take(planes, self.picked, axis=2).sum(axis=2, dtype=np.int64)
        else:
            sums = _cell_sums(block[(..., *self.box)], *self.sums.shape[1:3], self.cell_px)
            self.sums[f0:f1] = sums.transpose(0, 2, 3, 1)

    def means(self, fps: float) -> RGBTrace | SubregionGrid:
        """The region's RGB trace or, given a cell size, its grid."""
        if self.cell_px is None:
            means = np.divide(self.sums, self.picked.size, out=self.sums)
            return RGBTrace(*(Waveform(c, fps) for c in means.T), roi_label=self.label)
        return SubregionGrid(
            # C-ordered (n, rows, cols, 3): scoring reduces along its axes,
            # and a strided layout could change the sums' last bits.
            values=np.divide(self.sums, self.cell_px**2, out=self.sums),
            sample_rate_hz=fps,
            start_time_s=0.0,
            origin_px=(self.box[1].start, self.box[0].start),
            cell_px=self.cell_px,
            skin_fraction=self.skin_fraction,
        )


def extract_traces(
    frames: FrameDump,
    fps: float,
    masks: dict[str, np.ndarray],
    grid_cell_px: int | None = None,
) -> dict[str, RGBTrace] | dict[str, SubregionGrid]:
    """Spatially average the pixels of each region, per frame.

    Without ``grid_cell_px``, returns per-region RGB traces of the masked
    skin pixels. With it, returns instead per-region grids of per-cell means
    tiling each region's mask bounding box with
    :func:`~bodyppg.grid.grid_geometry` whole cells; cell means average all
    pixels in the cell, and the mask only determines each cell's skin
    fraction, which gates scoring later. Either starts at time 0.

    ``frames`` is the :class:`FrameDump` that :func:`read_frame_dump`
    returns; the format holds uint8 pixels only. It is read once, in blocks
    of ``_CHUNK_FRAMES`` frames into one buffer, so the video is never held
    in memory whole. Every mean is an int64 sum of the 8-bit pixels divided
    by their count: such sums are exact in any order, so each mean is the
    exact average whatever the block size.

    Raises:
        ValueError: for an empty mask, a mask that does not match the frame
            dimensions, a ``grid_cell_px`` below 1, or a frame dump that no
            longer holds the frames its header declares.
    """
    n, _, height, width = frames.shape

    regions = []
    for label, mask in masks.items():
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (height, width):
            raise ValueError(
                f"mask {label!r} has shape {mask.shape}, frames are {(height, width)}"
            )
        regions.append(_Region(label, mask, n, grid_cell_px))

    for block, f0 in zip(frames.blocks(_CHUNK_FRAMES), range(0, n, _CHUNK_FRAMES)):
        for region in regions:
            region.add(block, f0)
    return {r.label: r.means(fps) for r in regions}


@dataclass(frozen=True)
class SessionManifest:
    """Validated description of one recording session.

    :meth:`load` checks that every file the manifest names exists and that
    the video and oximeter rates are finite and positive, and parses no
    file. Each loader reads only the files its result needs, on every call,
    checking each trace and sensor stream against the portions; no command
    calls a loader twice, so each input is parsed once per command.
    ``files_read`` lists every trace, sensor, oximeter, grid, keypoint and
    PGM mask file the loaders read; frame dumps are not listed.
    """

    session_id: str
    path: Path
    root: Path
    fps: float
    width: int
    height: int
    frames_path: Path | None
    trace_paths: dict[str, Path]
    grid_paths: dict[str, tuple[Path, Path]]
    sensors: tuple[tuple[str, Path, str], ...]
    oximeter_path: Path
    oximeter_rate_hz: float
    rois: tuple[dict, ...]
    keypoints_path: Path | None
    portions: tuple[tuple[str, float, float], ...]
    files_read: list[Path] = field(default_factory=list, init=False, compare=False)

    @classmethod
    def load(cls, path: Path | str) -> "SessionManifest":
        path = Path(path)
        doc = _load_json(path, "manifest")
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: a manifest must hold a JSON object")
        root = path.parent

        def resolve(rel: str) -> Path:
            p = root / rel
            if not p.exists():
                raise FileNotFoundError(f"manifest references missing file: {p}")
            return p

        try:
            video, oximeter = doc["video"], doc["oximeter"]
            manifest = cls(
                session_id=doc["session_id"],
                path=path,
                root=root,
                fps=float(video["fps"]),
                width=int(video["width"]),
                height=int(video["height"]),
                frames_path=resolve(video["frames"]) if "frames" in video else None,
                trace_paths={label: resolve(rel) for label, rel in video.get("traces", {}).items()},
                grid_paths={
                    label: (resolve(entry["means"]), resolve(entry["meta"]))
                    for label, entry in video.get("grids", {}).items()
                },
                sensors=tuple(
                    (s["site"], resolve(s["path"]), s.get("channel", "ir"))
                    for s in doc.get("sensors", [])
                ),
                oximeter_path=resolve(oximeter["path"]),
                oximeter_rate_hz=float(oximeter["rate_hz"]),
                rois=tuple(doc.get("rois", [])),
                keypoints_path=resolve(doc["keypoints"]) if "keypoints" in doc else None,
                portions=tuple(
                    (p["name"], float(p["start_s"]), float(p["end_s"]))
                    for p in doc.get("portions", [])
                ),
            )
        except KeyError as exc:
            raise ValueError(f"{path}: the manifest has no key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None
        for key, rate in (("video.fps", manifest.fps),
                          ("oximeter.rate_hz", manifest.oximeter_rate_hz)):
            if not (math.isfinite(rate) and rate > 0):
                raise ValueError(f"{path}: {key} is {rate}; it must be finite and positive")
        manifest.validate()
        return manifest

    def validate(self) -> None:
        """Check that every portion span starts at 0 or later and before it ends."""
        for name, start_s, end_s in self.portions:
            if not (0.0 <= start_s < end_s):
                raise ValueError(f"portion {name!r} has a bad span [{start_s}, {end_s}]")

    def _checked_stream(self, path: Path, wave: Waveform) -> Waveform:
        """``wave``, read from ``path``, once every portion ends within it."""
        for name, _, end_s in self.portions:
            if end_s > wave.end_time_s + 1e-6:
                raise ValueError(
                    f"portion {name!r} ends at {end_s} s, beyond the end of {path} "
                    f"at {wave.end_time_s:.3f} s"
                )
        return wave

    def _masked_rois(self) -> set[str]:
        """Labels of the ROIs that can be extracted from the frame dump."""
        return {r["label"] for r in self.rois if "mask" in r and self.frames_path is not None}

    def trace_rois(self) -> list[str]:
        """Sorted labels of the ROIs with a trace CSV or, given a frame dump, a mask."""
        return sorted(set(self.trace_paths) | self._masked_rois())

    def mask_path(self, roi: str) -> Path:
        """The PGM mask of ``roi``, one of :meth:`_masked_rois`."""
        return self.root / next(e["mask"] for e in self.rois
                                if e.get("label") == roi and "mask" in e)

    def _extract(self, rois: list[str], grid_cell_px: int | None = None):
        """:func:`extract_traces` over the masks of ``rois`` (all in
        :meth:`_masked_rois`), in one pass over the frame dump: their traces
        or, given a cell size, their grids."""
        masks = {}
        for roi in rois:
            mask_path = self.mask_path(roi)
            if not mask_path.exists():
                raise FileNotFoundError(f"mask for ROI {roi!r} missing: {mask_path}")
            masks[roi] = read_pgm(mask_path)
            self.files_read.append(mask_path)
        frames, fps = read_frame_dump(self.frames_path)
        if abs(fps - self.fps) > RATE_TOLERANCE * self.fps:
            raise ValueError(
                f"{self.frames_path}: frame dump rate {fps:g} fps deviates from the "
                f"declared {self.fps:g} fps"
            )
        height, width = frames.shape[2:]
        if (width, height) != (self.width, self.height):
            raise ValueError(
                f"{self.frames_path}: frames are {width}x{height} pixels, the manifest "
                f"declares {self.width}x{self.height}"
            )
        for roi, mask in masks.items():
            if mask.shape != (height, width):
                raise ValueError(
                    f"{self.mask_path(roi)}: the mask of ROI {roi!r} is "
                    f"{mask.shape[1]}x{mask.shape[0]} pixels, the frames of "
                    f"{self.frames_path} are {width}x{height}"
                )
        return extract_traces(frames, fps, masks, grid_cell_px=grid_cell_px)

    def load_traces(self, rois: list[str]) -> dict[str, RGBTrace]:
        """ROI traces from their CSVs; the others are extracted together from
        the frame dump and their masks."""
        missing = [roi for roi in rois if roi not in self.trace_paths]
        unknown = [roi for roi in missing if roi not in self._masked_rois()]
        if unknown:
            raise KeyError(f"unknown ROI {unknown[0]!r}; valid labels: {self.trace_rois()}")
        traces = self._extract(missing) if missing else {}
        for roi in rois:
            if roi in self.trace_paths:
                path = self.trace_paths[roi]
                self.files_read.append(path)
                traces[roi] = read_trace_csv(path, roi_label=roi, declared_rate_hz=self.fps)
                self._checked_stream(path, traces[roi].r)
        return {roi: traces[roi] for roi in rois}

    def load_trace(self, roi: str) -> RGBTrace:
        """ROI trace from its CSV, or extracted from the frame dump + mask."""
        return self.load_traces([roi])[roi]

    def load_sensor_bank(self, delta_y_bpm: float = DELTA_Y_BPM_DEFAULT) -> SensorBank:
        """The contact sensors and the oximeter."""
        self.files_read.extend([p for _, p, _ in self.sensors] + [self.oximeter_path])
        channels = tuple(
            (site, self._checked_stream(p, read_sensor_csv(p, channel=channel)))
            for site, p, channel in self.sensors
        )
        oximeter = read_oximeter_csv(self.oximeter_path, declared_rate_hz=self.oximeter_rate_hz)
        conflict = channel_conflict(channels) if channels else None
        if conflict is not None:
            paths = {site: p for site, p, _ in self.sensors}
            site_a, site_b, problem = conflict
            raise ValueError(f"{paths[site_a]}, {paths[site_b]}: {problem}")
        return SensorBank(channels, oximeter, delta_y_bpm)

    def load_grid(self, roi: str) -> GridStore | SubregionGrid:
        """The ROI's grid store, checked but not read, or its grid extracted
        from the frame dump in cells of ``DEFAULT_CELL_PX``. Both read their
        windows with ``windows()``. A store's sidecar rate must be within
        ``RATE_TOLERANCE`` of ``video.fps``, as a frame dump's must."""
        if roi in self.grid_paths:
            self.files_read.extend(self.grid_paths[roi])
            store = open_grid_store(*self.grid_paths[roi])
            if not abs(store.sample_rate_hz - self.fps) <= RATE_TOLERANCE * self.fps:
                raise ValueError(
                    f"{self.grid_paths[roi][1]}: sample_rate_hz {store.sample_rate_hz:.6g} Hz "
                    f"deviates more than {RATE_TOLERANCE:.1%} from video.fps "
                    f"{self.fps:.6g} of {self.path}"
                )
            return store
        masked = self._masked_rois()
        if roi not in masked:
            valid = sorted(set(self.grid_paths) | masked)
            raise KeyError(f"unknown ROI {roi!r}; valid labels: {valid}")
        return self._extract([roi], grid_cell_px=DEFAULT_CELL_PX)[roi]

    def load_poses(self) -> list[PoseKeypoints]:
        if self.keypoints_path is None:
            return []
        self.files_read.append(self.keypoints_path)
        return read_poses_json(self.keypoints_path)
