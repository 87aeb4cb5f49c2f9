"""Session data model and file formats.

One recording session is described by a JSON manifest pointing at sensor
CSVs, an oximeter CSV, RGB traces (or a raw frame dump plus masks), grid
cell means, and pose keypoints. All 1-D signals travel as CSV, structured
results as JSON, and maps as plain float grids, so every artifact stays
diffable and language-neutral.

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
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import PoseKeypoints, SubregionGrid
from .pulse_rate import PulseRateSeries
from .rppg import RGBTrace
from .signals import Waveform

__all__ = [
    "SessionManifest",
    "read_waveform_csv",
    "write_waveform_csv",
    "read_sensor_csv",
    "read_oximeter_csv",
    "read_rate_csv",
    "write_rate_csv",
    "read_trace_csv",
    "write_trace_csv",
    "read_pgm",
    "write_pgm",
    "read_frame_dump",
    "write_frame_dump",
    "read_poses_json",
    "write_poses_json",
    "read_grid",
    "write_grid",
    "extract_traces",
    "RATE_TOLERANCE",
]

# Declared and inferred sample rates must agree to within this fraction.
RATE_TOLERANCE = 1e-3

_FRAME_DUMP_MAGIC = b"RFD1"
_FRAME_DUMP_HEADER = struct.Struct("<4sIII d")  # magic, width, height, frames, fps
_FRAME_DUMP_HEADER_SIZE = 32

_FLOAT_FMT = "%.12g"
# Grid CSVs are checked in blocks of whole frames of about this many lines.
_GRID_CHECK_LINES = 1 << 15


def _check_rate(inferred: float, declared: float | None, path: Path | str) -> float:
    if declared is None:
        return inferred
    if abs(inferred - declared) > RATE_TOLERANCE * declared:
        raise ValueError(
            f"{path}: inferred sample rate {inferred:.6g} Hz deviates more than "
            f"{RATE_TOLERANCE:.1%} from the declared {declared:.6g} Hz"
        )
    return declared


def _load_csv(path: Path | str, expected_columns: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)
    if data.shape[1] != expected_columns:
        raise ValueError(
            f"{path}: expected {expected_columns} columns, found {data.shape[1]}"
        )
    return data


def _infer_rate(times: np.ndarray, path: Path | str) -> float:
    if times.size < 2:
        raise ValueError(f"{path}: need at least two samples to infer a rate")
    span = times[-1] - times[0]
    if span <= 0:
        raise ValueError(f"{path}: timestamps must increase")
    return (times.size - 1) / span


def read_waveform_csv(path: Path | str, declared_rate_hz: float | None = None) -> Waveform:
    data = _load_csv(path, 2)
    rate = _check_rate(_infer_rate(data[:, 0], path), declared_rate_hz, path)
    return Waveform(data[:, 1], rate, float(data[0, 0]))


def write_waveform_csv(path: Path | str, w: Waveform) -> None:
    out = np.column_stack([w.times(), w.samples])
    np.savetxt(path, out, delimiter=",", header="time_s,value", comments="", fmt=_FLOAT_FMT)


def read_sensor_csv(
    path: Path | str, channel: str = "ir", declared_rate_hz: float | None = None
) -> Waveform:
    """One channel of a two-channel (red, infrared) contact sensor CSV."""
    columns = {"red": 1, "ir": 2}
    if channel not in columns:
        raise ValueError(f"unknown sensor channel {channel!r}; expected one of {sorted(columns)}")
    data = _load_csv(path, 3)
    rate = _check_rate(_infer_rate(data[:, 0], path), declared_rate_hz, path)
    return Waveform(data[:, columns[channel]], rate, float(data[0, 0]))


def read_oximeter_csv(
    path: Path | str, declared_rate_hz: float | None = None
) -> PulseRateSeries:
    """Fingertip oximeter pulse-rate stream; the SpO2 column is ignored."""
    data = _load_csv(path, 3)
    _check_rate(_infer_rate(data[:, 0], path), declared_rate_hz, path)
    return PulseRateSeries(
        times_s=data[:, 0],
        rates_bpm=data[:, 1],
        window_length_s=0.0,
        band_bpm=(30.0, 240.0),
    )


def write_rate_csv(path: Path | str, series: PulseRateSeries) -> None:
    header = (
        "time_s,bpm\n"
        f"# window_length_s={series.window_length_s:g} "
        f"band_bpm={series.band_bpm[0]:g}:{series.band_bpm[1]:g} "
        f"n_skipped={series.n_skipped}"
    )
    out = np.column_stack([series.times_s, series.rates_bpm])
    np.savetxt(path, out, delimiter=",", header=header, comments="", fmt=_FLOAT_FMT)


def read_rate_csv(path: Path | str) -> PulseRateSeries:
    meta = {"window_length_s": 0.0, "band_bpm": (0.1, 1e6), "n_skipped": 0}
    with open(path) as fh:
        lines = [fh.readline() for _ in range(3)]
    comment = next((line for line in lines if line.startswith("#")), "")
    for token in comment[1:].split():
        key, _, value = token.partition("=")
        if key == "window_length_s":
            meta["window_length_s"] = float(value)
        elif key == "band_bpm":
            lo, _, hi = value.partition(":")
            meta["band_bpm"] = (float(lo), float(hi))
        elif key == "n_skipped":
            meta["n_skipped"] = int(value)
    data = _load_csv(path, 2)
    return PulseRateSeries(
        times_s=data[:, 0],
        rates_bpm=data[:, 1],
        window_length_s=meta["window_length_s"],
        band_bpm=meta["band_bpm"],
        n_skipped=meta["n_skipped"],
    )


def write_trace_csv(path: Path | str, trace: RGBTrace) -> None:
    out = np.column_stack(
        [trace.r.times(), trace.r.samples, trace.g.samples, trace.b.samples]
    )
    np.savetxt(path, out, delimiter=",", header="time_s,r,g,b", comments="", fmt=_FLOAT_FMT)


def read_trace_csv(
    path: Path | str, roi_label: str = "", declared_rate_hz: float | None = None
) -> RGBTrace:
    data = _load_csv(path, 4)
    rate = _check_rate(_infer_rate(data[:, 0], path), declared_rate_hz, path)
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
    """Boolean mask from a binary PGM; values of 128 and above count as true."""
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
            fields.extend(int(v) for v in line.split())
        width, height, maxval = fields[:3]
        if maxval > 255:
            raise ValueError(f"{path}: 16-bit PGM not supported")
        raw = fh.read(width * height)
        if len(raw) != width * height:
            raise ValueError(f"{path}: truncated PGM pixel data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, width) >= 128


def write_frame_dump(path: Path | str, frames: np.ndarray, fps: float) -> None:
    """Write planar 8-bit RGB frames of shape (n_frames, 3, height, width)."""
    frames = np.asarray(frames, dtype=np.uint8)
    if frames.ndim != 4 or frames.shape[1] != 3:
        raise ValueError("frames must have shape (n_frames, 3, height, width)")
    n, _, h, w = frames.shape
    header = _FRAME_DUMP_HEADER.pack(_FRAME_DUMP_MAGIC, w, h, n, fps)
    header = header.ljust(_FRAME_DUMP_HEADER_SIZE, b"\0")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(frames.tobytes())


def read_frame_dump(path: Path | str) -> tuple[np.ndarray, float]:
    with open(path, "rb") as fh:
        header = fh.read(_FRAME_DUMP_HEADER_SIZE)
        if len(header) < _FRAME_DUMP_HEADER_SIZE:
            raise ValueError(f"{path}: truncated frame-dump header")
        magic, w, h, n, fps = _FRAME_DUMP_HEADER.unpack(header[: _FRAME_DUMP_HEADER.size])
        if magic != _FRAME_DUMP_MAGIC:
            raise ValueError(f"{path}: bad frame-dump magic {magic!r}")
        raw = fh.read(n * 3 * h * w)
        if len(raw) != n * 3 * h * w:
            raise ValueError(f"{path}: truncated frame data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(n, 3, h, w), fps


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
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_poses_json(path: Path | str) -> list[PoseKeypoints]:
    with open(path) as fh:
        doc = json.load(fh)
    poses = []
    for frame in doc["frames"]:
        names = tuple(pt["name"] for pt in frame["points"])
        xy = np.asarray([[pt["x"], pt["y"]] for pt in frame["points"]], dtype=np.float64)
        vis = np.asarray([pt["visibility"] for pt in frame["points"]], dtype=np.float64)
        poses.append(
            PoseKeypoints(names=names, xy=xy, visibility=vis, frame_time_s=frame["time_s"])
        )
    return poses


def write_grid(path_csv: Path | str, path_meta: Path | str, grid: SubregionGrid) -> None:
    """Cell means as a long-format CSV plus a JSON geometry sidecar."""
    n, rows, cols, _ = grid.values.shape
    t = grid.start_time_s + np.arange(n) / grid.sample_rate_hz
    frame_col = np.repeat(t, rows * cols)
    row_col = np.tile(np.repeat(np.arange(rows), cols), n)
    col_col = np.tile(np.arange(cols), n * rows)
    flat = grid.values.reshape(n * rows * cols, 3)
    out = np.column_stack([frame_col, row_col, col_col, flat])
    np.savetxt(
        path_csv,
        out,
        delimiter=",",
        header="time_s,row,col,r,g,b",
        comments="",
        fmt=[_FLOAT_FMT, "%d", "%d", _FLOAT_FMT, _FLOAT_FMT, _FLOAT_FMT],
    )
    meta = {
        "rows": rows,
        "cols": cols,
        "cell_px": grid.cell_px,
        "origin_px": list(grid.origin_px),
        "sample_rate_hz": grid.sample_rate_hz,
        "start_time_s": grid.start_time_s,
        "skin_fraction": grid.skin_fraction.tolist(),
    }
    with open(path_meta, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_grid_order(data: np.ndarray, rows: int, cols: int, path: Path | str) -> None:
    """Reject grid CSV rows that are not in the order :func:`write_grid` writes.

    That order is frame-major, then row-major within a frame: every frame
    holds rows x cols lines with ``row``/``col`` counting 0,0 0,1 ... , one
    ``time_s`` shared by the frame, and frame times increasing. Errors name
    the first offending line (line 1 is the header).
    """
    cells = rows * cols
    if data.shape[0] % cells:
        first = data.shape[0] - data.shape[0] % cells
        raise ValueError(
            f"{path}: {data.shape[0]} data lines do not fill whole frames of "
            f"{rows}x{cols} cells; the frame starting at line {first + 2} is incomplete"
        )
    frames = data.reshape(-1, rows, cols, 6)
    frame_t = frames[:, 0, 0, 0]
    late = np.flatnonzero(~(frame_t[1:] > frame_t[:-1]))
    late_line = (int(late[0]) + 1) * cells if late.size else data.shape[0]
    # Blocks of whole frames keep the comparison temporaries small next to
    # the parsed file, so checking adds nothing to peak memory.
    step = max(1, _GRID_CHECK_LINES // cells)
    for f0 in range(0, min(len(frames), late_line // cells + 1), step):
        block = frames[f0 : f0 + step]
        t = block[..., 0]
        bad_cell = (block[..., 1] != np.arange(rows)[:, None]) | (block[..., 2] != np.arange(cols))
        bad = (bad_cell | (t != t[:, :1, :1])).ravel()
        if not bad.any():
            continue
        j = int(np.argmax(bad))
        i = f0 * cells + j
        if i > late_line:
            break
        if bad_cell.flat[j]:
            raise ValueError(
                f"{path}, line {i + 2}: expected row {i % cells // cols}, col {i % cols} "
                f"(frames hold cells in row-major order), found row {data[i, 1]:g}, "
                f"col {data[i, 2]:g}"
            )
        raise ValueError(
            f"{path}, line {i + 2}: time_s {data[i, 0]:.12g} differs from its frame's "
            f"time_s {data[i - i % cells, 0]:.12g}"
        )
    if late.size:
        raise ValueError(
            f"{path}, line {late_line + 2}: frame time_s {data[late_line, 0]:.12g} does not "
            f"increase past the previous frame's {data[late_line - cells, 0]:.12g}"
        )


def read_grid(path_csv: Path | str, path_meta: Path | str) -> SubregionGrid:
    """Grid written by :func:`write_grid`; lines out of its order are rejected."""
    with open(path_meta) as fh:
        meta = json.load(fh)
    data = _load_csv(path_csv, 6)
    rows, cols = meta["rows"], meta["cols"]
    _check_grid_order(data, rows, cols, path_csv)
    values = data[:, 3:6].reshape(-1, rows, cols, 3)
    return SubregionGrid(
        values=values,
        sample_rate_hz=meta["sample_rate_hz"],
        start_time_s=meta["start_time_s"],
        origin_px=tuple(meta["origin_px"]),
        cell_px=meta["cell_px"],
        skin_fraction=np.asarray(meta["skin_fraction"], dtype=np.float64),
    )


def extract_traces(
    frames: np.ndarray,
    fps: float,
    masks: dict[str, np.ndarray],
    grid_cell_px: int | None = None,
    start_time_s: float = 0.0,
) -> tuple[dict[str, RGBTrace], dict[str, SubregionGrid]]:
    """Spatially average masked skin pixels of each region, per frame.

    Returns per-region RGB traces, plus (when ``grid_cell_px`` is given) a
    grid of per-cell means tiling each region's mask bounding box. Cell means
    average all pixels in the cell; the mask only determines each cell's skin
    fraction, which gates scoring later.

    Raises:
        ValueError: for an empty mask or a mask that does not match the frame
            dimensions.
    """
    frames = np.asarray(frames)
    if frames.ndim != 4 or frames.shape[1] != 3:
        raise ValueError("frames must have shape (n_frames, 3, height, width)")
    _, _, height, width = frames.shape
    pixels = frames.astype(np.float64)

    traces: dict[str, RGBTrace] = {}
    grids: dict[str, SubregionGrid] = {}
    for label, mask in masks.items():
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (height, width):
            raise ValueError(
                f"mask {label!r} has shape {mask.shape}, frames are {(height, width)}"
            )
        if not np.any(mask):
            raise ValueError(f"mask {label!r} selects no pixels")
        means = pixels[:, :, mask].mean(axis=2)
        traces[label] = RGBTrace(
            Waveform(means[:, 0], fps, start_time_s),
            Waveform(means[:, 1], fps, start_time_s),
            Waveform(means[:, 2], fps, start_time_s),
            roi_label=label,
        )
        if grid_cell_px is not None:
            ys, xs = np.nonzero(mask)
            x0, y0 = int(xs.min()), int(ys.min())
            bw, bh = int(xs.max()) - x0 + 1, int(ys.max()) - y0 + 1
            cols, rows = bw // grid_cell_px, bh // grid_cell_px
            if cols < 1 or rows < 1:
                raise ValueError(
                    f"mask {label!r} bounding box {bw}x{bh} is smaller than one "
                    f"{grid_cell_px}px cell"
                )
            values = np.empty((frames.shape[0], rows, cols, 3))
            fraction = np.empty((rows, cols))
            for row in range(rows):
                for col in range(cols):
                    y = y0 + row * grid_cell_px
                    x = x0 + col * grid_cell_px
                    cell = pixels[:, :, y : y + grid_cell_px, x : x + grid_cell_px]
                    values[:, row, col, :] = cell.mean(axis=(2, 3))
                    fraction[row, col] = mask[
                        y : y + grid_cell_px, x : x + grid_cell_px
                    ].mean()
            grids[label] = SubregionGrid(
                values=values,
                sample_rate_hz=fps,
                start_time_s=start_time_s,
                origin_px=(x0, y0),
                cell_px=grid_cell_px,
                skin_fraction=fraction,
            )
    return traces, grids


@dataclass(frozen=True)
class SessionManifest:
    """Parsed and validated description of one recording session."""

    session_id: str
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

    @classmethod
    def load(cls, path: Path | str) -> "SessionManifest":
        path = Path(path)
        with open(path) as fh:
            doc = json.load(fh)
        root = path.parent

        def resolve(rel: str) -> Path:
            p = root / rel
            if not p.exists():
                raise FileNotFoundError(f"manifest references missing file: {p}")
            return p

        video = doc["video"]
        frames_path = resolve(video["frames"]) if "frames" in video else None
        trace_paths = {
            label: resolve(rel) for label, rel in video.get("traces", {}).items()
        }
        grid_paths = {
            label: (resolve(entry["means"]), resolve(entry["meta"]))
            for label, entry in video.get("grids", {}).items()
        }
        sensors = tuple(
            (s["site"], resolve(s["path"]), s.get("channel", "ir"))
            for s in doc.get("sensors", [])
        )
        oximeter = doc["oximeter"]
        manifest = cls(
            session_id=doc["session_id"],
            root=root,
            fps=float(video["fps"]),
            width=int(video["width"]),
            height=int(video["height"]),
            frames_path=frames_path,
            trace_paths=trace_paths,
            grid_paths=grid_paths,
            sensors=sensors,
            oximeter_path=resolve(oximeter["path"]),
            oximeter_rate_hz=float(oximeter["rate_hz"]),
            rois=tuple(doc.get("rois", [])),
            keypoints_path=resolve(doc["keypoints"]) if "keypoints" in doc else None,
            portions=tuple(
                (p["name"], float(p["start_s"]), float(p["end_s"]))
                for p in doc.get("portions", [])
            ),
        )
        manifest.validate()
        return manifest

    def validate(self) -> None:
        """Check declared rates against file contents and portion spans."""
        duration = 0.0
        for label, p in self.trace_paths.items():
            trace = read_trace_csv(p, roi_label=label, declared_rate_hz=self.fps)
            duration = max(duration, trace.r.end_time_s)
        for site, p, channel in self.sensors:
            wave = read_sensor_csv(p, channel=channel)
            duration = max(duration, wave.end_time_s)
        read_oximeter_csv(self.oximeter_path, declared_rate_hz=self.oximeter_rate_hz)
        for name, start_s, end_s in self.portions:
            if not (0.0 <= start_s < end_s):
                raise ValueError(f"portion {name!r} has a bad span [{start_s}, {end_s}]")
            if duration and end_s > duration + 1e-6:
                raise ValueError(
                    f"portion {name!r} ends at {end_s} s, beyond the session "
                    f"duration {duration:.3f} s"
                )

    def roi_labels(self) -> list[str]:
        labels = [r["label"] for r in self.rois]
        for label in self.trace_paths:
            if label not in labels:
                labels.append(label)
        return labels

    def _roi_mask_path(self, roi: str) -> Path | None:
        for entry in self.rois:
            if entry.get("label") == roi and "mask" in entry:
                p = self.root / entry["mask"]
                if not p.exists():
                    raise FileNotFoundError(f"mask for ROI {roi!r} missing: {p}")
                return p
        return None

    def _read_frames(self) -> tuple[np.ndarray, float]:
        frames, fps = read_frame_dump(self.frames_path)
        if abs(fps - self.fps) > RATE_TOLERANCE * self.fps:
            raise ValueError(
                f"frame dump rate {fps:g} fps deviates from the declared {self.fps:g} fps"
            )
        return frames, fps

    def load_trace(self, roi: str) -> RGBTrace:
        """ROI trace from its CSV, or extracted from the frame dump + mask."""
        if roi in self.trace_paths:
            return read_trace_csv(
                self.trace_paths[roi], roi_label=roi, declared_rate_hz=self.fps
            )
        mask_path = self._roi_mask_path(roi)
        if self.frames_path is not None and mask_path is not None:
            frames, fps = self._read_frames()
            traces, _ = extract_traces(frames, fps, {roi: read_pgm(mask_path)})
            return traces[roi]
        raise KeyError(
            f"unknown ROI {roi!r}; valid labels: {sorted(self.roi_labels())}"
        )

    def load_sensor_bank(self, delta_y_bpm: float = 30.0):
        from .fusion import SensorBank

        channels = tuple(
            (site, read_sensor_csv(p, channel=channel))
            for site, p, channel in self.sensors
        )
        oximeter = read_oximeter_csv(self.oximeter_path, declared_rate_hz=self.oximeter_rate_hz)
        return SensorBank(channels=channels, oximeter_rate=oximeter, delta_y_bpm=delta_y_bpm)

    def load_grid(self, roi: str, cell_px: int = 20) -> SubregionGrid:
        """Grid cell means from their CSV, or extracted from the frame dump."""
        if roi in self.grid_paths:
            means, meta = self.grid_paths[roi]
            return read_grid(means, meta)
        mask_path = self._roi_mask_path(roi)
        if self.frames_path is not None and mask_path is not None:
            frames, fps = self._read_frames()
            _, grids = extract_traces(
                frames, fps, {roi: read_pgm(mask_path)}, grid_cell_px=cell_px
            )
            return grids[roi]
        raise KeyError(
            f"no grid means for ROI {roi!r}; available: {sorted(self.grid_paths)}"
        )

    def load_poses(self) -> list[PoseKeypoints]:
        if self.keypoints_path is None:
            return []
        return read_poses_json(self.keypoints_path)
