"""Drive the batch CLI end to end on a synthetic session.

Generates a full session (sensors, oximeter, traces, grid means, poses,
manifest), fuses the ground truth, estimates and scores a POS pulse, maps
grid quality, and computes the transit-time matrix. Everything lands under
./cli-demo with a config echo per command.

The output is the same bytes on every run; demos/cli-demo.sha256 holds the
SHA-256 of each file, written from the directory holding cli-demo/ by
``find cli-demo -type f | LC_ALL=C sort | xargs sha256sum``.
"""

import json
import shutil
from pathlib import Path

from bodyppg.cli import main

root = Path("cli-demo")
shutil.rmtree(root, ignore_errors=True)
manifest = str(root / "session" / "manifest.json")

steps = [
    ["synth", "--out-dir", str(root / "session"), "--seed", "7", "--duration-s", "60"],
    ["fuse-gt", "--manifest", manifest, "--out-dir", str(root / "fused")],
    ["estimate", "--manifest", manifest, "--roi", "face", "--method", "pos",
     "--out-dir", str(root / "estimate")],
    ["grid-map", "--manifest", manifest, "--roi", "face", "--out-dir", str(root / "grid")],
    ["ptt", "--manifest", manifest, "--window-s", "5", "--stride-s", "0.5",
     "--max-lag-s", "0.3", "--out-dir", str(root / "ptt")],
]
for argv in steps:
    print("$ bodyppg " + " ".join(argv))
    rc = main(argv)
    assert rc == 0, f"command failed: {argv}"

score = json.loads((root / "estimate" / "score_face_pos.json").read_text())
print(f"\nface POS: MAE {score['mae_bpm']:.2f} bpm, r {score['pearson_r']:.3f}, "
      f"SNR {score['snr_db']:.1f} dB over {score['n_windows']} windows")

matrix = json.loads((root / "ptt" / "ptt_matrix.json").read_text())
truth = json.loads((root / "session" / "ground_truth.json").read_text())["sensor_delays_s"]
sites = matrix["sites"]
largest = max(
    ((i, j) for i in range(len(sites)) for j in range(len(sites))),
    key=lambda ij: matrix["mean_lag_ms"][ij[0]][ij[1]],
)
i, j = largest
print(f"largest transit offset: {sites[i]} -> {sites[j]} = "
      f"{matrix['mean_lag_ms'][i][j]:.1f} ms "
      f"(injected {1000 * (truth[sites[j]] - truth[sites[i]]):.1f} ms)")
print(f"artifacts under {root}/")
