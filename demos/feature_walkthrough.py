"""
From raw measurements to a model-ready feature row
===================================================

Builds one tiny episode by hand, walks it through window slicing and
per-window statistics, then extracts a full matrix from a synthetic
cohort and scales it to [-1, 1].

Run:  python3 demos/feature_walkthrough.py
"""

import numpy as np

from fedhosp.data import SyntheticConfig, generate
from fedhosp.features import (
    STAT_NAMES,
    WINDOW_NAMES,
    Episode,
    extract,
    feature_names,
    fit_scaler,
    slice_windows,
    transform,
    window_stats,
)

# --- one episode, one variable -------------------------------------------
# Heart rate measured four times over a 48-hour stay.  Hours are relative
# to admission; the label says whether the patient died in hospital.
episode = Episode(
    episode_id="demo01",
    series={"heart_rate": ((0.0, 88.0), (6.0, 95.0), (30.0, 110.0), (47.5, 72.0))},
    label=0,
)

windows = slice_windows(episode.series["heart_rate"])
print("window membership for the four readings:")
for name, contents in zip(WINDOW_NAMES, windows):
    hours = [h for h, _ in contents]
    print(f"  {name:<8} hours={hours}")

# The first-10% window is [0, 4.8h): only the admission reading lands there.
# The last-50% window is [24h, 48h]: the two late readings.

print("\nstatistics per window (max, min, mean, std, skew, count):")
for name, contents in zip(WINDOW_NAMES, windows):
    values = [v for _, v in contents]
    stats = window_stats(values)
    print(f"  {name:<8} " + "  ".join(f"{s:8.3f}" for s in stats))

# Empty windows contribute zeros, so every episode maps to the same width.
print("\nempty window ->", window_stats([]))

# --- a full matrix from a synthetic cohort --------------------------------
# The cohort comes as one Points record of flat per-point arrays, with no
# Episode record built.
cfg = SyntheticConfig(n_episodes=200, n_variables=3, seed=11)
points = generate(cfg)
variables = points.variables
fm = extract(points, variables)
print(f"\n{len(fm.episode_ids)} episodes x {len(variables)} variables "
      f"-> matrix {fm.rows.shape}  (42 stats per variable)")

names = feature_names(variables)
print("first five columns:", names[:5])

# Min-max scale to [-1, 1] using the cohort itself as the reference.
scaler = fit_scaler(fm.rows)
scaled = transform(scaler, fm.rows)
print(f"scaled range: [{scaled.min():.1f}, {scaled.max():.1f}]")
print(f"column means (first 6): {np.round(scaled.mean(axis=0)[:6], 3)}")
print(f"prevalence in labels: {fm.labels.mean():.3f}")

assert len(names) == fm.rows.shape[1] == 42 * len(variables)
assert len(STAT_NAMES) == 6 and len(WINDOW_NAMES) == 7
