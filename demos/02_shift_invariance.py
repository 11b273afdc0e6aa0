"""
Why 1-max pooling ignores where a sound happens
===============================================

Each convolutional filter slides along the time axis and keeps only its
single strongest response, so moving an event earlier or later in the
clip does not move the pooled feature vector at all. This script slides
a synthetic event patch through a feature matrix and watches the pooled
vector stay put.
"""

import numpy as np

from onemax.model import forward, init_params

rng = np.random.default_rng(7)

rows, total_frames, patch_frames = 52, 60, 10
params = init_params(n_classes=3, input_rows=rows, widths=(1, 3, 5),
                     filters_per_width=4, seed=1)
# zero biases so silence produces exactly zero activations
for q in range(len(params.bank.widths)):
    params.bank.biases[q][:] = 0.0

patch = rng.uniform(0.0, 2.0, size=(rows, patch_frames))

# keep the patch away from the clip edges so every filter window that
# overlaps it fits inside the clip
w_max = max(params.bank.widths)
offsets = range(w_max - 1, total_frames - patch_frames - w_max + 2)

pooled_vectors = []
for offset in offsets:
    sif = np.zeros((rows, total_frames))
    sif[:, offset : offset + patch_frames] = patch
    pooled_vectors.append(forward(params, sif, total_frames).pooled)

reference = pooled_vectors[0]
drift = max(float(np.max(np.abs(v - reference))) for v in pooled_vectors)
print(f"slid the patch across {len(pooled_vectors)} positions")
print(f"largest change in any pooled coordinate: {drift}")
assert drift == 0.0

# The pooled vector is also blind to how much padding follows the event.
# A 25-frame clip and the same clip padded out to 300 frames produce the
# same bits, because pooling stops at the true length.
clip = rng.uniform(0.0, 2.0, size=(rows, 25))
padded = np.zeros((rows, 300))
padded[:, :25] = clip
short = forward(params, clip, true_len=25)
long = forward(params, padded, true_len=25)
assert short.pooled.tobytes() == long.pooled.tobytes()
print("pooled vector identical for a 25-frame clip and the same clip padded to 300")

# ... which is what makes variable-length classification work: every
# clip, short or long, lands in the same P x Q dimensional space.
for frames in (5, 50, 500):
    clip = rng.uniform(0.0, 2.0, size=(rows, frames))
    print(f"{frames:4d} frames -> pooled dimension "
          f"{forward(params, clip, frames).pooled.shape[0]}")
