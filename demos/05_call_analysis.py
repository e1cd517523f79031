"""Whole-call analysis: speaker streams, sliding windows, mean probabilities.

Reuses demo_model.ckpt from 04_train_synthetic.py (run that first). A
fresh two-speaker call is assembled from held-out synthetic voices, split
into per-gender speaker streams, and every 1 s-shifted window is
classified; each speaker gets the argmax of its mean class probabilities.
"""

import os
import sys

from callseg import analyze_call, label_names, load_checkpoint, synth_call

if not os.path.isfile("demo_model.ckpt"):
    sys.exit("demo_model.ckpt not found; run 04_train_synthetic.py first")

model = load_checkpoint("demo_model.ckpt")
names = label_names(model.config.n_classes)

audio, segments, truth = synth_call(seed=404, agent_gender="female",
                                    turns=4, turn_seconds=5.0)
print(f"call: {audio.duration:.1f}s, {len(segments)} segments")
for s in segments:
    print(f"  {s.start:6.1f} - {s.end:6.1f}  {s.label}")

analysis = analyze_call(audio, segments, model)
print(f"\nwindow {analysis.window_seconds:.2f}s, shift 1 s")
for rep in analysis.speakers:
    if rep.no_windows:
        print(f"speaker {rep.slot} ({rep.gender}): stream too short to classify")
        continue
    verdict = rep.verdict
    probs = ", ".join(f"{p:.3f}" for p in verdict.mean_probs)
    print(f"speaker {rep.slot} ({rep.gender}): talk time {rep.talk_time:.1f}s, "
          f"{verdict.window_count} windows")
    print(f"  mean probabilities [{probs}] -> {names[verdict.label]!r}")

print(f"\nground truth: agent = {names[truth['agent']]!r}, "
      f"customer = {names[truth['customer']]!r}")
