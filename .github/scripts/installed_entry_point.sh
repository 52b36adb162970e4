#!/usr/bin/env bash
# Runs the `timbrekit` console script that [project.scripts] installs, from
# the current directory, and checks that its acoustic, mfcc and lfc tables
# match in-process extraction. Four synthesized voices, with both labels in
# each split, then go through train, eval, weights and flops. train runs a
# second time without --log, which skips the per-epoch loss and accuracy,
# and must write the same checkpoint bytes. Run it with
# PYTHONWARNINGS=error::RuntimeWarning, so that a numpy RuntimeWarning fails
# it, as it fails a test under pytest.
set -euo pipefail

timbrekit --help
timbrekit synth --kind mixture --f0 140 --dur 1 --formants 500:80,1500:100,2500:150,3500:200 --out a.wav
timbrekit extract a.wav --out f.csv
python -c "import numpy as np; from timbrekit.audio import load_audio; from timbrekit.features import extract_vector, read_features; assert np.array_equal(read_features('f.csv')['a'], extract_vector(load_audio('a.wav')).values)"
for kind in mfcc lfc; do
  timbrekit extract a.wav --kind "$kind" --out "$kind.csv"
  python -c "import sys, numpy as np; from timbrekit.audio import load_audio; from timbrekit.features import read_features, vector_for; kind = sys.argv[1]; assert np.array_equal(read_features(kind + '.csv')['a'], vector_for(kind, load_audio('a.wav')).values)" "$kind"
done
mkdir voices
timbrekit synth --kind mixture --f0 110 --dur 1 --formants 500:80,1500:100,2500:150,3500:200 --out voices/v1.wav
timbrekit synth --kind mixture --f0 140 --dur 1 --formants 600:80,1700:100,2500:150,3500:200 --out voices/v2.wav
timbrekit synth --kind mixture --f0 180 --dur 1 --formants 700:80,1900:100,2500:150,3500:200 --out voices/v3.wav
timbrekit synth --kind mixture --f0 220 --dur 1 --formants 800:80,2100:100,2500:150,3500:200 --out voices/v4.wav
timbrekit extract voices --out voices.csv
for split in train test; do
  for pair in v1:v2:B v2:v1:A v3:v4:B v4:v3:A v1:v3:B v4:v2:A; do
    IFS=: read -r a b label <<< "$pair"
    echo "{\"utt_a\": \"$a\", \"utt_b\": \"$b\", \"descriptor\": \"Bright\", \"label\": \"$label\", \"split\": \"$split\"}"
  done
done > pairs.jsonl
timbrekit train --manifest pairs.jsonl --features voices.csv --out model.json --log train_log.json --epochs 3
timbrekit train --manifest pairs.jsonl --features voices.csv --out model_without_log.json --epochs 3
cmp model.json model_without_log.json
timbrekit eval --manifest pairs.jsonl --features voices.csv --model model.json --out report.json
timbrekit weights --model model.json --out weights.csv
timbrekit flops --model model.json
