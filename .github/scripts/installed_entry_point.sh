#!/usr/bin/env bash
# Runs the `timbrekit` console script that [project.scripts] installs, from
# the current directory, and checks that its acoustic, mfcc and lfc tables
# match in-process extraction, and that its acoustic table of a 44.1 kHz
# file (resampled as load_audio reads it) does too, and so does a table
# extracted with --pitch-floor 60. An option value that is not a number must
# fail with exactly one stderr line, `error: INVALID_INPUT: ...`. Four synthesized voices, with both labels in
# each split, then go through train, eval, weights and flops. train runs a
# second time without --log, which skips the per-epoch loss and accuracy,
# and must write the same checkpoint bytes; so must `timbrekit.train` called
# on the same manifest and table. The checkpoint and the eval report
# must each be the canonical json.dumps(..., sort_keys=True) text of what they
# hold. eval runs again on two copies of the manifest, one with CRLF line
# endings (read by the reader's line pattern) and one with compact ","/":"
# separators (read line by line by the JSON decoder), and must write the same
# report bytes. Run it with
# PYTHONWARNINGS=error::RuntimeWarning, so that a numpy RuntimeWarning fails
# it, as it fails a test under pytest.
set -euo pipefail

timbrekit --help
timbrekit synth --kind mixture --f0 140 --dur 1 --formants 500:80,1500:100,2500:150,3500:200 --out a.wav
timbrekit extract a.wav --out f.csv
python -c "import numpy as np; from timbrekit.audio import load_audio; from timbrekit.features import extract_vector, read_features; assert np.array_equal(read_features('f.csv')['a'], extract_vector(load_audio('a.wav')).values)"
timbrekit extract a.wav --pitch-floor 60 --out f60.csv
python -c "import numpy as np; from timbrekit.audio import load_audio; from timbrekit.features import extract_vector, read_features; from timbrekit.pitch import PitchConfig; assert np.array_equal(read_features('f60.csv')['a'], extract_vector(load_audio('a.wav'), PitchConfig(floor=60.0)).values)"
# The failure is expected: under `set -e` only its test in the `if` keeps it from ending the script.
if timbrekit extract a.wav --out bad.csv --jobs x 2> bad.err; then
  echo "extract --jobs x exited 0" >&2
  exit 1
fi
python -c "lines = open('bad.err').read().splitlines(); assert len(lines) == 1 and lines[0].startswith('error: INVALID_INPUT:'), lines"
timbrekit synth --kind mixture --f0 140 --dur 1 --formants 500:80,1500:100,2500:150,3500:200 --rate 44100 --out b.wav
timbrekit extract b.wav --out f44.csv
python -c "import numpy as np; from timbrekit.audio import load_audio; from timbrekit.features import extract_vector, read_features; assert np.array_equal(read_features('f44.csv')['b'], extract_vector(load_audio('b.wav')).values)"
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
python -c "from timbrekit import TrainConfig, train; from timbrekit.diffnet import save_checkpoint; from timbrekit.features import read_features; from timbrekit.manifest import read_manifest; model, _ = train(read_manifest('pairs.jsonl').split_pairs('train'), read_features('voices.csv'), TrainConfig(epochs=3)); save_checkpoint(model, 'model_from_library.json')"
cmp model.json model_from_library.json
canonical='import json, sys; text = open(sys.argv[1]).read(); assert json.dumps(json.loads(text), sort_keys=True) == text, sys.argv[1]'
python -c "$canonical" model.json
timbrekit eval --manifest pairs.jsonl --features voices.csv --model model.json --out report.json
python -c "$canonical" report.json
sed 's/$/\r/' pairs.jsonl > pairs_crlf.jsonl
python -c "import json, sys; [print(json.dumps(json.loads(line), separators=(',', ':'))) for line in open(sys.argv[1])]" pairs.jsonl > pairs_compact.jsonl
for copy in crlf compact; do
  timbrekit eval --manifest "pairs_$copy.jsonl" --features voices.csv --model model.json --out "report_$copy.json"
  cmp report.json "report_$copy.json"
done
timbrekit weights --model model.json --out weights.csv
timbrekit flops --model model.json
