#!/bin/sh
# Tour of the command-line runner. Every command is seeded and writes
# deterministic CSV (plus a bounds table) when --out is given; rerunning
# with the same options reproduces the files byte for byte.
set -e

HERE=$(dirname "$0")
BSC="$HERE/instances/bsc25.json"
OUT="${1:-$HERE/out}"

chansim info "$BSC"
echo

chansim typical "$BSC" --n 8 --delta 1.0 --out "$OUT/typical"
echo

chansim cover "$BSC" --n 4 --delta 2.0 --epsilon 0.1 --seed 7 --out "$OUT/cover"
echo

chansim simulate "$BSC" --n 4 --delta 2.0 --epsilon 0.1 --seed 7 \
    --out "$OUT/simulate"
echo

chansim derandomize "$BSC" --n 4 --delta 2.0 --epsilon 0.1 --seed 11 \
    --out "$OUT/derandomize"
echo

chansim zero-error "$BSC" --restarts 20 --oracle-resolution 32 \
    --out "$OUT/zero-error"
echo

chansim rd "$BSC" --hamming 2 --targets 0.05,0.1,0.25 \
    --certify-resolution 400 --out "$OUT/rd"
echo

chansim dilute "$HERE/instances/three_letter_target.json" --epsilon 0.1 \
    --samples 2000 --seed 5 --out "$OUT/dilute"
echo

chansim sweep "$BSC" --n-min 4 --n-max 8 --delta 2.0 --epsilon 0.1 --seed 7 \
    --out "$OUT/sweep"

echo
echo "CSV outputs under $OUT"
