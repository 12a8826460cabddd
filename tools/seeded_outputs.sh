#!/bin/sh
# Write the seeded outputs of one source tree into a directory:
#
#     tools/seeded_outputs.sh <src-dir> <out-dir>
#
# <src-dir> is the root of a checkout (its package is <src-dir>/src/sumlearn).
# The outputs are a synth cohort; train in every mode, two seeds each; eval,
# ablate and report of every checkpoint; and gradcheck, with the standard
# output of each command.  Two trees give the same bits when
#
#     diff -r <out-dir-1> <out-dir-2>
#
# prints nothing.  The cohort is wide enough (12 variables, 48 hours) that a
# batch spans several row blocks and several groups of blocks of the summary
# kernel.
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 <src-dir> <out-dir>" >&2
    exit 1
fi
src=$(cd "$1" && pwd)/src
mkdir -p "$2"
cd "$2"  # every path below is relative, so that no output names this directory
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

sumlearn() {
    PYTHONPATH="$src" python3 -m sumlearn.cli "$@"
}

sumlearn synth --out cohort --n 1500 --d 12 --t 48 --seed 7 > synth.out
for mode in relaxed hard time_of_prediction_only flat_series; do
    sumlearn train --cohort-dir cohort --out "$mode" --t 48 --seeds 0,1 \
        --mode "$mode" --epochs 20 --eval-interval 5 --batch-size 256 \
        > "$mode.train.out"
    for seed in 0 1; do
        ckpt="$mode/seed_$seed/model.ckpt"
        at="$mode/seed_$seed"
        sumlearn eval --checkpoint "$ckpt" --cohort-dir cohort \
            --out "$at/eval.json" > "$at/eval.out"
        sumlearn ablate --checkpoint "$ckpt" --cohort-dir cohort \
            --n-list 1,5,20 --out "$at/ablate.tsv" > "$at/ablate.out"
        sumlearn report --checkpoint "$ckpt" --top-k 15 > "$at/report.out"
    done
done
sumlearn gradcheck --seed 0 > gradcheck.out
