#!/bin/sh
# Write the CLI bundles of this checkout into OUT, one directory per command
# with its stdout (NAME.out) and stderr (NAME.err) beside it:
#   optimize --pop 50 --gens 2 --trials 100 and baseline --trials 200 on
#   every scenario (lt1, lt2, lt3, pc1 and pc2), and sample
#   'F_[0,5](n_vy <= -0.5)' --trials 10 on pc1, all at seed 5.
# Each command runs from inside OUT with a relative --out, so what it prints
# is the same in every checkout; `diff -r` of two OUT directories compares
# two checkouts.
#
#   scripts/bundles.sh OUT
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 2
fi
src=$(cd "$(dirname "$0")/../src" && pwd)
mkdir -p "$1"
cd "$1"

cli() {  # NAME ARGS...: the CLI's ARGS at seed 5, writing NAME, NAME.out and NAME.err
    name=$1
    shift
    PYTHONPATH="$src" python3 -m stlfalsify.cli "$@" --seed 5 --out "$name" >"$name.out" 2>"$name.err"
}

for sc in lt1 lt2 lt3 pc1 pc2; do
    cli "$sc-optimize" optimize --scenario "$sc" --pop 50 --gens 2 --trials 100
    cli "$sc-baseline" baseline --scenario "$sc" --trials 200
done
cli pc1-sample sample 'F_[0,5](n_vy <= -0.5)' --scenario pc1 --trials 10
