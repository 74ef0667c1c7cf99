#!/bin/sh
# Write the CLI bundles of this checkout into OUT, one directory per command
# with its stdout (NAME.out), stderr (NAME.err) and exit status (NAME.exit)
# beside it:
#   optimize --pop 50 --gens 2 --trials 100 and baseline --trials 200 on
#   every scenario (lt1, lt2, lt3, pc1 and pc2); sample
#   'F_[0,5](n_vy <= -0.5)' --trials 10 on pc1; and two lt1 samples with
#   --trials 10: one that draws coins and witness steps, and the bloated
#   left-turn formula of perfbench, which runs out of retries on one trace
#   and exits 3.  All run at seed 5.
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

cli() {  # NAME ARGS...: the CLI's ARGS at seed 5, writing NAME, NAME.out, NAME.err and NAME.exit
    name=$1
    shift
    status=0
    PYTHONPATH="$src" python3 -m stlfalsify.cli "$@" --seed 5 --out "$name" >"$name.out" 2>"$name.err" || status=$?
    echo "$status" >"$name.exit"
}

for sc in lt1 lt2 lt3 pc1 pc2; do
    cli "$sc-optimize" optimize --scenario "$sc" --pop 50 --gens 2 --trials 100
    cli "$sc-baseline" baseline --scenario "$sc" --trials 200
done
cli pc1-sample sample 'F_[0,5](n_vy <= -0.5)' --scenario pc1 --trials 10
cli lt1-sample sample 'F_[0,5]((disturbance = a_maj | disturbance = d_maj)) & G_[8,12](!disturbance = S)' \
    --scenario lt1 --trials 10
cli lt1-sample-bloated sample '(G_[0,1]((!!!(!disturbance = a_maj | disturbance = S) | (disturbance = a_maj & disturbance = d_maj))) & !(F_[6,9](disturbance = S) & G_[12,20]((disturbance = none | disturbance = d_med))))' \
    --scenario lt1 --trials 10
