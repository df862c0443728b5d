#!/usr/bin/env bash
# Write every artifact of the byte-identical rerun check into OUT.
#
#   tools/artifacts.sh OUT
#
# Runs `spectrum`, `discriminant` and `verify` on the shipped configs and on
# six inline members, which go to a temporary directory. Two runs of one tree
# must give `diff -r` with no output; so must one run of a change and one of
# its parent commit, when the change claims byte-identical artifacts.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 OUT" >&2
  exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$root"
export PYTHONPATH="$root/src"
run() { python -m chspectral "$@"; }

echo '{"smooth": {"kind": "const", "value": -1.0}}' > "$tmp/negative.json"
echo '{"smooth": {"kind": "fourier", "a0": 1.0, "cos": [0.3]}, "atoms": [{"q": 0.0, "p": 0.5}, {"q": 0.999, "p": 0.4}]}' > "$tmp/atom_at_zero.json"
echo '{"atoms": [{"q": 0.03125, "p": 1.0}, {"q": 0.09375, "p": 1.25}, {"q": 0.15625, "p": 1.5}, {"q": 0.21875, "p": 1.75}, {"q": 0.28125, "p": 1.0}, {"q": 0.34375, "p": 1.25}, {"q": 0.40625, "p": 1.5}, {"q": 0.46875, "p": 1.75}, {"q": 0.53125, "p": 1.0}, {"q": 0.59375, "p": 1.25}, {"q": 0.65625, "p": 1.5}, {"q": 0.71875, "p": 1.75}, {"q": 0.78125, "p": 1.0}, {"q": 0.84375, "p": 1.25}, {"q": 0.90625, "p": 1.5}, {"q": 0.96875, "p": 1.75}]}' > "$tmp/atoms16.json"
# purely atomic, with atoms the Dirichlet problem cannot see (q = 0, p = 0)
# and a negative weight, so that points and edges lie on both sides of 0
echo '{"atoms": [{"q": 0.0, "p": 0.7}, {"q": 0.2, "p": 1.1}, {"q": 0.45, "p": 0.0}, {"q": 0.6, "p": -0.8}, {"q": 0.85, "p": 1.3}]}' > "$tmp/atoms_signed.json"
echo '{"smooth": {"kind": "samples", "values": [1.2, 1.184775906502, 1.141421356237, 1.076536686473, 1.0, 0.923463313527, 0.858578643763, 0.815224093498, 0.8, 0.815224093498, 0.858578643763, 0.923463313527, 1.0, 1.076536686473, 1.141421356237, 1.184775906502]}}' > "$tmp/samples16.json"
# two_mode sampled at 16 points: an asymmetric spline, so the gradient check
# and the brackets have non-degenerate points (samples16.json is symmetric);
# no `verify all` on it, since the hamiltonian suite skips a spline (not
# band-limited), which fails a strict run
echo '{"smooth": {"kind": "samples", "values": [1.25, 1.301680561246, 1.276776695297, 1.16638153621, 1.0, 0.83361846379, 0.723223304703, 0.698319438754, 0.75, 0.839740794991, 0.923223304703, 0.975039820027, 1.0, 1.024960179973, 1.076776695297, 1.160259205009]}}' > "$tmp/two_mode16.json"

run verify all --out "$out"
for cfg in configs/*.json; do
  stem=$(basename "$cfg" .json)
  run spectrum --config "$cfg" --out "$out/spectrum_$stem"
  run discriminant --config "$cfg" --out "$out/discriminant_$stem"
done
run spectrum --config configs/two_mode.json --lambda-max 4000 --out "$out/spectrum_two_mode_4000"
# above the blocks' limit (5.0e4), 4096 single rows a call: the one-lambda
# tree and the Sturm count's fold over a long row list
run spectrum --config configs/two_mode.json --lambda-min 1.5e5 --lambda-max 1.55e5 \
  --out "$out/spectrum_two_mode_150000"
run verify all --config configs/two_mode.json --out "$out/verify_two_mode"
run verify gradients --config configs/peakon_offset.json --out "$out/verify_peakon_offset"
# a grid below 256, where the gradient tolerance grows as (256 / n)^2
run verify gradients --config configs/two_mode.json --n 64 --out "$out/verify_two_mode_n64"
run spectrum --config "$tmp/negative.json" --lambda-min=-300 --lambda-max 300 \
  --out "$out/spectrum_negative"
run spectrum --config "$tmp/atoms_signed.json" --lambda-min=-200 --lambda-max 200 \
  --out "$out/spectrum_atoms_signed"
for stem in atom_at_zero atoms16 samples16 two_mode16; do
  run spectrum --config "$tmp/$stem.json" --out "$out/spectrum_$stem"
  run discriminant --config "$tmp/$stem.json" --out "$out/discriminant_$stem"
done
# wide sweeps below and far above the default window: the batched sweep's
# blocks and rows, with atoms and at negative lambda, and exact rows alone
for cfg in configs/two_mode.json "$tmp/atom_at_zero.json" "$tmp/atoms16.json"; do
  stem=$(basename "$cfg" .json)
  run discriminant --config "$cfg" --lambda-min=-500 --lambda-max 50000 --count 2000 \
    --out "$out/discriminant_${stem}_wide"
done
# above the blocks' limit of an RK4 table with atoms (541): one lambda's rows
# and their Sturm count
run spectrum --config "$tmp/atom_at_zero.json" --lambda-min 600 --lambda-max 1200 \
  --out "$out/spectrum_atom_at_zero_600"
# the default window holds 15 of atoms16's 16 auxiliary points; 62 holds all
run spectrum --config "$tmp/atoms16.json" --lambda-max 62 --out "$out/spectrum_atoms16_all"
run verify gradients --config "$tmp/atom_at_zero.json" --out "$out/verify_atom_at_zero"
run verify gradients --config "$tmp/two_mode16.json" --out "$out/verify_two_mode16"
for suite in lemma theorem1 theorem2; do
  run verify "$suite" --config "$tmp/two_mode16.json" --out "$out/verify_${suite}_two_mode16"
done
