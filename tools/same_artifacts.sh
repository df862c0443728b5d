#!/usr/bin/env bash
# Check that the working tree writes the same artifacts and stderr as REV.
#
#   tools/same_artifacts.sh REV
#
# Exports REV and the working tree's tracked files (as `git stash create`
# records them, HEAD when the tree is clean; stage a new file to include it)
# with `git archive`, each into its own temporary directory, as
# tools/pairs.py does. Runs the working tree's tools/artifacts.sh in each,
# then `diff -r` on the artifacts and `diff` on the stderr. Exits 0 when
# both are byte-identical, 1 on any difference, which the diffs print,
# followed by the working tree's tools/artifact_moves.py on the two artifact
# trees (the largest relative move per column).
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 REV" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
rev=$(git rev-parse --verify "$1^{commit}")
tree=$(git stash create)
tree=${tree:-$(git rev-parse HEAD)}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/change"
git archive "$rev" | tar -x -C "$tmp/parent"
git archive "$tree" | tar -x -C "$tmp/change"
# one list of runs for both sides: the working tree's
cp "$tmp/change/tools/artifacts.sh" "$tmp/parent/tools/artifacts.sh"
for side in parent change; do
  # stdout names the output directory, which differs by side: not compared
  bash "$tmp/$side/tools/artifacts.sh" "$tmp/$side.out" > /dev/null 2> "$tmp/$side.err" || {
    echo "$side: tools/artifacts.sh failed:" >&2
    tail -n 20 "$tmp/$side.err" >&2
    exit 2
  }
done
cd "$tmp"
status=0
diff -r parent.out change.out || status=1
diff parent.err change.err || status=1
if [ $status -eq 0 ]; then
  echo "artifacts and stderr byte-identical: $(git -C "$OLDPWD" rev-parse --short "$rev") and the working tree"
else
  echo "largest relative moves, parent -> working tree:"
  python3 change/tools/artifact_moves.py parent.out change.out || true
fi
exit $status
