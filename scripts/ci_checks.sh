#!/usr/bin/env bash
# The tier-1 checks, run with the interpreter command given, from the
# repository root:
#
#   bash scripts/ci_checks.sh python
#   bash scripts/ci_checks.sh python -O
#
# Runs the tests, the worked examples, three seeded random oracle sweeps,
# sha256 pins of the 7-cycle, the 8-cycle, an edge on 10 and 12 vertices
# and six disjoint edges on 12, bounds on the peak memory of the 8-cycle's
# ring and of maz on the six edges, and an m = 23 oracle trial under a
# time bound.  Its input documents live in a temporary directory that is
# removed on exit.
set -euo pipefail

if [ $# -eq 0 ]; then
    echo "usage: $0 PYTHON [FLAGS...]" >&2
    exit 2
fi
export PYTHONPATH=src
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# pin SHA256 ARGS...: the stdout of facetor ARGS... has this digest
pin() {
    local want=$1
    shift
    if [ "$("$@" | sha256sum)" != "$want  -" ]; then
        echo "digest mismatch: ${*}" >&2
        exit 1
    fi
}

"$@" -m pytest -q --durations=15
"$@" scripts/worked_examples.py
"$@" -m facetor.cli verify --random --trials 50 --seed 7 --max-m 7 --max-s 5
"$@" -m facetor.cli verify --random --trials 30 --seed 7 --max-m 8 --max-s 24
# every subset of [m], so sigma reaches vertices outside every member
"$@" -m facetor.cli verify --random --all-sigma --trials 20 --seed 7 --max-m 9 --max-s 5

# nearly every map of the 7-cycle's blocks is zero or lies on one row or column;
# {1,3} is a non-face, so its star and link are void; verify sweeps every subset
"$@" -c 'import json; print(json.dumps({"m": 7, "facets": [[i, i % 7 + 1] for i in range(1, 8)]}))' > "$work/c7.json"
pin 265c4ce44ebd2d395eb0e322464b0943bc58a8c35822973d02354a3fe561826a "$@" -m facetor.cli tor "$work/c7.json" --coeff z
pin 18168b279ff92b206d29dd14c1674264a7df18b787cad12703c55d34116b1467 "$@" -m facetor.cli zk "$work/c7.json"
pin 2796aea60aed86c5d5bf20fe680440f4feed392952ac400fd44e38d2aea458a3 "$@" -m facetor.cli maz "$work/c7.json" --preset s2s1
pin 18168b279ff92b206d29dd14c1674264a7df18b787cad12703c55d34116b1467 "$@" -m facetor.cli maz "$work/c7.json" --preset d2s1
# a different (X_i, A_i) on odd and even vertices, and on 1-4 and 5-7
"$@" -c 'import json; print(json.dumps([{"X": [[2, 1]] if i % 2 else [], "A": [[1, 1]] if i <= 4 else [[1, 1], [2, 1]]} for i in range(1, 8)]))' > "$work/c7pairs.json"
pin ee8c2eb089217f04fca12d675f1666c4def555ac32835544d5879d915e9c975b "$@" -m facetor.cli maz "$work/c7.json" --pairs "$work/c7pairs.json"
pin c3570f4cd640b9db8ddbfe194a464c73807f627f93b5ad6b501bcc9416885653 "$@" -m facetor.cli link "$work/c7.json" --omega 1
pin 5d229dc251efdda34a1fbe983259012e09e0957c9dba7ff184f851e012d6e0c5 "$@" -m facetor.cli link "$work/c7.json" --omega 1,3
pin ac82452e2c59e2f9c91702eb616b22bc19857ebe0ded908c1241105737d4f1a5 "$@" -m facetor.cli star "$work/c7.json" --omega 1
pin 41cd0f6a532230b5d1095fc99f8197b7beff49309abb3b713518a478a9b9724e "$@" -m facetor.cli star "$work/c7.json" --omega 1,3
pin c280570ccd8d49f8377074766e76369e7e785f0bc456d0f6524876447fc84145 "$@" -m facetor.cli verify "$work/c7.json" --all-sigma

# the 8-cycle's ring reads the full 2^20 build, past every pinned input;
# its tor and maz read most Lyubeznik blocks off their size
"$@" -c 'import json; print(json.dumps({"m": 8, "facets": [[i, i % 8 + 1] for i in range(1, 9)]}))' > "$work/c8.json"
pin be11f2984ae74da0b420b227b98a62d08f36f677dbb976347822bf4da96fc05e "$@" -m facetor.cli ring "$work/c8.json" --coeff f:2
pin aa8a17b5a2bf02184cf1aa1d2bf644a3366dea1913e1bdfdf6a07408511abba6 "$@" -m facetor.cli ring "$work/c8.json" --coeff q
pin 9ca48516cec21739fc4699e9640f7b1276dde64f9bcd60eb31e052bfdce4fbb5 "$@" -m facetor.cli tor "$work/c8.json" --coeff z
pin b6446d646e744060f2113d1c69cf43d4f7f9a8b94c36f9c0253f027240d26236 "$@" -m facetor.cli maz "$work/c8.json" --preset s2s1
# the full 2^20 build keeps its blocks alone: a fresh process peaks near 103 MB
"$@" -c '
import resource, subprocess, sys
subprocess.run([*sys.argv[2:], "-m", "facetor.cli", "ring", sys.argv[1], "--coeff", "f:2"], check=True, stdout=subprocess.DEVNULL)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"C8 ring --coeff f:2 peak {peak:.1f} MB")
sys.exit(peak > 125)' "$work/c8.json" "$@"

# six disjoint edges on [12]: K has 3^6 = 729 faces, and maz builds one
# star complex per face but keeps at most two, so it peaks within 2 MB
# of C7's maz; RUSAGE_CHILDREN reads the largest child so far, so the
# second reading is the larger of the two peaks
echo '{"m": 12, "complement": [[1,2],[3,4],[5,6],[7,8],[9,10],[11,12]]}' > "$work/matching12.json"
pin 71434897cec442c709ef5158742931805a015ce11e46a3a21696610016c86337 "$@" -m facetor.cli maz "$work/matching12.json" --preset s2s1
"$@" -c '
import resource, subprocess, sys
def peak(doc):
    subprocess.run([*sys.argv[3:], "-m", "facetor.cli", "maz", doc, "--preset", "s2s1"], check=True, stdout=subprocess.DEVNULL)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
c7, matching = peak(sys.argv[1]), peak(sys.argv[2])
print(f"maz --preset s2s1 peak: C7 {c7:.1f} MB, matching12 +{matching - c7:.1f} MB")
sys.exit(matching > c7 + 2)' "$work/c7.json" "$work/matching12.json" "$@"

# every subset of 10 vertices, all read off one cochain complex on the
# 256 non-faces inside [10], which are fewer than its 768 faces
echo '{"m": 10, "complement": [[1, 2]]}' > "$work/edge10.json"
pin e068f4941ba4590e935225bc0e89c682c8d611c34d662dcc1a1a5186d48ca442 "$@" -m facetor.cli verify "$work/edge10.json" --all-sigma
echo '{"m": 12, "complement": [[1, 2]]}' > "$work/edge12.json"
pin 1d56b6c125dcaa6e286cf74fd8b2fb6005ede898a9e23e186f407547e9920902 "$@" -m facetor.cli verify "$work/edge12.json" --all-sigma

# the second trial has m = 23: its oracle reads the 53,744 non-faces
# inside U, not the 8,334,864 faces
out="$(timeout 120 "$@" -m facetor.cli verify --random --trials 2 --seed 3 --max-m 24 --max-s 24)"
last="$(printf '%s\n' "$out" | tail -1)"
echo "$last"
[[ $last == *", 0 failures" ]]
