#!/usr/bin/env bash
# The tier-1 checks, run with the interpreter command given, from the
# repository root:
#
#   bash scripts/ci_checks.sh python
#   bash scripts/ci_checks.sh python -O
#
# Runs the tests, the benchmark's tests, the worked examples, three
# seeded random oracle sweeps, sha256 pins of the 7-cycle (its ring over
# Q and F3 too: over F2 a sign of -1 reads as +1), the 8-cycle (its ring
# over F2, Q and F3), an edge on 10 and 12 vertices, six
# disjoint edges on 12 and the path on 12, the wall time and peak of one
# fresh tor of the 7-cycle over Z (printed, not bounded), bounds on the
# peak memory of the 8-cycle's ring and of verify --all-sigma on the
# edge on 12 against its tor (each printed with its user+sys time, which
# is not bounded) and of maz on the six edges and the path, the
# series of joins checked against powers of their parts' series (twelve
# disjoint edges on 24 under a time bound, and the 7-cycle joined with
# itself), and an m = 23 oracle trial under a time bound, printed with
# its peak, which is not bounded.  Its input documents live in a
# temporary directory that is removed on exit.
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
# the benchmark's own checks: its golden gate, and the spans and counters it reads
"$@" -m pytest perfbench -q
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
# the ring's products in every sign: F3 tells -1 from +1, as F2 cannot
pin c412967ac80bd5fdd50b4209eaeb1167d79402c97d8f884af7b82ecabeb41f2c "$@" -m facetor.cli ring "$work/c7.json" --coeff q
pin e88ca92857f02da2f2f39054c7ae3fb399e7df006b6e3f3a37d3904f995a5892 "$@" -m facetor.cli ring "$work/c7.json" --coeff f:3
# one fresh command, start-up included: most of a fresh tor of the
# 7-cycle is the interpreter and the imports, not the job (README,
# "Start-up").  Its wall time and peak are printed and bound nothing
"$@" -c '
import resource, subprocess, sys, time
start = time.perf_counter()
subprocess.run([*sys.argv[2:], "-m", "facetor.cli", "tor", sys.argv[1], "--coeff", "z"], check=True, stdout=subprocess.DEVNULL)
wall = time.perf_counter() - start
print(f"fresh C7 tor --coeff z {wall * 1000:.0f} ms wall, peak {resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024:.1f} MB")' "$work/c7.json" "$@"

# the 8-cycle's ring reads the full 2^20 build, past every pinned input;
# its tor and maz read most Lyubeznik blocks off their size
"$@" -c 'import json; print(json.dumps({"m": 8, "facets": [[i, i % 8 + 1] for i in range(1, 9)]}))' > "$work/c8.json"
pin be11f2984ae74da0b420b227b98a62d08f36f677dbb976347822bf4da96fc05e "$@" -m facetor.cli ring "$work/c8.json" --coeff f:2
pin aa8a17b5a2bf02184cf1aa1d2bf644a3366dea1913e1bdfdf6a07408511abba6 "$@" -m facetor.cli ring "$work/c8.json" --coeff q
pin 4fd6c102874d34d7ee8b2960f659e14c8ea1d76043490b425d7b6efa79cc6da6 "$@" -m facetor.cli ring "$work/c8.json" --coeff f:3
pin 9ca48516cec21739fc4699e9640f7b1276dde64f9bcd60eb31e052bfdce4fbb5 "$@" -m facetor.cli tor "$work/c8.json" --coeff z
pin b6446d646e744060f2113d1c69cf43d4f7f9a8b94c36f9c0253f027240d26236 "$@" -m facetor.cli maz "$work/c8.json" --preset s2s1
# the full 2^20 build keeps its blocks alone: a fresh process peaks near
# 103 MB.  Its user+sys time, read from the same usage, is printed beside
# the peak and bounds nothing
"$@" -c '
import resource, subprocess, sys
subprocess.run([*sys.argv[2:], "-m", "facetor.cli", "ring", sys.argv[1], "--coeff", "f:2"], check=True, stdout=subprocess.DEVNULL)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
peak = usage.ru_maxrss / 1024
print(f"C8 ring --coeff f:2 peak {peak:.1f} MB, {usage.ru_utime + usage.ru_stime:.2f} s user+sys")
sys.exit(peak > 125)' "$work/c8.json" "$@"

# six disjoint edges on [12]: six join parts of 3 faces each, so maz
# peaks within 2 MB of C7's maz.  The path [[1,2],...,[11,12]] on [12]
# is one part with 377 faces: maz builds one star complex per face but
# keeps at most two, so it peaks within 2 MB of its own zk, which builds
# the star of the empty face alone (all 377 kept peak near 48 MB).
# RUSAGE_CHILDREN reads the largest child so far, so each reading is the
# largest of the peaks up to it
echo '{"m": 12, "complement": [[1,2],[3,4],[5,6],[7,8],[9,10],[11,12]]}' > "$work/matching12.json"
pin 71434897cec442c709ef5158742931805a015ce11e46a3a21696610016c86337 "$@" -m facetor.cli maz "$work/matching12.json" --preset s2s1
"$@" -c 'import json; print(json.dumps({"m": 12, "complement": [[i, i + 1] for i in range(1, 12)]}))' > "$work/path12.json"
pin 408d2b1a4ab709bb6badcabd057d6504b9cf0048c5a8fa303f2e411f04d804a5 "$@" -m facetor.cli maz "$work/path12.json" --preset s2s1
"$@" -c '
import resource, subprocess, sys
def peak(*args):
    subprocess.run([*sys.argv[4:], "-m", "facetor.cli", *args], check=True, stdout=subprocess.DEVNULL)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
c7 = peak("maz", sys.argv[1], "--preset", "s2s1")
matching = peak("maz", sys.argv[2], "--preset", "s2s1")
path_zk = peak("zk", sys.argv[3])
path = peak("maz", sys.argv[3], "--preset", "s2s1")
print(f"maz --preset s2s1 peak: C7 {c7:.1f} MB, matching12 +{matching - c7:.1f} MB; path12 zk {path_zk:.1f} MB, maz +{path - path_zk:.1f} MB")
sys.exit(matching > c7 + 2 or path > path_zk + 2)' "$work/c7.json" "$work/matching12.json" "$work/path12.json" "$@"

# power BASE N PYTHON...: the series of the maz or zk --json document on
# stdin is the N-th power of BASE, a JSON list of [degree, rank] pairs
power() {
    local base=$1 n=$2
    shift 2
    "$@" -c '
import json, sys
def pmul(a, b):
    out = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, 0) + ca * cb
    return out
base, n = dict(json.loads(sys.argv[1])), int(sys.argv[2])
series = {0: 1}
for _ in range(n):
    series = pmul(series, base)
got = dict(json.load(sys.stdin)["series"])
if got != series:
    sys.exit(f"series {got} is not the power {series}")' "$base" "$n"
}

# a join's series is the product of its parts' series: twelve disjoint
# edges on [24] against the twelfth power of one edge's series (by hand:
# s2s1 1 + 2x^2 + 3x^3, d2s1 1 + x^3), and the 7-cycle joined with
# itself (28 members, past the cap of 24, but 14 in each part) against
# the square of the 7-cycle's pinned series
"$@" -c 'import json; print(json.dumps({"m": 24, "complement": [[2 * i - 1, 2 * i] for i in range(1, 13)]}))' > "$work/edges24.json"
timeout 10 "$@" -m facetor.cli maz "$work/edges24.json" --preset s2s1 --json | power '[[0, 1], [2, 2], [3, 3]]' 12 "$@"
timeout 10 "$@" -m facetor.cli maz "$work/edges24.json" --preset d2s1 --json | power '[[0, 1], [3, 1]]' 12 "$@"
"$@" -c '
import json
c7 = [[i, j] for i in range(1, 8) for j in range(i + 2, 8) if (i, j) != (1, 7)]
print(json.dumps({"m": 14, "complement": c7 + [[i + 7, j + 7] for i, j in c7]}))' > "$work/c7c7.json"
for args in "maz --preset s2s1" "maz --preset d2s1" "zk"; do
    # word splitting of $args is meant: it holds the subcommand and its options
    base="$("$@" -m facetor.cli $args "$work/c7.json" --json | "$@" -c 'import json, sys; print(json.dumps(json.load(sys.stdin)["series"]))')"
    "$@" -m facetor.cli $args "$work/c7c7.json" --json | power "$base" 2 "$@"
done

# every subset of 10 vertices, all read off one cochain complex on the
# 256 non-faces inside [10], which are fewer than its 768 faces
echo '{"m": 10, "complement": [[1, 2]]}' > "$work/edge10.json"
pin e068f4941ba4590e935225bc0e89c682c8d611c34d662dcc1a1a5186d48ca442 "$@" -m facetor.cli verify "$work/edge10.json" --all-sigma
echo '{"m": 12, "complement": [[1, 2]]}' > "$work/edge12.json"
pin 1d56b6c125dcaa6e286cf74fd8b2fb6005ede898a9e23e186f407547e9920902 "$@" -m facetor.cli verify "$work/edge12.json" --all-sigma
# the sweep factors one degree of a sigma's rows at a time, and of its
# 28,672 blocks it keeps only the two with a nonzero side, so it peaks
# near 1.3 MB above edge12's tor (3 MB above when every block was kept
# and the zero ones shared one pairs tuple, 20 MB when each had its
# own).  RUSAGE_CHILDREN sums the children's times, so the sweep's
# user+sys is the difference of two readings
"$@" -c '
import resource, subprocess, sys
def run(*args):
    subprocess.run([*sys.argv[2:], "-m", "facetor.cli", *args], check=True, stdout=subprocess.DEVNULL)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime
tor, before = run("tor", sys.argv[1])
sweep, after = run("verify", sys.argv[1], "--all-sigma")
print(f"edge12 tor peak {tor:.1f} MB, verify --all-sigma +{sweep - tor:.1f} MB, {after - before:.2f} s user+sys")
sys.exit(sweep > tor + 3)' "$work/edge12.json" "$@"

# the second trial has m = 23: its oracle reads the 53,744 non-faces
# inside U, not the 8,334,864 faces.  Its peak (near 68 MB) is printed
# beside the summary line
"$@" -c '
import resource, subprocess, sys
args = ["verify", "--random", "--trials", "2", "--seed", "3", "--max-m", "24", "--max-s", "24"]
out = subprocess.run([*sys.argv[1:], "-m", "facetor.cli", *args], check=True, stdout=subprocess.PIPE, text=True, timeout=120)
last = out.stdout.splitlines()[-1]
print(f"{last} (peak {resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024:.1f} MB)")
sys.exit(not last.endswith(", 0 failures"))' "$@"
