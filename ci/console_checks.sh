#!/usr/bin/env bash
# Console checks of the bentkit command line. CI runs them on the installed
# console script after the tier-1 tests:
#   bash -e ci/console_checks.sh
# $BENTKIT names the command (default: bentkit), so on a source checkout
#   PYTHONPATH=src BENTKIT="python -m bentkit.cli" bash -e ci/console_checks.sh
# runs the same checks. Scratch files go to $RUNNER_TEMP, or to a fresh
# temporary directory when that is unset. The closed-stdout check reads
# PIPESTATUS itself, so the script runs without pipefail.
#
# Default outputs are pinned once, by sha256 and exit code, in
# tests/test_cli.py::GOLDEN: every verify suite at its defaults, census and
# bounds at n=4, and wht, anf and bent affine --count 9 on the n=16
# Maiorana-McFarland function below. Tier-1 calls cli.main in one process,
# so this script checks only what that cannot run or does not pin.
#
# The installed command, a real pipe and python -O: wht on the n=16 function
# exits 2 with one error line, no traceback, when its reader closes stdout
# after one byte (the BrokenPipeError branch of cli.main, which needs a real
# closed pipe, so tier-1 never reaches it); python -O, which strips assert
# statements, still refuses the census at n=6 and a mask past n's bits.
#
# Outputs tier-1 does not pin: on the n=16 function, bent flats' counts add
# up to its total, and coset-spectrum's dim-8 face (mask 0xff) sits exactly
# on the 2^24 budget and prints its 256 sums; at n=4 coset-spectrum's coset
# sums add up to 2^n - 2 wt(f); census --n 4 --jobs 1 prints 896/896 and the
# same stdout as no --jobs; census --n 4 --emit FILE writes the 896 bent
# tables, one bf: line each, pinned by sha256 (the census's functions
# property on the installed script); bounds at n=1024, its largest arity,
# prints strict JSON (no Infinity or NaN).
#
# Flag variants, each pinned by sha256 with its check count so the rng
# streams stay byte-identical, reach the paths the defaults miss: prop1
# --maps 100 streams the census images in 44 chunks; parseval and
# convolution at --samples 3000 group their streams by arity into 71 and 26
# butterfly blocks of at most 2^15 truth-table points, several per arity at
# large n (and convolution's 2-D hadamard_transform of the masked spectra),
# the results read back in stream order; involution --samples 2048 is
# the most samples its stream cap admits at its fixed range of n, 1..16;
# lemma1 --n 4 is the randomized route; lemma2 at --n 8 and --n 12 --samples
# 64 rebuilds its random candidates a block at a time, and at --n 20
# --samples 8 one candidate a block (2^15 >> 20 rows, rounded up to 1) over
# a ball of 616,666 points, each candidate one 616,666-bit coefficient word.
# bent affine --count 40000 at n=4 is pinned the same way: 20 chunks of up to
# 2,048 maps, each chunk's maps one random_invertible block. These many-row
# blocks check walsh_rows' points-major (2^n, rows) layout, and convolution's
# array paths and involution's packed row codec run, on every numpy the jobs
# install, the numpy floor job's included. The parseval --samples 3000 pin
# also covers the naive oracle's block path, np.bitwise_count on packed
# uint64 words (new in numpy 2.0), on each of those numpy versions, the 2.0.*
# floor job's included. The convolution --samples 3000 pin (3,064 checks,
# sha256 2b005c21...aa731) likewise covers convolve_pm's block kernel, the
# int8 run gather through a multi-byte word view, on every numpy the jobs
# install, the 2.0.* floor included.
#
# Refusals, each checked by refuses: the exit code, empty stdout, and one
# stderr line naming the cost, so no traceback. Exit 4 with one resource-cap
# line: the census at n=6; involution --samples 2049, whose expected
# 16,785,152 truth-table points pass 2^24; lemma2 at n=18, 256 round trips
# over a ball of 155,382 points, 2^26 in all; bent affine --count 2000000 at
# n=4, 2^25 points; coset-spectrum at n=16 on the point face (mask 0), 2^32
# points; lemma1 at n=16, whose all-ones mask needs 2^32 points, before its
# first triple whatever the seed, and lemma1 --n 4 --samples 300000000, whose
# triples would draw 2^34 points. Exit 1: census --jobs 2, since the census
# runs in one process. Exit 2: a mask past n's bits.
BENTKIT="${BENTKIT:-bentkit}"
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP="$(mktemp -d)"
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
# refuses CODE PREFIX COST cmd...: cmd exits CODE with empty stdout and
# exactly one stderr line, so no traceback, that starts with PREFIX and names
# COST. Call it only as a plain statement: bash ignores -e under if, || and &&.
refuses() {
  local want="$1" prefix="$2" cost="$3" code=0
  shift 3
  "$@" > "$RUNNER_TEMP/refused.out" 2> "$RUNNER_TEMP/refused.err" || code=$?
  test "$code" -eq "$want"
  test ! -s "$RUNNER_TEMP/refused.out"
  test "$(wc -l < "$RUNNER_TEMP/refused.err")" -eq 1
  case "$(cat "$RUNNER_TEMP/refused.err")" in
    "$prefix"*"$cost"*) ;;
    *) exit 1 ;;
  esac
}
f="$RUNNER_TEMP/mm16.txt"
python -c 'from bentkit.core import BooleanFunction as B, format_bf; print(format_bf(B(16, sum((k & (k >> 8) & 255).bit_count() % 2 << k for k in range(1 << 16)))))' > "$f"
$BENTKIT wht --f "@$f" 2> "$RUNNER_TEMP/pipe.err" | head -c 1 > /dev/null
test "${PIPESTATUS[0]}" -eq 2
test "$(grep -c '^error: ' "$RUNNER_TEMP/pipe.err")" -eq 1
if grep -F Traceback "$RUNNER_TEMP/pipe.err"; then exit 1; fi
code=0
$BENTKIT bent flats --f "@$f" > "$RUNNER_TEMP/flats.json" || code=$?
test "$code" -eq 0
python -c 'import json, sys; d = json.load(open(sys.argv[1])); sys.exit(sum(d["counts"].values()) != d["total"])' "$RUNNER_TEMP/flats.json"
code=0
$BENTKIT bent affine --f bf:4:0356 --count 40000 --seed 1 > "$RUNNER_TEMP/affine4.json" || code=$?
test "$code" -eq 0
python -c 'import json, sys; d = json.load(open(sys.argv[1])); sys.exit(not (len(d["images"]) == 40000 and d["all_bent"] is True))' "$RUNNER_TEMP/affine4.json"
python -c 'import hashlib, sys; sys.exit(hashlib.sha256(open(sys.argv[1], "rb").read()).hexdigest() != sys.argv[2])' "$RUNNER_TEMP/affine4.json" 5da8d6c1de53328a4f1aefe5de9aac8a6314203708f3186756ed7c4f58245737
for pinned in "lemma1 --n 4:1000:b64c8901087dbfd99150a28d39b6e64975900b61cde283b155ba6794b18d49bf" \
    "lemma2 --n 8:256:eb62978b7611a7a7b23b4b0e35fd9d824d8723e7853d6e36ef3a1bc1e9833f9f" \
    "lemma2 --n 12 --samples 64:64:7d9a732d8ac7e9745ddd3ca8fd92cd9e06e2fa351ccfa9d13506a0c09f8d41e3" \
    "lemma2 --n 20 --samples 8:8:bc02ca37f28e061e3e822b15a5e53c5245eda968b0901284cc37cdb465fea337" \
    "prop1 --maps 100:89600:6fbb1c171fafd2b4d397b5d40d6131df8616ad33f9a11ae9035111511c789be0" \
    "parseval --samples 3000:3276:6cbc68c7e3c185e33eb5ab78acf693816bdce10062f8a631ee450a753b18713f" \
    "convolution --samples 3000:3064:2b005c2131d4000cb3440469e867837c947b4eac0afa2285f8b5f416b50aa731" \
    "involution --samples 2048:67860:7cda3697a7751b0419ce0ce81eb3e41fb17b7258cc3e611679eba301d8aafe71"; do
  code=0
  # unquoted: the suite and flags before the first colon split into words
  $BENTKIT verify --suite ${pinned%%:*} > "$RUNNER_TEMP/verify.json" || code=$?
  test "$code" -eq 0
  python -c 'import hashlib, json, sys; t = open(sys.argv[1], "rb").read(); d = json.loads(t); _, checks, digest = sys.argv[2].rsplit(":", 2); sys.exit(not (d["passed"] is True and d["checks"] == int(checks) and hashlib.sha256(t).hexdigest() == digest))' "$RUNNER_TEMP/verify.json" "$pinned"
done
refuses 4 'resource cap: ' '2^42' $BENTKIT census --n 6 --method degree
refuses 4 'resource cap: ' '2^64' python -O -m bentkit.cli census --n 6 --method naive
refuses 1 'usage error: ' '--jobs' $BENTKIT census --n 4 --jobs 2
code=0
$BENTKIT census --n 4 --jobs 1 > "$RUNNER_TEMP/census1.json" || code=$?
test "$code" -eq 0
python -c 'import json, sys; d = json.load(open(sys.argv[1])); sys.exit(not (d["counts"] == {"naive": 896, "degree": 896} and d["agreement"] is True))' "$RUNNER_TEMP/census1.json"
$BENTKIT census --n 4 > "$RUNNER_TEMP/census.json"
cmp "$RUNNER_TEMP/census.json" "$RUNNER_TEMP/census1.json"
$BENTKIT census --n 4 --emit "$RUNNER_TEMP/emit.txt" > /dev/null
test "$(wc -l < "$RUNNER_TEMP/emit.txt")" -eq 896
python -c 'import hashlib, sys; sys.exit(hashlib.sha256(open(sys.argv[1], "rb").read()).hexdigest() != sys.argv[2])' "$RUNNER_TEMP/emit.txt" 96439b71721b597661d1a2da08e2295ff2d118fcaef0263db82a0fe1305baf7c
refuses 4 'resource cap: ' '(16785152)' $BENTKIT verify --suite involution --samples 2049
grep -F '2^25' "$RUNNER_TEMP/refused.err"
refuses 4 'resource cap: ' '2^26' $BENTKIT verify --suite lemma2 --n 18
code=0
$BENTKIT bounds --n 1024 > "$RUNNER_TEMP/bounds.json" || code=$?
test "$code" -eq 0
python -c 'import json, sys; sys.exit("a_n_log2" not in json.load(open(sys.argv[1]), parse_constant=lambda c: sys.exit(f"{c} is not JSON")))' "$RUNNER_TEMP/bounds.json"
code=0
$BENTKIT coset-spectrum --f bf:4:0356 --mask 0x3 > "$RUNNER_TEMP/coset.json" || code=$?
test "$code" -eq 0
python -c 'import json, sys; from bentkit.core import parse_bf, weight; d = json.load(open(sys.argv[1])); f = parse_bf(d["function"]); sys.exit(not (d["dim"] == 2 and sum(d["sums"].values()) == (1 << f.n) - 2 * weight(f)))' "$RUNNER_TEMP/coset.json"
for run in "$BENTKIT" "python -O -m bentkit.cli"; do
  refuses 2 'error: ' 'mask 0x10' $run coset-spectrum --f bf:4:0356 --mask 0x10
done
refuses 4 'resource cap: ' '2^25' $BENTKIT bent affine --f bf:4:0356 --count 2000000
refuses 4 'resource cap: ' '2^32' $BENTKIT coset-spectrum --f "@$f" --mask 0
code=0
$BENTKIT coset-spectrum --f "@$f" --mask 0xff > "$RUNNER_TEMP/coset16.json" || code=$?
test "$code" -eq 0
python -c 'import json, sys; sys.exit(len(json.load(open(sys.argv[1]))["sums"]) != 256)' "$RUNNER_TEMP/coset16.json"
refuses 4 'resource cap: ' '2^32' $BENTKIT verify --suite lemma1 --n 16
refuses 4 'resource cap: ' '2^34' $BENTKIT verify --suite lemma1 --n 4 --samples 300000000
