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
# Outputs, on an n=16 Maiorana-McFarland function: wht and anf print exactly
# json.dumps(..., indent=2) of their 65,536-int lists, and wht exits 2 with
# one error line, no traceback, when its reader closes stdout after one
# byte; bent flats' counts add up to its total; bent affine --count 9 builds
# and tests its images in nine chunks of one map, and --count 40000 at n=4
# in 20 chunks of up to 2,048 maps, each chunk's maps one random_invertible
# block.
#
# Pinned reports: every verify suite at its defaults, and at the flags in
# the loop below, prints the stdout pinned by sha256 and its check count, so
# the rng streams and every report stay byte-identical. bent affine --count
# 40000 is pinned the same way, and census --n 4 --emit FILE writes the 896
# bent tables, one bf: line each, pinned by sha256 (the census's functions
# property on the installed script). The flags reach the paths the defaults
# miss: prop1 --maps 100 streams the census images in 44 chunks; parseval and
# convolution at --samples 3000 span many chunks of at most 2^15 truth-table
# points; involution --samples 2048 is the most samples its stream cap
# admits at its fixed range of n, 1..16; lemma1 --n 4 is the randomized
# route; lemma2 at --n 8 and --n 12 --samples 64 rebuilds its random
# candidates a block at a time; census-agreement --n 2 adds the analytic
# odd-weight check. convolution's array paths (convolve_pm on a numpy
# integer array, hadamard_transform on a 2-D block) and involution's packed
# row codec (np.unpackbits count=, packbits) run on the numpy floor job too.
# The pins that run many-row butterfly blocks, and so check walsh_rows'
# points-major (2^n, rows) layout on every numpy the jobs install:
# census-agreement (all 65,536 truth tables at n=4 in one block), prop1
# --maps 100 (chunks of 2,048 images at n=4), bent affine --count 40000
# (chunks of up to 2,048 images), and parseval and convolution at --samples
# 3000 (one block per arity in a chunk, and convolution's 2-D
# hadamard_transform of the masked spectra).
#
# Refusals, each checked by refuses: the exit code, empty stdout, and one
# stderr line naming the cost, so no traceback. Resource caps, each refused
# with exit 4 and one resource-cap line: the census at n=6, also under
# python -O, which strips assert statements; involution --samples 2049,
# whose expected 16,785,152 truth-table points pass 2^24; lemma2 at n=18,
# 256 round trips over a ball of 155,382 points, 2^26 in all; bent affine
# --count 2000000 at n=4, 2^25 points; coset-spectrum at n=16 on the point
# face (mask 0), 2^32 points, while the dim-8 face (mask 0xff) sits exactly
# on the 2^24 budget and prints its 256 sums; lemma1 at n=16, whose all-ones
# mask needs 2^32 points, before its first triple whatever the seed, and
# lemma1 --n 4 --samples 300000000, whose triples would draw 2^34 points.
#
# Other checks: census-agreement prints the same stdout twice (no timings on
# stdout); census runs in one process, so --jobs 2 exits 1 with one
# usage-error line, while --jobs 1 prints 896/896 and the same stdout as no
# --jobs; bounds at n=1024, its largest arity, prints strict JSON (no
# Infinity or NaN), and at n=4 takes its known count from the degree census,
# log2(896); coset-spectrum's coset sums add up to 2^n - 2 wt(f), and a mask
# past n's bits exits 2 with one error line, also under python -O; lemma1 at
# n=10 meets no premise-true triple in its default samples and exits 3
# instead of passing on nothing.
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
code=0
$BENTKIT wht --f "@$f" > "$RUNNER_TEMP/wht.json" || code=$?
test "$code" -eq 0
python -c 'import json, sys; t = open(sys.argv[1]).read(); d = json.loads(t); sys.exit(not (t == json.dumps(d, indent=2) + "\n" and len(d["values"]) == 65536 and all(abs(v) == 256 for v in d["values"])))' "$RUNNER_TEMP/wht.json"
code=0
$BENTKIT anf --f "@$f" > "$RUNNER_TEMP/anf.json" || code=$?
test "$code" -eq 0
python -c 'import json, sys; t = open(sys.argv[1]).read(); sys.exit(t != json.dumps(json.loads(t), indent=2) + "\n")' "$RUNNER_TEMP/anf.json"
$BENTKIT wht --f "@$f" 2> "$RUNNER_TEMP/pipe.err" | head -c 1 > /dev/null
test "${PIPESTATUS[0]}" -eq 2
test "$(grep -c '^error: ' "$RUNNER_TEMP/pipe.err")" -eq 1
if grep -F Traceback "$RUNNER_TEMP/pipe.err"; then exit 1; fi
code=0
$BENTKIT bent flats --f "@$f" > "$RUNNER_TEMP/flats.json" || code=$?
test "$code" -eq 0
python -c 'import json, sys; d = json.load(open(sys.argv[1])); sys.exit(sum(d["counts"].values()) != d["total"])' "$RUNNER_TEMP/flats.json"
code=0
$BENTKIT bent affine --f "@$f" --count 9 --seed 1 > "$RUNNER_TEMP/affine.json" || code=$?
test "$code" -eq 0
python -c 'import json, sys; d = json.load(open(sys.argv[1])); sys.exit(not (len(d["images"]) == 9 and d["all_bent"] is True))' "$RUNNER_TEMP/affine.json"
code=0
$BENTKIT bent affine --f bf:4:0356 --count 40000 --seed 1 > "$RUNNER_TEMP/affine4.json" || code=$?
test "$code" -eq 0
python -c 'import json, sys; d = json.load(open(sys.argv[1])); sys.exit(not (len(d["images"]) == 40000 and d["all_bent"] is True))' "$RUNNER_TEMP/affine4.json"
python -c 'import hashlib, sys; sys.exit(hashlib.sha256(open(sys.argv[1], "rb").read()).hexdigest() != sys.argv[2])' "$RUNNER_TEMP/affine4.json" 5da8d6c1de53328a4f1aefe5de9aac8a6314203708f3186756ed7c4f58245737
for pinned in "lemma1:196608:dd94e3e7d88e68f59521c8bcabd6572a4c4ae4aadc117ccdf49ba92473e81525" \
    "lemma1 --n 4:1000:b64c8901087dbfd99150a28d39b6e64975900b61cde283b155ba6794b18d49bf" \
    "lemma2:102980:3784b9b792c5d06777ebec53e4d1b8ddc935772b1eeaefeeea2f41401a15bf11" \
    "lemma2 --n 8:256:eb62978b7611a7a7b23b4b0e35fd9d824d8723e7853d6e36ef3a1bc1e9833f9f" \
    "lemma2 --n 12 --samples 64:64:7d9a732d8ac7e9745ddd3ca8fd92cd9e06e2fa351ccfa9d13506a0c09f8d41e3" \
    "prop1:8960:7e24ce66a88216c40c2009d5a0b1a529d1949cb2df50e54527658f936cb82de7" \
    "prop1 --maps 100:89600:6fbb1c171fafd2b4d397b5d40d6131df8616ad33f9a11ae9035111511c789be0" \
    "parseval:1276:3fa658c9919b5210189789cb4e5212b45c2afe5cf761f03e2974bc6178c5d6f7" \
    "parseval --samples 3000:3276:6cbc68c7e3c185e33eb5ab78acf693816bdce10062f8a631ee450a753b18713f" \
    "convolution:1064:539d0928e731e66a9d2b8054327c5349b2b4520fc661ddb2ecd25e619404e34d" \
    "convolution --samples 3000:3064:2b005c2131d4000cb3440469e867837c947b4eac0afa2285f8b5f416b50aa731" \
    "involution:66812:1bf1b5b90c6d9b23272c643d64ce43d8dfd747ba83346283f57c48969b220a4d" \
    "involution --samples 2048:67860:7cda3697a7751b0419ce0ce81eb3e41fb17b7258cc3e611679eba301d8aafe71" \
    "flats:1793:a20d50d9f55b094dbde870727c1e35feceaf27b8c63e0632d2b20924827fa5b4" \
    "census-agreement:1:c8b7dd830100746982b403d4737f14459b0b99606e369a9eebadd4a2accd4449" \
    "census-agreement --n 2:2:1a0b4498d1dadac744de23767c0cc01f68a7d6d799c0e6fa5f6ba2f3520c2cb4"; do
  code=0
  # unquoted: the suite and flags before the first colon split into words
  $BENTKIT verify --suite ${pinned%%:*} > "$RUNNER_TEMP/verify.json" || code=$?
  test "$code" -eq 0
  python -c 'import hashlib, json, sys; t = open(sys.argv[1], "rb").read(); d = json.loads(t); _, checks, digest = sys.argv[2].rsplit(":", 2); sys.exit(not (d["passed"] is True and d["checks"] == int(checks) and hashlib.sha256(t).hexdigest() == digest))' "$RUNNER_TEMP/verify.json" "$pinned"
done
refuses 4 'resource cap: ' '2^42' $BENTKIT census --n 6 --method degree
refuses 4 'resource cap: ' '2^64' python -O -m bentkit.cli census --n 6 --method naive
$BENTKIT verify --suite census-agreement > "$RUNNER_TEMP/agree1.json"
$BENTKIT verify --suite census-agreement > "$RUNNER_TEMP/agree2.json"
cmp "$RUNNER_TEMP/agree1.json" "$RUNNER_TEMP/agree2.json"
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
code=0
$BENTKIT verify --suite lemma1 --n 10 > "$RUNNER_TEMP/lemma1n10.json" || code=$?
test "$code" -eq 3
python -c 'import json, sys; d = json.load(open(sys.argv[1])); sys.exit(not (d["passed"] is False and d["details"]["premise_true"] == 0))' "$RUNNER_TEMP/lemma1n10.json"
refuses 4 'resource cap: ' '2^32' $BENTKIT verify --suite lemma1 --n 16
refuses 4 'resource cap: ' '2^34' $BENTKIT verify --suite lemma1 --n 4 --samples 300000000
code=0
$BENTKIT bounds --n 4 > "$RUNNER_TEMP/bounds4.json" || code=$?
test "$code" -eq 0
python -c 'import json, math, sys; d = json.load(open(sys.argv[1])); sys.exit(not (d["known_provenance"] == "census" and d["known_count_log2"] == math.log2(896)))' "$RUNNER_TEMP/bounds4.json"
