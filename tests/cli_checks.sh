#!/usr/bin/env bash
# The command-line checks: the paper's claims at stretched ranges, and the
# CLI's output, errors and exit codes, each pinned by a sha256 digest, a
# pattern, an exit code or a line count.  $SEQPARITY runs the CLI, the
# installed console script by default; from a checkout, run
#   SEQPARITY="python -m seqparity" PYTHONPATH="$PWD/src" bash tests/cli_checks.sh
# (absolute, as the checks run in a temporary directory).  The module-load
# probes run under the `python` on PATH.
set -eEo pipefail
SEQPARITY=${SEQPARITY:-seqparity}
# a failed check names its line: a helper's caller, or the line itself
trap 'echo "${0##*/}: line $((${#FUNCNAME[@]} ? BASH_LINENO[0] : LINENO)) failed: $BASH_COMMAND" >&2' ERR
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"
# pin DIGEST [FILE]: the sha256 of FILE, or of stdin, is DIGEST
pin() {
  local digest=$(sha256sum < "${2:-/dev/stdin}" | cut -d' ' -f1)
  test "$digest" = "$1" || { echo "sha256 $digest, pinned $1" >&2; return 1; }
}
# exits CODE COMMAND...: COMMAND exits with CODE; its stderr is shown and
# left in stderr.txt
exits() {
  local code=0
  "${@:2}" 2> stderr.txt || code=$?
  cat stderr.txt >&2
  test "$code" -eq "$1"
}
# has FILE PATTERN...: each PATTERN matches a line of FILE
has() {
  local pattern
  for pattern in "${@:2}"; do
    grep -q -- "$pattern" "$1" || { echo "no line of $1 matches '$pattern'" >&2; return 1; }
  done
}
# --- the paper's lcm claims at a stretched heavy range
# verify all derives each A093431 window from the A061297 window of the
# same round, which the catalogue declares as its base.  A heavy range of
# 512 terms or more is cut where its lcm work halves: on a machine with two
# CPUs or more a child walks [0, 1434) and this process [1434, 2048];
# pinned to the digests of the walk in one process, which taskset -c 0 forces
for cmd in A061297 A093431 all; do
  $SEQPARITY verify "$cmd" --n-max-heavy 2048 > "$cmd.txt"
  taskset -c 0 $SEQPARITY verify "$cmd" --n-max-heavy 2048 > "$cmd-one-cpu.txt"
done
cat A061297.txt A093431.txt all.txt
has A061297.txt 'A061297  claimed: PASS'
has A093431.txt 'A093431  claimed: FAIL \[1-m(n+1)\]  fitted: .* \[1-m(n)\]'
has all.txt 'A061297  claimed: PASS' 'A093431  claimed: FAIL \[1-m(n+1)\]  fitted: .* \[1-m(n)\]'
pin 7f8fc25097743f34f4e23b899e11f3f4148847ca6c16d0d918a4a1438433838b A061297.txt
pin cb6b545e0a0d0207bb48d21c01bcebad63171344b0cd29a09a139eb95e9939ae A093431.txt
pin 3d3005210248291324f2c7dea99531dce684cfd431038747565163388a4d228e all.txt
pin 7f8fc25097743f34f4e23b899e11f3f4148847ca6c16d0d918a4a1438433838b A061297-one-cpu.txt
pin cb6b545e0a0d0207bb48d21c01bcebad63171344b0cd29a09a139eb95e9939ae A093431-one-cpu.txt
pin 3d3005210248291324f2c7dea99531dce684cfd431038747565163388a4d228e all-one-cpu.txt
# a heavy range past sys.maxsize fails in its top window, in this process,
# so the child walking the bottom half of the cut is killed unread; the
# report is the one of the walk in one process
for cpus in "" "taskset -c 0"; do
  exits 1 $cpus $SEQPARITY verify all --n-max-heavy 10000000000000000000 > past-maxsize.txt
  cat past-maxsize.txt
  test "$(wc -l < past-maxsize.txt)" = 10
  test "$(grep -c '  error: ' past-maxsize.txt)" = 2
  pin 680c56c031500a156392e901b0b7f6f5470119d84d79a54e4ece0e6aaafadadd past-maxsize.txt
done
# --- the paper's cheap claims at a stretched range
for id in A092524 A104258 A003071 A128975 A102393 A122248 A029886 A247303; do
  $SEQPARITY verify "$id" --n-max 262144
done > wide.txt
cat wide.txt
has wide.txt \
  'A092524  claimed: FAIL \[m(n+1)\]  fitted: .* \[m(n-1)\]  range: 1\.\.262144' \
  'A104258  claimed: FAIL \[m(n+1)\]  fitted: .* \[m(n-1)\]  range: 1\.\.262144' \
  'A003071  claimed: FAIL \[1-m(n+1)\]  fitted: .* \[1-m(n-1)\]  range: 1\.\.262144' \
  'A128975  claimed: PASS \[m(n)\]  fitted: .* \[m(n)\]  range: 1\.\.262144' \
  'A102393  claimed: PASS \[m(n)\]  fitted: .* \[m(n)\]  range: 0\.\.262144' \
  'A122248  claimed: PASS \[1-m(n)\]  fitted: .* \[1-m(n)\]  range: 0\.\.262144' \
  'A029886  claimed: PASS \[m(n)\]  fitted: .* \[m(n)\]  range: 0\.\.262144' \
  'A247303  claimed: PASS \[m(n)\]  fitted: .* \[m(n)\]  range: 0\.\.262144'
# 17 windows a sequence: on a machine with two CPUs or more, a child walks
# the bottom half of each range's windows; pinned to the digests of the
# walk in one process, which taskset -c 0 forces
nproc
pin cea12a786c51cbf337d28487489a7f12f646474ef5598db8cea46b00b3f2b1ba wide.txt
$SEQPARITY verify all --n-max 262144 | pin c266b6ed1722e9071399113ea50d712d21c2ab33c2cd3ab4af4541ccc17eaff6
taskset -c 0 $SEQPARITY verify all --n-max 262144 | pin c266b6ed1722e9071399113ea50d712d21c2ab33c2cd3ab4af4541ccc17eaff6
# --- the console script
$SEQPARITY --version
# the top-level help and each subcommand's exit 0 and open with their usage lines
$SEQPARITY --help > help.txt
head -n 1 help.txt | grep -q '^usage: seqparity \[-h\]'
for cmd in gen parity verify check-bfile fetch-bfile; do
  $SEQPARITY "$cmd" --help > help.txt
  head -n 1 help.txt | grep -q "^usage: seqparity $cmd \[-h\]"
done
# a named command parses with its subcommand's parser alone, and words
# that parser leaves over get the full parser's top-level error
exits 2 $SEQPARITY gen A010060 --count x
test "$(tail -n 1 stderr.txt)" = "seqparity gen: error: argument --count: invalid int value: 'x'"
exits 2 $SEQPARITY gen A010060 --version
test "$(tail -n 1 stderr.txt)" = "seqparity: error: unrecognized arguments: --version"
# the network stack (for --online) and json (for --format json) load on use only
python -c "import seqparity.cli, sys; loaded = {'http.client', 'urllib.request', 'ssl', 'email', 'json'} & set(sys.modules); assert not loaded, sorted(loaded)"
# the records are plain classes: only SequenceDescriptor, in catalogue, is a dataclass
python -c "import dataclasses; from seqparity import oeis, verify; found = [f'{m.__name__}.{n}' for m in (oeis, verify) for n, obj in vars(m).items() if dataclasses.is_dataclass(obj) and obj.__module__ == m.__name__]; assert not found, found"
$SEQPARITY check-bfile A128975
# the paper's claimed-versus-fitted table, plain and json, pinned on every
# Python; the default heavy range, and one of 1024 terms, are cut and their
# bottom halves walked by a child on a machine with two CPUs or more, so
# each is pinned to the same digests in one process, which taskset -c 0 forces
for cpus in "" "taskset -c 0"; do
  $cpus $SEQPARITY verify all | pin dcb235f1d28e38a8bd07d784220220e47aea2c6b35462a5ee93a2196fd7c43e0
  $cpus $SEQPARITY verify all --format json | pin c0d6c620f23ecf5f95d42955d26af39cd168f9111220df6aac51a2f104776457
  $cpus $SEQPARITY verify all --n-max 1024 --n-max-heavy 1024 | pin 11d96022cfb2ac57af819051cf58d9d246679c211088a46b05553dd2b12aa318
  $cpus $SEQPARITY verify all --n-max 1024 --n-max-heavy 1024 --format json | pin a044022c8f0da5dba04c201deb6c526c98a3b19954acd3107c92e4811c5a4587
done
# four 16384-term rounds, in each of which A029886, A092524 and A093431
# derive their windows from those of A247303, A104258 and A061297, pinned
# to the digests of every sequence generating its own windows
$SEQPARITY verify all --n-max 65536 | pin 52872043bf30c7bea869d7d7dc0731fa8af4ee06311803e61a94e473ba5d0533
$SEQPARITY verify all --n-max 65536 --format json | pin fbff9962323942e1f96bf3292b1ecb033931b1f6822a6d14cd2aa604514cf272
# a sequence without a claimed relation is a one-line usage error
exits 2 $SEQPARITY verify A010060
test "$(cat stderr.txt)" = "error: no parity relation is catalogued for A010060"
test "$(wc -l < stderr.txt)" -eq 1
# a count no list can index is the one out-of-memory line, not a traceback
exits 2 $SEQPARITY gen m --count 100000000000000000000
test "$(cat stderr.txt)" = "error: out of memory"
# a number on the command line may pass Python's default int/str limit too
from="$(python -c 'import sys; sys.set_int_max_str_digits(0); print(10**4300 + 7)')"
$SEQPARITY gen A010060 --from "$from" --count 3 > deep.txt
printf '1\n1\n0\n' | cmp - deep.txt
# a061297(19700) has 4310 digits, above Python's default int/str limit
$SEQPARITY gen A061297 --from 19700 --count 1 > a061297-19700.txt
test "$(wc -c < a061297-19700.txt)" -gt 4300
# the lcm sums, pinned to the digests of the walk over every r: the one
# deep term and the narrow A093431 window still walk each n, while the
# windows from 0 and from 4096 are wide enough to step from n - 1 to n,
# so they pin the stepped route to the walk's digests
pin e169f930e48b92175401b16808e28af31a32cc18d521455950c647d0e8e8070c a061297-19700.txt
$SEQPARITY gen A061297 --count 2049 | pin 1e228ec1c54b216123b66b6ebdeaf1d3b650436b01ff3d150d5d3e99cad3f887
$SEQPARITY gen A093431 --from 1500 --count 64 | pin 49a44d955de48a5cdcec0cd39848b6ff5c429ea3e65d8fff11a2fbd41c8f6d49
$SEQPARITY gen A061297 --from 4096 --count 1024 | pin 4608b190488b82a672981e28e752c5c652b3583ef723d5e1f8d964176422f48f
# a million A247303 terms, pinned to the digest of the earlier big-integer square
$SEQPARITY gen A247303 --count 1000000 | pin ebc365fbfe3df6ba0c9b7ff50da71494262b9dcdda01566597f4fe67dd88c457
# and a million A029886 terms, pinned to the digest of the odious-count route
$SEQPARITY gen A029886 --count 1000000 | pin b89866beb72a427eaa6a50039737ba820920db79eeb40b9d2f59668e8c8f8985
# A003071 by its merge rule and the re-read bases by int() and octal
# Horner, pinned to the digests of the per-term suffix sum and binary Horner
$SEQPARITY gen A003071 --count 1000000 | pin 7fe9e9958c3cb70d85e9c62930cd5ec0182d9e9bbe6eed41aaaaf81bb426cd89
$SEQPARITY gen A092524 --count 1000000 | pin b4ce9f987a6cb484fb566fd44ea1f8f056fe49148a1b6348a39e5322411841c6
$SEQPARITY gen A104258 --count 262144 | pin 070df97dca93ec623e7b784f7633cc686437d5e15dea362de1b27452cd900855
$SEQPARITY gen A003071 --from 1000000000000 --count 4096 | pin c4be3650077228fcb2f911e0a9531e30703c7444cb7cd25ee5236be531e97a6f
$SEQPARITY gen A092524 --from 4294967296 --count 4096 | pin 1ce94e936d6149a283d0997b4b303dff6f81eaf60fddb3fb725e97b903d32374
# true windows of the convolutions and A122248, and the parity word packed
# window by window, pinned to the digests of the prefix route
$SEQPARITY gen A247303 --from 1000000 --count 4096 | pin 788ddc290b53a3a6309cc7e05a407d582c4067107308b12f123dad9b1146beff
$SEQPARITY gen A029886 --from 999999 --count 4096 | pin 57c367fa56f74ba245b9ff2eddc3175f54f0acc7846d54586af76e6593541dee
$SEQPARITY gen A122248 --from 1000000 --count 4096 | pin 4fef60575b4fbe29c9cce80d504b86f1a74e868e5cdd876e57ce46a1fdfc2f88
$SEQPARITY gen A122248 --count 1000000 | pin 218429277029150f4d7598e591f01e7868cd0cbaf62363a3ec1859244de06b92
$SEQPARITY parity A029886 --from 65530 --count 4096 | pin 48d64d8687b532d04db1839bc94cdfb933fb32ec3806548e0464efab07cc0249
# the per-index sequences, pinned to the digests of the per-index formulas
# their scalars carried before each scalar became its window's one-term case
$SEQPARITY gen A048883 --from 1000000000000 --count 4096 | pin 618b28262ba3e608c779782b2ad2e19302c1973c6072b20e9fe61a6b3b430d95
$SEQPARITY gen A000069 --from 1000000000000 --count 4096 | pin 210c3b32fb0850bba4544dae164309c4811b29750bfa9b4ee6b33f8cd9442375
$SEQPARITY gen A010060 --from 1000000000000 --count 4096 | pin 424352d707bf2a525df9c7ae8b74ac6177d071689408ee4356bb8aa246792674
$SEQPARITY gen A010059 --from 1000000000000 --count 4096 | pin fc724ed5655f84c14ee26b873df1d04137c7be8389ff0c3b6429fd51f8c66341
$SEQPARITY gen A001969 --from 1000000000000 --count 4096 | pin 4ac40378810da79d2ad8f3e38c5c1f1a578d477d32c8bb90f4405b69443efcf1
$SEQPARITY gen A228495 --from 1000000000000 --count 4096 | pin ce9b960cb8f91c45194d2f792ccda336518ba423f8ece63eefa8f169eac42b74
$SEQPARITY gen A001285 --from 1000000000000 --count 4096 | pin 6ca1eb23e8aec5ad4950f0b1eaf91358df99844bf7b91d50ad6709530388b6ce
$SEQPARITY gen A102393 --from 1000000000000 --count 4096 | pin 001be707efb733e0ac4da102b718490ea0b00562afce50ade7571fbbcf139b35
$SEQPARITY gen A128975 --from 1000000000000 --count 4096 | pin 4cb33709c429e2dfb03a4b373086dcc5016ad712dc575d6cc9e4c9a88bcacb1c
$SEQPARITY gen A104258 --from 1000000000000 --count 4096 | pin e1a5492ca6e689d49348cb3f4ffb3de5bb4758c0236657d313afd38ef5cee1f9
$SEQPARITY gen A113474 --from 1000000000000 --count 4096 | pin 2b81b5df954abf543934a7e3408b216fb5301d61a8435488003d3bf94db7ba3f
$SEQPARITY gen A101925 --from 1000000000000 --count 4096 | pin e1a5a0d6eeeab71200311017ca12f3d7c9925efcbdce3d149e6a515fb2cebe72
$SEQPARITY gen A005187 --from 1000000000000 --count 4096 | pin 6b66345601b73b3d0684e65aa8fc11011674c693b08e38b1bf81439c86a5cc71
$SEQPARITY gen m --from 1000000000000 --count 4096 | pin 1c40de9e35cbb335c39524a4c7b494140150a10f87e7d76142211bdde0641c18
$SEQPARITY gen A001855 --from 1099511625728 --count 4096 | pin 5ea041d9151916a4cbdec87faed5476af3f109ad11f5b0e1b627abb4aceaef95
# windows that straddle 2**64, read from two blocks of the Thue-Morse byte
# window, pinned to the digests of the per-term comprehensions
$SEQPARITY gen A102393 --from 18446744073709549568 --count 4096 | pin 221f105b322cff29df3825cdbf759bed6ce69da8ae1f22d6cbdc1bfebc0e8a3e
$SEQPARITY gen A001969 --from 18446744073709549568 --count 4096 | pin f7d1248afbb1793d1cd186a6e5851795e491b582cad0684c1caee0e5ae262bf6
$SEQPARITY gen A010060 --from 18446744073709549568 --count 4096 | pin 577558439c25a6304ab6de0f0ea4d3d620e2ea6ad8af6ae0ab555403de982fca
$SEQPARITY gen A128975 --count 1000000 | pin bfd57ce455305137b695b967f2067d10d555d5b99262e8034a43716365fb6cfd
$SEQPARITY gen A102393 --count 1000000 | pin 64ec0f7bebb36e6de1674d615ede3e2802cf28af90e2180ba2b7161cbe0385ca
$SEQPARITY gen m --count 1000000 | pin d3015931264d94884eb81a2eb2f288959fdd8277ca5510a5bcab6e68e227c491
exits 2 $SEQPARITY gen A010060 --count 20000 > /dev/full
test "$(wc -l < stderr.txt)" -eq 1
# an allocation larger than the address space is refused at once: a
# one-line error, not a traceback
exits 2 $SEQPARITY gen m --count 1000000000000000 > stdout.txt
test "$(cat stderr.txt)" = "error: out of memory"
test ! -s stdout.txt
# a stdout closed at start is a one-line error before any work
exits 2 $SEQPARITY gen A010060 --count 3 >&-
test "$(wc -l < stderr.txt)" -eq 1
# help and version text is output too: a full disk refuses it with exit 2
# and one error line, and a closed stdout is refused before the arguments
# are read
exits 2 $SEQPARITY --version > /dev/full
test "$(wc -l < stderr.txt)" -eq 1
has stderr.txt '^error: \[Errno 28\]'
exits 2 $SEQPARITY --help >&-
test "$(cat stderr.txt)" = "error: stdout is closed"
# a discarded or closed stderr leaves the exit code and the table as they are
$SEQPARITY verify all 2>/dev/null > verify-devnull.txt
$SEQPARITY verify all 2>&- > verify-closed.txt
pin dcb235f1d28e38a8bd07d784220220e47aea2c6b35462a5ee93a2196fd7c43e0 verify-devnull.txt
pin dcb235f1d28e38a8bd07d784220220e47aea2c6b35462a5ee93a2196fd7c43e0 verify-closed.txt
# a reader that closes the pipe mid-write is an error under unbuffered stdio too
code=0
PYTHONUNBUFFERED=1 $SEQPARITY gen A010060 --count 300000 2> stderr.txt | head -c 10 > /dev/null || code=${PIPESTATUS[0]}
cat stderr.txt
test "$code" -eq 2
test "$(wc -l < stderr.txt)" -eq 1
# a written b-file reads back through check-bfile --file
$SEQPARITY gen A104258 --count 4096 --format bfile > b104258.txt
test "$($SEQPARITY check-bfile A104258 --file b104258.txt)" = "A104258: checked 4096 terms, 0 mismatches"
# b-files written by one %-format, pinned to the digests of the per-row
# f-string join; the 100000 rows read back chunk by chunk
$SEQPARITY gen A104258 --count 100000 --format bfile > b104258-100000.txt
pin 82fab54d84ea8db130efaaa61d4507d5f183c38fee7e361c24dcd7f347575070 b104258-100000.txt
$SEQPARITY gen A010060 --count 1000000 --format bfile | pin 5f6fbd2e0192ef1d9c3d2412458e8f9f19ef154cb5c0422492487d8db29d404f
test "$($SEQPARITY check-bfile A104258 --file b104258-100000.txt --limit 100000)" = "A104258: checked 100000 terms, 0 mismatches"
# 100000 short rows, read back as written (chunk by chunk) and with tab
# separators (line by line)
$SEQPARITY gen A247303 --count 100000 --format bfile > b247303.txt
test "$($SEQPARITY check-bfile A247303 --file b247303.txt --limit 100000)" = "A247303: checked 100000 terms, 0 mismatches"
sed 's/ /\t/' b247303.txt > b247303-tabs.txt
test "$($SEQPARITY check-bfile A247303 --file b247303-tabs.txt --limit 100000)" = "A247303: checked 100000 terms, 0 mismatches"
# one value changed near row 99000: the text check stops at the chunk that
# differs, and the parse names the row
sed '99001s/^99000 .*/99000 7/' b247303.txt > b247303-changed.txt
exits 1 $SEQPARITY check-bfile A247303 --file b247303-changed.txt --limit 100000 > changed.txt
cat changed.txt
test "$(head -n 1 changed.txt)" = "99000 expected 7 got 24744"
test "$(tail -n +2 changed.txt)" = "A247303: checked 100000 terms, 1 mismatches"
# CRLF line ends are not the canonical form, so the file is parsed
sed 's/$/\r/' b104258.txt > b104258-crlf.txt
test "$($SEQPARITY check-bfile A104258 --file b104258-crlf.txt)" = "A104258: checked 4096 terms, 0 mismatches"
# the 21 fixtures as fetch-bfile prints them offline from an empty cache
mkdir empty-cache
for id in A000069 A001285 A001855 A001969 A003071 A005187 A010059 A010060 A029886 A048883 A061297 \
          A092524 A093431 A101925 A102393 A104258 A113474 A122248 A128975 A228495 A247303; do
  SEQPARITY_CACHE_DIR="$tmp/empty-cache" $SEQPARITY fetch-bfile "$id"
done > fixtures.txt
pin cec378f32afd92f2dcc210e9d9de3c14adc0f06ca361d41e2d1bfe0c0a7a4ad6 fixtures.txt
# an empty --cache-dir is the default cache, not the working directory
mkdir planted
printf '0 7\n1 7\n' > planted/b010060.txt
(cd planted && SEQPARITY_CACHE_DIR="$tmp/empty-cache" $SEQPARITY fetch-bfile A010060 --cache-dir "") > planted.txt
SEQPARITY_CACHE_DIR="$tmp/empty-cache" $SEQPARITY fetch-bfile A010060 | cmp - planted.txt
# lines end at "\n" only: a file of lone carriage returns is one bad line
printf '0 0\r1 1\r' > lone-cr.txt
exits 2 $SEQPARITY check-bfile A010060 --file lone-cr.txt
test "$(wc -l < stderr.txt)" -eq 1
