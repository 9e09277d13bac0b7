#!/bin/sh
# eval_smoke.sh — end-to-end run of the paper-table replication harness
# (stq-eval + the checked-in §6 corpus tree), driven with the real
# binaries.
#
# Part of the stq project: a reproduction of "Semantic Type Qualifiers"
# (Chin, Markstrum, Millstein; PLDI 2005).
#
# Usage: eval_smoke.sh STQ_EVAL STQD STQC CORPUS_DIR
#
# Exercises:
#   1. --verify-sync: the checked-in tree matches its generators;
#   2. each corpus program checked with stqc against its golden
#      check.out.expected / check.err.expected (bftpd exits 1 with the
#      planted directory-listing hole, the others exit 0);
#   3. the rendered tables against TABLES.expected, and a corrupted
#      golden failing with a readable line diff and a nonzero exit;
#   4. --format json byte-identical across --jobs 1 / --jobs 4 and
#      across one-shot vs a live stqd daemon (`eval` RPC);
#   5. --update-golden reproducing the checked-in golden byte-for-byte.
set -u

STQ_EVAL=${1:?usage: eval_smoke.sh STQ_EVAL STQD STQC CORPUS_DIR}
STQD=${2:?usage: eval_smoke.sh STQ_EVAL STQD STQC CORPUS_DIR}
STQC=${3:?usage: eval_smoke.sh STQ_EVAL STQD STQC CORPUS_DIR}
CORPUS=${4:?usage: eval_smoke.sh STQ_EVAL STQD STQC CORPUS_DIR}

# check_case cds into each corpus dir, so every path must be absolute.
abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
STQ_EVAL=$(abspath "$STQ_EVAL") || exit 1
STQD=$(abspath "$STQD") || exit 1
STQC=$(abspath "$STQC") || exit 1
CORPUS=$(cd "$CORPUS" && pwd) || exit 1

WORK=$(mktemp -d /tmp/stq-eval-XXXXXX) || exit 1
SOCK="$WORK/stqd.sock"
DAEMON_PID=

FAILURES=0
fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null
  [ -n "$DAEMON_PID" ] && wait "$DAEMON_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

# --- 1. the checked-in tree matches the generators --------------------------
"$STQ_EVAL" --corpus "$CORPUS" --verify-sync >"$WORK/sync.out" 2>&1 \
  || fail "--verify-sync failed: $(cat "$WORK/sync.out")"

# --- 2. each corpus program through stqc against its goldens ----------------
# check_case NAME EXPECTED_EXIT INCLUDES UNITS...
check_case() {
  NAME=$1 WANT=$2 INCLUDES=$3
  shift 3
  (
    cd "$CORPUS/$NAME" || exit 9
    # shellcheck disable=SC2086
    "$STQC" check $INCLUDES "$@" --qualfile quals.stq \
      >"$WORK/$NAME.out" 2>"$WORK/$NAME.err"
  )
  GOT=$?
  [ "$GOT" = "$WANT" ] || fail "$NAME: exit $GOT, want $WANT"
  cmp -s "$CORPUS/$NAME/check.out.expected" "$WORK/$NAME.out" \
    || fail "$NAME: stdout differs from golden"
  cmp -s "$CORPUS/$NAME/check.err.expected" "$WORK/$NAME.err" \
    || fail "$NAME: diagnostics differ from golden"
}

check_case grep-dfa 0 "-I include" dfa_analyze.c dfa_lookup.c dfa_build.c main.c
check_case bftpd 1 "-I include -I lib" log.c commands.c list.c main.c
check_case mingetty 0 "-I include -I lib" log.c getty.c main.c
check_case identd 0 "-I include -I lib" request.c reply.c main.c

# --- 3. the rendered tables against the golden document ---------------------
"$STQ_EVAL" --golden "$CORPUS/TABLES.expected" >"$WORK/tables.out" \
  2>"$WORK/tables.err"
[ $? = 0 ] || fail "tables golden run failed: $(cat "$WORK/tables.err")"
cmp -s "$CORPUS/TABLES.expected" "$WORK/tables.out" \
  || fail "rendered tables differ from TABLES.expected"

# A corrupted golden must fail with a readable diff, not silently pass.
sed 's/grep-dfa/grep-zfa/' "$CORPUS/TABLES.expected" >"$WORK/bad.expected"
"$STQ_EVAL" --golden "$WORK/bad.expected" >/dev/null 2>"$WORK/bad.err"
GOT=$?
[ "$GOT" = 1 ] || fail "corrupted golden: exit $GOT, want 1"
grep -q "differs from golden" "$WORK/bad.err" \
  || fail "corrupted golden: no drift message"
grep -q -- "- grep-zfa" "$WORK/bad.err" \
  || fail "corrupted golden: diff is missing the expected line"
grep -q -- "+ grep-dfa" "$WORK/bad.err" \
  || fail "corrupted golden: diff is missing the actual line"

# --- 4. JSON byte-identity: jobs 1 vs 4, one-shot vs daemon -----------------
"$STQ_EVAL" --format json --jobs 1 >"$WORK/j1.json" 2>/dev/null \
  || fail "json jobs-1 run failed"
"$STQ_EVAL" --format json --jobs 4 >"$WORK/j4.json" 2>/dev/null \
  || fail "json jobs-4 run failed"
cmp -s "$WORK/j1.json" "$WORK/j4.json" \
  || fail "json output differs between --jobs 1 and --jobs 4"

"$STQD" --socket "$SOCK" --workers 2 --jobs 2 2>"$WORK/stqd.err" &
DAEMON_PID=$!
i=0
while [ $i -lt 100 ]; do
  "$STQC" status --server "$SOCK" >/dev/null 2>&1 && break
  sleep 0.1
  i=$((i + 1))
done
[ $i -lt 100 ] || { fail "daemon did not come up"; exit 1; }

"$STQ_EVAL" --format json --jobs 2 --server "$SOCK" >"$WORK/srv.json" \
  2>"$WORK/srv.err"
[ $? = 0 ] || fail "server json run failed: $(cat "$WORK/srv.err")"
cmp -s "$WORK/j1.json" "$WORK/srv.json" \
  || fail "json output differs between one-shot and --server"

"$STQ_EVAL" --jobs 2 --server "$SOCK" >"$WORK/srv.tables" 2>/dev/null \
  || fail "server tables run failed"
cmp -s "$WORK/tables.out" "$WORK/srv.tables" \
  || fail "table output differs between one-shot and --server"

"$STQC" shutdown --server "$SOCK" >/dev/null 2>&1 || fail "shutdown failed"
wait "$DAEMON_PID"
[ $? = 0 ] || fail "daemon exited non-zero"
DAEMON_PID=

# --- 5. --update-golden round-trips --------------------------------------
"$STQ_EVAL" --golden "$WORK/fresh.expected" --update-golden >/dev/null 2>&1 \
  || fail "--update-golden run failed"
cmp -s "$CORPUS/TABLES.expected" "$WORK/fresh.expected" \
  || fail "--update-golden output differs from checked-in golden"

if [ "$FAILURES" -ne 0 ]; then
  echo "eval_smoke: $FAILURES failure(s)" >&2
  exit 1
fi
echo "eval_smoke: all checks passed"
