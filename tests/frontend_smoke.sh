#!/bin/sh
# frontend_smoke.sh — end-to-end replay of the checked-in C mini-corpus
# (tests/corpus/c) through the preprocessing front end, driven with the
# real binaries the way a user would run them.
#
# Part of the stq project: a reproduction of "Semantic Type Qualifiers"
# (Chin, Markstrum, Millstein; PLDI 2005).
#
# Usage: frontend_smoke.sh STQC STQD
#
# Exercises, against the golden .expected files next to the sources:
#   1. the section-6 dfa.h/dfa.c pair (nonnull, one planted restrict
#      diagnostic, one sanctioned run-time cast);
#   2. the shared-header three-TU program (pos/neg, one planted warning
#      with a macro-expansion backtrace, link-checked prototypes);
#   3. the two-deep include chain (diagnostic carries both "in file
#      included from" notes);
#   4. the link-error pair (two TUs disagree on one prototype's
#      qualifier; exit 2 with the link error and none of the checker
#      warnings the defining TU would produce on its own), and its
#      variadic twin (the signatures' ellipsis renders once);
#   5. --jobs 4 and a double run: byte-identical to --jobs 1 every time;
#   6. the same checks through a live stqd daemon (the client ships the
#      include closure over the socket): byte-identical to one-shot, and
#      cold + warm recheck byte-identical to check.
set -u

STQC=${1:?usage: frontend_smoke.sh STQC STQD}
STQD=${2:?usage: frontend_smoke.sh STQC STQD}

CORPUS=$(cd "$(dirname "$0")/corpus/c" && pwd) || exit 1
WORK=$(mktemp -d /tmp/stq-frontend-XXXXXX) || exit 1
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

cd "$CORPUS" || exit 1

# run CASE EXPECTED_EXIT BUILTINS FILES...
# One-shot at jobs 1 against the goldens, then jobs 4 twice: every run
# must be byte-identical to the first.
run_case() {
  CASE=$1 WANT=$2 BUILTINS=$3
  shift 3
  "$STQC" check -I . "$@" --builtins "$BUILTINS" --jobs 1 \
    >"$WORK/$CASE.out" 2>"$WORK/$CASE.err"
  GOT=$?
  [ "$GOT" = "$WANT" ] || fail "$CASE: exit $GOT, want $WANT"
  cmp -s "$CASE.check.out.expected" "$WORK/$CASE.out" \
    || fail "$CASE: stdout differs from golden"
  cmp -s "$CASE.check.err.expected" "$WORK/$CASE.err" \
    || fail "$CASE: diagnostics differ from golden"
  for PASS in a b; do
    "$STQC" check -I . "$@" --builtins "$BUILTINS" --jobs 4 \
      >"$WORK/$CASE.j4.out" 2>"$WORK/$CASE.j4.err"
    [ $? = "$WANT" ] || fail "$CASE: jobs-4 exit differs (pass $PASS)"
    cmp -s "$WORK/$CASE.out" "$WORK/$CASE.j4.out" \
      || fail "$CASE: jobs-4 stdout differs from jobs-1 (pass $PASS)"
    cmp -s "$WORK/$CASE.err" "$WORK/$CASE.j4.err" \
      || fail "$CASE: jobs-4 diagnostics differ from jobs-1 (pass $PASS)"
  done
}

run_case dfa 1 nonnull dfa.c
run_case multi 1 pos,neg alpha.c beta.c main.c
run_case chain 1 pos,neg chain.c
run_case mismatch 2 pos,neg mismatch_def.c mismatch_use.c
run_case variadic 2 tainted,untainted variadic_def.c variadic_use.c

# --- the same corpus through a live daemon ----------------------------------
"$STQD" --socket "$SOCK" --workers 2 --jobs 2 2>"$WORK/stqd.err" &
DAEMON_PID=$!
i=0
while [ $i -lt 100 ]; do
  "$STQC" status --server "$SOCK" >/dev/null 2>&1 && break
  sleep 0.1
  i=$((i + 1))
done
[ $i -lt 100 ] || { fail "daemon did not come up"; exit 1; }

# server CASE EXPECTED_EXIT BUILTINS FILES...
# The client preprocesses locally only to collect the include closure; the
# daemon re-runs the front end from the shipped file map.
server_case() {
  CASE=$1 WANT=$2 BUILTINS=$3
  shift 3
  "$STQC" check -I . "$@" --builtins "$BUILTINS" --server "$SOCK" \
    >"$WORK/$CASE.srv.out" 2>"$WORK/$CASE.srv.err"
  [ $? = "$WANT" ] || fail "$CASE: server exit differs"
  cmp -s "$WORK/$CASE.out" "$WORK/$CASE.srv.out" \
    || fail "$CASE: server stdout differs from one-shot"
  cmp -s "$WORK/$CASE.err" "$WORK/$CASE.srv.err" \
    || fail "$CASE: server diagnostics differ from one-shot"
}

server_case dfa 1 nonnull dfa.c
server_case multi 1 pos,neg alpha.c beta.c main.c
server_case chain 1 pos,neg chain.c
server_case mismatch 2 pos,neg mismatch_def.c mismatch_use.c
server_case variadic 2 tainted,untainted variadic_def.c variadic_use.c

# Cold then warm recheck against the daemon's shared incremental engine:
# both byte-identical to the one-shot check.
for PASS in cold warm; do
  "$STQC" recheck -I . alpha.c beta.c main.c --builtins pos,neg \
    --unit smoke --server "$SOCK" \
    >"$WORK/multi.re.out" 2>"$WORK/multi.re.err"
  [ $? = 1 ] || fail "multi: $PASS recheck exit differs"
  cmp -s "$WORK/multi.out" "$WORK/multi.re.out" \
    || fail "multi: $PASS recheck stdout differs from check"
  cmp -s "$WORK/multi.err" "$WORK/multi.re.err" \
    || fail "multi: $PASS recheck diagnostics differ from check"
done

"$STQC" shutdown --server "$SOCK" >/dev/null 2>&1 || fail "shutdown failed"
wait "$DAEMON_PID"
[ $? = 0 ] || fail "daemon exited non-zero"
DAEMON_PID=

if [ "$FAILURES" -ne 0 ]; then
  echo "frontend_smoke: $FAILURES failure(s)" >&2
  echo "--- daemon stderr ---" >&2
  cat "$WORK/stqd.err" >&2
  exit 1
fi
echo "frontend_smoke: all checks passed"
