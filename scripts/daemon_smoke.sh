#!/bin/sh
# daemon_smoke.sh — end-to-end smoke test of the daemon path, run by
# `make daemon-smoke` and the CI daemon-smoke job:
#
#   1. build mbpd, mbpctl, mbpgen and mbpsweep;
#   2. generate a small synthetic trace suite;
#   3. start mbpd on a random loopback port, submit a sweep with mbpctl
#      and wait for the result;
#   4. diff the daemon's result JSON against a local mbpsweep run of the
#      same spec — the byte-identity contract;
#   5. resubmit the identical spec and require a cache hit on the same job;
#   6. SIGTERM the daemon and require a clean drain (exit 0) within a
#      bounded wait, with the address file removed.
#
# Everything (binaries, traces, daemon state, logs) lands under
# $DAEMON_SMOKE_DIR (default: a fresh mktemp dir) so CI can upload the
# directory as a failure artifact. A passing run removes the directory
# when it made it itself; a failing run keeps it, and a directory given in
# $DAEMON_SMOKE_DIR is always kept.
set -eu

if [ -n "${DAEMON_SMOKE_DIR:-}" ]; then
	work="$DAEMON_SMOKE_DIR"
	own=
else
	work="$(mktemp -d)"
	own=1
fi
mkdir -p "$work"
bin="$work/bin"
log="$work/daemon-smoke.log"
: >"$log"

fail() {
	echo "daemon-smoke: FAIL: $*" >&2
	echo "daemon-smoke: logs under $work" >&2
	if [ -f "$work/mbpd.log" ]; then
		sed 's/^/  mbpd: /' "$work/mbpd.log" >&2
	fi
	exit 1
}

cleanup() {
	if [ -n "${daemon_pid:-}" ] && kill -0 "$daemon_pid" 2>/dev/null; then
		kill -9 "$daemon_pid" 2>/dev/null || true
	fi
}
trap cleanup EXIT

echo "daemon-smoke: building (workdir $work)"
go build -o "$bin/" ./cmd/mbpd ./cmd/mbpctl ./cmd/mbpgen ./cmd/mbpsweep

echo "daemon-smoke: generating traces"
"$bin/mbpgen" -suite cbp5-train -dir "$work/traces" -scale 2000 >>"$log" 2>&1

glob="$work/traces/*.sbbt*"
spec='gshare:t=12,h=%d'

echo "daemon-smoke: starting mbpd"
"$bin/mbpd" -data-dir "$work/data" -listen 127.0.0.1:0 >"$work/mbpd.log" 2>&1 &
daemon_pid=$!

# mbpd publishes its bound address in <data-dir>/mbpd.addr once listening.
addr=
i=0
while [ "$i" -lt 300 ]; do
	if [ -s "$work/data/mbpd.addr" ]; then
		addr="$(cat "$work/data/mbpd.addr")"
		break
	fi
	kill -0 "$daemon_pid" 2>/dev/null || fail "mbpd exited before binding"
	i=$((i + 1))
	sleep 0.1
done
[ -n "$addr" ] || fail "mbpd never published its address"
echo "daemon-smoke: mbpd on $addr"

id="$("$bin/mbpctl" -addr "$addr" submit \
	-traces "$glob" -predictor "$spec" -from 4 -to 6 -policy skip \
	2>>"$log")" || fail "submit failed (see $log)"
echo "daemon-smoke: job $id"

"$bin/mbpctl" -addr "$addr" wait -json "$id" >"$work/remote.json" 2>>"$log" \
	|| fail "wait failed"

"$bin/mbpsweep" -traces "$glob" -predictor "$spec" -from 4 -to 6 -policy skip \
	-json >"$work/local.json" 2>>"$log" || fail "local mbpsweep failed"

diff -u "$work/local.json" "$work/remote.json" >&2 \
	|| fail "daemon result differs from local mbpsweep"
echo "daemon-smoke: remote result is byte-identical to mbpsweep -json"

# Resubmitting the identical spec must land on the same job as a cache hit,
# served from the store without re-simulating.
"$bin/mbpctl" -addr "$addr" submit -json \
	-traces "$glob" -predictor "$spec" -from 4 -to 6 -policy skip \
	>"$work/resubmit.json" 2>>"$log" || fail "resubmit failed"
grep -q '"cached": true' "$work/resubmit.json" \
	|| fail "resubmit was not a cache hit: $(cat "$work/resubmit.json")"
grep -q "\"id\": \"$id\"" "$work/resubmit.json" \
	|| fail "resubmit returned a different job: $(cat "$work/resubmit.json")"
echo "daemon-smoke: resubmit is a cache hit on job $id"

# SIGTERM must drain to a clean exit 0 within the timeout and remove the
# published address file.
kill -TERM "$daemon_pid"
i=0
while kill -0 "$daemon_pid" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -lt 300 ] || fail "mbpd did not exit within 30s of SIGTERM"
	sleep 0.1
done
code=0
wait "$daemon_pid" || code=$?
[ "$code" -eq 0 ] || fail "mbpd drain exited $code, want 0"
[ ! -e "$work/data/mbpd.addr" ] || fail "mbpd left its address file behind"
daemon_pid=

if [ -n "$own" ]; then
	rm -rf "$work"
fi
echo "daemon-smoke: PASS"
