#!/bin/sh
# End-to-end smoke test of the igpartd daemon, suitable for CI:
#
#   1. build igpartd and netgen;
#   2. generate a benchmark netlist into a scratch data directory;
#   3. boot the daemon on a random port and parse the address it logs;
#   4. submit the netlist by server-side path and long-poll it: one
#      GET with ?wait= covers the solve, and a malformed wait gets 400;
#   5. assert the job finished "done" with a positive ratio cut;
#   6. SIGTERM the daemon and require a clean, prompt exit;
#   7. reboot with -inject 'worker.panic:limit=1': the first job fails
#      with a recovered panic, the daemon stays live on /healthz, the
#      next job completes clean, and the panic shows in /metrics.
#
# Requires only the Go toolchain and POSIX sh + curl + grep + sed.
set -eu

TAG=smoke
workdir=$(mktemp -d)
. "$(dirname "$0")/lib.sh"
cleanup() {
    cleanup_daemons
    rm -rf "$workdir"
}
trap cleanup EXIT

say "building binaries"
go build -o "$workdir/igpartd" igpart/cmd/igpartd
go build -o "$workdir/netgen" igpart/cmd/netgen
IGPARTD=$workdir/igpartd

mkdir "$workdir/data"
"$workdir/netgen" -bench bm1 -out "$workdir/data/bm1.hgr"

say "starting igpartd"
boot_daemon "$workdir/igpartd.log" -data "$workdir/data"
say "daemon up at $addr"

fetch GET /healthz
[ "$status" = 200 ] || die "/healthz -> $status ($resp)"

say "submitting job"
fetch POST /v1/jobs '{"path": "bm1.hgr"}'
[ "$status" = 202 ] || die "submit -> $status ($resp)"
job_id=$(job_field id)
[ -n "$job_id" ] || die "no job id in $resp"

say "polling $job_id"
poll_job "$job_id"
[ "$state" = done ] || die "job ended '$state': $resp"
# The daemon held the first GET until the solve finished.
[ "$polls" = 1 ] || die "job took $polls long polls, want 1"

ratio=$(printf '%s' "$resp" | sed -n 's/.*"ratio_cut":\([0-9.e+-]*\).*/\1/p')
[ -n "$ratio" ] || die "no ratio_cut in result: $resp"
case "$ratio" in
    0|0.0|-*) die "implausible ratio cut $ratio" ;;
esac
say "job done, ratio cut $ratio"
fetch GET "/v1/jobs/$job_id?wait=abc"
[ "$status" = 400 ] || die "GET with a malformed wait -> $status, want 400 ($resp)"

fetch GET /metrics
printf '%s' "$resp" | grep -q '"service.jobs_completed":1' || \
    die "metrics missing completed job: $resp"

say "sending SIGTERM"
stop_daemon "$daemon_pid" "$workdir/igpartd.log"

# Phase 2: chaos. Reboot with one worker panic armed; the first job must
# fail with a recovered panic while the daemon stays up and completes
# the next, clean job.
say "restarting igpartd with worker.panic injection"
boot_daemon "$workdir/igpartd-chaos.log" -data "$workdir/data" \
    -inject 'worker.panic:limit=1'
say "chaos daemon up at $addr"

fetch POST /v1/jobs '{"path": "bm1.hgr"}'
[ "$status" = 202 ] || die "chaos submit -> $status ($resp)"
job_id=$(job_field id)
poll_job "$job_id"
[ "$state" = failed ] || die "injected-panic job ended '$state', want failed: $resp"
printf '%s' "$resp" | grep -q 'panic' || \
    die "failed job carries no panic error: $resp"
say "injected panic recovered as a failed job"

# The daemon survived the panic: liveness still answers and a clean job
# (injection budget spent) completes.
fetch GET /healthz
[ "$status" = 200 ] || die "/healthz after panic -> $status"

fetch POST /v1/jobs '{"path": "bm1.hgr", "seed": 7}'
[ "$status" = 202 ] || die "post-panic submit -> $status ($resp)"
job_id=$(job_field id)
poll_job "$job_id"
[ "$state" = done ] || die "post-panic job ended '$state': $resp"

fetch GET /metrics
printf '%s' "$resp" | grep -q '"service.panics_recovered":1' || \
    die "metrics missing recovered panic: $resp"
printf '%s' "$resp" | grep -q '"fault.fired.worker.panic":1' || \
    die "metrics missing fault fire count: $resp"

say "draining chaos daemon"
stop_daemon "$daemon_pid" "$workdir/igpartd-chaos.log"
say "PASS"
