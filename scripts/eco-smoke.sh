#!/bin/sh
# End-to-end smoke test of incremental ECO re-partitioning, suitable
# for CI:
#
#   1. build igpartd and netgen;
#   2. generate a mid-size netlist and boot the daemon;
#   3. submit it and solve cold (this is the timing baseline — the
#      delta'd netlist differs by 5 nets out of 4000, so the base
#      solve is a fair stand-in for a cold re-solve);
#   4. PATCH a 5-net delta against the done base job, poll the warm
#      job, and assert it warm-started (warm:true, touched_nets:5),
#      landed a sane bipartition, and beat the cold solve time;
#   5. re-PATCH the identical delta and require a cache hit;
#   6. PATCH garbage and out-of-range deltas and require 400, a delta
#      against an unknown job and require 404;
#   7. require the netlist store's metrics in /metrics, its byte gauge
#      within the store's budget;
#   8. SIGTERM the daemon and require a clean exit.
#
# Requires only the Go toolchain and POSIX sh + curl + grep + sed.
set -eu

TAG=eco-smoke
workdir=$(mktemp -d)
. "$(dirname "$0")/lib.sh"
cleanup() {
    cleanup_daemons
    rm -rf "$workdir"
}
trap cleanup EXIT

# stage_ns: root stage duration of the last $resp's result, in ns.
stage_ns() {
    printf '%s' "$resp" | sed -n 's/.*"duration_ns":\([0-9]*\).*/\1/p' | head -1
}

say "building binaries"
go build -o "$workdir/igpartd" igpart/cmd/igpartd
go build -o "$workdir/netgen" igpart/cmd/netgen
IGPARTD=$workdir/igpartd

mkdir "$workdir/data"
"$workdir/netgen" -modules 3000 -nets 4000 -seed 11 -out "$workdir/data/eco.hgr"

say "starting igpartd"
boot_daemon "$workdir/igpartd.log" -data "$workdir/data"
say "daemon up at $addr"
wait_ready

say "submitting base job (cold solve)"
fetch POST /v1/jobs '{"path": "eco.hgr"}'
[ "$status" = 202 ] || die "submit -> $status ($resp)"
base_id=$(job_field id)
[ -n "$base_id" ] || die "no job id in $resp"
poll_job "$base_id"
[ "$state" = done ] || die "base job ended '$state': $resp"
cold_ns=$(stage_ns)
[ -n "$cold_ns" ] || die "base result carries no stage timing: $resp"
say "base solved cold in ${cold_ns}ns"

say "patching a 5-net delta"
delta='{"delta": {"remove_nets": [0, 1, 2, 3, 4]}}'
fetch PATCH "/v1/jobs/$base_id" "$delta"
[ "$status" = 202 ] || die "patch -> $status ($resp)"
warm_id=$(job_field id)
[ -n "$warm_id" ] && [ "$warm_id" != "$base_id" ] || die "no fresh job id in $resp"
poll_job "$warm_id"
[ "$state" = done ] || die "delta job ended '$state': $resp"
printf '%s' "$resp" | grep -q '"warm":true' || die "delta job did not warm-start: $resp"
printf '%s' "$resp" | grep -q '"touched_nets":5' || die "wrong touched_nets: $resp"
for side in size_u size_w; do
    n=$(printf '%s' "$resp" | sed -n 's/.*"'"$side"'":\([0-9]*\).*/\1/p')
    [ -n "$n" ] && [ "$n" -gt 0 ] || die "degenerate bipartition ($side=$n): $resp"
done
warm_ns=$(stage_ns)
[ -n "$warm_ns" ] || die "delta result carries no stage timing: $resp"
say "warm re-partition in ${warm_ns}ns"
[ "$warm_ns" -lt "$cold_ns" ] || \
    die "warm re-partition (${warm_ns}ns) not faster than cold solve (${cold_ns}ns)"

say "re-patching the identical delta (cache hit expected)"
fetch PATCH "/v1/jobs/$base_id" "$delta"
[ "$status" = 202 ] || die "re-patch -> $status ($resp)"
cached_id=$(job_field id)
poll_job "$cached_id"
[ "$state" = done ] || die "cached delta job ended '$state': $resp"
printf '%s' "$resp" | grep -q '"cached":true' || die "identical re-patch missed the cache: $resp"

say "checking rejections"
fetch PATCH "/v1/jobs/$base_id" '{"delta": {"remove_nets": [999999]}}'
[ "$status" = 400 ] || die "out-of-range delta -> $status, want 400 ($resp)"
fetch PATCH "/v1/jobs/$base_id" '{not json'
[ "$status" = 400 ] || die "malformed body -> $status, want 400 ($resp)"
fetch PATCH /v1/jobs/job-nope "$delta"
[ "$status" = 404 ] || die "unknown base -> $status, want 404 ($resp)"

fetch GET /metrics
printf '%s' "$resp" | grep -q '"portfolio.warm_start":' || \
    die "metrics missing warm-start counter: $resp"
printf '%s' "$resp" | grep -q '"service.netlist_evictions":' || \
    die "metrics missing the netlist store's eviction counter: $resp"
# The base and the warm job's netlist are kept, within the store's
# 32 MiB budget (netlistBudget in internal/service/store.go).
kept=$(printf '%s' "$resp" | sed -n 's/.*"service\.netlist_bytes":\([0-9]*\)[,}].*/\1/p')
[ -n "$kept" ] || die "metrics missing the netlist store's byte gauge: $resp"
[ "$kept" -gt 0 ] && [ "$kept" -le 33554432 ] || \
    die "netlist store keeps $kept bytes, want 1..33554432"
say "netlist store keeps $kept bytes"

say "sending SIGTERM"
stop_daemon "$daemon_pid" "$workdir/igpartd.log"
say "PASS"
