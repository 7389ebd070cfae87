#!/bin/sh
# End-to-end smoke test of igpartd cluster mode, suitable for CI:
#
#   1. build igpartd and netgen; generate a benchmark netlist;
#   2. boot two single-worker backends and a coordinator over them
#      (consistent-hash routing, fsync'd job journal);
#   3. submit a probe job to learn which backend owns the netlist's
#      routing key (all jobs on one netlist route to its ring owner);
#      one long poll (?wait=) on the coordinator covers the whole job;
#   4. stream a POST /v1/batches of 8 jobs (same netlist, distinct
#      seeds) and SIGKILL the owner backend as soon as the batch is
#      accepted — mid-batch, before the serialized solves can finish;
#   5. assert every job in the stream completes "done" on the survivor,
#      the batch summary counts 8 done / 0 failed, and the aggregated
#      /metrics shows cluster.failover.resubmits > 0;
#   6. SIGTERM the coordinator and the survivor and require clean,
#      prompt exits.
#
# With the `ha` argument two control-plane chaos phases run after the
# data-plane one above:
#
#   HA 1 (coordinator kill): a leader and a warm standby share a journal
#     (-standby, -lease-ttl 1s). A streamed batch is accepted, the
#     leader is SIGKILLed mid-batch, and the standby must take over
#     within the lease window, resubmit the journaled unfinished jobs
#     under their original cjob IDs, and finish them all — with
#     ratio-cut parity against direct backend solves and zero duplicate
#     completion records in the journal. Before the takeover a job GET
#     with ?wait= gets the standby's 503; after it, the promoted
#     standby long-polls like any coordinator.
#
#   HA 2 (live membership): a coordinator running from -backends-file
#     gets a backend added and the batch owner removed mid-batch (file
#     edit + SIGHUP). All jobs must still complete, and
#     cluster.ring.moved_keys must show consistent-hash-sized churn —
#     a third-ish of the sampled keys, never a full rehash.
#
# Requires only the Go toolchain and POSIX sh + curl + grep + sed.
set -eu
phase=${1:-}

TAG=cluster-smoke
workdir=$(mktemp -d)
. "$(dirname "$0")/lib.sh"
curl_pid=""
cleanup() {
    [ -n "$curl_pid" ] && kill "$curl_pid" 2>/dev/null || true
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

say "starting backends"
boot_daemon "$workdir/n1.log" -workers 1
n1_pid=$daemon_pid n1_addr=$addr
boot_daemon "$workdir/n2.log" -workers 1
n2_pid=$daemon_pid n2_addr=$addr
say "backends up at n1=$n1_addr n2=$n2_addr"

say "starting coordinator"
boot_daemon "$workdir/coord.log" -coordinator \
    -backends "n1=http://$n1_addr,n2=http://$n2_addr" \
    -journal "$workdir/journal.jsonl" \
    -data "$workdir/data" \
    -write-timeout 0 -probe-interval 100ms
coord_pid=$daemon_pid coord_addr=$addr
say "coordinator up at $coord_addr"
wait_ready

# Learn the ring owner of the netlist: routing hashes the netlist's
# content address, so the probe job and the whole batch land on the
# same backend.
say "probing for the netlist's ring owner"
fetch POST /v1/jobs '{"path": "bm1.hgr"}'
[ "$status" = 202 ] || die "probe submit -> $status ($resp)"
probe_id=$(job_field id)
poll_job "$probe_id"
[ "$state" = done ] || die "probe job ended '$state': $resp"
# The coordinator held the GET until the job finished, and its relay
# long-polled the backend the same way.
[ "$polls" = 1 ] || die "probe job took $polls long polls, want 1"
owner=$(job_field backend)
case "$owner" in
    n1) owner_pid=$n1_pid; survivor=n2; survivor_pid=$n2_pid; survivor_log=$workdir/n2.log ;;
    n2) owner_pid=$n2_pid; survivor=n1; survivor_pid=$n1_pid; survivor_log=$workdir/n1.log ;;
    *) die "probe job reports no backend: $resp" ;;
esac
say "owner is $owner, survivor is $survivor"

# Batch of 8 jobs on the owner's netlist, distinct seeds so each is a
# distinct solve (and a distinct backend cache entry).
jobs=""
for seed in 1 2 3 4 5 6 7 8; do
    jobs="$jobs{\"path\": \"bm1.hgr\", \"seed\": $seed},"
done
printf '{"jobs": [%s]}' "${jobs%,}" >"$workdir/batch.json"

say "streaming the batch"
curl -sS -N -X POST -H 'Content-Type: application/json' \
    -d @"$workdir/batch.json" -o "$workdir/stream.ndjson" \
    "http://$coord_addr/v1/batches" &
curl_pid=$!

# SIGKILL the owner the moment the batch is accepted: with one worker
# the 8 solves serialize, so the kill necessarily lands mid-batch.
i=0
while ! grep -q '"event":"accepted"' "$workdir/stream.ndjson" 2>/dev/null; do
    if [ $i -ge 100 ]; then
        kill "$curl_pid" 2>/dev/null || true
        die "batch never accepted: $(cat "$workdir/stream.ndjson" 2>/dev/null)"
    fi
    if ! kill -0 "$curl_pid" 2>/dev/null; then
        die "batch stream ended prematurely: $(cat "$workdir/stream.ndjson" 2>/dev/null)"
    fi
    sleep 0.05
    i=$((i + 1))
done
say "batch accepted; SIGKILLing owner $owner (pid $owner_pid)"
kill -9 "$owner_pid"

say "waiting for the batch stream to finish"
i=0
while ! grep -q '"event":"batch"' "$workdir/stream.ndjson" 2>/dev/null; do
    if [ $i -ge 1200 ]; then
        kill "$curl_pid" 2>/dev/null || true
        die "batch never finished: $(cat "$workdir/stream.ndjson")"
    fi
    sleep 0.1
    i=$((i + 1))
done
wait "$curl_pid" || die "batch stream curl failed"
curl_pid=""

# Every accepted job completed despite the node death.
n_jobs=$(grep -c '"event":"job"' "$workdir/stream.ndjson")
[ "$n_jobs" = 8 ] || die "stream carries $n_jobs job events, want 8: $(cat "$workdir/stream.ndjson")"
if grep '"event":"job"' "$workdir/stream.ndjson" | grep -qv '"state":"done"'; then
    die "a batch job did not complete: $(cat "$workdir/stream.ndjson")"
fi
summary=$(grep '"event":"batch"' "$workdir/stream.ndjson")
printf '%s' "$summary" | grep -q '"done":8' || die "summary not 8 done: $summary"
printf '%s' "$summary" | grep -q '"failed"' && die "summary reports failures: $summary"
say "all 8 jobs completed after the owner died"

# The failover is visible in the aggregated metrics, and the fleet
# reports itself degraded but serving.
addr=$coord_addr
fetch GET /metrics
printf '%s' "$resp" | grep -q '"cluster.failover.resubmits":[1-9]' || \
    die "metrics show no failover resubmits: $resp"
fetch GET /readyz
[ "$status" = 200 ] || die "degraded fleet /readyz -> $status ($resp)"
printf '%s' "$resp" | grep -q '"status":"degraded"' || \
    die "readyz not degraded with one backend dead: $resp"
say "failover visible in metrics; fleet degraded but ready"

say "draining coordinator and survivor"
stop_daemon "$coord_pid" "$workdir/coord.log"
stop_daemon "$survivor_pid" "$survivor_log"

if [ "$phase" != ha ]; then
    say "PASS"
    exit 0
fi

# ---------------------------------------------------------------------
# HA phase 1: kill the coordinator, the standby takes over.
# ---------------------------------------------------------------------
say "=== HA phase 1: coordinator kill + standby takeover ==="

say "starting fresh backends"
boot_daemon "$workdir/m1.log" -workers 1 -data "$workdir/data"
m1_pid=$daemon_pid m1_addr=$addr
boot_daemon "$workdir/m2.log" -workers 1 -data "$workdir/data"
m2_pid=$daemon_pid m2_addr=$addr

ha_journal=$workdir/ha-journal.jsonl
say "starting leader and warm standby on a shared journal"
boot_daemon "$workdir/leader.log" -coordinator \
    -backends "m1=http://$m1_addr,m2=http://$m2_addr" \
    -journal "$ha_journal" -lease-ttl 1s \
    -data "$workdir/data" \
    -write-timeout 0 -probe-interval 100ms
leader_pid=$daemon_pid leader_addr=$addr
boot_daemon "$workdir/standby.log" -coordinator -standby \
    -backends "m1=http://$m1_addr,m2=http://$m2_addr" \
    -journal "$ha_journal" -lease-ttl 1s \
    -data "$workdir/data" \
    -write-timeout 0 -probe-interval 100ms
standby_pid=$daemon_pid standby_addr=$addr
addr=$leader_addr
wait_ready
say "leader at $leader_addr, standby at $standby_addr"

# The standby is honest about its role: alive, not ready, role standby.
addr=$standby_addr
fetch GET /readyz
[ "$status" = 503 ] || die "standby /readyz -> $status, want 503 ($resp)"
printf '%s' "$resp" | grep -q '"role":"standby"' || die "standby readyz hides its role: $resp"
fetch GET /healthz
[ "$status" = 200 ] || die "standby /healthz -> $status ($resp)"
fetch GET "/v1/jobs/cjob-1?wait=5s"
[ "$status" = 503 ] || die "standby job GET with a wait -> $status, want 503 ($resp)"

jobs=""
for seed in 1 2 3 4 5 6 7 8; do
    jobs="$jobs{\"path\": \"bm1.hgr\", \"seed\": $seed},"
done
printf '{"jobs": [%s]}' "${jobs%,}" >"$workdir/ha-batch.json"

say "streaming the batch to the leader"
curl -sS -N -X POST -H 'Content-Type: application/json' \
    -d @"$workdir/ha-batch.json" -o "$workdir/ha-stream.ndjson" \
    "http://$leader_addr/v1/batches" &
curl_pid=$!

i=0
while ! grep -q '"event":"accepted"' "$workdir/ha-stream.ndjson" 2>/dev/null; do
    if [ $i -ge 100 ]; then
        kill "$curl_pid" 2>/dev/null || true
        die "HA batch never accepted: $(cat "$workdir/ha-stream.ndjson" 2>/dev/null)"
    fi
    if ! kill -0 "$curl_pid" 2>/dev/null; then
        die "HA batch stream ended prematurely: $(cat "$workdir/ha-stream.ndjson" 2>/dev/null)"
    fi
    sleep 0.05
    i=$((i + 1))
done
say "batch accepted and journaled; SIGKILLing the leader (pid $leader_pid)"
kill -9 "$leader_pid"
wait "$curl_pid" 2>/dev/null || true # the stream died with the leader
curl_pid=""

say "waiting for the standby to take over"
addr=$standby_addr
i=0
while :; do
    status=$(curl -sS -o /dev/null -w '%{http_code}' "http://$standby_addr/readyz" 2>/dev/null) || status=000
    [ "$status" = 200 ] && break
    if [ $i -ge 150 ]; then
        die "standby never became leader: $(cat "$workdir/standby.log")"
    fi
    sleep 0.1
    i=$((i + 1))
done
grep -q 'standby takeover: lease term 2' "$workdir/standby.log" || \
    die "no fenced takeover (term 2) in standby log: $(cat "$workdir/standby.log")"
grep -q 'journal replay resubmitted' "$workdir/standby.log" || \
    die "takeover replayed nothing; the kill missed the mid-batch window: $(cat "$workdir/standby.log")"
say "standby leads at term 2 and replayed the unfinished jobs"
fetch GET "/v1/jobs/cjob-1?wait=-1s"
[ "$status" = 400 ] || die "promoted standby: GET with a negative wait -> $status, want 400 ($resp)"

# Every batch job finishes under its original ID. A job the leader
# completed before dying is compacted out of the takeover journal (its
# accept/done pair is dropped), so a 404 here means completed-pre-kill,
# not lost: a lost job would be an accept without a done, which is
# exactly what the replay set resurfaces.
say "polling the original cjob IDs on the new leader"
replayed=0
for n in 1 2 3 4 5 6 7 8; do
    fetch GET "/v1/jobs/cjob-$n"
    if [ "$status" = 404 ]; then
        eval "rc_$n="
        continue
    fi
    [ "$status" = 200 ] || die "GET cjob-$n -> $status ($resp)"
    poll_job "cjob-$n"
    [ "$state" = done ] || die "replayed cjob-$n ended '$state': $resp"
    eval "rc_$n=\$(printf '%s' \"\$resp\" | sed -n 's/.*\"ratio_cut\":\\([0-9.eE+-]*\\).*/\\1/p')"
    replayed=$((replayed + 1))
done
[ "$replayed" -ge 1 ] || die "no job was replayed; nothing was tested"
say "$replayed/8 jobs completed on the new leader (the rest pre-kill)"

# Ratio-cut parity: the same netlist+seed solved directly on a backend
# must give the identical ratio cut — takeover must not change results.
say "checking ratio-cut parity against direct backend solves"
for n in 1 2 3 4 5 6 7 8; do
    eval "rc=\$rc_$n"
    [ -n "$rc" ] || continue
    addr=$m1_addr
    fetch POST /v1/jobs "{\"path\": \"bm1.hgr\", \"seed\": $n}"
    [ "$status" = 202 ] || die "direct solve submit -> $status ($resp)"
    direct_id=$(job_field id)
    poll_job "$direct_id"
    [ "$state" = done ] || die "direct solve ended '$state': $resp"
    direct_rc=$(printf '%s' "$resp" | sed -n 's/.*"ratio_cut":\([0-9.eE+-]*\).*/\1/p')
    [ "$rc" = "$direct_rc" ] || die "seed $n ratio-cut mismatch: takeover $rc vs direct $direct_rc"
done
say "ratio cuts identical across the takeover"

# Zero duplicate completions: at most one done record per job may ever
# be journaled, or the job ran under two identities across the crash.
for n in 1 2 3 4 5 6 7 8; do
    dups=$(grep -c "\"t\":\"done\",\"job\":\"cjob-$n\"" "$ha_journal" || true)
    [ "$dups" -le 1 ] || die "cjob-$n has $dups completion records in the journal"
done
say "no duplicate completion records"

say "draining the new leader"
stop_daemon "$standby_pid" "$workdir/standby.log"

# ---------------------------------------------------------------------
# HA phase 2: live membership — add and remove backends mid-batch.
# ---------------------------------------------------------------------
say "=== HA phase 2: backends-file hot swap mid-batch ==="

boot_daemon "$workdir/m3.log" -workers 1
m3_pid=$daemon_pid m3_addr=$addr

backends_file=$workdir/backends.txt
printf 'm1=http://%s\nm2=http://%s\n' "$m1_addr" "$m2_addr" >"$backends_file"
boot_daemon "$workdir/coord2.log" -coordinator \
    -backends-file "$backends_file" \
    -membership-poll 100ms -min-dwell=-1s \
    -data "$workdir/data" \
    -write-timeout 0 -probe-interval 100ms
coord2_pid=$daemon_pid coord2_addr=$addr
addr=$coord2_addr
wait_ready

# Learn which backend owns the netlist so the removal below is the
# interesting one: the node whose in-flight jobs must drain.
fetch POST /v1/jobs '{"path": "bm1.hgr", "seed": 99}'
[ "$status" = 202 ] || die "owner probe submit -> $status ($resp)"
poll_job "$(job_field id)"
[ "$state" = done ] || die "owner probe ended '$state': $resp"
ha_owner=$(job_field backend)
case "$ha_owner" in
    m1) keep="m2=http://$m2_addr" ;;
    m2) keep="m1=http://$m1_addr" ;;
    *) die "owner probe reports no backend: $resp" ;;
esac
say "batch owner will be $ha_owner"

# Fresh seeds (11..18): phase 1 warmed backend caches for 1..8, and a
# cache-hit batch would finish before the membership swap lands.
jobs=""
for seed in 11 12 13 14 15 16 17 18; do
    jobs="$jobs{\"path\": \"bm1.hgr\", \"seed\": $seed},"
done
printf '{"jobs": [%s]}' "${jobs%,}" >"$workdir/memb-batch.json"

say "streaming the batch"
curl -sS -N -X POST -H 'Content-Type: application/json' \
    -d @"$workdir/memb-batch.json" -o "$workdir/memb-stream.ndjson" \
    "http://$coord2_addr/v1/batches" &
curl_pid=$!
i=0
while ! grep -q '"event":"accepted"' "$workdir/memb-stream.ndjson" 2>/dev/null; do
    if [ $i -ge 100 ]; then
        kill "$curl_pid" 2>/dev/null || true
        die "membership batch never accepted"
    fi
    sleep 0.05
    i=$((i + 1))
done

say "adding m3 to the fleet mid-batch (file edit + SIGHUP)"
printf 'm1=http://%s\nm2=http://%s\nm3=http://%s\n' "$m1_addr" "$m2_addr" "$m3_addr" >"$backends_file"
kill -HUP "$coord2_pid"
i=0
while ! grep -q 'membership reload: added \[m3\]' "$workdir/coord2.log"; do
    if [ $i -ge 100 ]; then
        die "m3 never joined: $(cat "$workdir/coord2.log")"
    fi
    sleep 0.1
    i=$((i + 1))
done

# Minimal ring churn: one joiner in a fleet of three owns about a third
# of the key space. More than half the sampled keys moving means the
# ring rehashed wholesale.
fetch GET /metrics
moved=$(printf '%s' "$resp" | sed -n 's/.*"cluster.ring.moved_keys":\([0-9]*\).*/\1/p')
[ -n "$moved" ] || die "cluster.ring.moved_keys missing from /metrics: $resp"
[ "$moved" -gt 0 ] || die "adding m3 moved no keys"
[ "$moved" -le 2048 ] || die "adding m3 moved $moved/4096 sampled keys — not consistent hashing"
say "m3 joined moving $moved/4096 sampled keys"

say "removing the batch owner $ha_owner mid-batch"
printf '%s\nm3=http://%s\n' "$keep" "$m3_addr" >"$backends_file"
kill -HUP "$coord2_pid"
i=0
while ! grep -q "membership reload:.*removed \[$ha_owner\]" "$workdir/coord2.log"; do
    if [ $i -ge 100 ]; then
        die "$ha_owner never left: $(cat "$workdir/coord2.log")"
    fi
    sleep 0.1
    i=$((i + 1))
done

say "waiting for the batch to finish across the membership churn"
i=0
while ! grep -q '"event":"batch"' "$workdir/memb-stream.ndjson" 2>/dev/null; do
    if [ $i -ge 1200 ]; then
        kill "$curl_pid" 2>/dev/null || true
        die "membership batch never finished: $(cat "$workdir/memb-stream.ndjson")"
    fi
    sleep 0.1
    i=$((i + 1))
done
wait "$curl_pid" || die "membership batch curl failed"
curl_pid=""

n_jobs=$(grep -c '"event":"job"' "$workdir/memb-stream.ndjson")
[ "$n_jobs" = 8 ] || die "stream carries $n_jobs job events, want 8: $(cat "$workdir/memb-stream.ndjson")"
if grep '"event":"job"' "$workdir/memb-stream.ndjson" | grep -qv '"state":"done"'; then
    die "a job was lost to the membership swap: $(cat "$workdir/memb-stream.ndjson")"
fi
summary=$(grep '"event":"batch"' "$workdir/memb-stream.ndjson")
printf '%s' "$summary" | grep -q '"done":8' || die "summary not 8 done: $summary"
say "all 8 jobs survived the add and the owner's removal"

say "draining everything"
stop_daemon "$coord2_pid" "$workdir/coord2.log"
stop_daemon "$m1_pid" "$workdir/m1.log"
stop_daemon "$m2_pid" "$workdir/m2.log"
stop_daemon "$m3_pid" "$workdir/m3.log"
say "PASS"
