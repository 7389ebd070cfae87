# Shared helpers for the igpartd smoke scripts. POSIX sh; requires
# curl, grep, sed and a date that knows +%s. Callers must set:
#
#   $workdir  scratch directory (fetch writes response bodies there)
#   $IGPARTD  path to the built igpartd binary (for boot_daemon)
#   $TAG      log prefix, e.g. "smoke" or "cluster-smoke"
#
# and should `trap cleanup_daemons EXIT` (plus their own scratch
# cleanup). Every boot_daemon appends its PID to $daemon_pids.

TAG=${TAG:-smoke}
daemon_pids=""

say() { echo "$TAG: $*"; }
die() { echo "$TAG: $*" >&2; exit 1; }

# cleanup_daemons: SIGKILL every daemon still running. For EXIT traps —
# the happy path stops daemons with stop_daemon first.
cleanup_daemons() {
    for pid in $daemon_pids; do
        if kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
        fi
    done
}

# boot_daemon LOGFILE [FLAGS...]: start $IGPARTD on a random port, wait
# for the "listening on HOST:PORT" log line, and set $daemon_pid and
# $addr. The PID is also appended to $daemon_pids for cleanup.
boot_daemon() {
    logfile=$1
    shift
    "$IGPARTD" -addr 127.0.0.1:0 "$@" >"$logfile" 2>&1 &
    daemon_pid=$!
    daemon_pids="$daemon_pids $daemon_pid"
    addr=""
    i=0
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's/.*igpartd: listening on \([0-9.:]*\)$/\1/p' "$logfile" | head -1)
        [ -n "$addr" ] && break
        if ! kill -0 "$daemon_pid" 2>/dev/null; then
            echo "$TAG: daemon died during startup" >&2
            cat "$logfile" >&2
            exit 1
        fi
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$addr" ]; then
        echo "$TAG: daemon never logged its address" >&2
        cat "$logfile" >&2
        exit 1
    fi
}

# fetch METHOD PATH [BODY]: request against the daemon at $addr;
# response body lands in $resp, HTTP status in $status. Runs in the
# current shell (no command substitution) so both variables survive
# the call.
fetch() {
    method=$1 path=$2 body=${3:-}
    if [ -n "$body" ]; then
        status=$(curl -sS -o "$workdir/resp" -w '%{http_code}' -X "$method" \
            -H 'Content-Type: application/json' -d "$body" "http://$addr$path")
    else
        status=$(curl -sS -o "$workdir/resp" -w '%{http_code}' -X "$method" "http://$addr$path")
    fi
    resp=$(cat "$workdir/resp")
}

# wait_ready: poll /readyz at $addr until it answers 200 (10s budget).
wait_ready() {
    i=0
    while [ $i -lt 100 ]; do
        status=$(curl -sS -o /dev/null -w '%{http_code}' "http://$addr/readyz" 2>/dev/null) || status=000
        [ "$status" = 200 ] && return 0
        sleep 0.1
        i=$((i + 1))
    done
    die "daemon at $addr never became ready"
}

# poll_job JOB_ID: long-poll until terminal, 60s in all. Each GET asks
# the daemon to hold its answer up to 5s until the job finishes
# (?wait=5s). Leaves the state in $state, the last response in $resp
# and the number of GETs in $polls.
poll_job() {
    job=$1
    state=""
    polls=0
    deadline=$(($(date +%s) + 60))
    while [ "$(date +%s)" -lt "$deadline" ]; do
        fetch GET "/v1/jobs/$job?wait=5s"
        polls=$((polls + 1))
        [ "$status" = 200 ] || die "poll -> $status ($resp)"
        state=$(printf '%s' "$resp" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
        case "$state" in
            done|failed|cancelled) return 0 ;;
        esac
    done
    die "job $job stuck in state '$state'"
}

# job_field FIELD: extract a string field from the last $resp.
job_field() {
    printf '%s' "$resp" | sed -n 's/.*"'"$1"'":"\([^"]*\)".*/\1/p'
}

# stop_daemon PID LOGFILE: SIGTERM and require a clean, prompt exit
# with "shutdown complete" in the log.
stop_daemon() {
    pid=$1 logfile=$2
    kill -TERM "$pid"
    i=0
    while kill -0 "$pid" 2>/dev/null; do
        if [ $i -ge 100 ]; then
            echo "$TAG: daemon $pid did not exit within 10s of SIGTERM" >&2
            cat "$logfile" >&2
            exit 1
        fi
        sleep 0.1
        i=$((i + 1))
    done
    wait "$pid" 2>/dev/null || true
    grep -q 'shutdown complete' "$logfile" || {
        echo "$TAG: no clean shutdown in $logfile" >&2
        cat "$logfile" >&2
        exit 1
    }
}
