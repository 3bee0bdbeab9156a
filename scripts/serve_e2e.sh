#!/usr/bin/env bash
# End-to-end exercise of the pufferd job service, as CI runs it:
#
#   1. build pufferd + pufferctl
#   2. boot the daemon on an ephemeral port with a fresh spool; probe
#      /healthz, /readyz, and /metrics
#   3. submit a quick job with -trace via pufferctl, stream it to
#      completion, and assert the merged Chrome trace carries client and
#      daemon spans under one trace ID; submit a routed job and assert it
#      reports the HOF/VOF/routed WL puffer prints for the same run
#   4. submit a slow job, SIGTERM the daemon mid-run; /readyz must flip
#      503 (draining) while /healthz stays 200
#   5. assert the job parked at a checkpoint, restart the daemon
#   6. assert the parked job was re-admitted, resumed, and finished
#   7. submit an ECO session job, wait for it to open, apply a delta,
#      and check its SSE stream
#   8. SIGTERM the daemon, restart, and apply a second delta — the session
#      must rehydrate from its spooled snapshot and continue the chain;
#      cancel closes it
#
# The script is self-contained: everything lives under a temp dir that is
# removed on exit, and any failure (or a daemon that dies early) fails it.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
spool="$work/spool"
daemon_pid=""

cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

log() { echo "--- $*"; }

log "build pufferd + pufferctl + puffer"
go build -o "$work/pufferd" ./cmd/pufferd
go build -o "$work/pufferctl" ./cmd/pufferctl
go build -o "$work/puffer" ./cmd/puffer

start_daemon() {
    rm -f "$work/addr"
    "$work/pufferd" -addr 127.0.0.1:0 -addr-file "$work/addr" \
        -spool "$spool" -workers 1 -queue 8 -drain-grace 300ms \
        >"$work/pufferd.log" 2>&1 &
    daemon_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$work/addr" ] && break
        kill -0 "$daemon_pid" 2>/dev/null || { cat "$work/pufferd.log"; echo "daemon died during boot"; exit 1; }
        sleep 0.1
    done
    [ -s "$work/addr" ] || { echo "daemon never wrote its address"; exit 1; }
    export PUFFERD_ADDR="http://$(cat "$work/addr")"
    log "daemon up at $PUFFERD_ADDR (pid $daemon_pid)"
}

ctl() { "$work/pufferctl" "$@"; }

start_daemon

log "probe liveness and readiness on a fresh daemon"
curl -sf "$PUFFERD_ADDR/healthz" >/dev/null || { echo "/healthz not 200 on a healthy daemon"; exit 1; }
curl -sf "$PUFFERD_ADDR/readyz" >/dev/null || { echo "/readyz not 200 on a healthy daemon"; exit 1; }

log "submit a quick job with -trace and stream it to completion"
ctl submit -profile MEDIA_SUBSYS -scale 3000 -seed 5 -watch -trace "$work/trace.json" | tee "$work/watch.log"
grep -q "state: done" "$work/watch.log" || { echo "stream never reached done"; exit 1; }
grep -q "stage dp done" "$work/watch.log" || { echo "stream missing stage progress"; exit 1; }

log "merged trace: client and daemon spans under one trace ID"
[ -s "$work/trace.json" ] || { echo "submit -trace wrote no trace"; exit 1; }
ids="$(grep -o '"trace_id":"[0-9a-f]*"' "$work/trace.json" | sort -u | wc -l)"
[ "$ids" = "1" ] || { echo "merged trace has $ids distinct trace IDs, want 1"; exit 1; }
for span in client.submit serve.job serve.queue_wait run place.gp; do
    grep -q "\"$span\"" "$work/trace.json" || { echo "merged trace missing span $span"; exit 1; }
done
grep -q '"pufferctl"' "$work/trace.json" && grep -q '"pufferd"' "$work/trace.json" \
    || { echo "merged trace missing a process lane"; exit 1; }

log "/metrics exposes the service latency histograms"
curl -sf "$PUFFERD_ADDR/metrics" >"$work/metrics.txt"
grep -q 'serve_job_wall_seconds_bucket{le="+Inf"}' "$work/metrics.txt" \
    || { echo "/metrics missing job wall histogram"; exit 1; }
grep -q '# TYPE serve_queue_wait_seconds histogram' "$work/metrics.txt" \
    || { echo "/metrics missing queue wait histogram type"; exit 1; }

quick_id="$(awk '/^job /{print $2; exit}' "$work/watch.log")"
log "quick job $quick_id: fetch result + artifact"
ctl result "$quick_id" | tee "$work/result.json"
grep -q '"hpwl"' "$work/result.json" || { echo "result carries no HPWL"; exit 1; }
ctl artifact -o "$work/report.json" "$quick_id" report.json
[ -s "$work/report.json" ] || { echo "empty report artifact"; exit 1; }

log "routed job: judged by the router puffer evaluates with"
routed_id="$(ctl submit -profile OR1200 -scale 800 -seed 7 -iters 200 -route | awk '{print $2}')"
ctl wait -timeout 120s "$routed_id"
ctl result "$routed_id" >"$work/routed.json"
# The job's numbers, printed as puffer prints its routed: line (an
# omitted field is 0).
got="$(tr -d ' \n' <"$work/routed.json" | awk '{
    n = split("hof vof routed_wl", k, " ")
    for (i = 1; i <= n; i++) {
        v[k[i]] = 0
        if (match($0, "\"" k[i] "\":[-0-9.eE+]+")) v[k[i]] = substr($0, RSTART + length(k[i]) + 3, RLENGTH - length(k[i]) - 3)
    }
    printf "routed: HOF=%.2f%% VOF=%.2f%% WL=%.0f\n", v["hof"], v["vof"], v["routed_wl"]
}')"
want="$("$work/puffer" -design OR1200 -scale 800 -seed 7 -iters 200 | grep -o '^routed: HOF=[^ ]* VOF=[^ ]* WL=[0-9]*')"
[ -n "$want" ] || { echo "puffer printed no routed: line"; exit 1; }
[ "$got" = "$want" ] || { cat "$work/routed.json"; echo "routed job reports '$got', puffer '$want'"; exit 1; }
log "routed job $routed_id and puffer agree: $want"

log "submit a slow job and SIGTERM the daemon mid-run"
slow_id="$(ctl submit -profile MEDIA_SUBSYS -scale 200 -seed 5 | awk '{print $2}')"
for _ in $(seq 1 100); do
    ctl status "$slow_id" | grep -q '"state": "running"' && break
    sleep 0.1
done
ctl status "$slow_id" | grep -q '"state": "running"' || { echo "slow job never started"; exit 1; }
sleep 0.5 # let the placement engine get some iterations in

# Readiness is sampled with one keep-alive curl running thousands of
# sub-millisecond requests across the SIGTERM: the recorded codes must
# show ready (200) give way to draining (503 — held open for the
# daemon's -drain-grace window) before the daemon exits (000).
# /healthz, sampled the same way, must never leave 200 while the
# process lives — liveness holds through the drain.
curl -s -w '%{stderr}%{http_code}\n' "$PUFFERD_ADDR/readyz?i=[1-4000]" \
    >/dev/null 2>"$work/readyz.codes" &
readyz_poller=$!
curl -s -w '%{stderr}%{http_code}\n' "$PUFFERD_ADDR/healthz?i=[1-4000]" \
    >/dev/null 2>"$work/healthz.codes" &
healthz_poller=$!
sleep 0.1 # a few pre-signal samples prove the pollers see 200 first
kill -TERM "$daemon_pid"
wait "$daemon_pid" || true
daemon_pid=""
# Let the pollers run out their URL lists (refused connections are
# sub-millisecond once the daemon is gone); killing them could drop
# buffered code lines.
wait "$readyz_poller" "$healthz_poller" || true

log "draining: /readyz flipped 503 while /healthz stayed 200"
grep -q '^200$' "$work/readyz.codes" || { echo "/readyz poller never saw the ready daemon"; exit 1; }
grep -q '^503$' "$work/readyz.codes" || { echo "/readyz never flipped 503 during drain"; exit 1; }
grep -qv -e '^200$' -e '^000$' "$work/healthz.codes" && { echo "/healthz left 200 during drain"; exit 1; }
grep -q '^200$' "$work/healthz.codes" || { echo "/healthz poller never saw the live daemon"; exit 1; }

manifest="$spool/jobs/$slow_id/manifest.json"
grep -q '"state": "parked"' "$manifest" || { cat "$manifest"; echo "job did not park on SIGTERM"; exit 1; }
log "job $slow_id parked; restarting the daemon over the same spool"

start_daemon
grep -q 'msg="recovered interrupted jobs" count=1' "$work/pufferd.log" || { cat "$work/pufferd.log"; echo "daemon did not re-admit the parked job"; exit 1; }

log "wait for the resumed job to finish"
ctl wait -timeout 180s "$slow_id"
ctl status "$slow_id" | tee "$work/status.json"
grep -q '"state": "done"' "$work/status.json" || { echo "resumed job not done"; exit 1; }
grep -q '"attempts": 2' "$work/status.json" || { echo "resume did not count a second attempt"; exit 1; }
grep -q '"hpwl"' "$work/status.json" || { echo "resumed job has no result"; exit 1; }

log "open an ECO session"
ctl submit -kind session -profile MEDIA_SUBSYS -scale 3000 -seed 5 | tee "$work/session.log"
sess_id="$(awk '/^job /{print $2; exit}' "$work/session.log")"
ctl wait -poll 200ms -timeout 120s "$sess_id" | tee -a "$work/session.log"
grep -q "^open$" "$work/session.log" || { echo "session never opened"; exit 1; }

log "apply a first delta to session $sess_id"
cat >"$work/delta1.json" <<'EOF'
{"format":"puffer/delta/v1","weights":[{"net":0,"weight":3},{"net":1,"weight":2}]}
EOF
ctl delta "$sess_id" "$work/delta1.json" | tee "$work/delta1.log"
grep -q "delta 1 applied" "$work/delta1.log" || { echo "first delta not applied"; exit 1; }

log "check the session's SSE stream replays progress"
timeout 10 curl -sf "$PUFFERD_ADDR/api/v1/jobs/$sess_id/events" --max-time 5 >"$work/sse.log" || true
grep -q '"type":"log"' "$work/sse.log" || { cat "$work/sse.log"; echo "session SSE carries no progress"; exit 1; }

log "malformed deltas are rejected"
echo '{"movez":[]}' >"$work/bad.json"
if ctl delta "$sess_id" "$work/bad.json" >"$work/bad.log" 2>&1; then
    echo "malformed delta accepted"; exit 1
fi
grep -q "unknown field" "$work/bad.log" || { cat "$work/bad.log"; echo "unexpected rejection"; exit 1; }

log "SIGTERM the daemon with the session open"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || true
daemon_pid=""
smanifest="$spool/jobs/$sess_id/manifest.json"
grep -q '"state": "parked"' "$smanifest" || { cat "$smanifest"; echo "session did not park on SIGTERM"; exit 1; }
[ -s "$spool/jobs/$sess_id/snapshot.json" ] || { echo "session has no spooled snapshot"; exit 1; }

log "restart and apply a second delta — session must rehydrate"
start_daemon
grep -q 'msg="parked ECO sessions; next delta rehydrates" count=1' "$work/pufferd.log" || { cat "$work/pufferd.log"; echo "daemon did not report the parked session"; exit 1; }
cat >"$work/delta2.json" <<'EOF'
{"format":"puffer/delta/v1","weights":[{"net":2,"weight":4}],"padding":[{"cell":0,"pad_w":0}]}
EOF
ctl delta "$sess_id" "$work/delta2.json" | tee "$work/delta2.log"
grep -q "delta 2 applied" "$work/delta2.log" || { echo "second delta did not continue the chain"; exit 1; }
grep -q "rehydrated" "$work/delta2.log" || { echo "second delta did not rehydrate from the snapshot"; exit 1; }

log "close the session: cancel ends it, and the list shows it canceled"
ctl cancel "$sess_id" >/dev/null
ctl list | tee "$work/sessions.log"
grep -Eq "^$sess_id +session +MEDIA_SUBSYS +canceled" "$work/sessions.log" || { echo "session not closed in list"; exit 1; }

log "serve e2e OK"
