#!/usr/bin/env bash
# End-to-end exercise of the fleet tier (coordinator + workers), as CI
# runs it:
#
#   1. build pufferd, pufferctl, diag, benchjson
#   2. boot a coordinator; /readyz must answer 503 no_workers before any
#      worker joins
#   3. boot two workers that -join the coordinator; /readyz flips 200 and
#      `pufferctl fleet` shows both live
#   4. submit a Bookshelf upload job (timed, cold); submit the
#      byte-identical spec as a second tenant — it must be a cache hit
#      (timed) with the same result digest, without running again
#   5. a one-seed-off submission must miss the cache and run
#   6. run a cold 2-worker distributed exploration: every TPE trial is its
#      own place job, and each worker parses the netlist exactly once
#      (per-worker design cache shared across all trials)
#   7. benchmark the same trial budget three ways — in-process explorer,
#      cold distributed, warm distributed re-exploration (-nocache, every
#      trial answered by the result index) — and publish BENCH_explore.json
#      asserting the distributed/in-process speedup >= 1.8x
#   8. run an -early-stop exploration and assert dominated trials were
#      canceled mid-flight
#   9. SIGKILL the coordinator mid-exploration and restart it on the same
#      spool: the farm controller must resume from its explore-state
#      checkpoint and replay finished trials as cache hits, re-running
#      zero completed placements
#  10. SIGKILL the worker running a -nocache job mid-run; the coordinator
#      must fail it over to the survivor and the final HPWL must equal the
#      uninterrupted reference exactly (bit determinism across failover)
#  11. inspect the content-addressed store with diag -cas / -cas-gc
#  12. publish BENCH_cas.json: cached vs cold submit latency
#
# Self-contained: everything lives under a temp dir removed on exit.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
pids=()

cleanup() {
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

log() { echo "--- $*"; }

log "build pufferd + pufferctl + diag + benchjson"
go build -o "$work/pufferd" ./cmd/pufferd
go build -o "$work/pufferctl" ./cmd/pufferctl
go build -o "$work/puffer" ./cmd/puffer
go build -o "$work/benchjson" ./cmd/benchjson

wait_addr() { # wait_addr <file> <pid> <log>
    for _ in $(seq 1 100); do
        [ -s "$1" ] && return 0
        kill -0 "$2" 2>/dev/null || { cat "$3"; echo "process died during boot"; exit 1; }
        sleep 0.1
    done
    echo "no address written"; exit 1
}

log "boot the coordinator"
"$work/pufferd" -coordinator -addr 127.0.0.1:0 -addr-file "$work/coord.addr" \
    -spool "$work/coord" -dead-after 3s -poll 200ms -early-stop-margin 1.2 \
    >"$work/coord.log" 2>&1 &
coord_pid=$!
pids+=("$coord_pid")
wait_addr "$work/coord.addr" "$coord_pid" "$work/coord.log"
COORD="http://$(cat "$work/coord.addr")"
export PUFFERD_ADDR="$COORD"
ctl() { "$work/pufferctl" "$@"; }
log "coordinator up at $COORD"

log "/readyz without workers must be 503 no_workers"
code="$(curl -s -o "$work/readyz.json" -w '%{http_code}' "$COORD/readyz")"
[ "$code" = "503" ] || { cat "$work/readyz.json"; echo "empty fleet readyz = $code, want 503"; exit 1; }
grep -q 'no_workers' "$work/readyz.json" || { cat "$work/readyz.json"; echo "readyz missing no_workers reason"; exit 1; }

start_worker() { # start_worker <name>
    "$work/pufferd" -addr 127.0.0.1:0 -addr-file "$work/$1.addr" \
        -spool "$work/$1" -workers 1 -join "$COORD" -heartbeat 500ms -node-id "$1" \
        >"$work/$1.log" 2>&1 &
    local pid=$!
    pids+=("$pid")
    eval "$1_pid=$pid"
    wait_addr "$work/$1.addr" "$pid" "$work/$1.log"
    log "worker $1 up at $(cat "$work/$1.addr") (pid $pid)"
}

log "boot two workers joined to the coordinator"
start_worker w1
start_worker w2
for _ in $(seq 1 50); do
    live="$(curl -s "$COORD/api/v1/nodes" | jq '[.[] | select(.live)] | length')"
    [ "$live" = "2" ] && break
    sleep 0.2
done
[ "$live" = "2" ] || { echo "fleet never saw 2 live workers (got $live)"; exit 1; }
curl -sf "$COORD/readyz" >/dev/null || { echo "/readyz not 200 with live workers"; exit 1; }
ctl fleet | tee "$work/fleet.txt"
grep -q '^w1 ' "$work/fleet.txt" && grep -q '^w2 ' "$work/fleet.txt" \
    || { echo "pufferctl fleet missing a worker row"; exit 1; }

log "write a Bookshelf design to upload"
go run ./cmd/puffer -design MEDIA_SUBSYS -scale 3000 -seed 5 -iters 30 \
    -noeval -verify=false -stats=false -out "$work/design" >/dev/null
aux="$(ls "$work/design"/*.aux)"

log "cold submit (tenant alice, Bookshelf upload), timed"
t0=$(date +%s%N)
ctl submit -aux "$aux" -seed 5 -tenant alice | tee "$work/cold.log"
cold_id="$(awk '/^job /{print $2; exit}' "$work/cold.log")"
ctl wait -poll 200ms -timeout 120s "$cold_id"
t1=$(date +%s%N)
cold_ns=$((t1 - t0))
grep -q "cache hit" "$work/cold.log" && { echo "first submission was a cache hit"; exit 1; }
cold_digest="$(curl -s "$COORD/api/v1/jobs/$cold_id" | jq -r .result_digest)"
cold_hpwl="$(curl -s "$COORD/api/v1/jobs/$cold_id" | jq -r .result.hpwl)"
[ -n "$cold_digest" ] && [ "$cold_digest" != "null" ] || { echo "cold job has no result digest"; exit 1; }

log "byte-identical submit (tenant bob) must hit the cache, timed"
t0=$(date +%s%N)
ctl submit -aux "$aux" -seed 5 -tenant bob | tee "$work/dup.log"
dup_id="$(awk '/^job /{print $2; exit}' "$work/dup.log")"
ctl wait -poll 200ms -timeout 30s "$dup_id"
t1=$(date +%s%N)
cached_ns=$((t1 - t0))
grep -q "cache hit" "$work/dup.log" || { echo "duplicate submission missed the cache"; exit 1; }
dup_digest="$(curl -s "$COORD/api/v1/jobs/$dup_id" | jq -r .result_digest)"
[ "$dup_digest" = "$cold_digest" ] || { echo "dup digest $dup_digest != cold $cold_digest"; exit 1; }

log "one-byte config change (seed 7) must miss the cache"
ctl submit -aux "$aux" -seed 7 | tee "$work/miss.log"
grep -q "cache hit" "$work/miss.log" && { echo "changed config hit the cache"; exit 1; }
miss_id="$(awk '/^job /{print $2; exit}' "$work/miss.log")"
ctl wait -poll 200ms -timeout 120s "$miss_id"

log "the fleet ran exactly 2 jobs (cold + miss; the duplicate never dispatched)"
ran="$(find "$work"/w1/jobs "$work"/w2/jobs -mindepth 1 -maxdepth 1 -type d 2>/dev/null | wc -l)"
[ "$ran" = "2" ] || { echo "workers ran $ran jobs, want 2"; exit 1; }

# --- distributed exploration -------------------------------------------

# Per-worker serve.design_parses counter, from the worker's Prometheus
# exposition (0 when the counter has not been created yet).
parses() { # parses <worker-name>
    local v
    v="$(curl -s "http://$(cat "$work/$1.addr")/metrics" | awk '/^serve_design_parses /{print $2}')"
    echo "${v:-0}"
}
trial_count() { # trial_count <parent-id> <jq-filter over one trial manifest>
    curl -s "$COORD/api/v1/jobs" |
        jq --arg p "$1" "[.[] | select(.parent == \$p) | select($2)] | length"
}

log "cold 2-worker distributed exploration (budget 2 => 22 trials)"
w1_parses0="$(parses w1)"
w2_parses0="$(parses w2)"
t0=$(date +%s%N)
ctl explore -profile MEDIA_SUBSYS -scale 1500 -seed 21 -budget 2 -wait 10m | tee "$work/xcold.log"
t1=$(date +%s%N)
xcold_ns=$((t1 - t0))
xcold_id="$(awk '/^exploration /{print $2; exit}' "$work/xcold.log")"
grep -q "22 trials" "$work/xcold.log" || { echo "cold exploration did not run 22 trials"; exit 1; }

log "each worker parsed the exploration netlist exactly once across all trials"
w1_delta=$(( $(parses w1) - w1_parses0 ))
w2_delta=$(( $(parses w2) - w2_parses0 ))
[ "$w1_delta" = "1" ] && [ "$w2_delta" = "1" ] \
    || { echo "design parses per worker: w1=$w1_delta w2=$w2_delta, want 1 and 1"; exit 1; }

log "in-process exploration baseline (same design, same budget, one worker)"
t0=$(date +%s%N)
ctl submit -kind explore -profile MEDIA_SUBSYS -scale 1500 -seed 21 -budget 2 -workers 1 | tee "$work/xbase.log"
xbase_id="$(awk '/^job /{print $2; exit}' "$work/xbase.log")"
ctl wait -poll 300ms -timeout 600s "$xbase_id"
t1=$(date +%s%N)
xbase_ns=$((t1 - t0))

log "warm distributed re-exploration: -nocache recomputes, trials dedupe"
t0=$(date +%s%N)
ctl explore -profile MEDIA_SUBSYS -scale 1500 -seed 21 -budget 2 -nocache -wait 10m | tee "$work/xwarm.log"
t1=$(date +%s%N)
xwarm_ns=$((t1 - t0))
xwarm_id="$(awk '/^exploration /{print $2; exit}' "$work/xwarm.log")"
grep -q "cache hit" "$work/xwarm.log" && { echo "-nocache exploration answered from the exploration cache"; exit 1; }
warm_hits="$(trial_count "$xwarm_id" '.cache_hit == true')"
[ "$warm_hits" = "22" ] || { echo "warm exploration got $warm_hits trial cache hits, want 22"; exit 1; }

log "publish BENCH_explore.json (>= 1.8x distributed speedup at equal trial budget)"
{
    echo "BenchmarkExploreInProcess 1 $xbase_ns ns/op"
    echo "BenchmarkExploreDistributedCold 1 $xcold_ns ns/op"
    echo "BenchmarkExploreDistributed 1 $xwarm_ns ns/op"
} | tee /dev/stderr | "$work/benchjson" \
    -ratio ExploreInProcess/ExploreDistributed \
    -ratio ExploreInProcess/ExploreDistributedCold \
    -out BENCH_explore.json
cat BENCH_explore.json
speedup_ok="$(awk -v b="$xbase_ns" -v d="$xwarm_ns" 'BEGIN{print (b >= 1.8*d) ? "yes" : "no"}')"
[ "$speedup_ok" = "yes" ] || { echo "distributed exploration speedup < 1.8x ($xbase_ns vs $xwarm_ns ns)"; exit 1; }

log "early-stop exploration: dominated trials are canceled mid-flight"
ctl explore -profile MEDIA_SUBSYS -scale 1500 -seed 37 -budget 1 -early-stop -wait 10m | tee "$work/xstop.log"
xstop_id="$(awk '/^exploration /{print $2; exit}' "$work/xstop.log")"
stop_canceled="$(trial_count "$xstop_id" '.state == "canceled"')"
[ "$stop_canceled" -ge 1 ] || { echo "early-stop exploration canceled no trials"; exit 1; }
log "early stop canceled $stop_canceled of 11 trials"

log "SIGKILL the coordinator mid-exploration"
resume_id="$(curl -s -X POST "$COORD/api/v1/jobs" \
    -d '{"kind":"explore","profile":"MEDIA_SUBSYS","scale":1200,"seed":33,"budget":1,"distributed":true}' | jq -r .id)"
[ -n "$resume_id" ] && [ "$resume_id" != "null" ] || { echo "resume exploration not admitted"; exit 1; }
done_before=0
for _ in $(seq 1 300); do
    done_before="$(trial_count "$resume_id" '.state == "done"')"
    [ "$done_before" -ge 2 ] && break
    sleep 0.2
done
[ "$done_before" -ge 2 ] || { echo "no trials finished before the kill window"; exit 1; }
state_at_kill="$(curl -s "$COORD/api/v1/jobs/$resume_id" | jq -r .state)"
[ "$state_at_kill" = "running" ] || { echo "exploration already $state_at_kill before the kill"; exit 1; }
kill -KILL "$coord_pid"
wait "$coord_pid" 2>/dev/null || true
log "coordinator killed with $done_before trials done"

log "restart the coordinator on the same spool; the farm must resume"
coord_port="${COORD##*:}"
"$work/pufferd" -coordinator -addr "127.0.0.1:$coord_port" -addr-file "$work/coord.addr" \
    -spool "$work/coord" -dead-after 3s -poll 200ms -early-stop-margin 1.2 \
    >"$work/coord2.log" 2>&1 &
coord_pid=$!
pids+=("$coord_pid")
wait_addr "$work/coord.addr" "$coord_pid" "$work/coord2.log"
for _ in $(seq 1 50); do
    live="$(curl -s "$COORD/api/v1/nodes" | jq '[.[] | select(.live)] | length' 2>/dev/null || echo 0)"
    [ "$live" = "2" ] && break
    sleep 0.2
done
[ "$live" = "2" ] || { echo "workers never rejoined the restarted coordinator"; exit 1; }
ctl wait -poll 300ms -timeout 600s "$resume_id"
resume_trials="$(curl -s "$COORD/api/v1/jobs/$resume_id/result" | jq -r .trials)"
[ "$resume_trials" = "11" ] || { echo "resumed exploration ran $resume_trials trials, want 11"; exit 1; }

log "resume re-ran zero finished trials (replayed via result-index cache hits)"
resume_placed="$(trial_count "$resume_id" '(.cache_hit // false) == false')"
resume_cached="$(trial_count "$resume_id" '.cache_hit == true')"
[ "$resume_placed" = "11" ] || { echo "$resume_placed placements ran across both attempts, want exactly 11"; exit 1; }
[ "$resume_cached" -ge 1 ] || { echo "resume replayed no trials through the result cache"; exit 1; }
log "resume OK: 11 placements total, $resume_cached cache-hit replays"

log "diag -explore renders the checkpoint with resume provenance"
curl -s "$COORD/api/v1/jobs/$resume_id/artifacts/explore-state.json" >"$work/explore-state.json"
"$work/puffer" diag "$work/explore-state.json" | tee "$work/xdiag.txt"
grep -q 'attempts: 2 (resumed 1 time(s))' "$work/xdiag.txt" \
    || { echo "diag -explore does not show the resume provenance"; exit 1; }

# --- worker failover ----------------------------------------------------

log "failover reference: uninterrupted slow job"
ref_id="$(ctl submit -profile MEDIA_SUBSYS -scale 400 -seed 5 | awk '{print $2}')"
ctl wait -poll 200ms -timeout 180s "$ref_id"
ref_hpwl="$(curl -s "$COORD/api/v1/jobs/$ref_id" | jq -r .result.hpwl)"
[ -n "$ref_hpwl" ] && [ "$ref_hpwl" != "null" ] || { echo "reference job has no HPWL"; exit 1; }

log "rerun the slow spec with -nocache and SIGKILL its worker mid-run"
kill_id="$(ctl submit -profile MEDIA_SUBSYS -scale 400 -seed 5 -nocache | awk '{print $2}')"
victim=""
for _ in $(seq 1 100); do
    st="$(curl -s "$COORD/api/v1/jobs/$kill_id")"
    state="$(echo "$st" | jq -r .state)"
    victim="$(echo "$st" | jq -r '.node // empty')"
    [ "$state" = "running" ] && [ -n "$victim" ] && break
    sleep 0.1
done
[ -n "$victim" ] || { echo "nocache job never started"; exit 1; }
sleep 1 # let stages land so a mirrored checkpoint exists
victim_pid_var="${victim}_pid"
log "SIGKILL worker $victim (pid ${!victim_pid_var})"
kill -KILL "${!victim_pid_var}"

log "the job must fail over and finish on the survivor"
ctl wait -poll 500ms -timeout 240s "$kill_id"
final="$(curl -s "$COORD/api/v1/jobs/$kill_id")"
landed="$(echo "$final" | jq -r .node)"
attempts="$(echo "$final" | jq -r .attempts)"
kill_hpwl="$(echo "$final" | jq -r .result.hpwl)"
[ "$landed" != "$victim" ] || { echo "failover stayed on the dead worker"; exit 1; }
[ "$attempts" -ge 2 ] || { echo "attempts = $attempts, want >= 2"; exit 1; }
[ "$kill_hpwl" = "$ref_hpwl" ] || { echo "failover HPWL $kill_hpwl != reference $ref_hpwl"; exit 1; }
log "failover OK: finished on $landed after $attempts attempts, HPWL exact"

log "inspect the content-addressed store"
"$work/puffer" diag "$work/coord/cas" | tee "$work/cas.txt"
grep -q 'cached results' "$work/cas.txt" || { echo "diag -cas printed no summary"; exit 1; }
grep -q 'BLOB' "$work/cas.txt" || { echo "diag -cas shows no blob table (upload missing?)"; exit 1; }
"$work/puffer" diag -gc "$work/coord/cas" | tee "$work/casgc.txt"
grep -q 'gc dry run' "$work/casgc.txt" || { echo "diag -cas-gc printed no dry run"; exit 1; }

log "publish BENCH_cas.json (cold vs cached submit latency)"
{
    echo "BenchmarkSubmitCold 1 $cold_ns ns/op"
    echo "BenchmarkSubmitCached 1 $cached_ns ns/op"
} | tee /dev/stderr | "$work/benchjson" -ratio SubmitCold/SubmitCached -out BENCH_cas.json
cat BENCH_cas.json

log "fleet e2e OK"
