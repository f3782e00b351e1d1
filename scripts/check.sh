#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass, runnable fully offline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings

# Table 3 direction gate: the SystemC-level flow must stay at least as
# fast per cycle as the RTL+OVL flow at every bank count (the paper's
# surviving qualitative claim; see EXPERIMENTS.md). The ratio check
# lives inside the binary (--assert-ratio, nonzero exit on failure);
# the shell only checks the exit code.
./target/release/table3 1000 200 --assert-ratio 1.0 > /dev/null
# Fault-injection smoke gate (DESIGN.md §8): every built-in fault model
# must be caught by at least one detection channel at the RTL+OVL level,
# and the healthy design must never trip the closed-loop watchdog. Runs
# the debug build so the protocol asserts behind the guard channel are
# exercised exactly as the test suite sees them. `--batched` runs the
# campaign through the 64-lane engine with the scalar engine as a
# byte-identity reference (DESIGN.md §10), so one line gates both.
cargo run -q -p la1-bench --bin campaign -- 1 2 --smoke --batched > /dev/null
# Coverage-closure smoke gate (DESIGN.md §9): the coverage-guided
# generator must close 100% of tier-1 bins deterministically at 1 and 2
# banks within the fixed smoke budget; the binary exits non-zero with
# the unhit bins otherwise.
./target/release/closure --smoke > /dev/null
# Transaction-level traffic gate (DESIGN.md §11): the three NPU
# workloads (multi-master contention, QDR burst sweep, Zipf packet
# lookup) must reproduce identical transaction counters at every model
# level, scoreboard clean on all 64 batched lanes, close the tier-3
# traffic coverage bins, and stay visible on the monitor's three fault
# channels. All counters are deterministic; only the lookups/s perf
# figures vary run to run.
./target/release/traffic --smoke > /dev/null
# Bit-parallel throughput gates (DESIGN.md §10). Floors sit below the
# measured release numbers on a 1-core host (see EXPERIMENTS.md, "Bit-parallel throughput") so
# timing noise does not flake the gate: the raw kernel measures
# 11-14x (floor 8), the rtl-level campaign 4.6-6.2x (floor 4), and the
# 64-stream closure 4.8-7x (floor 3); the campaign and closure figures
# are ratios of medians over seven alternating scalar/batched samples.
# Each line also re-asserts batched == scalar byte identity before
# timing is even consulted.
./target/release/throughput 4 --cycles 2000 --assert-speedup 8 > /dev/null
./target/release/campaign 4 --batched --levels rtl --assert-speedup 4 > /dev/null
./target/release/closure --smoke --assert-speedup 3 > /dev/null
# Verification-farm gates (DESIGN.md §12). The smoke line runs every
# plan kind (sharded campaign, closure stream groups, exploration
# sweep) at 1 and 4 workers with fixed seeds and asserts inside the
# binary that the merged reports AND the per-job serve streams are
# byte-identical across worker counts, that the campaign merge equals
# the unsharded engine's matrix, that tier-1 coverage closes, and that
# exploration passes.
./target/release/farm --smoke > /dev/null
# The scaling line gates farm throughput at 4 banks on the batched
# engines: >=2.5x at 4 workers over 1 worker on the campaign and
# closure plans when 4+ cores are available. On smaller hosts the
# binary degrades the floor to max(0.5, 2.5*cores/4) — a
# threading-overhead check — and notes the waiver on stderr.
./target/release/farm 4 --workers 1,4 --runs 12 --budget 60000 --assert-scaling 2.5 > /dev/null
# Fault-tolerance gates (DESIGN.md §13).
# (1) Self-chaos convergence: seeded panics, synthetic timeouts and
# delays are injected into 3 job indices of every smoke plan; with 2
# retries the binary asserts each chaos pass is byte-identical to a
# clean chaos-free reference pass at every worker count — injected
# faults must be fully healed, never papered over.
./target/release/farm --smoke --chaos 99 --max-retries 2 > /dev/null
# (2) Kill-and-resume: a journaled campaign is SIGKILLed mid-run, then
# resumed from the write-ahead journal; the resumed merged report must
# be byte-identical to an uninterrupted run's (only incomplete jobs
# re-execute — the binary replays the journaled prefix verbatim). The
# kill waits for the first committed result (polling, at most 120 s) and
# the gate fails unless it landed strictly between the first and the
# last commit, so it cannot pass without testing a replay.
FARM_TMP=$(mktemp -d)
trap 'rm -rf "$FARM_TMP"' EXIT
# committed_results <journal>: complete result lines (newline-terminated
# lines minus the header line).
committed_results() {
    local lines
    lines=$(wc -l 2> /dev/null < "$1" || echo 0)
    echo $((lines > 0 ? lines - 1 : 0))
}
# kill_after_first_commit <journal> <pid> <jobs> <gate>: SIGKILLs the
# journaled run once it has committed a result, then asserts
# 1 <= committed < jobs.
kill_after_first_commit() {
    local journal=$1 pid=$2 jobs=$3 gate=$4 deadline=$((SECONDS + 120)) n
    while [ "$(committed_results "$journal")" -lt 1 ] && [ "$SECONDS" -lt "$deadline" ] \
        && kill -0 "$pid" 2> /dev/null; do
        sleep 0.05
    done
    kill -9 "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
    n=$(committed_results "$journal")
    echo "check.sh: $gate crash gate killed the run after $n of $jobs committed results" >&2
    if [ "$n" -lt 1 ] || [ "$n" -ge "$jobs" ]; then
        echo "check.sh: $gate crash gate needs 1 <= committed < $jobs, got $n" >&2
        exit 1
    fi
}
./target/release/farm 2 --mode campaign --jobs 8 --runs 400 --scalar --workers 1 \
    --merged-json "$FARM_TMP/clean.json" > /dev/null
./target/release/farm 2 --mode campaign --jobs 8 --runs 400 --scalar --workers 1 \
    --journal "$FARM_TMP/journal.jsonl" > /dev/null 2>&1 &
kill_after_first_commit "$FARM_TMP/journal.jsonl" $! 8 campaign
./target/release/farm 2 --mode campaign --jobs 8 --runs 400 --scalar --workers 1 \
    --resume "$FARM_TMP/journal.jsonl" --merged-json "$FARM_TMP/resumed.json" > /dev/null
diff "$FARM_TMP/clean.json" "$FARM_TMP/resumed.json" > /dev/null \
    || { echo "check.sh: resumed farm report diverged from the clean run" >&2; exit 1; }
# (3) Broken-pipe serve: a consumer hanging up after 3 lines must stop
# the stream but not the run — the farm still finishes and exits 0.
./target/release/farm --smoke --serve 2> /dev/null | head -n 3 > /dev/null
# Checkpoint gates (DESIGN.md §14).
# (1) Equivalence smoke at 1 and 2 banks: parse-and-restore of a
# serialized snapshot must land on state byte-identical to replaying
# the recorded preamble trace, scalar and 64-lane batched; the binary
# re-captures both end states and compares the serialized bytes
# before reporting any timing (no speedup floor here — equivalence,
# not speed, is the tier-1 contract).
./target/release/checkpoint --smoke > /dev/null
# (2) Every feature-gated property suite in the workspace: the
# differential restore-equivalence sweeps (random seeds and cut cycles
# across all four levels plus the batched engine), the PSL parser's
# never-panic properties, the farm journal truncation/resume and chaos
# properties, and the four-state algebra.
cargo test -q --workspace --features proptest > /dev/null
# (3) SIGKILL-mid-stage + restore-from-snapshot: a journaled
# warm-started closure farm (every shard restores a 4000-cycle
# preamble from its snapshot instead of re-running it) is SIGKILLed
# mid-run and resumed; the resumed merged report must be
# byte-identical to an uninterrupted warm run. The journal header pins
# the plan fingerprint — which covers the preamble trace *and*
# snapshots — so a resume against a drifted preamble refuses instead
# of silently mixing campaigns.
./target/release/farm 2 --mode closure --jobs 400 --runs 1 --budget 60000 \
    --preamble 4000 --workers 1 --merged-json "$FARM_TMP/warm_clean.json" > /dev/null
./target/release/farm 2 --mode closure --jobs 400 --runs 1 --budget 60000 \
    --preamble 4000 --workers 1 --journal "$FARM_TMP/warm_journal.jsonl" > /dev/null 2>&1 &
kill_after_first_commit "$FARM_TMP/warm_journal.jsonl" $! 400 "warm closure"
./target/release/farm 2 --mode closure --jobs 400 --runs 1 --budget 60000 \
    --preamble 4000 --workers 1 --resume "$FARM_TMP/warm_journal.jsonl" \
    --merged-json "$FARM_TMP/warm_resumed.json" > /dev/null
diff "$FARM_TMP/warm_clean.json" "$FARM_TMP/warm_resumed.json" > /dev/null \
    || { echo "check.sh: warm-resumed closure report diverged from the clean run" >&2; exit 1; }

echo "check.sh: all gates passed"
