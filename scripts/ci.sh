#!/usr/bin/env bash
# Full local CI gate: formatting, lints, release build, tests.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The benchmark is its own workspace over the crates' public API; testing
# it here makes an API change that breaks it fail CI.
echo "==> cargo test --release --manifest-path wallbench/Cargo.toml"
cargo test --release --manifest-path wallbench/Cargo.toml

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> trace smoke test (apdm-experiments trace)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
./target/release/apdm-experiments trace --seed 42 --out "$trace_dir/trace.jsonl" --quiet
test -s "$trace_dir/trace.jsonl" || { echo "trace smoke: JSONL trace is missing or empty"; exit 1; }
test -s "$trace_dir/trace.jsonl.chrome.json" || { echo "trace smoke: Chrome trace is missing or empty"; exit 1; }
python3 - "$trace_dir/trace.jsonl" <<'PY'
import json, sys

path = sys.argv[1]
names = set()
with open(path) as fh:
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as err:
            sys.exit(f"trace smoke: line {lineno} is not valid JSON: {err}")
        if rec["kind"] == "span_start":
            names.add(rec["name"])

phases = {f"phase.{p}" for p in
          ("sense", "propose", "guard", "execute", "world-step", "ledger-append")}
missing = sorted(phases - names)
if missing:
    sys.exit(f"trace smoke: tick-phase spans missing from trace: {missing}")
print(f"trace smoke: all {len(phases)} tick-phase spans present")
PY

# Several examples assert what they print (quickstart, for one, asserts
# that the guard stack holds the mule's speed at 7.0 or below), so each one
# is run once, not only compiled. They run in a scratch directory because
# trace_a_run writes its trace files into the working directory.
echo "==> examples (each run once in release)"
cargo build --release --examples
mkdir "$trace_dir/examples"
example_count=0
for src in examples/*.rs; do
    name="$(basename "$src" .rs)"
    exe="$PWD/target/release/examples/$name"
    example_count=$((example_count + 1))
    (cd "$trace_dir/examples" && "$exe" >/dev/null) \
        || { echo "example $name exited non-zero"; exit 1; }
done
echo "examples: all $example_count exited 0"

echo "==> parallel determinism smoke (APDM_THREADS=4 vs sequential)"
./target/release/apdm-experiments record --seed 42 --threads 1 \
    --out "$trace_dir/run-seq.jsonl" --quiet >/dev/null
APDM_THREADS=4 ./target/release/apdm-experiments record --seed 42 \
    --out "$trace_dir/run-par.jsonl" --quiet >/dev/null
cmp -s "$trace_dir/run-seq.jsonl" "$trace_dir/run-par.jsonl" \
    || { echo "parallel smoke: 4-thread ledger diverges from sequential"; exit 1; }
echo "parallel smoke: 4-thread ledger byte-identical to sequential"

echo "==> degraded-comms smoke (E12 cell, loss=0.3, fixed seed)"
./target/release/apdm-experiments run e12 --seed 42 --threads 1 \
    --out "$trace_dir/e12-seq.jsonl" --json --quiet > "$trace_dir/e12-seq.json"
APDM_THREADS=4 ./target/release/apdm-experiments run e12 --seed 42 --threads 0 \
    --out "$trace_dir/e12-par.jsonl" --json --quiet > "$trace_dir/e12-par.json"
cmp -s "$trace_dir/e12-seq.jsonl" "$trace_dir/e12-par.jsonl" \
    || { echo "e12 smoke: 4-thread sealed ledger diverges from sequential"; exit 1; }
./target/release/apdm-experiments verify "$trace_dir/e12-seq.jsonl" --quiet >/dev/null \
    || { echo "e12 smoke: sealed cell ledger failed verification"; exit 1; }
python3 - "$trace_dir/e12-seq.json" <<'PY'
import json, sys

cell = json.load(open(sys.argv[1]))
if cell["containment_tick"] is None:
    sys.exit("e12 smoke: rogues were never contained at loss=0.3")
if cell["watchdog"] is not None:
    sys.exit(f"e12 smoke: watchdog tripped unexpectedly: {cell['watchdog']}")
print(f"e12 smoke: contained at tick {cell['containment_tick']} under loss=0.3, "
      f"ledger byte-identical at 1 and 4 threads")
PY

echo "==> distributed-tracing smoke (E14 traced run + trace-analyze round trip)"
./target/release/apdm-experiments run e14 --seed 42 \
    --out "$trace_dir/e14-trace.jsonl" --json --quiet > "$trace_dir/e14-report.json"
./target/release/apdm-experiments trace-analyze "$trace_dir/e14-trace.jsonl" \
    --chrome "$trace_dir/e14-chrome.json" > "$trace_dir/e14-paths.txt" \
    || { echo "e14 smoke: trace-analyze failed (orphaned spans?)"; exit 1; }
python3 - "$trace_dir/e14-report.json" "$trace_dir/e14-paths.txt" \
    "$trace_dir/e14-chrome.json" <<'PY'
import json, sys

report = json.load(open(sys.argv[1]))
if report["unresolved_parents"] != 0:
    sys.exit(f"e14 smoke: {report['unresolved_parents']} spans have unresolved parents")
if report["traces"] != report["offered"]:
    sys.exit(f"e14 smoke: {report['traces']} traces for {report['offered']} requests")

paths = open(sys.argv[2]).read()
stages = ["client.submit", "comms.send", "comms.recv", "serve.admit", "serve.batch",
          "serve.shard", "serve.ledger", "comms.respond", "client.done"]
missing = [s for s in stages if s not in paths]
if missing:
    sys.exit(f"e14 smoke: pipeline stages missing from critical paths: {missing}")

chrome = json.load(open(sys.argv[3]))
devices = {e["tid"] for e in chrome["traceEvents"] if e.get("ph") == "X"}
if len(devices) < 2:
    sys.exit(f"e14 smoke: device timeline covers {len(devices)} device(s), expected several")
print(f"e14 smoke: {report['traces']} traces span all {len(stages)} pipeline stages, "
      f"device timeline covers {len(devices)} devices")
PY

echo "==> skew-scheduling smoke (E15 cell, zipf=1.2: 1 vs 3 threads, static vs balanced)"
./target/release/apdm-experiments run e15 --seed 42 --threads 1 \
    --out "$trace_dir/e15-t1.jsonl" --json --quiet > "$trace_dir/e15-t1.json"
./target/release/apdm-experiments run e15 --seed 42 --threads 3 \
    --out "$trace_dir/e15-t3.jsonl" --json --quiet > "$trace_dir/e15-t3.json"
cmp -s "$trace_dir/e15-t1.jsonl" "$trace_dir/e15-t3.jsonl" \
    || { echo "e15 smoke: 3-thread sealed ledger diverges from 1-thread"; exit 1; }
./target/release/apdm-experiments verify "$trace_dir/e15-t1.jsonl" --quiet >/dev/null \
    || { echo "e15 smoke: sealed cell ledger failed verification"; exit 1; }
python3 - "$trace_dir/e15-t1.json" "$trace_dir/e15-t3.json" <<'PY'
import json, sys

cells = [json.load(open(path)) for path in sys.argv[1:]]
for cell in cells:
    t = cell["threads"]
    if cell["watchdog"] is not None:
        sys.exit(f"e15 smoke: watchdog tripped at t={t}: {cell['watchdog']}")
    if cell["shed_allows"] != 0:
        sys.exit(f"e15 smoke: a shed request was ALLOWED at t={t}")
    if cell["decided"] + cell["shed"] != cell["offered"]:
        sys.exit(f"e15 smoke: requests lost at t={t}")
    if cell["deferrals"] == 0:
        sys.exit(f"e15 smoke: backpressure never deferred under zipf=1.2 at t={t}")
    # Both schedules describe the same batches: compare them in one report.
    stat, bal = cell["static_schedule"], cell["balanced_schedule"]
    if not bal["hot_p99_wait"] < stat["hot_p99_wait"]:
        sys.exit(f"e15 smoke: balanced hot p99 wait {bal['hot_p99_wait']} "
                 f"did not beat static {stat['hot_p99_wait']} at t={t}")
if cells[0]["ledger_digest"] != cells[1]["ledger_digest"]:
    sys.exit("e15 smoke: ledger digests diverge between 1 and 3 threads")
waits = ", ".join(f"{c['balanced_schedule']['hot_p99_wait']} < "
                  f"{c['static_schedule']['hot_p99_wait']} at t={c['threads']}"
                  for c in cells)
print(f"e15 smoke: ledger byte-identical at 1 and 3 threads, balanced vs static "
      f"hot-shard p99 wait {waits}, {cells[1]['deferrals']} deferrals")
PY

echo "==> cost-model calibration smoke (calibrate)"
./target/release/apdm-experiments calibrate --seed 42 --json --quiet \
    > "$trace_dir/calibration.json"
python3 - "$trace_dir/calibration.json" <<'PY'
import json, sys

cal = json.load(open(sys.argv[1]))
fit = cal["fitted"]
if fit["cost_miss"] < 1 or fit["capacity_per_tick"] < 1:
    sys.exit(f"calibration smoke: degenerate fitted model {fit}")
print(f"calibration smoke: {cal['samples']} batches -> cost_miss={fit['cost_miss']}, "
      f"capacity_per_tick={fit['capacity_per_tick']}")
PY

echo "==> crash-tolerance smoke (E16: checkpoint golden, kill mid-run, resume, verify)"
./target/release/apdm-experiments checkpoint --seed 42 \
    --out "$trace_dir/e16-golden" --quiet >/dev/null
# Format drift guard: the release binary's golden segments must equal the
# committed fixtures byte for byte, and there must be no other segment.
fixture_count=0
for f in tests/fixtures/e16-42.seg*.jsonl; do
    fixture_count=$((fixture_count + 1))
    seg="${f##*/e16-42.}"
    cmp -s "$f" "$trace_dir/e16-golden.$seg" \
        || { echo "e16 fixtures: e16-golden.$seg differs from $f"; exit 1; }
done
fixture_segs=$(ls "$trace_dir"/e16-golden.seg*.jsonl | wc -l)
test "$fixture_count" -gt 0 && test "$fixture_count" -eq "$fixture_segs" \
    || { echo "e16 fixtures: $fixture_segs golden segments, $fixture_count fixtures"; exit 1; }
echo "e16 fixtures: $fixture_count golden segments byte-identical to tests/fixtures"
./target/release/apdm-experiments checkpoint --seed 42 --kill-tick 21 \
    --out "$trace_dir/e16-crashed" --quiet >/dev/null
./target/release/apdm-experiments resume "$trace_dir/e16-crashed" --seed 42 \
    --out "$trace_dir/e16-resumed" --quiet >/dev/null
golden_count=0
for f in "$trace_dir"/e16-golden.seg*.jsonl; do
    golden_count=$((golden_count + 1))
    cmp -s "$f" "${f/e16-golden/e16-resumed}" \
        || { echo "e16 smoke: resumed $(basename "$f") diverges from golden"; exit 1; }
done
test "$golden_count" -gt 1 || { echo "e16 smoke: golden run never rotated"; exit 1; }
resumed_count=$(ls "$trace_dir"/e16-resumed.seg*.jsonl | wc -l)
test "$golden_count" -eq "$resumed_count" \
    || { echo "e16 smoke: resumed run has $resumed_count segments, golden $golden_count"; exit 1; }
first_seg=$(printf '%s\n' "$trace_dir"/e16-golden.seg*.jsonl | head -n 1)
./target/release/apdm-experiments verify "$first_seg" --quiet >/dev/null \
    || { echo "e16 smoke: golden rotated chain failed verification"; exit 1; }
# Negative control: a tampered retained segment must fail the whole chain.
mkdir "$trace_dir/e16-tampered"
cp "$trace_dir"/e16-golden.seg*.jsonl "$trace_dir/e16-tampered/"
tamper_file=$(printf '%s\n' "$trace_dir"/e16-tampered/e16-golden.seg*.jsonl | head -n 1)
python3 - "$tamper_file" <<'PY'
import re, sys

path = sys.argv[1]
lines = open(path).read().splitlines()
m = re.search(r'"digest":(\d+)', lines[1])
lines[1] = lines[1].replace(m.group(0), '"digest":' + str(int(m.group(1)) ^ 1))
open(path, "w").write("\n".join(lines) + "\n")
PY
if ./target/release/apdm-experiments verify "$tamper_file" --quiet >/dev/null 2>&1; then
    echo "e16 smoke: tampered segment chain passed verification"; exit 1
fi
# Format guard: a verified checkpoint in an old format (1: memo caches as
# verdicts, 2: as fingerprints, 3: queued requests written whole, 4: rows
# as objects with decimal values) is refused by name, never silently
# restarted from tick 1.
for v in 1 2 3 4; do
    cp "tests/fixtures/e16-42-v$v.seg0006.jsonl" "$trace_dir/e16-v$v.seg0006.jsonl"
    if ./target/release/apdm-experiments resume "$trace_dir/e16-v$v" --seed 42 \
        --out "$trace_dir/e16-v$v-resumed" --quiet >/dev/null 2>"$trace_dir/e16-v$v.err"; then
        echo "e16 smoke: a format-$v checkpoint was resumed"; exit 1
    fi
    grep -q "serve checkpoint format $v" "$trace_dir/e16-v$v.err" \
        || { echo "e16 smoke: the format-$v refusal does not name the format:"; cat "$trace_dir/e16-v$v.err"; exit 1; }
done
echo "e16 smoke: resumed run byte-identical to golden across $golden_count segments," \
     "rotated chain verifies, tampering detected, format-1 to -4 checkpoints refused"

echo "==> hostile-ledger smoke (200,000-deep nesting is a parse error, not a stack overflow)"
# In hostile.jsonl, line 1 nests far past the JSON parser's depth cap as a
# bare value (the tree route). In hostile-typed.jsonl, line 1 is a valid
# record with a 200,000-deep value spliced into one field of its event (the
# typed route, which reads a record straight into its type). In both, line
# 2 is a valid record, so line 1 cannot be taken for a torn final line and
# dropped.
python3 - "$trace_dir" "$first_seg" <<'PY'
import re
import sys

out, seg = sys.argv[1], sys.argv[2]
valid = open(seg).readline()
open(out + "/hostile.jsonl", "w").write("[" * 200_000 + "\n" + valid)
nested = "[" * 200_000 + "]" * 200_000
spliced, n = re.subn(r'"segment":\d+', '"segment":' + nested, valid, count=1)
assert n == 1, "the first record of a segment opens it"
open(out + "/hostile-typed.jsonl", "w").write(spliced + valid)
PY
for hostile in hostile hostile-typed; do
    set +e
    ./target/release/apdm-experiments verify "$trace_dir/$hostile.jsonl" --quiet \
        >/dev/null 2>"$trace_dir/$hostile.err"
    hostile_status=$?
    set -e
    test "$hostile_status" -eq 1 \
        || { echo "$hostile ledger: verify exited $hostile_status, expected 1:"; \
             cat "$trace_dir/$hostile.err"; exit 1; }
    grep -q "at line 1: .*nesting deeper than" "$trace_dir/$hostile.err" \
        || { echo "$hostile ledger: no depth error for line 1:"; \
             cat "$trace_dir/$hostile.err"; exit 1; }
    echo "$hostile ledger: verify refused line 1 with a parse error (exit 1)"
done

echo "==> networked-serving smoke (E17: serve-net over real sockets vs in-process golden)"
./target/release/apdm-experiments serve-net golden --smoke --seed 42 \
    --out "$trace_dir/e17-golden" --quiet >/dev/null
./target/release/apdm-experiments serve-net serve --smoke --seed 42 --clients 2 \
    --addr-file "$trace_dir/e17-addr" --out "$trace_dir/e17-served" --quiet \
    >"$trace_dir/e17-serve.out" &
e17_server=$!
./target/release/apdm-experiments serve-net client --smoke --seed 42 \
    --addr-file "$trace_dir/e17-addr" --index 0 --clients 2 --quiet >/dev/null &
e17_c0=$!
# The run cannot start without workload client 1, and a 16-tick run takes
# only tens of ms: let the chaos clients finish first, so they never find
# the listener already closed. The unauthorized client waits for its
# fail-closed deny, which the server must send while the barrier is still
# open.
./target/release/apdm-experiments serve-net chaos \
    --addr-file "$trace_dir/e17-addr" --kind garbage --quiet >/dev/null \
    || { echo "e17 smoke: garbage chaos client failed"; exit 1; }
./target/release/apdm-experiments serve-net chaos \
    --addr-file "$trace_dir/e17-addr" --kind unauthorized --quiet >/dev/null \
    || { echo "e17 smoke: unauthorized chaos client failed"; exit 1; }
./target/release/apdm-experiments serve-net client --smoke --seed 42 \
    --addr-file "$trace_dir/e17-addr" --index 1 --clients 2 --quiet >/dev/null \
    || { echo "e17 smoke: workload client 1 failed"; exit 1; }
wait "$e17_c0" || { echo "e17 smoke: workload client 0 failed"; exit 1; }
wait "$e17_server" || { echo "e17 smoke: server failed"; exit 1; }
grep -q ", 1 drops," "$trace_dir/e17-serve.out" \
    || { echo "e17 smoke: expected exactly 1 drop (the garbage client):"; \
         cat "$trace_dir/e17-serve.out"; exit 1; }
grep -q ", 1 rejects," "$trace_dir/e17-serve.out" \
    || { echo "e17 smoke: expected exactly 1 reject (the unauthorized client):"; \
         cat "$trace_dir/e17-serve.out"; exit 1; }
e17_segs=0
for f in "$trace_dir"/e17-golden.seg*.jsonl; do
    e17_segs=$((e17_segs + 1))
    cmp -s "$f" "${f/e17-golden/e17-served}" \
        || { echo "e17 smoke: served $(basename "$f") diverges from in-process golden"; exit 1; }
done
test "$e17_segs" -gt 1 || { echo "e17 smoke: golden run never rotated"; exit 1; }
echo "e17 smoke: TCP-served ledger byte-identical to in-process golden across" \
     "$e17_segs segments (2 workload clients + garbage and unauthorized chaos clients)"

echo "==> strong-scaling smoke (E11 table)"
./target/release/apdm-experiments run e11 --json --quiet > "$trace_dir/e11-report.json"
python3 - "$trace_dir/e11-report.json" <<'PY'
import json, sys

report = json.load(open(sys.argv[1]))
bad = [c for c in report["cells"] if not c["digest_matches_sequential"]]
if bad:
    sys.exit(f"e11: cells diverged from the sequential ledger: {bad}")
print(f"e11: {len(report['cells'])} cells, all ledgers bit-identical "
      f"(hardware_threads={report['hardware_threads']})")
PY

# Every deterministic experiment whose table configuration runs in well
# under a minute, checked against its acceptance predicate (`run` exits
# non-zero and names each broken claim): f1 f2 f3 e1 e2 e2d e3 e4 e5 e5n
# e6 e7 e8 a1 a2 a3 e9 g1 e11 e12 e13 e15 e16 e17. Left out: e10 and e14,
# whose claims are wall-clock.
echo "==> experiment acceptance predicates (table configurations)"
for id in f1 f2 f3 e1 e2 e2d e3 e4 e5 e5n e6 e7 e8 a1 a2 a3 e9 g1 e11 e12 e13 e15 e16 e17; do
    ./target/release/apdm-experiments run "$id" --json --quiet >"$trace_dir/report-$id.json" \
        || { echo "experiment $id failed its acceptance predicate"; exit 1; }
done
echo "experiments: every selected table meets its acceptance predicate"

# The committed reports must reproduce: each fresh report equals its
# BENCH_*.json in every field but the host header and the wall-clock
# `wall_ns` fields.
echo "==> committed experiment reports reproduce (host and wall_ns masked)"
python3 - "$trace_dir" <<'PY'
import json, sys

committed = {"e12": "BENCH_e12_comms.json", "e13": "BENCH_e13_serve.json",
             "e15": "BENCH_e15_skew.json", "e16": "BENCH_e16_crash.json",
             "e17": "BENCH_e17_net.json"}

def mask(value):
    if isinstance(value, dict):
        return {k: 0 if k == "wall_ns" else mask(v) for k, v in value.items() if k != "host"}
    if isinstance(value, list):
        return [mask(v) for v in value]
    return value

for id, bench in committed.items():
    fresh = mask(json.load(open(f"{sys.argv[1]}/report-{id}.json")))
    if fresh != mask(json.load(open(bench))):
        sys.exit(f"reports: a fresh {id} report differs from {bench}")
print(f"reports: fresh {', '.join(committed)} reports equal their committed BENCH_*.json")
PY

echo "CI gate passed."
