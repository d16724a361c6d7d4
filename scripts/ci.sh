#!/usr/bin/env bash
# Repo CI gate: build, lint, test. Run from the workspace root.
#
#   scripts/ci.sh          # full gate
#   FAST=1 scripts/ci.sh   # skip the release build (quick local check)
set -euo pipefail
cd "$(dirname "$0")/.."

# A transfer's lifecycle blocks on events (DESIGN.md §8, "who wakes
# whom"): the marker periods are what a clock read between blocks is
# compared against (send) or the timeout of the pump's wait (receive). A
# sleep in the three files that own the lifecycle is a poll creeping
# back, and every short transfer would pay its period again. Test modules
# (everything from the file's `#[cfg(test)]` on) may sleep.
echo "==> no thread::sleep in the transfer lifecycle (server session/dtp/data)"
session_src=(crates/server/src/session/{mod,auth,channels,files,transfer}.rs)
for f in "${session_src[@]}" crates/server/src/{dtp,data}.rs; do
  if sed '/^#\[cfg(test)\]/,$d' "${f}" | grep -n 'thread::sleep'; then
    echo "${f}: thread::sleep in non-test code; block on the event instead" >&2
    exit 1
  fi
done

# An upload sends the caller's bytes (DESIGN.md §8, copy table):
# `send_slices` frames blocks straight out of the `&[u8]` `put_bytes` was
# given. Staging it in a `MemDsi` for `send_ranges` to read back — what
# the two functions did until PR 20 — is three more passes over the file
# and two more file-sized buffers.
echo "==> put_bytes stages nothing (no MemDsi, no send_ranges in the upload path)"
upload="$(sed '/^#\[cfg(test)\]/,$d' crates/client/src/transfer.rs \
  | sed -n '/^pub fn put_bytes(/,/^}/p; /^pub fn put_bytes_resume(/,/^}/p')"
grep -q 'send_slices' <<<"${upload}" || {
  echo "crates/client/src/transfer.rs: put_bytes/put_bytes_resume not found calling send_slices" >&2
  exit 1
}
if grep -nE 'MemDsi|send_ranges' <<<"${upload}"; then
  echo "crates/client/src/transfer.rs: put_bytes stages the upload again; send the caller's slice" >&2
  exit 1
fi

# One server core (DESIGN.md §11): the reactor, with workers on demand.
# The enum that chose between two cores, its builder, the pool-sizing
# builder and the thread-per-session entry point were deleted in PR 16;
# a second path creeping back would double every battery below again.
# (The names are spelt in halves so that this file passes its own check.)
echo "==> one server core (no core switch, no pool sizing, no per-link session entry point)"
second_core='Server''Core|with_''core|with_worker_''pool|serve_''link'
if grep -rnE "${second_core}" crates tests examples scripts; then
  echo "a second server core (or its option) is back; see DESIGN.md §11" >&2
  exit 1
fi

# One data transport (DESIGN.md §13): MODE E over TCP, one listener type,
# one connect path. The reliable-UDP driver, the enum and `OPTS DATA`
# negotiation that selected it, its server switch and the listener that
# wrapped both were deleted in PR 21: no production caller ever asked for
# it, and its measured loopback median was 15 Mbit/s (EXPERIMENTS.md).
echo "==> one data transport (no second driver, no transport switch, no either-listener)"
second_transport='Udp''Link|Data''Transport|udp_''enabled|AnyData''Listener'
if grep -rnE "${second_transport}" crates tests examples scripts; then
  echo "a second data transport (or its option) is back; see DESIGN.md §13" >&2
  exit 1
fi

# The session says what it is (DESIGN.md §11, "The session: states and
# rows"): login and data-channel state are the `Login` and `Channels`
# enums, so there is nothing for a verb to re-assert and one place a held
# channel is replaced. The second dispatcher's thirteen re-assertions and
# the function that kept three fields exclusive were deleted in PR 22.
echo "==> one session dispatcher (no re-asserted login, no three-field channel state)"
if grep -rnE 'expect\("auth''ed"\)|drop_data_''channels' crates/server/src; then
  echo "the session re-asserts its state again; make the type say it (DESIGN.md §11)" >&2
  exit 1
fi

# One modular-exponentiation kernel (DESIGN.md §8, "Session set-up"):
# `BigUint::modpow` runs the Montgomery kernel for every odd modulus, and
# `RsaPublicKey::new` refuses even ones, so no key, prime candidate or CRT
# factor meets the division loop. It stays as the even-modulus arm and as
# what the unit tests compare against; a second caller outside
# `#[cfg(test)]` is the 3-12x slower arithmetic selected again.
echo "==> one modpow kernel (the division loop serves the even-modulus arm only)"
division_calls="$(sed -s '/^#\[cfg(test)\]/,$d' crates/crypto/src/*.rs \
  | grep -E 'modpow_by_''division\(' | grep -vc 'fn modpow_by_''division(' || true)"
even_arm="$(sed '/^#\[cfg(test)\]/,$d' crates/crypto/src/bignum.rs \
  | grep -A1 'if modulus.is_even() {' | grep -c 'return self.modpow_by_''division(exp, modulus)' || true)"
if [[ "${division_calls}" != 1 || "${even_arm}" != 1 ]]; then
  echo "crates/crypto/src: modpow_by_division has ${division_calls} non-test callers (${even_arm} in the even-modulus arm); expected 1 and 1" >&2
  exit 1
fi

# One client transfer frame (DESIGN.md §8, "The client's frame"): every
# two-party download opens through `receive` and lands its blocks in
# `receive_file`, whose one `Receiver` and one staging `MemDsi` they all
# share, behind the one accept loop of `accept_streams`. The five copies
# that had drifted apart (a refusal read after 30 s, a partial retrieve
# never held to its 150, a listing that left its 550 unread) went in PR 23;
# a second copy is how they come back.
echo "==> one client transfer frame (one Receiver, one staging MemDsi, one accept loop)"
client_frame="$(sed '/^#\[cfg(test)\]/,$d' crates/client/src/transfer.rs)"
for once in 'Receiver::new(' 'MemDsi::new(' 'listener.accept(|try_accept('; do
  n="$(grep -cE "${once//(/\\(}" <<<"${client_frame}" || true)"
  if [ "${n}" -gt 1 ]; then
    echo "crates/client/src/transfer.rs: ${once} occurs ${n} times; receive through the one frame" >&2
    exit 1
  fi
done

# Aim two's number, in the log where the next re-anchor can read it.
echo "==> crates/*/src line totals"
rs_lines() { find "$@" -name '*.rs' -exec cat {} + | wc -l; }
for src in crates/*/src; do
  printf '    %6d %s\n' "$(rs_lines "${src}")" "${src}"
done
printf '    %6d crates/*/src\n' "$(rs_lines crates/*/src)"
printf '    %6d crates/server/src/session (its test module, tests.rs, left out)\n' \
  "$(cat "${session_src[@]}" | wc -l)"
printf '    %6d crates/client/src/transfer.rs\n' "$(wc -l <<<"${client_frame}")"

# One JSON codec and std-only concurrency (DESIGN.md §3): `ig_obs::json`
# encodes and parses every token, `ig_obs::sync` is the one place lock
# poisoning is decided, channels are `std::sync::mpsc`. The three registry
# crates they replaced were deleted in PR 17; the only manifests that may
# still name them are the two benchmark/staged/ freezes (ROADMAP item 1).
echo "==> one JSON codec, std-only locks and channels (no second parser, no replaced crate)"
replaced='ser''de|cross''beam|parking''_lot'
if grep -rnE "${replaced}" --include='*.rs' crates src tests examples; then
  echo "a replaced registry crate is back in the sources; see DESIGN.md §3" >&2
  exit 1
fi
if grep -nE "${replaced}" crates/*/Cargo.toml | grep -vE '^crates/(myproxy|core)/Cargo.toml:'; then
  echo "a replaced registry crate is back in a manifest; see DESIGN.md §3" >&2
  exit 1
fi
if grep -rn 'fn parse_''value' --include='*.rs' crates src tests examples | grep -v '^crates/obs/'; then
  echo "a second JSON parser; extend ig_obs::json instead" >&2
  exit 1
fi

# The parser's hostile-input battery needs nothing but rustc (ig-obs is
# std-only), so it also runs where no registry answers.
echo "==> ig-obs hostile-input battery (rustc alone)"
obs_out="$(mktemp -d)"
rustc --edition 2021 -O --crate-type rlib --crate-name ig_obs crates/obs/src/lib.rs --out-dir "${obs_out}"
rustc --edition 2021 -O --test crates/obs/tests/hostile_json.rs \
  --extern ig_obs="${obs_out}/libig_obs.rlib" -o "${obs_out}/hostile_json"
"${obs_out}/hostile_json" -q
rm -rf "${obs_out}"

echo "==> cargo build --release"
if [[ "${FAST:-0}" != "1" ]]; then
  cargo build --release
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

# The upload path's own batteries once more, optimised: overflow checks
# are off there, and the allocation and thread counts are those of the
# build the benchmark measures.
echo "==> upload path batteries (release)"
cargo test -q --release -p ig-client --test put_slices
# Likewise optimised: a `CKSM` length that overflows `u64` wraps instead
# of panicking there, and used to answer the digest of nothing.
cargo test -q --release -p ig-client --test e2e cksm_checksums_and_verified_put
cargo test -q --release -p ig-server --test send_slices --test zero_alloc_transfer --test transfer_wakeup

# The repository's benchmark (BENCHMARK.json, benchmark/) is a package of
# its own that builds against ig-server/ig-client/ig-gcmu by path, and a
# PR that is not a benchmark PR may not edit it. An API change that
# breaks it must therefore fail here, not in the pipeline. Build output
# goes under ./target; the only thing written into benchmark/ is its
# git-ignored Cargo.lock. Where no registry answers, fall back to the
# offline stand-ins exactly as benchmark/run.sh does.
echo "==> benchmark package (release build + contract and workloads tests)"
bench_args=(--manifest-path benchmark/Cargo.toml)
if ! CARGO_NET_RETRY=1 CARGO_HTTP_TIMEOUT=15 cargo fetch -q "${bench_args[@]}" 2>/dev/null; then
  rm -f benchmark/Cargo.lock
  bench_args+=(--offline --config benchmark/shims/offline.toml)
fi
bench_target="${CARGO_TARGET_DIR:-$PWD/target}/benchmark"
CARGO_TARGET_DIR="${bench_target}" cargo build -q --release "${bench_args[@]}"
CARGO_TARGET_DIR="${bench_target}" timeout 900 \
  cargo test -q "${bench_args[@]}" --test contract --test workloads

# Chaos matrix under two distinct seeds: the transfer-survival matrix
# (48 single-file cells + 16 mid-directory-stream cells) must recover
# (or fail typed) and replay byte-identically under each seed, and must
# finish well inside the wall-clock guard — a hang anywhere in the
# retry/timeout stack fails the gate instead of wedging CI.
echo "==> chaos matrix (two seeds, wall-clock guarded)"
chaos_trace_t0="$(date +%s)"
for seed in 12648430 3405691582; do
  echo "    seed ${seed}"
  CHAOS_SEED="${seed}" timeout 600 \
    cargo test -q -p ig-server --test chaos_matrix -- --nocapture
done

# Replay-determinism gate: a failing chaos cell traced with IG_TRACE
# under a fixed seed must dump byte-identical JSONL across two separate
# process runs (the trace_replay test also asserts this in-process; this
# checks the exported artifact end to end).
echo "==> trace replay determinism (IG_TRACE, two runs, byte-compared)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "${trace_dir}"' EXIT
for run in a b; do
  IG_TRACE="${trace_dir}/${run}.jsonl" timeout 300 \
    cargo test -q -p ig-server --test trace_replay
done
cmp "${trace_dir}/a.jsonl" "${trace_dir}/b.jsonl"
grep -q '"event":"chaos.fault"' "${trace_dir}/a.jsonl"
grep -q '"event":"retry.attempt"' "${trace_dir}/a.jsonl"
echo "    traces are byte-identical"
echo "    chaos matrix + trace replay took $(( $(date +%s) - chaos_trace_t0 )) s"

# E14 session-scalability smoke. Two layers:
# * the reactor_scale test holds an 800-session idle herd plus active
#   PUTs in-process and *asserts* the p99-RTT budget and the
#   per-idle-session resident-memory ceiling;
# * the bench experiment drives the full fast-mode herd (~2,000 idle
#   sessions held by a helper process + 50 authenticated PUTs) through
#   the report binary, wall-clock guarded by timeout, and the gate
#   checks the reactor actually held its herd.
echo "==> E14 session scalability smoke (reactor herd, wall-clock guarded)"
timeout 600 cargo test -q -p ig-server --test reactor_scale
e14_out="$(timeout 900 cargo run -q --release -p ig-bench --bin report -- --exp e14 --fast)"
echo "${e14_out}"
held="$(echo "${e14_out}" | awk '$1 == "reactor" {print $2}')"
if [[ -z "${held}" || "${held}" -lt 2000 ]]; then
  echo "E14: reactor held '${held:-0}' idle sessions, expected 2000" >&2
  exit 1
fi
echo "    reactor held ${held} idle sessions"

# Pipelining + streamed-directory battery at reduced proptest case
# counts (IG_PROPTEST_CASES): the full-depth runs already happened under
# `cargo test -q` above; this pass pins the env-var knob itself and
# keeps a fast re-run path for bisection.
echo "==> pipelining/dir-stream proptests (reduced cases, wall-clock guarded)"
IG_PROPTEST_CASES=8 timeout 300 cargo test -q -p ig-server --test dir_stream_property
IG_PROPTEST_CASES=8 timeout 300 cargo test -q -p ig-server --test core_differential

# Same seed, same key (DESIGN.md §8, "Session set-up"): the digests
# recorded before PR 24 changed the arithmetic, the frozen division-based
# reference beside the live crate, the Montgomery differential and the
# blocks a signature allocates — in release, where wrapping arithmetic
# and a compiled-out `debug_assert!` would show.
echo "==> RSA goldens + Montgomery differential (release)"
timeout 300 cargo test -q --release -p ig-crypto --test rsa_golden --test montgomery_differential --test sign_alloc

# Small-files smoke: E4 drives the 200-file 4 KiB tree through every
# strategy — including PIPE-windowed fetches on the session's cached data
# channel and the streamed ERET DIR transfer — wall-clock guarded, and the
# gate re-checks the ladder from the rendered table with the floors of
# `e4_small_files.rs` (EXPERIMENTS.md E4, re-derived in PR 19 for a
# per-file GET that is one command and no new thread, and the first again
# in PR 24 for a login whose RSA is 4-12x cheaper): one session >= 15x
# naive, PIPE >= 0.9x the one-session per-file baseline, streamed dir >=
# 0.75x it, all in files/s. The rows are CPU-bound, so as in the test a
# round that misses is re-measured, up to three times. (The mid-directory
# chaos cells above already cover the same paths under both CHAOS_SEED
# values.)
echo "==> E4 small-files smoke (200-file tree: per-file >= 15x naive, PIPE >= 0.9x and streamed dir >= 0.75x per-file)"
e4_ok=0
for e4_round in 1 2 3; do
  e4_out="$(timeout 600 cargo run -q --release -p ig-bench --bin report -- --exp e4)"
  echo "${e4_out}"
  naive_rate="$(echo "${e4_out}" | awk '/^session per file/ {print $(NF-1)}')"
  per_file_rate="$(echo "${e4_out}" | awk '/^one session, per-file/ {print $(NF-1)}')"
  pipe_rate="$(echo "${e4_out}" | awk '/^one session, PIPE/ {print $(NF-1)}')"
  dir_rate="$(echo "${e4_out}" | awk '/^streamed dir/ {print $(NF-1)}')"
  if [[ -z "${naive_rate}" || -z "${per_file_rate}" || -z "${pipe_rate}" || -z "${dir_rate}" ]]; then
    echo "E4: could not parse files/s rates from the table" >&2
    exit 1
  fi
  if awk -v n="${naive_rate}" -v p="${per_file_rate}" -v w="${pipe_rate}" -v d="${dir_rate}" \
      'BEGIN {exit !(p >= 15 * n && w >= 0.9 * p && d >= 0.75 * p)}'; then
    e4_ok=1
    break
  fi
  echo "    E4 round ${e4_round} missed a floor: naive ${naive_rate}, per-file ${per_file_rate}, PIPE ${pipe_rate}, streamed dir ${dir_rate} files/s"
done
if [[ "${e4_ok}" != 1 ]]; then
  echo "E4: ladder floors missed three times (per-file >= 15x naive, PIPE >= 0.9x per-file, streamed dir >= 0.75x per-file)" >&2
  exit 1
fi
echo "    per-file ${per_file_rate} vs naive ${naive_rate}, PIPE ${pipe_rate}, streamed dir ${dir_rate} files/s"

# E15 fleet-scale smoke: the reduced (fast) fleet — 1,000 endpoints,
# scaled 10M transfers/day — must (a) replay byte-identically under the
# default seed AND under a second E15_SEED (the whole rendered table is
# compared, digest line included), (b) hold both p99 budgets on each
# seed, and (c) change its digest when the seed changes (the trace is
# really seed-derived, not constant).
echo "==> E15 fleet-scale smoke (reduced fleet, two seeds, replay byte-compared)"
e15_a="$(timeout 600 cargo run -q --release -p ig-bench --bin report -- --exp e15 --fast)"
e15_b="$(timeout 600 cargo run -q --release -p ig-bench --bin report -- --exp e15 --fast)"
echo "${e15_a}"
if [[ "${e15_a}" != "${e15_b}" ]]; then
  echo "E15: same-seed replay diverged" >&2
  diff <(echo "${e15_a}") <(echo "${e15_b}") >&2 || true
  exit 1
fi
e15_c="$(E15_SEED=271828 timeout 600 cargo run -q --release -p ig-bench --bin report -- --exp e15 --fast)"
e15_d="$(E15_SEED=271828 timeout 600 cargo run -q --release -p ig-bench --bin report -- --exp e15 --fast)"
if [[ "${e15_c}" != "${e15_d}" ]]; then
  echo "E15: second-seed replay diverged" >&2
  exit 1
fi
for out in "${e15_a}" "${e15_c}"; do
  if ! grep -q "within budget: yes" <<<"${out}"; then
    echo "E15: p99 submit/activation budgets blown" >&2
    exit 1
  fi
done
digest_a="$(grep -o 'e15:[0-9a-f]\{8\}' <<<"${e15_a}")"
digest_c="$(grep -o 'e15:[0-9a-f]\{8\}' <<<"${e15_c}")"
if [[ -z "${digest_a}" || "${digest_a}" == "${digest_c}" ]]; then
  echo "E15: digest missing or seed-insensitive (${digest_a:-none})" >&2
  exit 1
fi
echo "    both seeds replay byte-identically (digests ${digest_a} / ${digest_c}), budgets hold"

# The PR 9 batteries at reduced proptest case counts: the sharded-ledger
# differential, the fair-share scheduler properties, and the
# credential-cache battery (whose stampede cell asserts the E11
# `myproxy.issued` counter moves exactly once for a 12-wide storm, and
# whose chaos cell replays its backoff schedule under two seeds
# in-test). Full-depth runs already happened under `cargo test -q`.
echo "==> E15 satellite batteries (reduced proptest cases)"
IG_PROPTEST_CASES=8 timeout 300 cargo test -q -p ig-server --test usage_differential
IG_PROPTEST_CASES=8 timeout 300 cargo test -q -p ig-gol --test sched_property
IG_PROPTEST_CASES=8 timeout 300 cargo test -q -p ig-myproxy --test cred_cache

# Admin-plane smoke: a real server process with its unix admin socket,
# driven end to end by the ig-admin operator client — handshake, framed
# metrics/sessions/reload round-trips, then a drain that must terminate
# the serve process cleanly. This is the out-of-process complement to
# the admin_socket integration battery (which runs under `cargo test`
# above).
echo "==> admin socket smoke (ig-admin client vs live server over UDS)"
cargo build -q --release --example ig_admin
admin_sock="$(mktemp -u /tmp/ig-admin-ci-XXXXXX.sock)"
./target/release/examples/ig_admin serve "${admin_sock}" &
serve_pid=$!
for _ in $(seq 1 100); do
  [[ -S "${admin_sock}" ]] && break
  sleep 0.05
done
[[ -S "${admin_sock}" ]] || { echo "admin socket never appeared" >&2; exit 1; }
metrics_out="$(./target/release/examples/ig_admin metrics "${admin_sock}")"
grep -q '"server.sessions_active"' <<<"${metrics_out}" || {
  echo "admin metrics reply missing the registry snapshot: ${metrics_out}" >&2
  exit 1
}
sessions_out="$(./target/release/examples/ig_admin sessions "${admin_sock}")"
grep -q '"active":0' <<<"${sessions_out}" || {
  echo "admin sessions reply wrong on an idle server: ${sessions_out}" >&2
  exit 1
}
reload_out="$(./target/release/examples/ig_admin reload block_size=65536 "${admin_sock}")"
grep -q '"block_size":65536' <<<"${reload_out}" || {
  echo "admin reload did not echo the new tunable: ${reload_out}" >&2
  exit 1
}
if ./target/release/examples/ig_admin reload stripes=2 "${admin_sock}" >/dev/null; then
  echo "admin reload accepted a non-reloadable field" >&2
  exit 1
fi
./target/release/examples/ig_admin drain --deadline-ms 2000 "${admin_sock}" >/dev/null
for _ in $(seq 1 200); do
  kill -0 "${serve_pid}" 2>/dev/null || break
  sleep 0.05
done
if kill -0 "${serve_pid}" 2>/dev/null; then
  echo "serve process still alive after drain" >&2
  kill "${serve_pid}"
  exit 1
fi
wait "${serve_pid}" || { echo "serve process exited non-zero after drain" >&2; exit 1; }
echo "    metrics/sessions/reload round-tripped; drain retired the server"

# E16 drain-under-load smoke: the reduced run drives the admin-socket
# drain RTT sweep (p99 budget-gated in-test too) plus the forced
# checkpoint-and-resume round; the gate re-checks the rendered table for
# a clean busy drain and a verified zero-loss resume.
echo "==> E16 drain-under-load smoke (reduced, wall-clock guarded)"
e16_out="$(timeout 600 cargo run -q --release -p ig-bench --bin report -- --exp e16 --fast)"
echo "${e16_out}"
grep -q 'clean=true' <<<"${e16_out}" || { echo "E16: busy drain was not clean" >&2; exit 1; }
if grep -q 'CONTENT MISMATCH' <<<"${e16_out}"; then
  echo "E16: acknowledged bytes were lost" >&2
  exit 1
fi
grep -Eq 'forced ckpt.*interrupted=[1-9]' <<<"${e16_out}" || {
  echo "E16: forced round did not interrupt the in-flight transfer" >&2
  exit 1
}

echo "CI gate passed."
