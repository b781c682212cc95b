#!/usr/bin/env bash
# One-command verification, the same four legs a PR must pass:
#
#   1. tier-1: default configure with warnings as errors
#      (-DFEDRA_WERROR=ON) + build + full ctest (including the
#      `live_probe` test: it starts the embedded observability exporter
#      in-process, fetches /metrics, /healthz, /statusz and the
#      flight-recorder dump over real TCP, validates every payload and
#      verifies clean double-stop shutdown);
#   2. sanitize: address,undefined build, `sanitize`-labeled suites
#      (`-L sanitize` regex-matches the combined sanitize_ckpt /
#      sanitize_serve / sanitize_tsan labels, so the checkpoint and
#      serving suites — including the serve admission/shutdown
#      threading tests — run under ASan/UBSan here);
#   3. tsan: thread-sanitizer build, `tsan`-labeled suites — the
#      concurrency-heavy tests (work-stealing scheduler, sweep engine,
#      serving stack, fleet pricing pools, async ledger, telemetry,
#      PPO update, live_probe) race-checked under TSan;
#   4. perf: smoke-run the perf harnesses (`-L perf`); each gate lives
#      in one bench's own exit code: bench_serve's batched-vs-sequential
#      speedup floor and bit-exactness flag, bench_fleet's
#      engine-vs-scalar-oracle bitwise pricing contract (50 → 1M
#      devices, pools {1,2,8}), bench_obs's async-ledger and
#      flight-recorder overhead ceilings and bit-exact ledger
#      decomposition, and bench_sweep's serial≡parallel
#      bitwise-aggregate contract plus hardware-graded sweep-speedup
#      floor (the converted bench_multiseed / bench_ablate_tau /
#      bench_ablate_lambda smokes assert the same serial≡parallel
#      contract on their own grids). Nothing is diffed against stored
#      snapshots; the deterministic gates (zero-allocation PPO/FedAvg
#      steps, the ledger's size budget) are unit tests in leg 1.
#
#   scripts/check.sh          # all four legs
#   scripts/check.sh --fast   # tier-1 only
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
if [[ "${1:-}" == "--fast" ]]; then fast=1; fi
jobs="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: build + ctest (build/) =="
cmake -B build -S . -DFEDRA_WERROR=ON
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

if [[ "$fast" == 1 ]]; then
  echo "check.sh: tier-1 leg passed (--fast)"
  exit 0
fi

echo "== sanitize: address,undefined (build-asan/) =="
cmake -B build-asan -S . -DFEDRA_SANITIZE=address,undefined \
      -DFEDRA_BUILD_BENCH=OFF -DFEDRA_BUILD_EXAMPLES=OFF
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan -L sanitize --output-on-failure -j "$jobs"

echo "== tsan: thread (build-tsan/) =="
cmake -B build-tsan -S . -DFEDRA_SANITIZE=thread \
      -DFEDRA_BUILD_BENCH=OFF -DFEDRA_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j "$jobs"
ctest --test-dir build-tsan -L tsan --output-on-failure -j "$jobs"

echo "== perf: smoke-bench gates (build/) =="
ctest --test-dir build -L perf --output-on-failure

echo "check.sh: all legs passed"
