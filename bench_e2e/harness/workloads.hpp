// The three closed-loop workloads of the end-to-end benchmark. Each runs
// fixed-size jobs back to back until its time is up, checks every output,
// and reports either the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). See README.md in this directory for why each
// workload exists and which layers it stresses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "result.hpp"

namespace fedra {
class ThreadPool;
}

namespace bench_e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string scratch_dir;  ///< where temporary files (the ledger) go
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs `opts.workload`; `pool` is the pool its parallel parts get. Fills
/// the result's metrics, info, checks, operation tally (an operation is an
/// env step, an eval round or a fleet round) and
/// fingerprint.extra_threads; main fills the rest.
Result run_workload(const RunOptions& opts, fedra::ThreadPool& pool);

}  // namespace bench_e2e
