// The benchmark's result: the machine fingerprint, every metric with its
// unit and sample count, the output checks, and the two JSON forms it is
// written in — the full result file (`fedra.bench.e2e.v1`) and the one-line
// summary printed last on standard output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bench_e2e {

/// Where a result came from. Two result sets are comparable only when
/// their fingerprints agree (compare.py warns otherwise).
struct Fingerprint {
  unsigned nproc = 0;             ///< hardware threads seen by the process
  std::size_t pool_workers = 0;   ///< workers of the pool the loads get
  std::size_t threads_used = 0;   ///< pool workers + the calling thread
  std::size_t global_pool = 0;    ///< fedra::global_pool().size()
  std::size_t extra_threads = 0;  ///< program threads beyond the budget
  std::string simd_tier;          ///< fleet::simd_tier()
  std::string compiler;
  std::string build_type;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< samples behind the value (0 = a count)
  std::string detail;       ///< e.g. "p95 of 200" for a tail
};

struct Check {
  std::string name;
  bool ok = true;
};

struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  Fingerprint fingerprint;
  std::vector<Metric> metrics;
  /// Measured values that are not benchmark metrics (no bound): written to
  /// the result file only.
  std::vector<Metric> info;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const;
};

/// Shortest round-trip text of a double (strtod recovers the exact bits);
/// non-finite values become null.
std::string json_number(double v);

std::string fingerprint_json(const Fingerprint& f);

/// The full result file.
std::string result_json(const Result& r);

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics` (name -> {value, unit}).
std::string summary_line(const Result& r);

}  // namespace bench_e2e
