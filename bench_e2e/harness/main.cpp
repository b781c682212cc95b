// bench_e2e — fedra's end-to-end benchmark program.
//
//   bench_e2e --workload testbed|scale|fleet --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// Runs one workload for S seconds on inputs generated from N, checks its
// outputs, writes the full result (fingerprint, metrics with sample counts,
// checks) to DIR/<workload>-seed<N>-trace<T>.json, and prints the one-line
// summary as the last line of standard output. --trace 1 runs the traced
// variant, which reports per-layer metrics instead of end-to-end ones.
// Exit code 0 when the run completed (correctness is in the summary), 2 on
// bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "result.hpp"
#include "sim/fleet_pricing.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload testbed|scale|fleet --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bench_e2e;
  RunOptions opts;
  std::string out_dir = ".bench_out";
  std::string trace = "0";
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      opts.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == value.c_str() || *end != '\0') return usage();
    } else if (key == "--trace") {
      trace = value;
    } else if (key == "--out-dir") {
      out_dir = value;
    } else {
      return usage();
    }
  }
  const auto& names = workload_names();
  if (argc % 2 != 1 || !have_seed || opts.seconds < 1 ||
      (trace != "0" && trace != "1") ||
      std::find(names.begin(), names.end(), opts.workload) == names.end()) {
    return usage();
  }
  opts.trace = trace == "1";
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  opts.scratch_dir = out_dir;

  // The thread budget: the calling thread plus nproc - 1 pool workers.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  fedra::ThreadPool pool(std::max(1u, nproc - 1));

  Result result = run_workload(opts, pool);
  result.workload = opts.workload;
  result.seed = opts.seed;
  result.seconds = opts.seconds;
  result.trace = opts.trace;
  for (const Metric& m : result.metrics) {
    if (!(m.value == m.value)) {
      std::fprintf(stderr, "bench_e2e: metric %s is not a number\n",
                   m.name.c_str());
      result.checks.push_back({"metric_defined." + m.name, false});
    }
  }

  Fingerprint& fp = result.fingerprint;
  fp.nproc = nproc;
  fp.pool_workers = pool.size();
  fp.threads_used = pool.size() + 1;
  fp.simd_tier = fedra::fleet::simd_tier();
  fp.compiler = BENCH_E2E_COMPILER;
  fp.build_type = BENCH_E2E_BUILD_TYPE;
  // Asked last: the first call creates the process-wide pool, whose threads
  // must not exist while the workload is measured.
  fp.global_pool = fedra::global_pool().size();

  const std::string path = out_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + "-trace" + trace +
                           ".json";
  std::ofstream(path) << result_json(result);
  std::vector<Metric> shown = result.metrics;
  shown.insert(shown.end(), result.info.begin(), result.info.end());
  for (const Metric& m : shown) {
    std::printf("%-34s %14.6g %-6s n=%zu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.detail.c_str());
  }
  std::printf("fingerprint %s\n", fingerprint_json(fp).c_str());
  std::printf("result file %s\n", path.c_str());
  std::printf("%s\n", summary_line(result).c_str());
  return 0;
}
