// Extension E4 — synchronous barrier vs asynchronous aggregation.
//
// The paper adopts the synchronized model citing Chen et al. [14]. This
// bench runs both against identical devices/traces with REAL training:
//   sync  — FedAvg rounds priced by the barrier simulator;
//   async — event-driven updates priced by run_async, aggregated
//           with staleness-weighted mixing.
// Reported: wall-clock and energy to reach the same global-loss target,
// plus update counts and staleness — the actual trade behind the paper's
// design choice.
#include <cstdio>

#include "fl/async_fedavg.hpp"
#include "fl/fedavg.hpp"
#include "sim/async_simulator.hpp"
#include "sim/experiment_config.hpp"

namespace {

using namespace fedra;

ModelSpec model_spec() {
  ModelSpec spec;
  spec.sizes = {8, 20, 4};
  return spec;
}

std::vector<FlClient> make_clients(const ModelSpec& spec) {
  Rng rng(31);
  auto data = make_gaussian_mixture(1200, 8, 4, rng, 1.6, 1.0);
  auto shards = split_dirichlet(data, 3, 0.6, rng);
  std::vector<FlClient> clients;
  for (std::size_t i = 0; i < 3; ++i) {
    clients.emplace_back(std::move(shards[i]), spec, 600 + i);
  }
  return clients;
}

}  // namespace

int main() {
  std::printf("Extension E4: synchronous vs asynchronous aggregation "
              "(N=3, target loss 0.32)\n\n");
  const double epsilon = 0.32;
  ExperimentConfig cfg = testbed_config();
  cfg.trace_samples = 2000;
  auto sync_sim = build_simulator(cfg);
  std::vector<double> full_freqs;
  for (std::size_t i = 0; i < sync_sim.num_devices(); ++i) {
    full_freqs.push_back(sync_sim.fleet().max_freq_hz(i));
  }
  const auto spec = model_spec();
  LocalTrainConfig ltc;
  ltc.learning_rate = 0.025;

  // ---- Synchronous: barrier rounds ----
  {
    FedAvgServer server(make_clients(spec), spec, 7);
    ThreadPool pool;
    FlSimulator sim = sync_sim;
    double wall = 0.0, energy = 0.0, loss = 1e9;
    std::size_t rounds = 0;
    while (loss >= epsilon && rounds < 200) {
      auto r = sim.step(full_freqs, {});
      loss = server.run_round(ltc, pool).global_loss;
      wall += r.iteration_time;
      energy += r.total_energy;
      ++rounds;
    }
    std::printf("sync : %3zu rounds  (%zu updates) | wall %7.1f s | "
                "energy %7.1f J | loss %.4f\n",
                rounds, rounds * sim.num_devices(), wall, energy, loss);
  }

  // ---- Asynchronous: event-driven with staleness weighting ----
  for (double decay : {0.0, 0.5, 1.0}) {
    AsyncAggregationConfig acfg;
    acfg.base_mix = 0.35;
    acfg.staleness_decay = decay;
    AsyncFedAvgServer server(make_clients(spec), spec, acfg, 7);
    // Long horizon; walk events until the loss target is met.
    auto run = run_async(sync_sim, full_freqs, 3000.0);
    std::vector<std::vector<Matrix>> pulled(3, server.snapshot());
    double loss = 1e9, wall = 0.0, energy = 0.0, staleness = 0.0;
    std::size_t updates = 0;
    for (const auto& e : run.events) {
      server.apply_update(e.device, pulled[e.device], e.staleness, ltc,
                          updates);
      pulled[e.device] = server.snapshot();
      wall = e.time;
      energy += e.energy;
      staleness += static_cast<double>(e.staleness);
      ++updates;
      {
        loss = server.global_loss();
        if (loss < epsilon) break;
      }
    }
    std::printf("async: decay %.1f %7zu updates | wall %7.1f s | "
                "energy %7.1f J | loss %.4f | mean staleness %.2f\n",
                decay, updates, wall, energy, loss,
                updates > 0 ? staleness / static_cast<double>(updates)
                            : 0.0);
  }
  std::printf("\n(async has no idle time so updates land faster, but each "
              "moves the model less\nand stale ones are discounted — the "
              "efficiency question behind the paper's [14].)\n");
  return 0;
}
