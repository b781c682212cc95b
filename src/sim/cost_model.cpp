#include "sim/cost_model.hpp"

namespace fedra {

double iteration_cost(double iteration_time, double total_energy,
                      const CostParams& params) {
  FEDRA_EXPECTS(iteration_time >= 0.0 && total_energy >= 0.0);
  FEDRA_EXPECTS(params.lambda >= 0.0);
  return iteration_time + params.lambda * total_energy;
}

double iteration_reward(double iteration_time, double total_energy,
                        const CostParams& params) {
  return -iteration_cost(iteration_time, total_energy, params);
}

}  // namespace fedra
