#include "ising/stop.hpp"

#include <stdexcept>

namespace adsd {

DynamicStopMonitor::DynamicStopMonitor(const DynamicStopParams& params)
    : params_(params), window_(params.window == 0 ? 1 : params.window) {
  // A variance is never below an epsilon <= 0: such a stop never fires.
  if (params.enabled && (params.window < 2 || params.sample_interval == 0 ||
                         !(params.epsilon > 0.0))) {
    throw std::invalid_argument(
        "DynamicStopMonitor: need window >= 2, sample_interval >= 1 and "
        "epsilon > 0");
  }
}

bool DynamicStopMonitor::observe(double energy) {
  if (!params_.enabled) {
    return false;
  }
  window_.add(energy);
  return window_.full() && window_.variance() < params_.epsilon;
}

}  // namespace adsd
