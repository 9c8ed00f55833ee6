#pragma once

#include <cstddef>

#include "support/stats.hpp"

namespace adsd {

/// Parameters of the dynamic stop criterion (paper Sec. 3.3.1): sample the
/// system energy every `sample_interval` iterations and stop once the
/// variance over the last `window` samples drops below `epsilon` (> 0).
///
/// The paper uses f = s = 20 for n = 9 and f = s = 10 for n = 16 with
/// epsilon = 1e-8.
struct DynamicStopParams {
  bool enabled = false;
  std::size_t sample_interval = 10;  // f
  std::size_t window = 10;           // s
  double epsilon = 1e-8;
};

/// Stateful evaluator of the criterion; feed it one energy per sample.
class DynamicStopMonitor {
 public:
  explicit DynamicStopMonitor(const DynamicStopParams& params);

  /// Records a sampled energy; returns true when the search should stop.
  bool observe(double energy);

  /// Variance over the current window (diagnostics).
  double current_variance() const { return window_.variance(); }

  void reset() { window_.reset(); }

 private:
  DynamicStopParams params_;
  WindowedVariance window_;
};

}  // namespace adsd
