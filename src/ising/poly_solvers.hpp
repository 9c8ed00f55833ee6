#pragma once

#include "ising/bsb.hpp"
#include "ising/poly_model.hpp"
#include "ising/sa.hpp"

namespace adsd {

class RunContext;

/// Simulated bifurcation for higher-order cost functions (Kanao & Goto,
/// APEX 2022, the paper's ref. [19]): identical oscillator dynamics to
/// solve_sb(), with the mean-field force generalized to the polynomial
/// gradient -dE/dx. Shares SbParams and the sampling-hook contract. A
/// non-null `ctx` enables deadline checks.
IsingSolveResult solve_sb_poly(const PolyIsingModel& model,
                               const SbParams& params,
                               const SbSampleHook& hook = nullptr,
                               const RunContext* ctx = nullptr);

/// Metropolis annealing on a higher-order model (flip deltas via the term
/// incidence lists).
IsingSolveResult solve_sa_poly(const PolyIsingModel& model,
                               const SaParams& params,
                               const RunContext* ctx = nullptr);

/// Exact ground state by Gray-code enumeration (N <= 24).
IsingSolveResult solve_exhaustive_poly(const PolyIsingModel& model);

}  // namespace adsd
