#pragma once

#include "core/cop_passes.hpp"

// The SIMD tier of the COP passes (cop_passes.hpp), defined in a
// translation unit of its own compiled with the tier's -m flags from the
// one source in cop_passes_impl.hpp, and reached only through
// select_cop_passes() after the runtime CPUID probe.

namespace adsd::detail {

void cop_build_avx512(const CopBuildPlanes& p);
void cop_reset_t_avx512(const HalfStepPlanes& p);
bool cop_reset_v_avx512(const HalfStepPlanes& p);
double cop_objective_avx512(const ObjectivePlanes& p);
double cop_base_total_avx512(const double* base, std::size_t n);

}  // namespace adsd::detail
