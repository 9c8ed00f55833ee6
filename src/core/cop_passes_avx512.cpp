// The AVX-512 tier of the COP passes: the one source of
// cop_passes_impl.hpp compiled with -mavx512f -mbmi2.

#include "core/cop_passes_detail.hpp"
#include "core/cop_passes_impl.hpp"

#ifdef __AVX512F__

namespace adsd::detail {

void cop_build_avx512(const CopBuildPlanes& p) { cop_passes_impl::build(p); }
void cop_reset_t_avx512(const HalfStepPlanes& p) {
  cop_passes_impl::reset_t(p);
}
bool cop_reset_v_avx512(const HalfStepPlanes& p) {
  return cop_passes_impl::reset_v(p);
}
double cop_objective_avx512(const ObjectivePlanes& p) {
  return cop_passes_impl::objective(p);
}
double cop_base_total_avx512(const double* base, std::size_t n) {
  return cop_passes_impl::base_total(base, n);
}

}  // namespace adsd::detail

#endif  // __AVX512F__
