#include "core/cop_passes.hpp"

#include "core/cop_passes_detail.hpp"
#include "core/cop_passes_impl.hpp"

namespace adsd {

namespace {

// The portable tier: the one source at the build's baseline ISA (SSE2 on a
// default x86-64 build).
void cop_build_portable(const CopBuildPlanes& p) { cop_passes_impl::build(p); }
void cop_reset_t_portable(const HalfStepPlanes& p) {
  cop_passes_impl::reset_t(p);
}
bool cop_reset_v_portable(const HalfStepPlanes& p) {
  return cop_passes_impl::reset_v(p);
}
double cop_objective_portable(const ObjectivePlanes& p) {
  return cop_passes_impl::objective(p);
}
double cop_base_total_portable(const double* base, std::size_t n) {
  return cop_passes_impl::base_total(base, n);
}

}  // namespace

bool cop_pass_tier_supported(kernels::ForceKernel isa,
                             [[maybe_unused]] const CpuFeatures& features) {
  switch (isa) {
    case kernels::ForceKernel::kScalar:
      return true;
    case kernels::ForceKernel::kAvx512:
#ifdef ADSD_HAVE_AVX512
      return features.avx512f && features.bmi2;
#else
      return false;
#endif
    default:
      return false;  // no AVX2 tier: AVX2 hosts run the portable one
  }
}

CopPasses select_cop_passes([[maybe_unused]] kernels::ForceKernel requested,
                            [[maybe_unused]] const CpuFeatures& features) {
  using kernels::ForceKernel;
#ifdef ADSD_HAVE_AVX512
  if ((requested == ForceKernel::kAuto || requested == ForceKernel::kAvx512) &&
      cop_pass_tier_supported(ForceKernel::kAvx512, features)) {
    return {detail::cop_build_avx512, detail::cop_reset_t_avx512,
            detail::cop_reset_v_avx512, detail::cop_objective_avx512,
            detail::cop_base_total_avx512, ForceKernel::kAvx512};
  }
#endif
  return {cop_build_portable,      cop_reset_t_portable,
          cop_reset_v_portable,    cop_objective_portable,
          cop_base_total_portable, ForceKernel::kScalar};
}

}  // namespace adsd
