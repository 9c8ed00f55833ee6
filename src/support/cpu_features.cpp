#include "support/cpu_features.hpp"

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace adsd {

namespace {

#if defined(__x86_64__) || defined(__i386__)
// XGETBV via inline asm so the translation unit needs no -mxsave flag; only
// executed after CPUID reports OSXSAVE, where the instruction is defined.
std::uint64_t read_xcr0() {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}
#endif

}  // namespace

CpuFeatures detect_cpu_features() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) {
    return f;
  }
  const bool fma_bit = (ecx & (1u << 12)) != 0;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  if (!osxsave) {
    return f;  // OS saves no extended state: no AVX of any width
  }
  const std::uint64_t xcr0 = read_xcr0();
  const bool ymm_os = (xcr0 & 0x6) == 0x6;           // XMM + YMM state
  const bool zmm_os = ymm_os && (xcr0 & 0xe0) == 0xe0;  // + opmask/ZMM state

  unsigned eax7 = 0;
  unsigned ebx7 = 0;
  unsigned ecx7 = 0;
  unsigned edx7 = 0;
  if (__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7) == 0) {
    return f;
  }
  f.avx2 = ymm_os && (ebx7 & (1u << 5)) != 0;
  f.fma = ymm_os && fma_bit;
  f.avx512f = zmm_os && (ebx7 & (1u << 16)) != 0;
  f.bmi2 = (ebx7 & (1u << 8)) != 0;
#endif
  return f;
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect_cpu_features();
  return f;
}

std::string CpuFeatures::summary() const {
  std::string s;
  auto append = [&s](bool on, const char* name) {
    if (on) {
      s += s.empty() ? name : std::string(" ") + name;
    }
  };
  append(avx2, "avx2");
  append(fma, "fma");
  append(avx512f, "avx512f");
  append(bmi2, "bmi2");
  return s.empty() ? "none" : s;
}

}  // namespace adsd
