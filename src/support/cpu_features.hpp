#pragma once

#include <string>

namespace adsd {

/// Instruction-set extensions the kernel dispatchers care about,
/// probed once at runtime. On x86 every flag requires both the CPUID
/// feature bit and operating-system state support (XCR0 via XGETBV: the
/// kernel must save the ymm/zmm register file across context switches,
/// otherwise executing the instructions faults even though CPUID
/// advertises them). On non-x86 targets every flag is false and the
/// portable kernel tier is selected.
///
/// The struct is plain data on purpose: dispatch decisions take a
/// CpuFeatures value, so tests can mask features and exercise the whole
/// fallback chain on any host.
struct CpuFeatures {
  bool avx2 = false;     // AVX2 + OS ymm state
  bool fma = false;      // FMA3 + OS ymm state
  bool avx512f = false;  // AVX-512 Foundation + OS zmm state
  bool bmi2 = false;     // BMI2 (probed with AVX; the tiers need both)

  /// Human-readable summary ("avx2 fma avx512f bmi2" / "none") for logs.
  std::string summary() const;
};

/// Probes the executing CPU (CPUID + XGETBV on x86; all-false elsewhere).
CpuFeatures detect_cpu_features();

/// Cached process-wide probe result; what production dispatch uses.
const CpuFeatures& cpu_features();

}  // namespace adsd
