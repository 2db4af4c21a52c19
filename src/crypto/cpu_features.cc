#include "crypto/cpu_features.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace csxa::crypto {

namespace {

#if defined(__x86_64__) || defined(__i386__)
/// XCR0, the state components the OS saves and restores. Only read when
/// CPUID.1:ECX.OSXSAVE says XGETBV is available.
uint64_t Xgetbv0() {
  uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return static_cast<uint64_t>(hi) << 32 | lo;
}
#endif

// AES-NI and SHA-NI only touch XMM registers, whose state every x86-64 OS
// saves, so their CPUID bits suffice. AVX-512 needs XCR0 as well.
struct Probe {
  bool aes = false;
  bool sha = false;
  bool avx512f = false;
  Probe() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
    bool osxsave = false;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
      aes = (ecx & (1u << 25)) != 0;      // CPUID.1:ECX.AESNI
      osxsave = (ecx & (1u << 27)) != 0;  // CPUID.1:ECX.OSXSAVE
    }
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
      sha = (ebx & (1u << 29)) != 0;  // CPUID.7.0:EBX.SHA
      // CPUID.7.0:EBX.AVX512F, and XCR0 enables SSE (1), AVX (2), opmask
      // (5), ZMM_Hi256 (6) and Hi16_ZMM (7) state.
      avx512f = (ebx & (1u << 16)) != 0 && osxsave &&
                (Xgetbv0() & 0xE6) == 0xE6;
    }
#endif
  }
};

const Probe& CpuProbe() {
  static const Probe probe;
  return probe;
}

}  // namespace

bool CpuHasAesNi() { return CpuProbe().aes; }
bool CpuHasShaNi() { return CpuProbe().sha; }
bool CpuHasAvx512f() { return CpuProbe().avx512f; }

bool ForcePortableCrypto() {
  static const bool forced = [] {
    const char* env = std::getenv("CSXA_FORCE_PORTABLE");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  }();
  return forced;
}

}  // namespace csxa::crypto
