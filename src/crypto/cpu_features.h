#ifndef CSXA_CRYPTO_CPU_FEATURES_H_
#define CSXA_CRYPTO_CPU_FEATURES_H_

namespace csxa::crypto {

/// Runtime CPUID probes for the instruction-set extensions the accelerated
/// cipher/hash paths use. Always false on non-x86 builds.
bool CpuHasAesNi();
bool CpuHasShaNi();

/// AVX-512F usable here: the CPU has it (CPUID.7.0:EBX bit 16) *and* the
/// OS saves the opmask and ZMM state (CPUID.1:ECX.OSXSAVE, then XGETBV(0)
/// bits 1, 2 and 5-7). A CPUID bit alone is not enough: under an OS or VM
/// that leaves ZMM state off, the first 512-bit instruction faults (#UD).
bool CpuHasAvx512f();

/// True when the CSXA_FORCE_PORTABLE environment variable is set (and not
/// "0"): every accelerated path must then behave as if the hardware lacked
/// the extension, so the portable fallbacks stay covered by tests and CI
/// on machines that do have the hardware. Read once per process.
bool ForcePortableCrypto();

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_CPU_FEATURES_H_
