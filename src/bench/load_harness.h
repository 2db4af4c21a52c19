#ifndef CSXA_BENCH_LOAD_HARNESS_H_
#define CSXA_BENCH_LOAD_HARNESS_H_

#include <cstdint>

namespace csxa::bench {

/// Peak resident set of this process in kB (Linux VmHWM); 0 elsewhere.
uint64_t ReadPeakRssKb();

}  // namespace csxa::bench

#endif  // CSXA_BENCH_LOAD_HARNESS_H_
