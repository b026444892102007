// Compiled with the same ISA flags as the linalg kernels (see
// CMakeLists.txt), so the macros below describe the kernels' build.
#include "workloads.h"

namespace perfbench {

const char* compiled_isa() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#else
  return "sse2";
#endif
}

}  // namespace perfbench
