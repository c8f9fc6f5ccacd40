#include "stburst/common/simd.h"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define STBURST_SIMD_X86 1
#include <immintrin.h>
#else
#define STBURST_SIMD_X86 0
#endif

namespace stburst {
namespace simd {

namespace {

// The portable reference the AVX2 body must match bit-for-bit.
void AddIntoScalar(double* dst, const double* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

#if STBURST_SIMD_X86

// Compiled with a function-level target attribute so the translation unit
// (and the rest of the library) keeps the portable baseline; this body is
// only reached after the runtime CPU check.
__attribute__((target("avx2"))) void AddIntoAvx2(double* dst,
                                                 const double* src, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
    _mm256_storeu_pd(dst + i + 4, _mm256_add_pd(_mm256_loadu_pd(dst + i + 4),
                                                _mm256_loadu_pd(src + i + 4)));
    _mm256_storeu_pd(dst + i + 8, _mm256_add_pd(_mm256_loadu_pd(dst + i + 8),
                                                _mm256_loadu_pd(src + i + 8)));
    _mm256_storeu_pd(dst + i + 12,
                     _mm256_add_pd(_mm256_loadu_pd(dst + i + 12),
                                   _mm256_loadu_pd(src + i + 12)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

#endif  // STBURST_SIMD_X86

// The active level, resolved once (thread-safe via static-local init).
// SetIsaForTest mutates it from a quiesced state, so a plain variable is
// enough — no atomics on the kernel call path.
Isa& ActiveLevel() {
  static Isa isa = [] {
    const char* no_avx2 = std::getenv("STBURST_NO_AVX2");
    if (no_avx2 != nullptr && std::strcmp(no_avx2, "1") == 0) {
      return Isa::kScalar;
    }
    return Avx2Supported() ? Isa::kAvx2 : Isa::kScalar;
  }();
  return isa;
}

}  // namespace

bool Avx2Supported() {
#if STBURST_SIMD_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Isa ActiveIsa() { return ActiveLevel(); }

const char* IsaName(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

Isa SetIsaForTest(Isa isa) {
  const Isa previous = ActiveLevel();
  ActiveLevel() =
      isa == Isa::kAvx2 && Avx2Supported() ? Isa::kAvx2 : Isa::kScalar;
  return previous;
}

void AddInto(double* dst, const double* src, size_t n) {
#if STBURST_SIMD_X86
  if (ActiveLevel() == Isa::kAvx2) return AddIntoAvx2(dst, src, n);
#endif
  AddIntoScalar(dst, src, n);
}

}  // namespace simd
}  // namespace stburst
