// ISA conformance for common/simd.h.
//
// AddInto must be bit-identical across scalar and AVX2 — compared with
// memcmp, so signed zeros and every last ULP count — over odd sizes
// straddling the 4-lane boundary and the 16-element unroll and over
// deliberately misaligned spans.

#include "stburst/common/simd.h"

#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace stburst {
namespace simd {
namespace {

// Sizes straddling 0, the 4-lane AVX2 boundary, the 16-element unroll, and
// a couple of large odd strays.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 33, 63, 64, 65, 100, 255, 257};

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas = {Isa::kScalar};
  if (Avx2Supported()) isas.push_back(Isa::kAvx2);
  return isas;
}

// Fills with a mix of magnitudes, signs, and signed zeros so a kernel that
// flips -0.0 to +0.0 or reorders a rounding step cannot slip through.
std::vector<double> RandomValues(std::mt19937_64& rng, size_t n) {
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> kind(0, 9);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    switch (kind(rng)) {
      case 0:
        v[i] = 0.0;
        break;
      case 1:
        v[i] = -0.0;
        break;
      case 2:
        v[i] = unit(rng) * 1e-300;  // denormal-adjacent
        break;
      case 3:
        v[i] = unit(rng) * 1e12;
        break;
      default:
        v[i] = unit(rng);
    }
  }
  return v;
}

// Runs `fn(dst_span, src_span, n)` on every supported ISA, on both aligned
// and one-element-shifted (misaligned) spans, and asserts the resulting dst
// bytes match the scalar run exactly.
template <typename Fn>
void ExpectBitIdenticalAcrossIsas(const Fn& fn, const char* what) {
  std::mt19937_64 rng(0xC0FFEE ^ std::strlen(what));
  const std::vector<Isa> isas = SupportedIsas();
  for (size_t n : kSizes) {
    for (size_t offset : {size_t{0}, size_t{1}}) {
      const std::vector<double> dst_init = RandomValues(rng, n + offset);
      const std::vector<double> src_init = RandomValues(rng, n + offset);
      std::vector<double> reference;
      for (Isa isa : isas) {
        const Isa previous = SetIsaForTest(isa);
        ASSERT_EQ(ActiveIsa(), isa) << what;
        std::vector<double> dst = dst_init;
        std::vector<double> src = src_init;
        fn(dst.data() + offset, src.data() + offset, n);
        SetIsaForTest(previous);
        if (isa == Isa::kScalar) {
          reference = dst;
        } else {
          // dst.data() is null for the n=0, offset=0 case; memcmp's nonnull
          // contract (UBSan-enforced) forbids it even with a zero length.
          ASSERT_EQ(0, dst.empty()
                           ? 0
                           : std::memcmp(reference.data(), dst.data(),
                                         dst.size() * sizeof(double)))
              << what << " diverges from scalar on " << IsaName(isa)
              << " at n=" << n << " offset=" << offset;
        }
      }
    }
  }
}

TEST(SimdIsa, DispatchCoversAllSupportedLevels) {
  const Isa previous = SetIsaForTest(Isa::kScalar);
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  EXPECT_STREQ(IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(IsaName(Isa::kAvx2), "avx2");
  SetIsaForTest(Isa::kAvx2);  // falls back to scalar where unsupported
  EXPECT_EQ(ActiveIsa(), Avx2Supported() ? Isa::kAvx2 : Isa::kScalar);
  SetIsaForTest(previous);
  EXPECT_EQ(ActiveIsa(), previous);
}

TEST(SimdKernels, AddIntoBitIdentical) {
  ExpectBitIdenticalAcrossIsas(
      [](double* dst, const double* src, size_t n) { AddInto(dst, src, n); },
      "AddInto");
}

}  // namespace
}  // namespace simd
}  // namespace stburst
