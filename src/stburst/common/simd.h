// Runtime-dispatched SIMD kernel for the rectangle solver's band sweep.
//
// Scope is deliberately narrow: one *element-wise* operation, where the
// vector lanes carry independent columns and no floating-point fold is
// reassociated. The kernel is therefore bit-identical across instruction
// sets — the AVX2 and scalar paths produce the same doubles, so the
// miners' parity guarantees (thread-count invariance, online/batch
// equivalence, shared-binning vs per-call equality) hold regardless of
// which CPU runs them. Horizontal reductions (sums across a row) are NOT
// offered precisely because they would break that contract.
//
// Dispatch policy: the ISA is resolved once per process — AVX2 when the
// binary carries it, the CPU reports it, and STBURST_NO_AVX2=1 is not set;
// scalar otherwise. The AVX2 body is compiled with a function-level target
// attribute, so the rest of the library keeps the portable baseline and the
// binary stays runnable on any x86-64 (and the scalar path builds cleanly
// on non-x86).

#ifndef STBURST_COMMON_SIMD_H_
#define STBURST_COMMON_SIMD_H_

#include <cstddef>

namespace stburst {
namespace simd {

/// Instruction sets the kernel can dispatch to, narrowest first.
enum class Isa { kScalar, kAvx2 };

/// True when this binary carries the AVX2 kernel and the CPU supports it
/// (independent of STBURST_NO_AVX2).
bool Avx2Supported();

/// The ISA the kernel currently dispatches to. Resolved once on first use:
/// AVX2 when supported and STBURST_NO_AVX2 is not "1", else scalar.
Isa ActiveIsa();

/// "avx2" / "scalar" — for logs and bench output.
const char* IsaName(Isa isa);

/// Test/bench hook: force the dispatch to `isa` (kAvx2 requires
/// Avx2Supported(), else scalar is used). Not thread-safe — call while no
/// kernel is running, e.g. before spawning workers. Returns the previously
/// active ISA so callers can restore it.
Isa SetIsaForTest(Isa isa);

/// dst[i] += src[i] for i in [0, n). Element-wise, no reassociation:
/// bit-identical on every ISA. The buffers must not overlap.
void AddInto(double* dst, const double* src, size_t n);

}  // namespace simd
}  // namespace stburst

#endif  // STBURST_COMMON_SIMD_H_
