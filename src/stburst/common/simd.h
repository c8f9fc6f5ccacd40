// Runtime-dispatched SIMD kernels for the mining hot paths.
//
// Scope is deliberately narrow: only *element-wise* operations, where the
// vector lanes carry independent columns and no floating-point fold is
// reassociated. Every kernel is therefore bit-identical across instruction
// sets — the AVX-512, AVX2, and scalar paths produce the same doubles, so
// the miners' parity guarantees (thread-count invariance, online/batch
// equivalence, shared-binning vs per-call equality) hold regardless of
// which CPU runs them. Horizontal reductions (sums across a row) are NOT
// offered precisely because they would break that contract.
//
// Dispatch policy: the ISA is resolved once per process — the widest of
// {AVX-512, AVX2, scalar} that the binary carries, the CPU reports, and
// the environment does not veto. STBURST_NO_AVX2=1 forces scalar (it caps
// the whole ladder); STBURST_NO_AVX512=1 caps dispatch at AVX2. The vector
// kernels are compiled with function-level target attributes, so the rest
// of the library keeps the portable baseline and the binary stays runnable
// on any x86-64 (and the scalar path builds cleanly on non-x86).

#ifndef STBURST_COMMON_SIMD_H_
#define STBURST_COMMON_SIMD_H_

#include <cstddef>

namespace stburst {
namespace simd {

/// Instruction sets the kernels can dispatch to, narrowest first.
enum class Isa { kScalar, kAvx2, kAvx512 };

/// True when this binary carries AVX2 kernels and the CPU supports them
/// (independent of STBURST_NO_AVX2).
bool Avx2Supported();

/// True when this binary carries AVX-512 kernels and the CPU supports the
/// subsets they use (F + DQ), independent of STBURST_NO_AVX512.
bool Avx512Supported();

/// The ISA the kernels currently dispatch to. Resolved once on first use:
/// the widest supported level not vetoed by STBURST_NO_AVX2 /
/// STBURST_NO_AVX512 (=1 each; NO_AVX2 also implies no AVX-512).
Isa ActiveIsa();

/// "avx512" / "avx2" / "scalar" — for logs and bench output.
const char* IsaName(Isa isa);

/// Test/bench hook: force the dispatch to `isa` (kAvx2 requires
/// Avx2Supported(), kAvx512 requires Avx512Supported()). Not thread-safe —
/// call while no kernel is running, e.g. before spawning workers. Returns
/// the previously active ISA so callers can restore it.
Isa SetIsaForTest(Isa isa);

/// dst[i] += src[i] for i in [0, n). Element-wise, no reassociation:
/// bit-identical on every ISA. The buffers must not overlap.
void AddInto(double* dst, const double* src, size_t n);

/// dst[i] += scale * src[i] for i in [0, n). The multiply and add round
/// separately on every path (this translation unit builds with
/// -ffp-contract=off, so neither the scalar loop nor the vector bodies may
/// contract to FMA): bit-identical on every ISA. Buffers must not overlap.
void AddScaledInto(double* dst, const double* src, double scale, size_t n);

/// dst[i] = max(dst[i], src[i]) for i in [0, n), with exactly the
/// vmaxpd tie/zero convention: (dst > src) ? dst : src, so equal values
/// and +0/-0 pairs take src. Inputs must not be NaN. Element-wise,
/// bit-identical on every ISA. Buffers must not overlap.
void MaxInto(double* dst, const double* src, size_t n);

/// cells[idx[i]] = 0.0 for i in [0, n) — the touched-cell reset behind the
/// epoch-stamped scatter in discrepancy.cc. Duplicate indices are allowed
/// (every store writes the same zero). On AVX-512 this issues masked
/// 64-bit-index scatters; narrower ISAs use the scalar loop. The result is
/// the same cells either way, so the bit-identity contract holds.
void ScatterZero(double* cells, const size_t* idx, size_t n);

}  // namespace simd
}  // namespace stburst

#endif  // STBURST_COMMON_SIMD_H_
