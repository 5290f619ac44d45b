// Struct-of-lanes sweep executor, SIMD instantiation. CMake compiles
// this TU — and only this TU — with the vector ISA flags and the
// matching DSMEM_SIMD_TU_* define (-mavx2 + DSMEM_SIMD_TU_AVX2 on
// x86-64 toolchains that support it; DSMEM_SIMD_TU_NEON on AArch64,
// where NEON is baseline), so util::simd::U64Batch resolves to the
// vector batch type here and to the scalar batch everywhere else.
//
// Callers must gate entry on detail::solSimdRuntimeOk(): with
// per-file ISA flags the compiler may use vector instructions
// anywhere in this TU. That also means the linker could in principle
// pick this TU's copy of a shared inline function (comdat folding)
// for other callers; the build keeps binaries host-local (built and
// run on the same machine), and this TU is listed last in the target
// sources so plain-flag copies win the fold in practice.

#include "core/sol_sweep.h"
#include "core/sol_sweep_impl.h"

namespace dsmem::core::detail {

std::vector<DynamicResult>
runSolSweepSimd(const TraceSource &src,
                const std::vector<DynamicConfig> &configs,
                SimContext &ctx)
{
    return runSolSweepImpl<util::simd::U64Batch>(src, configs, ctx);
}

} // namespace dsmem::core::detail
