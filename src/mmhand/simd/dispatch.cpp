// Runtime ISA selection.  Reads MMHAND_SIMD once (allowlisted getenv,
// like MMHAND_THREADS in common/parallel), probes the CPU, and pins the
// kernel table; tests flip it afterwards with set_isa().

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "mmhand/simd/kernels.hpp"
#include "mmhand/simd/simd.hpp"

namespace mmhand::simd {

namespace {

bool host_supports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return avx2_kernels() != nullptr && __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(__x86_64__) || defined(_M_X64)
      return avx512_kernels() != nullptr &&
             __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::kNeon:
      // aarch64 mandates NEON; presence of the table is the whole check.
      return neon_kernels() != nullptr;
  }
  return false;
}

/// MMHAND_SIMD override, or best-supported when unset, "auto",
/// unrecognized, or naming an ISA this host cannot run.
Isa resolve_initial() {
  const char* s = std::getenv("MMHAND_SIMD");
  if (s != nullptr)
    for (const Isa isa : kAllIsas)
      if (std::strcmp(s, isa_name(isa)) == 0 && host_supports(isa))
        return isa;
  return best_supported_isa();
}

std::atomic<int> g_active{-1};

Isa active_init() {
  static std::once_flag once;
  std::call_once(once, [] {
    int expected = -1;
    g_active.compare_exchange_strong(
        expected, static_cast<int>(resolve_initial()),
        std::memory_order_relaxed);
  });
  return static_cast<Isa>(g_active.load(std::memory_order_relaxed));
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool isa_supported(Isa isa) { return host_supports(isa); }

Isa best_supported_isa() {
  for (const Isa isa : kAllIsas)
    if (host_supports(isa)) return isa;
  return Isa::kScalar;
}

Isa active_isa() {
  const int v = g_active.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Isa>(v);
  return active_init();
}

bool set_isa(Isa isa) {
  if (!host_supports(isa)) return false;
  active_init();  // complete lazy init so it cannot overwrite this store
  g_active.store(static_cast<int>(isa), std::memory_order_relaxed);
  return true;
}

const Kernels* kernels_for(Isa isa) {
  if (!host_supports(isa)) return nullptr;
  switch (isa) {
    case Isa::kScalar:
      return &scalar_kernels();
    case Isa::kAvx2:
      return avx2_kernels();
    case Isa::kNeon:
      return neon_kernels();
    case Isa::kAvx512:
      return avx512_kernels();
  }
  return nullptr;
}

const Kernels& kernels() {
  const Kernels* k = kernels_for(active_isa());
  return k != nullptr ? *k : scalar_kernels();
}

}  // namespace mmhand::simd
