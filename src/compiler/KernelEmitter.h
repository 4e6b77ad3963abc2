//===- KernelEmitter.h - Bytecode -> native shared object -------*- C++-*-===//
//
// The compile side of the native kernel tier (NMODL-style source-to-source
// specialization): lowers a compiled model's bytecode to a self-contained
// C++ translation unit specialized for its (layout x width x fastMath)
// point — constant register indices, constant lane counts, inlined state
// addressing and LUT interpolation — shells out to the system compiler,
// and dlopens the result as an exec::NativeKernel.
//
// Results are content-addressed: the native key extends the model's
// compile-cache key with the emitter version and the toolchain identity
// (resolved compiler path + version banner + flag string), so a warm run
// never invokes cc, and upgrading the compiler or the emitter invalidates
// exactly the kernels it must. Shared objects are cached next to the
// artifact cache in LIMPET_CACHE_DIR and shared in-process through a
// loaded-kernel registry.
//
// Fallback ladder (every rung recoverable, none fatal):
//   in-process registry -> disk .so cache -> emit + cc + dlopen -> VM.
//
// Env knobs:
//   LIMPET_NATIVE_CC       override the compiler binary
//   LIMPET_NATIVE_CXXFLAGS override the flag string (defaults to the
//                          flags this binary was built with)
//   LIMPET_NATIVE_KEEP_TU  =1 keeps the temp dir (TU + cc stderr) for
//                          debugging and symbolized sanitizer reports
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_COMPILER_KERNELEMITTER_H
#define LIMPET_COMPILER_KERNELEMITTER_H

#include "exec/CompiledModel.h"
#include "exec/NativeKernel.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace limpet {
namespace compiler {

/// Bump on any change to the emitted source shape or the kernel C ABI:
/// stale cached .so files must miss, not load.
inline constexpr uint32_t kKernelEmitterVersion = 4;

/// The toolchain a native kernel is compiled with; part of its cache key.
struct NativeToolchain {
  /// Compiler binary ($LIMPET_NATIVE_CC, else the compiler this binary
  /// was built with).
  std::string Compiler;
  /// First line of `Compiler --version` — distinguishes upgrades behind a
  /// stable path.
  std::string Identity;
  /// Flag string the TU is compiled with (host build flags minus
  /// sanitizers, plus -fPIC -shared).
  std::string Flags;
};

/// Probes the toolchain (memoized per compiler path for the process).
/// Recoverable error when no compiler is runnable.
Expected<NativeToolchain> nativeToolchain();

/// Content-address of a native kernel: the model's compile-cache key
/// extended with the emitter version and toolchain identity.
uint64_t nativeKernelKey(uint64_t CompileKey, uint32_t EmitterVersion,
                         const NativeToolchain &TC);

/// Renders the specialized translation unit for \p M. Pure; exposed for
/// tests and --emit-native-tu style debugging.
std::string emitKernelSource(const exec::CompiledModel &M,
                             std::string_view ModelName, uint64_t Key);

/// Outcome of a native-tier attach attempt.
struct NativeAttachResult {
  std::shared_ptr<exec::NativeKernel> Kernel;
  uint64_t Key = 0;
  /// Served from the in-process loaded-kernel registry.
  bool MemoryHit = false;
  /// Loaded from the on-disk .so cache (no cc invocation).
  bool DiskHit = false;
  /// Why Kernel is null; always recoverable.
  Status Err = Status::success();

  explicit operator bool() const { return Kernel != nullptr; }
};

/// Returns the loaded native kernel for \p M (whose compile-cache key is
/// \p CompileKey), emitting and compiling it if no tier of the native
/// cache has it. Thread-safe; never throws, never exits — every failure
/// comes back as a recoverable Err.
NativeAttachResult getOrEmitNativeKernel(const exec::CompiledModel &M,
                                         uint64_t CompileKey,
                                         std::string_view ModelName);

/// Drops the in-process loaded-kernel registry (tests only; in-flight
/// shared_ptrs keep their kernels alive).
void clearNativeKernelRegistry();

} // namespace compiler
} // namespace limpet

#endif // LIMPET_COMPILER_KERNELEMITTER_H
