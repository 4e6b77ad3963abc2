//===- Backend.h - Pluggable kernel execution backends ----------*- C++-*-===//
//
// One dispatch point for every way a compiled kernel program can be
// executed: the scalar interpreter (openCARP's baseline scalar C code),
// the W-lane vector interpreter (limpetMLIR's vector<Wxf64> native code),
// and — through the same interface — the guard-rail recovery path, which
// is just the scalar/libm backend driven cell-by-cell by the Simulator.
//
// Backends are stateless, immutable singletons published through the
// BackendRegistry: a data-driven table populated once at startup from the
// host's probed vector capabilities (support/CpuCaps). Each entry
// advertises its width, preferred alignment and math flavour, so the
// selection layers above (EngineConfig::validate, the width autotuner,
// the capability heuristic) enumerate what this machine can run instead
// of hard-coding the SSE/AVX2/AVX-512 axis. Every vector entry is the
// templated interpreter with a compile-time lane count: widths 2, 4 and 8
// on every host, and 16 where the probe finds AVX-512-class vectors.
// (Length-agnostic code earns its keep on RVV and SVE; no host the probe
// knows is one.)
//
// Backend::step() owns the two concerns that used to be ad-hoc special
// cases inside the engines:
//
//  * the ragged tail: cells left over after the last full W-block run
//    through the scalar backend of the same math flavour (the
//    vectorizer's epilogue loop), selected per chunk here rather than
//    inside the vector interpreter;
//  * chunk-granular telemetry (time, cell-steps, derived LUT/math/byte
//    totals from the program's static per-cell counts).
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_EXEC_BACKEND_H
#define LIMPET_EXEC_BACKEND_H

#include "exec/Engine.h"
#include "support/CpuCaps.h"

#include <string_view>
#include <vector>

namespace limpet {
namespace exec {

/// A kernel execution strategy. Implementations are stateless singletons
/// owned by the BackendRegistry.
class Backend {
public:
  virtual ~Backend() = default;

  /// Stable identifier, e.g. "scalar/libm" or "vec8/vecmath".
  virtual std::string_view name() const = 0;

  /// SIMD lane count of the main loop (1 for the scalar backend).
  virtual unsigned width() const = 0;

  /// Whether transcendental calls use the VecMath kernels (the SVML
  /// analogue) instead of libm.
  virtual bool fastMath() const = 0;

  /// State alignment (bytes) this backend's main loop prefers: one full
  /// vector of f64 lanes.
  unsigned alignmentBytes() const { return width() * sizeof(double); }

  /// Capability flags.
  bool vectorized() const { return width() > 1; }
  bool supportsLayout(codegen::StateLayout L) const {
    // AoSoA blocks only make sense with a vector main loop.
    return L != codegen::StateLayout::AoSoA || vectorized();
  }

  /// Runs \p P over [Args.Start, Args.End): full W-blocks through this
  /// backend's main loop, any ragged tail through the scalar backend of
  /// the same math flavour. Records one telemetry chunk for the whole
  /// range under this backend's width.
  void step(const BcProgram &P, KernelArgs &Args) const;

protected:
  /// The raw interpreter loop over [Args.Start, Args.End). The vector
  /// backends require the range to be a whole number of W-blocks; step()
  /// guarantees that.
  virtual void runRange(const BcProgram &P, const KernelArgs &Args) const = 0;

private:
  void dispatch(const BcProgram &P, const KernelArgs &Args) const;
};

/// One registered execution point: the backend singleton plus the
/// capabilities it advertises (duplicated here so selection code can
/// enumerate without virtual calls).
struct BackendInfo {
  const Backend *Impl = nullptr;
  unsigned Width = 1;
  bool FastMath = false;
  unsigned AlignBytes = 8;
};

/// The data-driven table of every execution point this process can
/// dispatch to. Populated once from the host capability probe; the
/// global() instance is what tryResolveBackend, EngineConfig::validate
/// and the autotuner consult.
class BackendRegistry {
public:
  /// The process-wide registry, built from hostCpuCaps() on first use.
  static const BackendRegistry &global();

  /// Builds the registry a machine with \p Caps would have. Used by tests
  /// and by staleness checks against tuning records from other machines.
  static BackendRegistry forCaps(const support::CpuCaps &Caps);

  /// The backend for (Width, FastMath); null when no entry covers the
  /// width.
  const Backend *find(unsigned Width, bool FastMath) const;

  bool supportsWidth(unsigned W) const;

  /// Sorted unique widths with at least one entry (always starts at 1).
  const std::vector<unsigned> &widths() const { return Widths; }

  /// Every registered point.
  const std::vector<BackendInfo> &entries() const { return Entries; }

  /// A stable hash of the ISA name and every (width, fastMath) entry. Tuning records are keyed by this: a record tuned
  /// on a machine with different capabilities is stale by construction.
  uint64_t fingerprint() const { return Fingerprint; }

  /// The probed ISA this registry was built for ("avx512", "neon", ...).
  const std::string &isa() const { return Isa; }

  /// f64 lanes of the widest native vector unit (heuristic input).
  unsigned maxLanes() const { return MaxLanes; }

private:
  std::vector<BackendInfo> Entries;
  std::vector<unsigned> Widths;
  std::string Isa;
  unsigned MaxLanes = 1;
  uint64_t Fingerprint = 0;
};

/// The shared backend instance for a supported (Width, FastMath) pair, or
/// nullptr for widths the registry does not cover. The asserting
/// resolveBackend() variant is gone: every caller checks, and
/// EngineConfig::validate turns an unsupported width into a recoverable
/// Status before any model is compiled.
const Backend *tryResolveBackend(unsigned Width, bool FastMath);

} // namespace exec
} // namespace limpet

#endif // LIMPET_EXEC_BACKEND_H
