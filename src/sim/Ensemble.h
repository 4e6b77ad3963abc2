//===- Ensemble.h - Fault-isolated batched parameter sweeps -----*- C++-*-===//
//
// One compiled kernel, N parameter points: an EnsembleSpec describes a
// population of sweep members (per-member parameter overrides from a
// grid expression or a JSON member list), the builder lowers every swept
// parameter to a per-cell external and compiles the model ONCE, and the
// EnsembleRunner packs all members into a single StateBuffer so the
// whole sweep steps through the existing Scheduler at full vector speed.
//
// The payoff over N independent Simulators is twofold:
//   - amortization: one compile (plus one recovery-model compile at
//     most), one LUT build, one shard plan, contiguous vector stepping
//     across member boundaries (bench/EnsembleBench.cpp measures it);
//   - fault isolation: each member is one member of the Simulator's
//     recovery ladder, so a pathological parameter point that blows up
//     its integration walks dt-retry, then scalar-exact, then quarantine,
//     while every healthy member keeps a trajectory bit-identical to an
//     undisturbed run. The run finishes with partial results — "997/1000
//     ok, 3 quarantined" — instead of dying on the worst member
//     (docs/ENSEMBLE.md).
//
// Checkpoints carry the member shape and the spec hash in their member
// section, so a SIGKILL'd sweep resumes bit-identically, already
// quarantined members included, and never under another sweep.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_SIM_ENSEMBLE_H
#define LIMPET_SIM_ENSEMBLE_H

#include "easyml/ModelInfo.h"
#include "sim/Simulator.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace limpet {
namespace sim {

/// One parameter override of one member.
struct ParamOverride {
  std::string Name;
  double Value = 0;
};

/// One sweep member: the parameter point it runs at.
struct MemberSpec {
  std::vector<ParamOverride> Overrides;
};

/// A parameter sweep: member list plus the number of cells each member
/// simulates. Model-independent — names are validated against a model by
/// buildEnsembleModel (and by the daemon at admission via fromSweep).
struct EnsembleSpec {
  int64_t CellsPerMember = 1;
  std::vector<MemberSpec> Members;

  int64_t numMembers() const { return int64_t(Members.size()); }
  int64_t numCells() const { return numMembers() * CellsPerMember; }

  /// Sorted union of every overridden parameter name (the set that gets
  /// lowered to per-cell externals).
  std::vector<std::string> sweptParams() const;

  /// Canonical text rendering (member order preserved, overrides sorted
  /// by name, values printed round-trippably); hash() digests it so a
  /// checkpoint can refuse to continue under a different sweep.
  std::string str() const;
  uint64_t hash() const;

  /// Parses a grid expression and expands its cross product:
  ///   "gK=0.1:0.5:5"            5 values linearly spaced over [0.1,0.5]
  ///   "gK=0.1:0.5:5;gNa=7,11"   5 x 2 = 10 members
  /// Each clause is name=lo:hi:n (n >= 1; n == 1 pins lo) or an explicit
  /// name=v1,v2,... list. Malformed grammar and non-finite values are
  /// recoverable errors.
  static Expected<EnsembleSpec> fromSweep(std::string_view Sweep,
                                          int64_t CellsPerMember = 1);

  /// Parses a JSON member list: either an array of {"name": value}
  /// objects, or {"cells_per_member": n, "members": [...]} (the wrapper
  /// form overrides \p CellsPerMember).
  static Expected<EnsembleSpec> fromJson(std::string_view Json,
                                         int64_t CellsPerMember = 1);
};

/// Per-member outcome of an ensemble run, streamed as one NDJSON line
/// per member by limpetc --member-stats and the daemon's job runner.
struct MemberReport : MemberRecord {
  int64_t Member = 0;
  double Checksum = 0; ///< order-independent slice digest

  /// One compact NDJSON line ({"member":..,"status":..,...}).
  std::string json() const;
};

/// Returns \p Info with every name in \p Swept moved from the parameter
/// list to a read-only per-cell external (appended at the end, so the
/// indices of the model's own externals — Vm, Iion — are unchanged).
/// Codegen then emits a per-cell load for each reference, which is what
/// lets one compiled kernel run every member's parameter point. LUT
/// stages whose expressions depend on a swept parameter are implicitly
/// disabled by the same move (LUT eligibility requires parameters).
Expected<easyml::ModelInfo>
lowerSweptParams(const easyml::ModelInfo &Info,
                 const std::vector<std::string> &Swept);

/// A model compiled once for a whole sweep: the lowered kernel plus the
/// spec and the external-index mapping of each swept parameter. Owns the
/// CompiledModel; must outlive any EnsembleRunner built on it.
struct EnsembleModel {
  std::unique_ptr<exec::CompiledModel> Model;
  EnsembleSpec Spec;
  /// Swept parameter names (sorted; lowering append order).
  std::vector<std::string> Swept;
  /// External index of each swept parameter in the compiled model.
  std::vector<int> SweptExt;
  /// Default value of each swept parameter (members without an override
  /// for a name run at its default).
  std::vector<double> SweptDefault;

  const exec::CompiledModel &model() const { return *Model; }
};

/// Validates \p Spec against \p Info (unknown parameter names and
/// non-finite override values are recoverable errors), lowers the swept
/// parameters, and compiles once under \p Cfg. \p Cfg must be concrete
/// (auto width already resolved by the caller, e.g. through
/// compiler::selectAutoConfig).
Expected<EnsembleModel> buildEnsembleModel(const easyml::ModelInfo &Info,
                                           EnsembleSpec Spec,
                                           const exec::EngineConfig &Cfg);

/// Steps a whole parameter sweep as one population. Member M owns the
/// contiguous cell slice [M*CellsPerMember, (M+1)*CellsPerMember); the
/// inherited guarded run loop and recovery ladder treat each slice as
/// one member. Construct with Opts.NumCells ignored (the spec dictates
/// the population size).
class EnsembleRunner : public Simulator {
public:
  EnsembleRunner(const EnsembleModel &EM, const SimOptions &Opts);

  const EnsembleSpec &spec() const { return EM.Spec; }
  uint64_t specHash() const { return SpecHash; }

  /// Order-independent digest of one member's slice (state + externals,
  /// member-local traversal, so the value is invariant to where the
  /// member sits in the packed population).
  double memberChecksum(int64_t M) const;

  /// Per-member outcomes with checksums filled in.
  std::vector<MemberReport> memberReports() const;

  /// All member reports as NDJSON (one line per member), the form the
  /// telemetry sink and limpetc --member-stats emit.
  std::string memberStatsNdjson() const;

private:
  /// Writes each member's parameter point into the lowered externals.
  void applyOverrides();

  const EnsembleModel &EM;
};

} // namespace sim
} // namespace limpet

#endif // LIMPET_SIM_ENSEMBLE_H
