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
//   - fault isolation: a pathological parameter point that blows up its
//     integration walks a *member-local* degradation ladder (dt-retry
//     from the member's slice of the last healthy checkpoint, then an
//     exact-scalar re-run of just that slice, then quarantine) while
//     every healthy member keeps stepping untouched. The run finishes
//     with partial results — "997/1000 ok, 3 quarantined" — instead of
//     dying on the worst member (docs/ENSEMBLE.md).
//
// Checkpoints carry a v3 ensemble section (member count, slice width,
// spec hash, per-member status), so a SIGKILL'd sweep resumes
// bit-identically, already-quarantined members included.
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

/// Where a sweep member stands after (or during) a run.
enum class MemberStatus : uint8_t {
  Ok = 0,      ///< full-speed path, never faulted
  Recovered,   ///< healed by a member-local dt-retry
  ScalarExact, ///< permanently degraded to the exact scalar kernel
  Quarantined, ///< pinned to its last healthy state and excluded
};

/// Why a member was quarantined.
enum class QuarantineReason : uint8_t {
  None = 0,
  DtFloor,     ///< dt-halving ladder exhausted, no scalar fallback left
  ScalarFault, ///< faulted even on the exact scalar re-run
};

std::string_view memberStatusName(MemberStatus S);
std::string_view quarantineReasonName(QuarantineReason R);

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
struct MemberReport {
  int64_t Member = 0;
  MemberStatus Status = MemberStatus::Ok;
  QuarantineReason Reason = QuarantineReason::None;
  int64_t DtRetries = 0;      ///< member-local dt-halving re-runs
  int64_t FaultSteps = 0;     ///< nominal steps re-integrated for it
  int64_t QuarantineStep = -1; ///< step its state is pinned at (-1: none)
  double Checksum = 0;        ///< order-independent slice digest

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
/// inherited guarded run loop detects faults, and the overridden
/// recovery ladder handles them member-locally so healthy members never
/// roll back. Construct with Opts.NumCells ignored (the spec dictates
/// the population size).
class EnsembleRunner : public Simulator {
public:
  EnsembleRunner(const EnsembleModel &EM, const SimOptions &Opts);

  int64_t numMembers() const { return int64_t(Members.size()); }
  int64_t cellsPerMember() const { return CellsPer; }
  const EnsembleSpec &spec() const { return EM.Spec; }
  uint64_t specHash() const { return SpecHash; }

  MemberStatus memberStatus(int64_t M) const;
  int64_t membersQuarantined() const { return QuarantinedCount; }
  int64_t membersOk() const { return numMembers() - QuarantinedCount; }

  /// Order-independent digest of one member's slice (state + externals,
  /// member-local traversal, so the value is invariant to where the
  /// member sits in the packed population).
  double memberChecksum(int64_t M) const;

  /// Per-member outcomes with checksums filled in.
  std::vector<MemberReport> memberReports() const;

  /// All member reports as NDJSON (one line per member), the form the
  /// telemetry sink and limpetc --member-stats emit.
  std::string memberStatsNdjson() const;

  /// Member-partitioned health scan: with no quarantined member this is
  /// the base vectorized scan; once members are quarantined their pinned
  /// slices stop counting against population health.
  bool scanIsHealthy() const override;

protected:
  /// The member-local degradation ladder (replaces the population-wide
  /// rollback): for each faulting member — dt-retry its slice from the
  /// member's view of the last healthy checkpoint, then an exact-scalar
  /// re-run of just that slice, then quarantine. Healthy members keep
  /// the full-speed window they already stepped.
  void recoverWindow(int64_t Window) override;
  void annotateCheckpoint(CheckpointData &C) const override;
  Status validateResume(const CheckpointData &C) const override;
  void applyResume(const CheckpointData &C) override;

private:
  struct Member {
    MemberStatus Status = MemberStatus::Ok;
    QuarantineReason Reason = QuarantineReason::None;
    int64_t DtRetries = 0;
    int64_t FaultSteps = 0;
    int64_t QuarantineStep = -1;
  };

  /// Writes each member's parameter point into the lowered externals.
  void applyOverrides();
  bool memberSliceHealthy(int64_t M) const;
  /// Restores one member's cells from the in-memory checkpoint.
  void restoreMemberSlice(int64_t M);
  /// Re-integrates one member's slice over the failed window with the
  /// compiled kernel at dt/Substeps (block-aligned range; neighbor cells
  /// inside the widened range are saved and restored around the re-run).
  void rerunMemberWindow(int64_t M, int64_t Window, int Substeps);
  /// Re-integrates one member's slice with the exact scalar recovery
  /// kernel at nominal dt.
  void rerunMemberScalar(int64_t M, int64_t Window);
  void quarantineMember(int64_t M, QuarantineReason R);

  const EnsembleModel &EM;
  int64_t CellsPer = 1;
  uint64_t SpecHash = 0;
  std::vector<Member> Members;
  int64_t QuarantinedCount = 0;
  /// Scratch for saving neighbor cells around a block-aligned re-run.
  std::vector<double> NeighborBuf;
  std::vector<int64_t> NeighborCells;
};

} // namespace sim
} // namespace limpet

#endif // LIMPET_SIM_ENSEMBLE_H
