//===- Health.h - Numerical health scanning and run reporting ---*- C++-*-===//
//
// Guard-rail primitives for the simulation drivers: cheap, vectorizable
// bulk checks that detect NaN/Inf/out-of-physiological-range values in the
// state and voltage arrays, the position of a member on the recovery
// ladder, and the structured RunReport the fault-tolerant stepping loop
// produces.
//
// Production cardiac codes treat solver blow-up as an expected runtime
// event rather than a crash; these primitives let the Simulator detect a
// blow-up shortly after it happens, roll back, and re-integrate, degrade
// or quarantine the members it hit (see docs/ROBUSTNESS.md).
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_SIM_HEALTH_H
#define LIMPET_SIM_HEALTH_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace limpet {
namespace sim {

// Numerical bounds a healthy population must satisfy. They are
// deliberately generous: they only reject values no ionic model produces
// when its integration is stable (NaN, Inf, |Vm| beyond a quarter volt,
// state magnitudes beyond 1e12).
inline constexpr double kVmLo = -250.0; ///< mV, lower bound for Vm
inline constexpr double kVmHi = 250.0;  ///< mV, upper bound for Vm
/// Magnitude bound for state variables and non-Vm externals; NaN and Inf
/// always fail it.
inline constexpr double kStateMagLimit = 1e12;

/// True when every value satisfies |v| <= Limit. NaN and +/-Inf fail the
/// comparison, so one branch-free pass catches all three fault classes.
/// The loop autovectorizes (abs + compare + accumulate per lane).
bool allWithinMagnitude(const double *Data, size_t N, double Limit);

/// True when every value lies in [Lo, Hi] (NaN fails).
bool allWithinRange(const double *Data, size_t N, double Lo, double Hi);

/// Where a member (a set of cells whose results no other cell depends
/// on) stands on the recovery ladder.
enum class MemberStatus : uint8_t {
  Ok = 0,      ///< full-speed path, never faulted
  Recovered,   ///< healed by a dt-retry, back on the full-speed path
  ScalarExact, ///< degraded to the exact scalar (no-LUT, libm) kernel
  Quarantined, ///< pinned to its last healthy checkpoint and flagged
};

/// Why a member was quarantined.
enum class QuarantineReason : uint8_t {
  None = 0,
  DtFloor,     ///< dt-halving exhausted, no scalar-exact kernel to fall to
  ScalarFault, ///< faulted even on the scalar-exact re-run
};

std::string_view memberStatusName(MemberStatus S);
std::string_view quarantineReasonName(QuarantineReason R);

/// A member's ladder history; only members that left Ok have one.
struct MemberRecord {
  MemberStatus Status = MemberStatus::Ok;
  QuarantineReason Reason = QuarantineReason::None;
  int64_t DtRetries = 0;       ///< dt-halving re-runs it took part in
  int64_t FaultSteps = 0;      ///< nominal steps re-integrated for it
  int64_t QuarantineStep = -1; ///< step its state is pinned at (-1: none)
};

/// What the fault-tolerant run loop did, surfaced through Simulator,
/// limpetc --run, faultinject and the bench harness.
struct RunReport {
  int64_t StepsTaken = 0;   ///< nominal steps completed
  int64_t HealthScans = 0;  ///< bulk scans performed
  int64_t FaultEvents = 0;  ///< scan windows that detected a fault
  int64_t FaultyCells = 0;  ///< cumulative faulty-cell observations
  int64_t Retries = 0;      ///< dt-halving re-runs of a failed window
  int64_t Substeps = 0;     ///< extra kernel steps taken by dt halving
  int64_t CellsDegraded = 0; ///< cells currently on the scalar-exact path
  int64_t CellsFrozen = 0;   ///< cells of quarantined members
  // Wall time; kept in process only, never written to a checkpoint.
  double ScanSeconds = 0;     ///< wall time spent in health scans
  double RecoverySeconds = 0; ///< wall time spent rolling back/retrying
  double RunSeconds = 0;      ///< wall time of the whole guarded run

  /// True when no fault was ever detected.
  bool clean() const { return FaultEvents == 0; }

  /// Accumulates another report (used by bench repeats).
  void merge(const RunReport &Other);

  /// Multi-line human-readable rendering.
  std::string str() const;
};

} // namespace sim
} // namespace limpet

#endif // LIMPET_SIM_HEALTH_H
