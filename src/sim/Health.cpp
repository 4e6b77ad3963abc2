//===- Health.cpp ---------------------------------------------------------===//

#include "sim/Health.h"

#include <cmath>
#include <cstdio>

using namespace limpet;
using namespace limpet::sim;

bool sim::allWithinMagnitude(const double *Data, size_t N, double Limit) {
  // !(|v| <= Limit) is true for NaN, +/-Inf and overflowing magnitudes
  // alike; summing the predicate keeps the loop branch-free so the host
  // compiler vectorizes it.
  size_t Bad = 0;
  for (size_t I = 0; I != N; ++I)
    Bad += !(std::fabs(Data[I]) <= Limit);
  return Bad == 0;
}

bool sim::allWithinRange(const double *Data, size_t N, double Lo, double Hi) {
  size_t Bad = 0;
  for (size_t I = 0; I != N; ++I)
    Bad += !(Data[I] >= Lo && Data[I] <= Hi);
  return Bad == 0;
}

std::string_view sim::memberStatusName(MemberStatus S) {
  switch (S) {
  case MemberStatus::Ok:
    return "ok";
  case MemberStatus::Recovered:
    return "recovered";
  case MemberStatus::ScalarExact:
    return "scalar-exact";
  case MemberStatus::Quarantined:
    return "quarantined";
  }
  return "unknown";
}

std::string_view sim::quarantineReasonName(QuarantineReason R) {
  switch (R) {
  case QuarantineReason::None:
    return "none";
  case QuarantineReason::DtFloor:
    return "dt-floor";
  case QuarantineReason::ScalarFault:
    return "scalar-fault";
  }
  return "unknown";
}

void RunReport::merge(const RunReport &Other) {
  StepsTaken += Other.StepsTaken;
  HealthScans += Other.HealthScans;
  FaultEvents += Other.FaultEvents;
  FaultyCells += Other.FaultyCells;
  Retries += Other.Retries;
  Substeps += Other.Substeps;
  CellsDegraded += Other.CellsDegraded;
  CellsFrozen += Other.CellsFrozen;
  ScanSeconds += Other.ScanSeconds;
  RecoverySeconds += Other.RecoverySeconds;
  RunSeconds += Other.RunSeconds;
}

std::string RunReport::str() const {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "run report: steps=%lld scans=%lld faults=%lld "
                "faulty-cells=%lld retries=%lld substeps=%lld\n"
                "            degraded-cells=%lld frozen-cells=%lld\n",
                (long long)StepsTaken, (long long)HealthScans,
                (long long)FaultEvents, (long long)FaultyCells,
                (long long)Retries, (long long)Substeps,
                (long long)CellsDegraded, (long long)CellsFrozen);
  std::string Out = Buf;
  if (RunSeconds > 0) {
    double GuardSeconds = ScanSeconds + RecoverySeconds;
    std::snprintf(Buf, sizeof(Buf),
                  "            scan=%.3fms recovery=%.3fms "
                  "(%.2f%% of %.3fs run)\n",
                  ScanSeconds * 1e3, RecoverySeconds * 1e3,
                  100.0 * GuardSeconds / RunSeconds, RunSeconds);
    Out += Buf;
  }
  return Out;
}
