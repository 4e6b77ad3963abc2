//===- Ensemble.cpp -------------------------------------------------------===//

#include "sim/Ensemble.h"

#include "compiler/Artifact.h"
#include "daemon/Json.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace limpet;
using namespace limpet::sim;
using namespace limpet::exec;

namespace {
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Round-trippable double rendering (the canonical spec text is hashed,
/// so it must be byte-stable for a given value).
std::string fmtDouble(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}
} // namespace

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

//===----------------------------------------------------------------------===//
// EnsembleSpec
//===----------------------------------------------------------------------===//

std::vector<std::string> EnsembleSpec::sweptParams() const {
  std::vector<std::string> Names;
  for (const MemberSpec &M : Members)
    for (const ParamOverride &O : M.Overrides)
      Names.push_back(O.Name);
  std::sort(Names.begin(), Names.end());
  Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
  return Names;
}

std::string EnsembleSpec::str() const {
  std::string Out = "cells_per=" + std::to_string(CellsPerMember) + "\n";
  for (const MemberSpec &M : Members) {
    std::vector<ParamOverride> Sorted = M.Overrides;
    std::sort(Sorted.begin(), Sorted.end(),
              [](const ParamOverride &A, const ParamOverride &B) {
                return A.Name < B.Name;
              });
    bool First = true;
    for (const ParamOverride &O : Sorted) {
      if (!First)
        Out += ";";
      First = false;
      Out += O.Name + "=" + fmtDouble(O.Value);
    }
    Out += "\n";
  }
  return Out;
}

uint64_t EnsembleSpec::hash() const { return compiler::fnv1a64(str()); }

Expected<EnsembleSpec> EnsembleSpec::fromSweep(std::string_view Sweep,
                                               int64_t CellsPerMember) {
  if (CellsPerMember < 1)
    return Status::error("ensemble: cells-per-member must be >= 1");
  // Parse each ';'-separated clause into (name, values).
  struct Axis {
    std::string Name;
    std::vector<double> Values;
  };
  std::vector<Axis> Axes;
  size_t Pos = 0;
  while (Pos <= Sweep.size()) {
    size_t Semi = Sweep.find(';', Pos);
    std::string_view Clause = Sweep.substr(
        Pos, Semi == std::string_view::npos ? std::string_view::npos
                                            : Semi - Pos);
    Pos = Semi == std::string_view::npos ? Sweep.size() + 1 : Semi + 1;
    if (Clause.empty())
      continue;
    size_t Eq = Clause.find('=');
    if (Eq == std::string_view::npos || Eq == 0)
      return Status::error("ensemble sweep: clause '" + std::string(Clause) +
                           "' is not name=lo:hi:n or name=v1,v2,...");
    Axis A;
    A.Name = std::string(Clause.substr(0, Eq));
    std::string_view Vals = Clause.substr(Eq + 1);
    auto ParseNum = [](std::string_view S, double &Out) {
      if (S.empty())
        return false;
      char *EndP = nullptr;
      std::string Tmp(S);
      Out = std::strtod(Tmp.c_str(), &EndP);
      return EndP == Tmp.c_str() + Tmp.size() && std::isfinite(Out);
    };
    if (Vals.find(':') != std::string_view::npos) {
      // lo:hi:n linear grid.
      size_t C1 = Vals.find(':');
      size_t C2 = Vals.find(':', C1 + 1);
      double Lo = 0, Hi = 0, NRaw = 0;
      if (C2 == std::string_view::npos ||
          !ParseNum(Vals.substr(0, C1), Lo) ||
          !ParseNum(Vals.substr(C1 + 1, C2 - C1 - 1), Hi) ||
          !ParseNum(Vals.substr(C2 + 1), NRaw) || NRaw < 1 ||
          NRaw != std::floor(NRaw) || NRaw > 1e7)
        return Status::error("ensemble sweep: '" + std::string(Clause) +
                             "' is not name=lo:hi:n with integer n >= 1");
      int64_t N = int64_t(NRaw);
      for (int64_t I = 0; I != N; ++I)
        A.Values.push_back(
            N == 1 ? Lo : Lo + (Hi - Lo) * double(I) / double(N - 1));
    } else {
      size_t VPos = 0;
      while (VPos <= Vals.size()) {
        size_t Comma = Vals.find(',', VPos);
        std::string_view Tok = Vals.substr(
            VPos, Comma == std::string_view::npos ? std::string_view::npos
                                                  : Comma - VPos);
        VPos = Comma == std::string_view::npos ? Vals.size() + 1 : Comma + 1;
        double V = 0;
        if (!ParseNum(Tok, V))
          return Status::error("ensemble sweep: '" + std::string(Tok) +
                               "' in clause '" + std::string(Clause) +
                               "' is not a finite number");
        A.Values.push_back(V);
      }
    }
    if (A.Values.empty())
      return Status::error("ensemble sweep: clause '" + std::string(Clause) +
                           "' has no values");
    for (const Axis &Prev : Axes)
      if (Prev.Name == A.Name)
        return Status::error("ensemble sweep: parameter '" + A.Name +
                             "' appears in two clauses");
    Axes.push_back(std::move(A));
  }
  if (Axes.empty())
    return Status::error("ensemble sweep: empty sweep expression");

  // Cross product, first axis slowest (row-major over the grid).
  int64_t Total = 1;
  for (const Axis &A : Axes) {
    Total *= int64_t(A.Values.size());
    if (Total > 1000000)
      return Status::error(
          "ensemble sweep: cross product exceeds 1,000,000 members");
  }
  EnsembleSpec Spec;
  Spec.CellsPerMember = CellsPerMember;
  Spec.Members.resize(size_t(Total));
  int64_t Repeat = Total;
  for (const Axis &A : Axes) {
    int64_t N = int64_t(A.Values.size());
    Repeat /= N;
    for (int64_t M = 0; M != Total; ++M)
      Spec.Members[size_t(M)].Overrides.push_back(
          {A.Name, A.Values[size_t((M / Repeat) % N)]});
  }
  return Spec;
}

Expected<EnsembleSpec> EnsembleSpec::fromJson(std::string_view Json,
                                              int64_t CellsPerMember) {
  auto Doc = daemon::JsonValue::parse(Json);
  if (!Doc)
    return Status::error("ensemble spec: " + Doc.status().message());
  const daemon::JsonValue *List = &*Doc;
  if (Doc->isObject()) {
    CellsPerMember = Doc->intOr("cells_per_member", CellsPerMember);
    List = Doc->find("members");
    if (!List)
      return Status::error(
          "ensemble spec: object form needs a 'members' array");
  }
  if (!List->isArray())
    return Status::error("ensemble spec: member list must be a JSON array");
  if (CellsPerMember < 1)
    return Status::error("ensemble: cells-per-member must be >= 1");
  EnsembleSpec Spec;
  Spec.CellsPerMember = CellsPerMember;
  for (const daemon::JsonValue &M : List->items()) {
    if (!M.isObject())
      return Status::error(
          "ensemble spec: each member must be a {\"name\": value} object");
    MemberSpec MS;
    for (const auto &[Name, V] : M.members()) {
      if (!V.isNumber() || !std::isfinite(V.asNumber()))
        return Status::error("ensemble spec: override '" + Name +
                             "' must be a finite number");
      MS.Overrides.push_back({Name, V.asNumber()});
    }
    Spec.Members.push_back(std::move(MS));
  }
  if (Spec.Members.empty())
    return Status::error("ensemble spec: member list is empty");
  return Spec;
}

//===----------------------------------------------------------------------===//
// MemberReport
//===----------------------------------------------------------------------===//

std::string MemberReport::json() const {
  daemon::JsonValue J = daemon::JsonValue::object();
  J.set("member", daemon::JsonValue::number(Member));
  J.set("status", daemon::JsonValue::string(memberStatusName(Status)));
  if (Status == MemberStatus::Quarantined) {
    J.set("reason", daemon::JsonValue::string(quarantineReasonName(Reason)));
    J.set("quarantine_step", daemon::JsonValue::number(QuarantineStep));
  }
  J.set("dt_retries", daemon::JsonValue::number(DtRetries));
  J.set("fault_steps", daemon::JsonValue::number(FaultSteps));
  J.set("checksum", daemon::JsonValue::string(fmtDouble(Checksum)));
  return J.str();
}

//===----------------------------------------------------------------------===//
// Lowering + one-shot compile
//===----------------------------------------------------------------------===//

Expected<easyml::ModelInfo>
sim::lowerSweptParams(const easyml::ModelInfo &Info,
                      const std::vector<std::string> &Swept) {
  easyml::ModelInfo Out = Info;
  for (const std::string &Name : Swept) {
    int Idx = Out.paramIndex(Name);
    if (Idx < 0)
      return Status::error("ensemble: unknown parameter '" + Name +
                           "' for model '" + Info.Name + "'");
    if (Out.externalIndex(Name) >= 0)
      return Status::error("ensemble: parameter '" + Name +
                           "' shadows an external of model '" + Info.Name +
                           "'");
    // Appended at the end so the model's own external indices (Vm,
    // Iion) are unchanged; codegen resolves names external-before-
    // parameter, so every reference becomes a per-cell load.
    easyml::ExternalInfo E;
    E.Name = Name;
    E.Init = Out.Params[size_t(Idx)].DefaultValue;
    E.IsRead = true;
    E.IsComputed = false;
    Out.Externals.push_back(std::move(E));
    Out.Params.erase(Out.Params.begin() + Idx);
  }
  return Out;
}

Expected<EnsembleModel>
sim::buildEnsembleModel(const easyml::ModelInfo &Info, EnsembleSpec Spec,
                        const exec::EngineConfig &Cfg) {
  if (Spec.CellsPerMember < 1)
    return Status::error("ensemble: cells-per-member must be >= 1");
  if (Spec.Members.empty())
    return Status::error("ensemble: spec has no members");
  for (size_t M = 0; M != Spec.Members.size(); ++M)
    for (const ParamOverride &O : Spec.Members[M].Overrides) {
      if (Info.paramIndex(O.Name) < 0)
        return Status::error("ensemble: member " + std::to_string(M) +
                             " overrides unknown parameter '" + O.Name +
                             "' of model '" + Info.Name + "'");
      if (!std::isfinite(O.Value))
        return Status::error("ensemble: member " + std::to_string(M) +
                             " has a non-finite value for '" + O.Name + "'");
    }

  EnsembleModel EM;
  EM.Swept = Spec.sweptParams();
  auto Lowered = lowerSweptParams(Info, EM.Swept);
  if (!Lowered)
    return Lowered.status();
  std::string Error;
  auto M = CompiledModel::compile(*Lowered, Cfg, &Error);
  if (!M)
    return Status::error("ensemble: model compile failed: " + Error);
  EM.Model = std::make_unique<CompiledModel>(std::move(*M));
  telemetry::counter("sim.ensemble.compiles").add(1);

  // Map each swept name through the *compiled* model's info (the
  // pipeline preserves external order, but resolve defensively).
  for (const std::string &Name : EM.Swept) {
    int J = EM.Model->info().externalIndex(Name);
    if (J < 0)
      return Status::error("ensemble: internal error: lowered parameter '" +
                           Name + "' lost its external slot");
    EM.SweptExt.push_back(J);
    EM.SweptDefault.push_back(
        EM.Model->info().Externals[size_t(J)].Init);
  }
  EM.Spec = std::move(Spec);
  return EM;
}

//===----------------------------------------------------------------------===//
// EnsembleRunner
//===----------------------------------------------------------------------===//

namespace {
/// The spec dictates the population size; everything else in SimOptions
/// passes through.
SimOptions ensembleOpts(const EnsembleModel &EM, SimOptions Opts) {
  Opts.NumCells = EM.Spec.numCells();
  return Opts;
}
} // namespace

EnsembleRunner::EnsembleRunner(const EnsembleModel &EMIn,
                               const SimOptions &OptsIn)
    : Simulator(EMIn.model(), ensembleOpts(EMIn, OptsIn)), EM(EMIn),
      CellsPer(EMIn.Spec.CellsPerMember), SpecHash(EMIn.Spec.hash()),
      Members(EMIn.Spec.Members.size()) {
  applyOverrides();
  telemetry::counter("sim.ensemble.members").add(uint64_t(Members.size()));
}

void EnsembleRunner::applyOverrides() {
  // Every member starts at the defaults (StateBuffer initialized the
  // lowered externals from their Init values); write each member's
  // parameter point over its slice.
  for (size_t M = 0; M != EM.Spec.Members.size(); ++M) {
    int64_t Begin = int64_t(M) * CellsPer;
    for (const ParamOverride &O : EM.Spec.Members[M].Overrides) {
      auto It = std::find(EM.Swept.begin(), EM.Swept.end(), O.Name);
      size_t SweptIdx = size_t(It - EM.Swept.begin());
      size_t Ext = size_t(EM.SweptExt[SweptIdx]);
      for (int64_t C = Begin; C != Begin + CellsPer; ++C)
        Buf.writeExt(Ext, C, O.Value);
    }
  }
}

MemberStatus EnsembleRunner::memberStatus(int64_t M) const {
  if (M < 0 || M >= numMembers())
    return MemberStatus::Ok;
  return Members[size_t(M)].Status;
}

double EnsembleRunner::memberChecksum(int64_t M) const {
  if (M < 0 || M >= numMembers())
    return 0;
  double Sum = 0;
  unsigned NumSv = Model.program().NumSv;
  int64_t Begin = M * CellsPer, End = Begin + CellsPer;
  for (int64_t C = Begin; C != End; ++C) {
    for (unsigned S = 0; S != NumSv; ++S)
      Sum += Buf.readState(C, S);
    for (size_t J = 0; J != Buf.numExternals(); ++J)
      Sum += Buf.readExt(J, C);
  }
  return Sum;
}

std::vector<MemberReport> EnsembleRunner::memberReports() const {
  std::vector<MemberReport> Out;
  Out.reserve(Members.size());
  for (size_t M = 0; M != Members.size(); ++M) {
    const Member &S = Members[M];
    MemberReport R;
    R.Member = int64_t(M);
    R.Status = S.Status;
    R.Reason = S.Reason;
    R.DtRetries = S.DtRetries;
    R.FaultSteps = S.FaultSteps;
    R.QuarantineStep = S.QuarantineStep;
    R.Checksum = memberChecksum(int64_t(M));
    Out.push_back(R);
  }
  return Out;
}

std::string EnsembleRunner::memberStatsNdjson() const {
  std::string Out;
  for (const MemberReport &R : memberReports()) {
    Out += R.json();
    Out += "\n";
  }
  return Out;
}

bool EnsembleRunner::memberSliceHealthy(int64_t M) const {
  const HealthPolicy &P = Opts.Guard.Policy;
  unsigned NumSv = Model.program().NumSv;
  int64_t Begin = M * CellsPer, End = Begin + CellsPer;
  for (int64_t C = Begin; C != End; ++C) {
    for (unsigned S = 0; S != NumSv; ++S)
      if (!(std::fabs(Buf.readState(C, S)) <= P.StateMagLimit))
        return false;
    for (size_t J = 0; J != Buf.numExternals(); ++J) {
      double V = Buf.readExt(J, C);
      bool Ok = int(J) == VmIdx ? (V >= P.VmLo && V <= P.VmHi)
                                : (std::fabs(V) <= P.StateMagLimit);
      if (!Ok)
        return false;
    }
  }
  return true;
}

bool EnsembleRunner::scanIsHealthy() const {
  // Fast path: no quarantined member yet, one vectorized pass.
  if (QuarantinedCount == 0)
    return Simulator::scanIsHealthy();
  // Member-partitioned scan: quarantined slices are pinned to their last
  // healthy state each step, but they must never fail the population
  // even if a pin lands mid-restore; everyone else is scanned normally.
  for (int64_t M = 0; M != numMembers(); ++M)
    if (Members[size_t(M)].Status != MemberStatus::Quarantined &&
        !memberSliceHealthy(M))
      return false;
  return true;
}

void EnsembleRunner::restoreMemberSlice(int64_t M) {
  unsigned NumSv = Model.program().NumSv;
  int64_t Begin = M * CellsPer, End = Begin + CellsPer;
  for (int64_t C = Begin; C != End; ++C) {
    for (unsigned S = 0; S != NumSv; ++S)
      Buf.writeState(C, S, Buf.snapshotState(Ck.Snap, C, S));
    for (size_t J = 0; J != Buf.numExternals(); ++J)
      Buf.writeExt(J, C, Ck.Snap.Exts[J][size_t(C)]);
  }
}

void EnsembleRunner::rerunMemberWindow(int64_t M, int64_t Window,
                                       int Substeps) {
  int64_t Begin = M * CellsPer, End = Begin + CellsPer;
  // AoSoA vector kernels must start on a block boundary, so widen the
  // range outward to whole blocks and save/restore the neighbor cells
  // caught in it — only this member's trajectory may change.
  int64_t BW = int64_t(std::max(Buf.blockWidth(), 1u));
  int64_t RBegin = Begin - (Begin % BW);
  int64_t REnd = std::min((End + BW - 1) / BW * BW, Opts.NumCells);
  unsigned NumSv = Model.program().NumSv;
  size_t NumExt = Buf.numExternals();
  size_t PerCell = size_t(NumSv) + NumExt;
  NeighborCells.clear();
  for (int64_t C = RBegin; C != REnd; ++C)
    if (C < Begin || C >= End)
      NeighborCells.push_back(C);
  NeighborBuf.resize(NeighborCells.size() * PerCell);
  for (size_t I = 0; I != NeighborCells.size(); ++I)
    Buf.gatherCell(NeighborCells[I], &NeighborBuf[I * PerCell],
                   &NeighborBuf[I * PerCell] + NumSv);

  double MT = Ck.T;
  double SubDt = Opts.Dt / Substeps;
  bool TraceHere = Opts.RecordTrace && VmIdx >= 0 &&
                   Opts.TraceCell >= Begin && Opts.TraceCell < End;
  for (int64_t Step = 0; Step != Window; ++Step) {
    for (int S = 0; S != Substeps; ++S) {
      KernelArgs Args;
      Args.State = Buf.state();
      Args.Exts = Buf.extPointers();
      Args.Params = Params.data();
      Args.Start = RBegin;
      Args.End = REnd;
      Args.NumCells = Opts.NumCells;
      Args.Dt = SubDt;
      Args.T = MT;
      Args.Luts = &SimLuts;
      Model.computeStep(Args);
      if (hasVoltageCoupling()) {
        // Same stimulus formula as voltageStage, at the member-local
        // re-run time.
        double Phase = MT;
        if (Opts.StimPeriod > 0)
          Phase = std::fmod(MT, Opts.StimPeriod);
        double Stim = (Phase >= Opts.StimStart &&
                       Phase < Opts.StimStart + Opts.StimDuration)
                          ? Opts.StimStrength
                          : 0.0;
        double *Vm = Buf.ext(size_t(VmIdx));
        const double *Iion = Buf.ext(size_t(IionIdx));
        for (int64_t C = RBegin; C != REnd; ++C)
          Vm[C] += SubDt * (Stim - Iion[C]);
      }
      MT += SubDt;
    }
    if (Substeps > 1)
      Report.Substeps += Substeps - 1;
    // The failed fast-path window already pushed trace entries for these
    // steps; overwrite them with the healed trajectory when the traced
    // cell lives in this member.
    if (TraceHere && Ck.TraceLen + size_t(Step) < Trace.size())
      Trace[Ck.TraceLen + size_t(Step)] =
          Buf.readExt(size_t(VmIdx), Opts.TraceCell);
  }

  for (size_t I = 0; I != NeighborCells.size(); ++I)
    Buf.scatterCell(NeighborCells[I], &NeighborBuf[I * PerCell],
                    &NeighborBuf[I * PerCell] + NumSv);
}

void EnsembleRunner::rerunMemberScalar(int64_t M, int64_t Window) {
  int64_t Begin = M * CellsPer, End = Begin + CellsPer;
  unsigned NumSv = Model.program().NumSv;
  size_t NumExt = Buf.numExternals();
  std::vector<double> Sv(NumSv), Ext(NumExt);
  double MT = Ck.T;
  bool TraceHere = Opts.RecordTrace && VmIdx >= 0 &&
                   Opts.TraceCell >= Begin && Opts.TraceCell < End;
  for (int64_t Step = 0; Step != Window; ++Step) {
    double Phase = MT;
    if (Opts.StimPeriod > 0)
      Phase = std::fmod(MT, Opts.StimPeriod);
    double Stim = (Phase >= Opts.StimStart &&
                   Phase < Opts.StimStart + Opts.StimDuration)
                      ? Opts.StimStrength
                      : 0.0;
    for (int64_t C = Begin; C != End; ++C) {
      Buf.gatherCell(C, Sv.data(), Ext.data());
      KernelArgs Args;
      Args.Params = Params.data();
      Args.Start = 0;
      Args.End = 1;
      Args.NumCells = 1;
      Args.Dt = Opts.Dt;
      Args.T = MT;
      Args.Exts.resize(NumExt);
      for (size_t J = 0; J != NumExt; ++J)
        Args.Exts[J] = &Ext[J];
      Args.State = Sv.data();
      RecoveryModel->computeStep(Args);
      if (hasVoltageCoupling())
        Ext[size_t(VmIdx)] +=
            Opts.Dt * (Stim - Ext[size_t(IionIdx)]);
      Buf.scatterCell(C, Sv.data(), Ext.data());
    }
    MT += Opts.Dt;
    if (TraceHere && Ck.TraceLen + size_t(Step) < Trace.size())
      Trace[Ck.TraceLen + size_t(Step)] =
          Buf.readExt(size_t(VmIdx), Opts.TraceCell);
  }
}

void EnsembleRunner::quarantineMember(int64_t M, QuarantineReason R) {
  int64_t Begin = M * CellsPer, End = Begin + CellsPer;
  // Pin every cell of the member to its value in the last healthy
  // checkpoint; finishStep keeps re-pinning them each step, so the fast
  // path can keep streaming over the lanes without the member's poison
  // parameters ever counting against population health again.
  for (int64_t C = Begin; C != End; ++C)
    freezeCell(C);
  restoreFrozenCells();
  Member &S = Members[size_t(M)];
  S.Status = MemberStatus::Quarantined;
  S.Reason = R;
  S.QuarantineStep = Ck.StepCount;
  ++QuarantinedCount;
  telemetry::counter("sim.ensemble.quarantined").add(1);
}

void EnsembleRunner::recoverWindow(int64_t Window) {
  telemetry::TraceSpan Span("ensemble-recovery", "sim");
  auto T0 = Clock::now();
  double ScanSecondsAtEntry = Report.ScanSeconds;
  const GuardRailOptions &G = Opts.Guard;
  ++Report.FaultEvents;

  // Map faulty cells onto members, skipping quarantined slices (their
  // pins can transiently read dirty if an injector pokes them).
  std::vector<int64_t> BadMembers;
  int64_t BadCells = 0;
  for (int64_t C : faultyCells()) {
    int64_t M = C / CellsPer;
    if (Members[size_t(M)].Status == MemberStatus::Quarantined)
      continue;
    ++BadCells;
    if (BadMembers.empty() || BadMembers.back() != M)
      BadMembers.push_back(M);
  }
  Report.FaultyCells += BadCells;

  // Corrupted LUT tables poison every re-run identically; skip straight
  // to the scalar-exact rung, as the base ladder does.
  bool TablesBroken = !SimLuts.allFinite();

  // Members are handled serially in ascending order: the ladder for one
  // member touches only its own slice (plus saved-and-restored block
  // neighbors), which is what makes the outcome independent of thread
  // count and of which other members fault.
  for (int64_t M : BadMembers) {
    Member &S = Members[size_t(M)];
    S.FaultSteps += Window;

    // Rung 1: re-integrate just this member's slice from its view of
    // the last healthy checkpoint, halving dt per retry.
    bool Healed = false;
    for (int Retry = 1; !TablesBroken && !Healed && Retry <= G.MaxRetries;
         ++Retry) {
      restoreMemberSlice(M);
      ++Report.Retries;
      ++S.DtRetries;
      rerunMemberWindow(M, Window, 1 << Retry);
      Healed = memberSliceHealthy(M);
    }
    if (Healed) {
      if (S.Status == MemberStatus::Ok)
        S.Status = MemberStatus::Recovered;
      continue;
    }

    // Rung 2: exact-scalar re-run of just this slice at nominal dt; on
    // success the member stays on the scalar path for the rest of the
    // run.
    if (G.AllowScalarFallback && ensureRecoveryModel()) {
      restoreMemberSlice(M);
      rerunMemberScalar(M, Window);
      if (memberSliceHealthy(M)) {
        for (int64_t C = M * CellsPer; C != (M + 1) * CellsPer; ++C)
          degradeToScalar(C);
        S.Status = MemberStatus::ScalarExact;
        continue;
      }
      quarantineMember(M, QuarantineReason::ScalarFault);
      continue;
    }

    // Rung 3: no scalar fallback left — the member hit its dt floor.
    quarantineMember(M, QuarantineReason::DtFloor);
  }

  // Defensive last resort, mirroring the base ladder: anything still
  // unhealthy (e.g. a fault that straddles the member pattern) is frozen
  // in place so the population is clean by construction.
  if (!timedScan()) {
    for (int64_t C : faultyCells())
      if (Members[size_t(C / CellsPer)].Status != MemberStatus::Quarantined)
        freezeCell(C);
    restoreFrozenCells();
  }
  takeCheckpoint();
  double ScanPortion = Report.ScanSeconds - ScanSecondsAtEntry;
  Report.RecoverySeconds += secondsSince(T0) - ScanPortion;
}

//===----------------------------------------------------------------------===//
// Checkpoint integration (v3 ensemble section)
//===----------------------------------------------------------------------===//

void EnsembleRunner::annotateCheckpoint(CheckpointData &C) const {
  C.EnsembleMembers = numMembers();
  C.EnsembleCellsPerMember = CellsPer;
  C.EnsembleSpecHash = SpecHash;
  C.EnsembleStatus.resize(Members.size());
  for (size_t M = 0; M != Members.size(); ++M) {
    const Member &S = Members[M];
    C.EnsembleStatus[M] = {uint8_t(S.Status), uint8_t(S.Reason), S.DtRetries,
                           S.FaultSteps, S.QuarantineStep};
  }
}

Status EnsembleRunner::validateResume(const CheckpointData &C) const {
  if (C.TissueNX > 0)
    return Status::error("cannot resume: checkpoint is a tissue run; "
                         "resume it with a tissue simulator");
  if (C.EnsembleMembers == 0)
    return Status::error("cannot resume: checkpoint is not an ensemble "
                         "run; resume it with a plain simulator");
  if (C.EnsembleMembers != numMembers() ||
      C.EnsembleCellsPerMember != CellsPer)
    return Status::error(
        "cannot resume: ensemble shape mismatch (checkpoint has " +
        std::to_string(C.EnsembleMembers) + " members x " +
        std::to_string(C.EnsembleCellsPerMember) + " cells, this sweep is " +
        std::to_string(numMembers()) + " x " + std::to_string(CellsPer) +
        ")");
  if (C.EnsembleSpecHash != SpecHash)
    return Status::error("cannot resume: checkpoint was captured under a "
                         "different sweep (spec hash mismatch)");
  if (int64_t(C.EnsembleStatus.size()) != numMembers())
    return Status::error("cannot resume: ensemble member-status section "
                         "does not match the member count");
  return Status::success();
}

void EnsembleRunner::applyResume(const CheckpointData &C) {
  QuarantinedCount = 0;
  for (size_t M = 0; M != Members.size(); ++M) {
    const CheckpointData::EnsembleMember &E = C.EnsembleStatus[M];
    Member &S = Members[M];
    S.Status = MemberStatus(E.Status);
    S.Reason = QuarantineReason(E.Reason);
    S.DtRetries = E.DtRetries;
    S.FaultSteps = E.FaultSteps;
    S.QuarantineStep = E.QuarantineStep;
    if (S.Status == MemberStatus::Quarantined)
      ++QuarantinedCount;
  }
}
