//===- Ensemble.cpp -------------------------------------------------------===//

#include "sim/Ensemble.h"

#include "compiler/Artifact.h"
#include "daemon/Json.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace limpet;
using namespace limpet::sim;
using namespace limpet::exec;

namespace {
/// Round-trippable double rendering (the canonical spec text is hashed,
/// so it must be byte-stable for a given value).
std::string fmtDouble(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}
} // namespace

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
    : Simulator(EMIn.model(), ensembleOpts(EMIn, OptsIn)), EM(EMIn) {
  CellsPer = EM.Spec.CellsPerMember;
  SpecHash = EM.Spec.hash();
  applyOverrides();
  telemetry::counter("sim.ensemble.members").add(uint64_t(numMembers()));
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
  Out.reserve(size_t(numMembers()));
  for (int64_t M = 0; M != numMembers(); ++M) {
    MemberReport R;
    if (auto It = Members.find(M); It != Members.end())
      static_cast<MemberRecord &>(R) = It->second;
    R.Member = M;
    R.Checksum = memberChecksum(M);
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
