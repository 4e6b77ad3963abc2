//===- Protocol.cpp -------------------------------------------------------===//

#include "daemon/Protocol.h"

#include "codegen/KernelSpec.h"
#include "sim/Diffusion.h"

#include <cstdio>

using namespace limpet;
using namespace limpet::daemon;

std::string_view daemon::jobStateName(JobState S) {
  switch (S) {
  case JobState::Queued:
    return "queued";
  case JobState::Running:
    return "running";
  case JobState::Finished:
    return "finished";
  case JobState::Failed:
    return "failed";
  case JobState::Cancelled:
    return "cancelled";
  case JobState::Expired:
    return "expired";
  case JobState::Shed:
    return "shed";
  }
  return "unknown";
}

bool daemon::jobStateTerminal(JobState S) {
  return S != JobState::Queued && S != JobState::Running;
}

//===----------------------------------------------------------------------===//
// JobSpec <-> JSON
//===----------------------------------------------------------------------===//

static Status parseConfig(const JsonValue &Body, exec::EngineConfig &Cfg) {
  const JsonValue *C = Body.find("config");
  if (!C)
    return Status::success(); // baseline default
  if (!C->isObject())
    return Status::error("'config' must be an object");
  // A "preset" picks one of the paper's configurations; individual fields
  // then override it.
  std::string Preset = C->stringOr("preset", "baseline");
  // "width" is a number, or the string "auto" to defer the width/layout
  // choice to the tuning record / autotuner / capability heuristic.
  unsigned W = 0;
  bool WidthAuto = false;
  if (const JsonValue *WV = C->find("width")) {
    if (WV->isString()) {
      if (WV->asString() != "auto")
        return Status::error("'width' must be a number or \"auto\"");
      WidthAuto = true;
    } else {
      W = unsigned(C->intOr("width", 0));
    }
  }
  if (Preset == "baseline")
    Cfg = WidthAuto ? exec::EngineConfig::autoTuned()
                    : exec::EngineConfig::baseline();
  else if (Preset == "limpetmlir")
    Cfg = exec::EngineConfig::limpetMLIR(W ? W : 4);
  else if (Preset == "autovec")
    Cfg = exec::EngineConfig::autoVecLike(W ? W : 4);
  else if (Preset == "recovery")
    Cfg = exec::EngineConfig::recovery();
  else
    return Status::error("unknown config preset '" + Preset + "'");
  if (W)
    Cfg.Width = W;
  else if (WidthAuto)
    Cfg.Width = exec::EngineConfig::kWidthAuto;
  if (const JsonValue *L = C->find("layout")) {
    if (!L->isString())
      return Status::error("'layout' must be a string");
    std::optional<codegen::StateLayout> Layout =
        codegen::stateLayoutFromName(L->asString());
    if (!Layout)
      return Status::error("unknown layout '" + L->asString() + "'");
    Cfg.Layout = *Layout;
  }
  Cfg.FastMath = C->boolOr("fastmath", Cfg.FastMath);
  Cfg.EnableLuts = C->boolOr("luts", Cfg.EnableLuts);
  Cfg.CubicLut = C->boolOr("cubic", Cfg.CubicLut);
  Cfg.PassPipeline = C->stringOr("passes", Cfg.PassPipeline);
  return Status::success();
}

Expected<JobSpec> daemon::parseJobSpec(const JsonValue &Body) {
  if (!Body.isObject())
    return Status::error("job spec must be a JSON object");
  JobSpec Spec;
  Spec.Id = uint64_t(Body.numberOr("id", 0));
  Spec.Tenant = Body.stringOr("tenant", "default");
  if (Spec.Tenant.empty())
    return Status::error("'tenant' must be non-empty");
  Spec.Priority = int(Body.intOr("priority", 0));
  Spec.ProgressEvery = Body.intOr("progress_every", 0);
  Spec.Model = Body.stringOr("model", "");
  Spec.NumCells = Body.intOr("cells", Spec.NumCells);
  Spec.NumSteps = Body.intOr("steps", Spec.NumSteps);
  Spec.Dt = Body.numberOr("dt", Spec.Dt);
  Spec.Guard = Body.boolOr("guard", Spec.Guard);
  Spec.Autotune = Body.boolOr("autotune", Spec.Autotune);
  Spec.TimeoutSec = Body.numberOr("timeout_sec", 0);
  Spec.CheckpointEveryN = Body.intOr("checkpoint_every", -1);
  if (Spec.CheckpointEveryN < -1)
    Spec.CheckpointEveryN = -1;
  Spec.TissueNX = Body.intOr("tissue_nx", 0);
  Spec.TissueNY = Body.intOr("tissue_ny", 1);
  Spec.TissueDx = Body.numberOr("tissue_dx", Spec.TissueDx);
  Spec.TissueSigma = Body.numberOr("tissue_sigma", Spec.TissueSigma);
  if (const JsonValue *DM = Body.find("tissue_method")) {
    if (!DM->isString())
      return Status::error("'tissue_method' must be a string");
    Expected<sim::DiffusionMethod> D =
        sim::parseDiffusionMethod(DM->asString());
    if (!D)
      return D.status();
    Spec.TissueMethod = uint8_t(*D);
  }
  Spec.TissueStim = Body.stringOr("tissue_stim", "");
  Spec.EnsembleSweep = Body.stringOr("ensemble_sweep", "");
  Spec.EnsembleCellsPer = Body.intOr("ensemble_cells_per", 1);
  if (const JsonValue *E = Body.find("engine")) {
    if (!E->isString())
      return Status::error("'engine' must be a string");
    std::optional<exec::EngineTier> T =
        exec::engineTierFromName(E->asString());
    if (!T)
      return Status::error("unknown engine '" + E->asString() +
                           "' (vm, native, auto)");
    Spec.Tier = *T;
  }
  if (Status S = parseConfig(Body, Spec.Config); !S)
    return S;
  // Rejects a malformed run at submit time, not when the job runs.
  if (Status S = Spec.validate(); !S)
    return S;
  return Spec;
}

JsonValue daemon::jobSpecToJson(const JobSpec &Spec) {
  JsonValue Cfg = JsonValue::object();
  Cfg.set("preset", JsonValue::string("baseline"));
  if (Spec.Config.isAutoWidth())
    Cfg.set("width", JsonValue::string("auto"));
  else
    Cfg.set("width", JsonValue::number(int64_t(Spec.Config.Width)));
  Cfg.set("layout",
          JsonValue::string(codegen::stateLayoutName(Spec.Config.Layout)));
  Cfg.set("fastmath", JsonValue::boolean(Spec.Config.FastMath));
  Cfg.set("luts", JsonValue::boolean(Spec.Config.EnableLuts));
  Cfg.set("cubic", JsonValue::boolean(Spec.Config.CubicLut));
  if (!Spec.Config.PassPipeline.empty())
    Cfg.set("passes", JsonValue::string(Spec.Config.PassPipeline));

  JsonValue J = JsonValue::object();
  J.set("id", JsonValue::number(Spec.Id));
  J.set("tenant", JsonValue::string(Spec.Tenant));
  J.set("priority", JsonValue::number(int64_t(Spec.Priority)));
  J.set("model", JsonValue::string(Spec.Model));
  J.set("cells", JsonValue::number(Spec.NumCells));
  J.set("steps", JsonValue::number(Spec.NumSteps));
  J.set("dt", JsonValue::number(Spec.Dt));
  J.set("guard", JsonValue::boolean(Spec.Guard));
  J.set("autotune", JsonValue::boolean(Spec.Autotune));
  J.set("timeout_sec", JsonValue::number(Spec.TimeoutSec));
  J.set("checkpoint_every", JsonValue::number(Spec.CheckpointEveryN));
  J.set("progress_every", JsonValue::number(Spec.ProgressEvery));
  if (Spec.TissueNX > 0) {
    J.set("tissue_nx", JsonValue::number(Spec.TissueNX));
    J.set("tissue_ny", JsonValue::number(Spec.TissueNY));
    J.set("tissue_dx", JsonValue::number(Spec.TissueDx));
    J.set("tissue_sigma", JsonValue::number(Spec.TissueSigma));
    J.set("tissue_method",
          JsonValue::string(sim::diffusionMethodName(
              sim::DiffusionMethod(Spec.TissueMethod))));
    if (!Spec.TissueStim.empty())
      J.set("tissue_stim", JsonValue::string(Spec.TissueStim));
  }
  if (!Spec.EnsembleSweep.empty()) {
    J.set("ensemble_sweep", JsonValue::string(Spec.EnsembleSweep));
    J.set("ensemble_cells_per", JsonValue::number(Spec.EnsembleCellsPer));
  }
  J.set("engine", JsonValue::string(exec::engineTierName(Spec.Tier)));
  J.set("config", std::move(Cfg));
  return J;
}

//===----------------------------------------------------------------------===//
// Event lines
//===----------------------------------------------------------------------===//

std::string daemon::acceptedEvent(uint64_t Id, size_t QueueDepth) {
  JsonValue J = JsonValue::object();
  J.set("event", JsonValue::string("accepted"));
  J.set("id", JsonValue::number(Id));
  J.set("queue_depth", JsonValue::number(uint64_t(QueueDepth)));
  return J.str();
}

std::string daemon::rejectedEvent(std::string_view Reason,
                                  std::string_view Detail) {
  JsonValue J = JsonValue::object();
  J.set("event", JsonValue::string("rejected"));
  J.set("reason", JsonValue::string(Reason));
  if (!Detail.empty())
    J.set("detail", JsonValue::string(Detail));
  return J.str();
}

std::string daemon::progressEvent(uint64_t Id, int64_t Steps, int64_t Target) {
  JsonValue J = JsonValue::object();
  J.set("event", JsonValue::string("progress"));
  J.set("id", JsonValue::number(Id));
  J.set("steps", JsonValue::number(Steps));
  J.set("target", JsonValue::number(Target));
  return J.str();
}

std::string daemon::terminalEvent(JobState S, uint64_t Id, int64_t Steps,
                                  double Checksum, int64_t Degraded,
                                  int64_t Frozen, std::string_view Error,
                                  bool Replayed, int64_t MembersOk,
                                  int64_t MembersQuarantined) {
  JsonValue J = JsonValue::object();
  J.set("event", JsonValue::string(jobStateName(S)));
  J.set("id", JsonValue::number(Id));
  J.set("steps", JsonValue::number(Steps));
  if (S == JobState::Finished) {
    // The checksum travels as a string: %.17g round-trips the double
    // exactly and the smoke test compares it textually.
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Checksum);
    J.set("checksum", JsonValue::string(Buf));
    J.set("degraded", JsonValue::number(Degraded));
    J.set("frozen", JsonValue::number(Frozen));
    if (MembersOk >= 0) {
      J.set("members_ok", JsonValue::number(MembersOk));
      J.set("members_quarantined", JsonValue::number(MembersQuarantined));
    }
  }
  if (!Error.empty())
    J.set("error", JsonValue::string(Error));
  if (Replayed)
    J.set("replayed", JsonValue::boolean(true));
  return J.str();
}

std::string daemon::okEvent(std::string_view Detail) {
  JsonValue J = JsonValue::object();
  J.set("event", JsonValue::string("ok"));
  if (!Detail.empty())
    J.set("detail", JsonValue::string(Detail));
  return J.str();
}

std::string daemon::errorEvent(std::string_view Error) {
  JsonValue J = JsonValue::object();
  J.set("event", JsonValue::string("error"));
  J.set("error", JsonValue::string(Error));
  return J.str();
}
