//===- JobRunner.cpp ------------------------------------------------------===//

#include "daemon/JobRunner.h"

#include "compiler/CompilerDriver.h"
#include "compiler/Serialize.h"
#include "easyml/Sema.h"
#include "models/Registry.h"
#include "sim/Ensemble.h"
#include "sim/Simulator.h"
#include "sim/TissueSimulator.h"
#include "support/Telemetry.h"

#include <chrono>
#include <memory>
#include <optional>
#include <thread>

using namespace limpet;
using namespace limpet::daemon;

std::string JobRunner::jobDir(uint64_t Id) const {
  return Cfg.StateDir + "/job-" + std::to_string(Id);
}

static Journal::Kind journalKind(JobState S) {
  switch (S) {
  case JobState::Finished:
    return Journal::Kind::Finished;
  case JobState::Failed:
    return Journal::Kind::Failed;
  case JobState::Cancelled:
    return Journal::Kind::Cancelled;
  case JobState::Expired:
    return Journal::Kind::Expired;
  case JobState::Shed:
    return Journal::Kind::Shed;
  default:
    return Journal::Kind::Started;
  }
}

/// Terminal events must not be lost to a momentarily full ring the way
/// progress samples may be; retry briefly, but never block the runner on
/// a dead client (the result file and journal carry the truth anyway).
static void pushTerminal(Job &J, const std::string &Line) {
  if (!J.Ring)
    return;
  for (int Attempt = 0; Attempt != 500; ++Attempt) {
    if (J.Ring->tryPush(Line) || J.Ring->closed())
      return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

JobState JobRunner::finish(Job &J, JobState S) {
  std::string Event =
      terminalEvent(S, J.Spec.Id, J.StepsDone, J.Checksum, J.Degraded,
                    J.Frozen, J.Error, J.Replayed, J.MembersOk,
                    J.MembersQuarantined);
  // Journal first (the durable truth), then the result file (what the
  // smoke harness and late status queries read), then the live stream.
  Jrnl.append(journalKind(S), J.Spec.Id, J.Error);
  compiler::writeFileAtomic(Event + "\n", jobDir(J.Spec.Id) + "/result.json");
  J.State.store(S, std::memory_order_release);
  pushTerminal(J, Event);
  telemetry::counter(std::string("daemon.jobs.") +
                     std::string(jobStateName(S)))
      .add();
  telemetry::counter("daemon.tenant." + J.Spec.Tenant + "." +
                     std::string(jobStateName(S)))
      .add();
  return S;
}

JobState JobRunner::fail(Job &J, std::string Error) {
  J.Error = std::move(Error);
  return finish(J, JobState::Failed);
}

JobState JobRunner::execute(Job &J) {
  Jrnl.append(Journal::Kind::Started, J.Spec.Id);
  telemetry::counter("daemon.jobs.started").add();
  if (J.Replayed)
    telemetry::counter("daemon.jobs.replayed").add();

  const models::ModelEntry *Entry = models::findModel(J.Spec.Model);
  if (!Entry)
    return fail(J, "unknown model '" + J.Spec.Model + "'");

  // Compile through the driver: the content-addressed cache makes repeat
  // jobs (and replays) warm starts that skip every codegen stage.
  compiler::DriverOptions DOpts;
  DOpts.Config = J.Spec.Config;
  DOpts.Tier = J.Spec.Tier;
  DOpts.Autotune = J.Spec.Autotune;
  compiler::CompilerDriver Driver(DOpts);
  compiler::CompileResult R = Driver.compileEntry(*Entry);
  if (!R)
    return fail(J, "compile failed: " + R.Err.message());
  std::string Dir = jobDir(J.Spec.Id);
  std::string CkptDir = Dir + "/ckpt";
  sim::CheckpointStore Store(CkptDir);
  // Probe up front: an unwritable state directory is this job's clean
  // failure, not a crash at its first checkpoint.
  if (Status St = Store.prepare(); !St)
    return fail(J, "checkpoint dir: " + St.message());

  sim::SimOptions Opts;
  Opts.NumCells = J.Spec.NumCells;
  Opts.NumSteps = J.Spec.NumSteps;
  Opts.Dt = J.Spec.Dt;
  Opts.NumThreads = Cfg.SimThreads;
  Opts.StimPeriod = 100.0;
  Opts.Guard.Enabled = J.Spec.Guard;
  Opts.Checkpoint.Dir = CkptDir;
  // -1 = cadence unspecified: the daemon's default keeps jobs resumable
  // without every client opting in; an explicit 0 means final-checkpoint
  // only (the interrupt path still writes one).
  Opts.Checkpoint.EveryN = J.Spec.CheckpointEveryN >= 0
                               ? J.Spec.CheckpointEveryN
                               : Cfg.DefaultCheckpointEvery;
  Opts.Checkpoint.SourceHash = R.SourceHash;
  Opts.Cancel = &J.Token;
  if (J.Spec.ProgressEvery > 0 && J.Ring) {
    Opts.ProgressEvery = J.Spec.ProgressEvery;
    EventRing *Ring = J.Ring.get();
    uint64_t Id = J.Spec.Id;
    // tryPush only: a stalled client drops progress samples, it never
    // slows the stepping loop.
    Opts.Progress = [Ring, Id](int64_t Steps, int64_t Target) {
      Ring->tryPush(progressEvent(Id, Steps, Target));
    };
  }

  // The ensemble model owns the lowered CompiledModel; declared before
  // Sim so it outlives the runner built on it.
  std::optional<sim::EnsembleModel> EMod;
  sim::EnsembleRunner *EnsSim = nullptr;
  std::unique_ptr<sim::Simulator> Sim;
  bool SteppingNative = R.NativeAttached;
  if (J.Spec.TissueNX > 0) {
    // Tissue job: the reaction-diffusion driver over the spec's grid.
    // The journal carries the same fields, so a replayed job rebuilds an
    // identical driver and its checkpoint's tissue section matches.
    sim::TissueOptions TO;
    TO.Grid = {J.Spec.TissueNX, J.Spec.TissueNY, J.Spec.TissueDx};
    TO.Sigma = J.Spec.TissueSigma;
    TO.Method = sim::DiffusionMethod(J.Spec.TissueMethod);
    if (!J.Spec.TissueStim.empty()) {
      Expected<sim::StimulusProtocol> P =
          sim::StimulusProtocol::parse(J.Spec.TissueStim, TO.Grid);
      if (!P)
        return fail(J, "tissue stimulus: " + P.status().message());
      TO.Stim = *P;
    }
    TO.Sim = Opts;
    auto TS = std::make_unique<sim::TissueSimulator>(*R.Model, TO);
    if (Status St = TS->preflight(); !St)
      return fail(J, "tissue preflight: " + St.message());
    telemetry::counter("daemon.jobs.tissue").add();
    Sim = std::move(TS);
  } else if (!J.Spec.EnsembleSweep.empty()) {
    // Ensemble job: one kernel for the whole sweep. Admission already
    // validated the grammar; re-parsing here keeps journal replay safe
    // against a hand-edited journal, and the model-specific checks
    // (unknown parameter names) land in a structured Failed record.
    Expected<sim::EnsembleSpec> ESpec = sim::EnsembleSpec::fromSweep(
        J.Spec.EnsembleSweep, J.Spec.EnsembleCellsPer);
    if (!ESpec)
      return fail(J, "ensemble sweep: " + ESpec.status().message());
    DiagnosticEngine Diags;
    auto Info = easyml::compileModelInfo(Entry->Name, Entry->Source, Diags);
    if (!Info)
      return fail(J, "ensemble frontend: " + Diags.str());
    Expected<sim::EnsembleModel> Built = sim::buildEnsembleModel(
        *Info, std::move(*ESpec), R.Model->config());
    if (!Built)
      return fail(J, "ensemble: " + Built.status().message());
    EMod.emplace(std::move(*Built));
    // The sweep steps its lowered model, which needs its own kernel.
    SteppingNative = J.Spec.Tier != exec::EngineTier::VM &&
                     sim::attachNativeKernel(*EMod, R.CacheKey, Entry->Name);
    auto ER = std::make_unique<sim::EnsembleRunner>(*EMod, Opts);
    EnsSim = ER.get();
    telemetry::counter("daemon.jobs.ensemble").add();
    Sim = std::move(ER);
  } else {
    Sim = std::make_unique<sim::Simulator>(*R.Model, Opts);
  }
  sim::Simulator &S = *Sim;
  // The native tier degrades, never fails: a job asking for it on a box
  // without a toolchain runs on the VM (bit-identical results), and the
  // fallback is visible in telemetry, counted for the model that steps,
  // rather than in the job outcome.
  if (J.Spec.Tier != exec::EngineTier::VM)
    telemetry::counter(SteppingNative ? "daemon.jobs.native"
                                      : "daemon.jobs.native_fallback")
        .add();

  // Replay path: continue from the newest valid checkpoint. A job that
  // has none (killed before its first checkpoint) starts over — same
  // spec, same result.
  if (J.Replayed) {
    if (Expected<sim::CheckpointData> C = Store.loadNewestValid()) {
      if (Status St = S.resumeFrom(*C); !St)
        telemetry::counter("daemon.jobs.resume_failed").add();
    }
  }

  if (J.Spec.TimeoutSec > 0)
    J.Token.setDeadlineAfter(J.Spec.TimeoutSec);

  S.run();

  J.StepsDone = S.stepsDone();
  // The interruption check MUST come before any terminal accounting —
  // ensemble quarantines included. A member that hit its dt-floor while
  // the daemon was shutting down is a *non-terminal* outcome: the final
  // checkpoint's ensemble section already pins its quarantine, and the
  // journal's Accepted-without-terminal shape replays the job, which
  // resumes with that member still quarantined. Writing a terminal
  // record here instead would turn a routine restart into a lost sweep.
  if (S.interrupted()) {
    switch (S.stopReason()) {
    case sim::StopReason::Cancelled:
      return finish(J, JobState::Cancelled);
    case sim::StopReason::DeadlineExpired:
      return finish(J, JobState::Expired);
    default:
      // Process shutdown: deliberately no terminal record. The journal's
      // Accepted-without-terminal shape marks this job for replay, and
      // its final checkpoint is already on disk.
      J.State.store(JobState::Queued, std::memory_order_release);
      telemetry::counter("daemon.jobs.interrupted").add();
      return JobState::Queued;
    }
  }

  J.Checksum = S.stateChecksum();
  J.Degraded = S.report().CellsDegraded;
  J.Frozen = S.report().CellsFrozen;
  if (EnsSim) {
    // Partial-result delivery: the sweep finishes with every member
    // accounted for; quarantined members are reported, never fatal.
    J.MembersOk = EnsSim->membersOk();
    J.MembersQuarantined = EnsSim->membersQuarantined();
    compiler::writeFileAtomic(EnsSim->memberStatsNdjson(),
                              Dir + "/members.ndjson");
  }
  return finish(J, JobState::Finished);
}
