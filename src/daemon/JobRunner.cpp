//===- JobRunner.cpp ------------------------------------------------------===//

#include "daemon/JobRunner.h"

#include "compiler/Serialize.h"
#include "sim/Run.h"
#include "support/Telemetry.h"

#include <chrono>
#include <memory>
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

  // -1 = cadence unspecified: the daemon's default keeps jobs resumable
  // without every client opting in; an explicit 0 means final-checkpoint
  // only (the interrupt path still writes one).
  sim::RunSpec Spec = J.Spec;
  if (Spec.CheckpointEveryN < 0)
    Spec.CheckpointEveryN = Cfg.DefaultCheckpointEvery;
  std::string Dir = jobDir(J.Spec.Id);
  sim::RunEnv Env;
  Env.Threads = Cfg.SimThreads;
  Env.CheckpointDir = Dir + "/ckpt";
  Env.Cancel = &J.Token;
  if (J.Spec.ProgressEvery > 0 && J.Ring) {
    Env.ProgressEvery = J.Spec.ProgressEvery;
    // tryPush only: a stalled client drops progress samples, it never
    // slows the stepping loop.
    Env.Progress = [Ring = J.Ring.get(), Id = J.Spec.Id](int64_t Steps,
                                                         int64_t Target) {
      Ring->tryPush(progressEvent(Id, Steps, Target));
    };
  }
  // The compile goes through the content-addressed cache, so repeat jobs
  // (and replays) are warm starts that skip every codegen stage. The
  // journal carries the whole spec, so a replayed tissue or ensemble job
  // rebuilds the identical driver its checkpoint was written by.
  Expected<std::unique_ptr<sim::Run>> Built = sim::buildRun(Spec, Env);
  if (!Built)
    return fail(J, Built.status().message());
  sim::Run &R = **Built;
  sim::Simulator &S = *R.Sim;
  sim::EnsembleRunner *EnsSim = R.ensembleRunner();
  if (R.tissueSim())
    telemetry::counter("daemon.jobs.tissue").add();
  if (EnsSim)
    telemetry::counter("daemon.jobs.ensemble").add();
  // The native tier degrades, never fails: a job asking for it on a box
  // without a toolchain runs on the VM (bit-identical results), and the
  // fallback is visible in telemetry, counted for the model that steps,
  // rather than in the job outcome.
  if (J.Spec.Tier != exec::EngineTier::VM)
    telemetry::counter(R.steppingNative() ? "daemon.jobs.native"
                                          : "daemon.jobs.native_fallback")
        .add();

  // Replay path: continue from the newest valid checkpoint. A job that
  // has none (killed before its first checkpoint) starts over — same
  // spec, same result.
  if (J.Replayed) {
    if (Expected<sim::CheckpointData> C =
            sim::CheckpointStore(Env.CheckpointDir).loadNewestValid()) {
      if (Status St = S.resumeFrom(*C); !St)
        telemetry::counter("daemon.jobs.resume_failed").add();
    }
  }

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
