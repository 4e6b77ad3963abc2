//===- JobRunner.h - One job, admission to terminal state -------*- C++-*-===//
//
// Executes a single accepted job end to end: build it through
// sim::buildRun (limpetc --run's assembly too: cached compile, tier,
// checkpoint-dir probe, simulator) with the job's threads, cancel token
// and progress stream, run it, and map the outcome to a terminal JobState
// with its journal record, NDJSON event, and on-disk result file.
//
// Fault isolation is the point: every failure mode — unknown model,
// compile error, invalid config, unwritable state dir — lands in a
// structured Failed record for *this* job, and a guarded run that froze
// cells still Finishes with the degradation counts attached. Nothing a
// job does can take down the daemon or its neighbours.
//
// A shutdown-interrupted job is the one non-terminal outcome: the runner
// leaves no terminal journal record, so the next daemon start replays
// the job from its newest valid checkpoint (bit-identical continuation,
// same guarantee as limpetc --resume).
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_DAEMON_JOBRUNNER_H
#define LIMPET_DAEMON_JOBRUNNER_H

#include "daemon/JobQueue.h"
#include "daemon/Journal.h"

#include <string>

namespace limpet {
namespace daemon {

class JobRunner {
public:
  struct Config {
    /// Daemon state directory; each job gets StateDir/job-<id>/ with its
    /// rotated checkpoints and result file.
    std::string StateDir;
    /// Worker threads each simulation steps with (they share the global
    /// ThreadPool; concurrent fork-joins serialize at its submit lock).
    unsigned SimThreads = 2;
    /// Durable checkpoint cadence for jobs that do not specify one.
    int64_t DefaultCheckpointEvery = 10000;
  };

  JobRunner(Config C, Journal &J) : Cfg(std::move(C)), Jrnl(J) {}

  /// Runs \p J to a terminal state (journal + result file + terminal
  /// event pushed to its ring), or to shutdown-interruption (no terminal
  /// record; the job replays on restart). Returns the state the job
  /// ended in — Queued when interrupted by shutdown.
  JobState execute(Job &J);

  /// The per-job state directory ("<state>/job-<id>").
  std::string jobDir(uint64_t Id) const;

private:
  JobState finish(Job &J, JobState S);
  JobState fail(Job &J, std::string Error);

  Config Cfg;
  Journal &Jrnl;
};

} // namespace daemon
} // namespace limpet

#endif // LIMPET_DAEMON_JOBRUNNER_H
