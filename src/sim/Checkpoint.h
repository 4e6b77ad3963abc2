//===- Checkpoint.h - Durable simulation checkpoint/resume ------*- C++-*-===//
//
// The on-disk story for long-running simulations: periodic, versioned,
// FNV-1a-checksummed snapshots of the *full* simulation state — the
// StateBuffer contents (any layout x width, AoSoA padding included so a
// restore is bit-exact), step index, time, dt, parameter values, guard-rail
// RunReport counters, the member section (member shape, sweep spec hash
// and the ladder records of members that left Ok), the Vm trace, and the
// engine configuration plus a model source hash so a resumed run refuses
// a mismatched model. No wall-clock time is written, so two runs of one
// spec write byte-identical checkpoints.
//
// Files are written atomically (unique temp name + rename, reusing the
// compiler::Artifact serialization helpers), rotated to a retained count,
// and discovered newest-first with fallback: a truncated or corrupted
// checkpoint is skipped, never misparsed, and resume lands on the newest
// file that still checksums. A kill -9 at step 99,000 therefore costs at
// most one checkpoint interval, not the run (docs/ROBUSTNESS.md).
//
// Graceful shutdown rides on the same machinery: installShutdownHandlers
// converts SIGINT/SIGTERM into a flag the Simulator polls at step
// boundaries (after the scheduler's shard barrier), writes one final
// checkpoint, and returns cleanly.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_SIM_CHECKPOINT_H
#define LIMPET_SIM_CHECKPOINT_H

#include "exec/CompiledModel.h"
#include "sim/Health.h"
#include "support/Status.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace limpet {
namespace sim {

/// Bumped whenever the serialized checkpoint layout changes; a mismatch is
/// a recoverable "cannot resume" error, never a misparse.
/// v2: tissue section (grid geometry, diffusion, stimulus spec).
/// v3: ensemble section (per-member status/reason for fault-isolated
///     parameter sweeps).
/// v4: one member section for every run replaces the per-cell modes,
///     the frozen-cell snapshots and the ensemble section; the RunReport's
///     wall-clock seconds are no longer written.
inline constexpr uint32_t kCheckpointFormatVersion = 4;

/// Everything needed to continue a simulation bit-identically from the
/// step it was captured at.
struct CheckpointData {
  uint32_t FormatVersion = kCheckpointFormatVersion;
  std::string ModelName;
  /// FNV-1a 64 of the EasyML source of the model being simulated (0 when
  /// the driver does not know it); a resumed run refuses a mismatch.
  uint64_t SourceHash = 0;
  /// The engine configuration of the compiled model; resume requires the
  /// resuming model to be compiled identically (layout, width, LUTs, ...).
  exec::EngineConfig Config;

  // Population shape (cross-checked against the resuming StateBuffer).
  int64_t NumCells = 0;
  uint32_t NumSv = 0;
  uint32_t NumExts = 0;
  uint8_t Layout = 0; ///< codegen::StateLayout
  uint32_t BlockW = 1;

  // Progress.
  int64_t StepCount = 0;
  double T = 0;
  double Dt = 0;

  // The population, bit-exact: the state array including AoSoA pad lanes,
  // and one dense per-cell array per external.
  std::vector<double> State;
  std::vector<std::vector<double>> Exts;

  /// Parameter values at capture time (setParam may have changed them;
  /// LUT tables are rebuilt from these on resume).
  std::vector<double> Params;

  /// Recorded Vm trace up to the checkpoint (empty when tracing is off).
  std::vector<double> Trace;

  /// The guard-rail counters (its wall-clock seconds are not written).
  RunReport Report;

  // Tissue section (v2): grid geometry, diffusion operator and the
  // canonical stimulus spec of a tissue run. TissueNX == 0 marks a plain
  // single-population checkpoint; a tissue resume cross-checks geometry
  // and diffusion settings so a checkpoint cannot silently continue on a
  // different sheet. The Vm field itself travels in Exts like any other
  // external.
  int64_t TissueNX = 0;
  int64_t TissueNY = 1;
  double TissueDx = 0.025;
  double TissueSigma = 0;
  uint8_t TissueMethod = 0; ///< sim::DiffusionMethod
  std::string TissueStim;   ///< StimulusProtocol::str(); "" = none

  // Member section (v4): member M is cells [M*CellsPerMember,
  // (M+1)*CellsPerMember). A plain run has one-cell members and spec hash
  // 0, a tissue sheet one member of every node, a sweep its member slices
  // and the hash of its spec. A resume requires both to match, so partial
  // results cannot continue under another shape or sweep. Only members
  // that left Ok have a record; a quarantined member's pinned values are
  // its cells' values in State/Exts.
  int64_t CellsPerMember = 1;
  uint64_t SpecHash = 0;
  std::map<int64_t, MemberRecord> Members;
};

/// Serializes \p C into a self-contained byte string (magic, version,
/// FNV-1a checksum, payload).
std::string serializeCheckpoint(const CheckpointData &C);

/// Parses \p Bytes. Any structural problem — bad magic, version mismatch,
/// checksum failure, truncation, inconsistent lengths — is a recoverable
/// error.
Expected<CheckpointData> deserializeCheckpoint(std::string_view Bytes);

/// Writes \p C to \p Path atomically (unique temp file + rename).
Status writeCheckpointFile(const CheckpointData &C, const std::string &Path);

/// Reads and parses one checkpoint file.
Expected<CheckpointData> readCheckpointFile(const std::string &Path);

/// A directory of rotated checkpoints: ckpt-<step>.lmpc files, newest
/// \p Retain kept, newest-valid discovery with corrupt-file fallback.
class CheckpointStore {
public:
  explicit CheckpointStore(std::string Dir, int Retain = 3);

  const std::string &dir() const { return Dir; }
  int retain() const { return Retain; }

  /// Creates the directory (mkdir -p) and probes it for writability, so
  /// an unwritable --checkpoint-dir is one clear recoverable error before
  /// the run starts rather than a failure at step 99,000.
  Status prepare() const;

  /// The file path a checkpoint of \p Step uses.
  std::string pathForStep(int64_t Step) const;

  /// Serializes, writes atomically, and prunes old files down to the
  /// retained count. The newly written file is never pruned.
  Status write(const CheckpointData &C) const;

  /// Checkpoint files in this directory, sorted by step ascending.
  /// Unparseable names are ignored.
  std::vector<std::string> list() const;

  /// Deletes the oldest checkpoints until at most retain() remain.
  void prune() const;

  /// Deletes the checkpoints of steps after \p Step. A run that continues
  /// from \p Step calls it when the files past it do not load: prune()
  /// keeps the highest steps, so it would delete each new checkpoint the
  /// run writes below them.
  void removeAfter(int64_t Step) const;

  /// Loads the newest checkpoint that parses and checksums, skipping (and
  /// counting) corrupt or truncated ones. \p PathOut / \p SkippedOut are
  /// optional. Fails when the directory holds no valid checkpoint.
  Expected<CheckpointData> loadNewestValid(std::string *PathOut = nullptr,
                                           int *SkippedOut = nullptr) const;

private:
  std::string Dir;
  int Retain;
};

//===----------------------------------------------------------------------===//
// Graceful shutdown
//===----------------------------------------------------------------------===//

/// Installs SIGINT/SIGTERM handlers that set the process-wide shutdown
/// flag (idempotent). The Simulator polls the flag at step boundaries.
/// Forwards to support/Signals (the one place signal disposition is
/// touched); embedding hosts can restore their own handlers with
/// support::restoreShutdownHandlers or support::ScopedSignalHandlers.
void installShutdownHandlers();

/// True once a shutdown signal (or requestShutdown) arrived.
bool shutdownRequested();

/// Sets the shutdown flag from code — deterministic kill-at-step in tests
/// and the fault-injection harness.
void requestShutdown();

/// Clears the flag (between runs in one process).
void clearShutdownRequest();

} // namespace sim
} // namespace limpet

#endif // LIMPET_SIM_CHECKPOINT_H
