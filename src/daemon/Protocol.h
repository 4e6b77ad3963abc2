//===- Protocol.h - limpetd wire protocol and job model ---------*- C++-*-===//
//
// The daemon's control protocol is newline-delimited JSON over a Unix
// domain socket: one request object per line in, one response or event
// object per line out (docs/DAEMON.md has the full verb table). This
// header defines the parsed forms — the JobSpec a `submit` carries, the
// job lifecycle states — and the (de)serialization both the wire and the
// job journal share: a journaled job is exactly its submit spec, so a
// recovered daemon re-admits jobs through the same code path a live
// client uses.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_DAEMON_PROTOCOL_H
#define LIMPET_DAEMON_PROTOCOL_H

#include "daemon/Json.h"
#include "sim/Run.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace limpet {
namespace daemon {

/// Where a job sits in its lifecycle. Queued/Running are live;
/// everything after is terminal. Shutdown-interrupted jobs never reach a
/// terminal state in the journal — that absence is what marks them for
/// replay on restart.
enum class JobState : uint8_t {
  Queued = 0,
  Running,
  Finished,  ///< ran to its step target
  Failed,    ///< compile error, bad spec, unwritable state dir, ...
  Cancelled, ///< explicit cancel verb
  Expired,   ///< per-job wall-clock deadline passed
  Shed,      ///< evicted from a full queue by a higher-priority submit
};

std::string_view jobStateName(JobState S);
bool jobStateTerminal(JobState S);

/// Everything a `submit` request specifies: the run (the sim::RunSpec
/// limpetc --run builds from its flags) plus the daemon's own fields.
/// Serialized verbatim into the journal's Accepted record, so a replayed
/// job re-runs under exactly the spec its client submitted.
struct JobSpec : sim::RunSpec {
  uint64_t Id = 0; ///< assigned by the daemon at admission
  std::string Tenant = "default";
  /// Larger runs first among a tenant's queued jobs, and only a
  /// higher-priority submit may shed a queued lower-priority job.
  int Priority = 0;
  /// Progress event cadence in steps (0 = no progress streaming).
  int64_t ProgressEvery = 0;
};

/// Parses the body of a `submit` request (also the journal payload).
/// Unknown fields are ignored; a spec that fails to parse (bad layout
/// name, unknown engine) or sim::RunSpec::validate (missing model,
/// non-positive counts, malformed sweep) is a recoverable error.
Expected<JobSpec> parseJobSpec(const JsonValue &Body);

/// The spec as a JSON object — the journal payload and the `status`
/// verb's job rendering both use it.
JsonValue jobSpecToJson(const JobSpec &Spec);

//===----------------------------------------------------------------------===//
// Event lines (daemon -> client)
//===----------------------------------------------------------------------===//

/// {"event":"accepted","id":N,"queue_depth":D}
std::string acceptedEvent(uint64_t Id, size_t QueueDepth);
/// {"event":"rejected","reason":R[,"detail":D]}
std::string rejectedEvent(std::string_view Reason, std::string_view Detail);
/// {"event":"progress","id":N,"steps":S,"target":T}
std::string progressEvent(uint64_t Id, int64_t Steps, int64_t Target);
/// Terminal event: {"event":<state>,"id":N,"steps":S,...}. Finished jobs
/// carry the state checksum (printf %.17g, round-trippable) and the
/// degraded/frozen cell counts; failed jobs carry the error text.
/// Finished ensemble jobs additionally carry "members_ok" and
/// "members_quarantined" (partial-result delivery: a sweep with
/// quarantined members still finishes); MembersOk < 0 marks a
/// non-ensemble job and omits both fields.
std::string terminalEvent(JobState S, uint64_t Id, int64_t Steps,
                          double Checksum, int64_t Degraded, int64_t Frozen,
                          std::string_view Error, bool Replayed,
                          int64_t MembersOk = -1,
                          int64_t MembersQuarantined = -1);
/// {"event":"ok"[,"detail":D]}
std::string okEvent(std::string_view Detail = {});
/// {"event":"error","error":E}
std::string errorEvent(std::string_view Error);

} // namespace daemon
} // namespace limpet

#endif // LIMPET_DAEMON_PROTOCOL_H
