//===- Daemon.cpp - An in-process limpetd driven closed-loop --------------===//
//
// A daemon::Server with two runners of one stepping thread each, its
// socket, state dir and journal under the work dir, fsync on. Three
// client connections each submit their next seeded job when the previous
// job's terminal event arrives, so one job is always waiting. Four job
// kinds, each about 0.3 s of service time: a guarded population on the
// VM, the same on the native tier, a small tissue sheet and a native
// ensemble sweep with seeded pathological members. Admission, the queue,
// the journal, warm compile-cache hits, health scans, the member-local
// recovery ladder, checkpoints and result writes are on every job's path,
// while stepping stays inline.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Plan.h"
#include "Stats.h"

#include "daemon/Json.h"
#include "daemon/Journal.h"
#include "daemon/Protocol.h"
#include "daemon/Server.h"
#include "compiler/KernelEmitter.h"
#include "easyml/Sema.h"
#include "models/Registry.h"
#include "sim/Ensemble.h"
#include "sim/TissueSimulator.h"
#include "support/Signals.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace limpet;

namespace {

constexpr int kClients = 3;
constexpr int kSetupReps = 5;
constexpr size_t kMinJobs = 100;
constexpr double kJobTimeoutSec = 60;

/// A blocking NDJSON client over the daemon's Unix socket.
class Client {
public:
  Client() = default;
  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool connect(const std::string &Path, double TimeoutSec) {
    Clock::time_point T0 = Clock::now();
    while (secondsSince(T0) < TimeoutSec) {
      Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_un Addr{};
      Addr.sun_family = AF_UNIX;
      std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
      if (Fd >= 0 && ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                               sizeof(Addr)) == 0)
        return true;
      if (Fd >= 0)
        ::close(Fd);
      Fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  bool send(const std::string &Line) {
    std::string Framed = Line + "\n";
    size_t Off = 0;
    while (Off < Framed.size()) {
      ssize_t N = ::send(Fd, Framed.data() + Off, Framed.size() - Off,
                         MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Off += size_t(N);
    }
    return true;
  }

  /// The next event line, parsed; nullopt on EOF, error or timeout.
  std::optional<daemon::JsonValue> next(double TimeoutSec) {
    Clock::time_point T0 = Clock::now();
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Line = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        Expected<daemon::JsonValue> J = daemon::JsonValue::parse(Line);
        if (!J)
          return std::nullopt;
        return std::move(*J);
      }
      double Left = TimeoutSec - secondsSince(T0);
      if (Left <= 0)
        return std::nullopt;
      pollfd P{Fd, POLLIN, 0};
      if (::poll(&P, 1, int(Left * 1e3) + 1) <= 0)
        return std::nullopt;
      char Tmp[4096];
      ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
      if (N <= 0)
        return std::nullopt;
      Buf.append(Tmp, size_t(N));
    }
  }

private:
  int Fd = -1;
  std::string Buf;
};

/// What the client saw of one job.
struct JobRecord {
  int Kind = 0;
  Clock::time_point Submit, Accepted, FirstProgress, Terminal;
  int64_t FirstProgressSteps = -1;
  std::string State; ///< terminal event name, or why none arrived
  std::string Checksum;
  int64_t Quarantined = -1;
  double latencyMs() const {
    return std::chrono::duration<double, std::milli>(Terminal - Submit).count();
  }
};

std::string submitLine(const JobTemplate &J, const std::string &Tenant) {
  return R"({"verb":"submit","tenant":")" + Tenant + "\"," + J.Body + "}";
}

/// Reads events until \p Pending jobs submitted on \p C have ended.
/// Accepted ids are matched to \p Recs in submit order.
bool collect(Client &C, std::vector<JobRecord *> Recs) {
  std::map<int64_t, JobRecord *> ById;
  size_t NextAccept = 0, Open = Recs.size();
  while (Open) {
    std::optional<daemon::JsonValue> E = C.next(kJobTimeoutSec);
    Clock::time_point Now = Clock::now();
    if (!E) {
      for (JobRecord *R : Recs)
        if (R->Terminal == Clock::time_point())
          R->State = "no terminal event";
      return false;
    }
    std::string Ev = E->stringOr("event", "");
    int64_t Id = E->intOr("id", -1);
    if (Ev == "accepted" && NextAccept < Recs.size()) {
      JobRecord *R = Recs[NextAccept++];
      R->Accepted = Now;
      ById[Id] = R;
    } else if (Ev == "rejected" && NextAccept < Recs.size()) {
      JobRecord *R = Recs[NextAccept++];
      R->State = "rejected: " + E->stringOr("reason", "");
      R->Terminal = Now;
      --Open;
    } else if (Ev == "progress" && ById.count(Id)) {
      JobRecord *R = ById[Id];
      if (R->FirstProgressSteps < 0) {
        R->FirstProgress = Now;
        R->FirstProgressSteps = E->intOr("steps", 0);
      }
    } else if (ById.count(Id) && Ev != "ok" && Ev != "error") {
      JobRecord *R = ById[Id];
      R->Terminal = Now;
      R->State = Ev;
      R->Checksum = E->stringOr("checksum", "");
      R->Quarantined = E->intOr("members_quarantined", -1);
      if (Ev != "finished")
        R->State += ": " + E->stringOr("error", "");
      --Open;
    }
  }
  return true;
}

/// The expected checksum of each job kind: the same spec built in-process
/// through the public API, as the daemon's runner builds it. Also primes
/// the native kernels the jobs attach into the private cache.
bool referenceChecksums(const DaemonPlan &P, std::vector<std::string> &Out,
                        std::string &Why) {
  for (const JobTemplate &J : P.Kinds) {
    Expected<daemon::JsonValue> Body =
        daemon::JsonValue::parse("{" + J.Body + "}");
    if (!Body) {
      Why = "bad job body: " + Body.status().message();
      return false;
    }
    Expected<daemon::JobSpec> Spec = daemon::parseJobSpec(*Body);
    if (!Spec) {
      Why = "bad job spec: " + Spec.status().message();
      return false;
    }
    const models::ModelEntry *Entry = models::findModel(Spec->Model);
    compiler::DriverOptions O;
    O.Config = Spec->Config;
    O.Tier = Spec->Tier;
    O.UseCache = false;
    compiler::CompileResult R =
        compiler::CompilerDriver(O).compileEntry(*Entry);
    if (!R) {
      Why = "reference compile: " + R.Err.message();
      return false;
    }
    sim::SimOptions Opts;
    Opts.NumCells = Spec->NumCells;
    Opts.NumSteps = Spec->NumSteps;
    Opts.Dt = Spec->Dt;
    Opts.NumThreads = 1;
    Opts.StimPeriod = 100.0;
    Opts.Guard.Enabled = Spec->Guard;
    std::optional<sim::EnsembleModel> EMod;
    std::unique_ptr<sim::Simulator> Sim;
    if (Spec->TissueNX > 0) {
      sim::TissueOptions TO;
      TO.Grid = {Spec->TissueNX, Spec->TissueNY, Spec->TissueDx};
      TO.Sigma = Spec->TissueSigma;
      TO.Method = sim::DiffusionMethod(Spec->TissueMethod);
      TO.Sim = Opts;
      Sim = std::make_unique<sim::TissueSimulator>(*R.Model, TO);
    } else if (!Spec->EnsembleSweep.empty()) {
      Expected<sim::EnsembleSpec> ES = sim::EnsembleSpec::fromSweep(
          Spec->EnsembleSweep, Spec->EnsembleCellsPer);
      DiagnosticEngine Diags;
      auto Info = easyml::compileModelInfo(Entry->Name, Entry->Source, Diags);
      if (!ES || !Info) {
        Why = "reference sweep: cannot build the ensemble";
        return false;
      }
      Expected<sim::EnsembleModel> Built =
          sim::buildEnsembleModel(*Info, std::move(*ES), R.Model->config());
      if (!Built) {
        Why = "reference sweep: " + Built.status().message();
        return false;
      }
      EMod.emplace(std::move(*Built));
      Sim = std::make_unique<sim::EnsembleRunner>(*EMod, Opts);
    } else {
      Sim = std::make_unique<sim::Simulator>(*R.Model, Opts);
    }
    Sim->run();
    Out.push_back(checksumText(Sim->stateChecksum()));
  }
  return true;
}

/// A started server and the thread running its accept loop.
class Daemon {
public:
  Daemon(std::string Socket, const std::string &StateDir)
      : SocketPath(std::move(Socket)) {
    daemon::Server::Options O;
    O.SocketPath = SocketPath;
    O.StateDir = StateDir;
    O.Runners = 2;
    O.SimThreads = 1;
    Srv = std::make_unique<daemon::Server>(O);
    St = Srv->start();
    if (St)
      Loop = std::thread([this] { Srv->serve(); });
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  const Status &status() const { return St; }

  /// Sends the shutdown verb, joins the accept loop (which drains the
  /// runners) and clears the process-wide shutdown flag it raised.
  void stop() {
    if (!Loop.joinable())
      return;
    {
      Client C;
      if (C.connect(SocketPath, 5) && C.send(R"({"verb":"shutdown"})"))
        (void)C.next(5);
    }
    Loop.join();
    support::clearShutdownRequest();
  }

private:
  std::string SocketPath;
  std::unique_ptr<daemon::Server> Srv;
  Status St;
  std::thread Loop; ///< last: it uses Srv
};

/// Checks one job against its kind's reference; returns true when it
/// passed.
bool checkJob(Ledger &L, const JobRecord &R, const DaemonPlan &P,
              const std::vector<std::string> &Want) {
  std::string What = std::string(jobKindName(JobKind(R.Kind))) + " job";
  if (R.State != "finished") {
    L.fail(What + ": " + R.State);
    return false;
  }
  if (R.Checksum != Want[size_t(R.Kind)]) {
    L.fail(What + ": checksum " + R.Checksum + " != expected " +
           Want[size_t(R.Kind)]);
    return false;
  }
  int64_t Expect = P.Kinds[size_t(R.Kind)].ExpectQuarantined;
  if (Expect >= 0 && R.Quarantined != Expect) {
    L.fail(What + ": quarantined " + std::to_string(R.Quarantined) +
           " members, seeded " + std::to_string(Expect));
    return false;
  }
  L.pass();
  return true;
}

} // namespace

WorkloadResult perfbench::runDaemon(const Args &A, Tracer *T) {
  WorkloadResult R;
  DaemonPlan P = makeDaemonPlan(A.Seed, kClients, 400);
  std::string Socket = A.WorkDir + "/daemon.sock";
  std::string StateRoot = A.WorkDir + "/daemon";
  std::error_code Ec;
  std::filesystem::remove_all(StateRoot, Ec);

  // Untimed: reference checksums, which also emit and compile the native
  // kernels the jobs attach into the private cache (empty at this point).
  std::vector<std::string> Want;
  std::string Why;
  Counters C0 = Counters::now();
  if (!referenceChecksums(P, Want, Why)) {
    R.Ops.fail("reference: " + Why);
    return R;
  }
  Counters C1 = Counters::now();

  if (T) {
    DiagnosticEngine Diags;
    const models::ModelEntry *E = models::findModel("HodgkinHuxley");
    {
      Tracer::Scope S(T, "easyml", "compileModelInfo");
      (void)easyml::compileModelInfo(E->Name, E->Source, Diags);
    }
    coldenCaches();
    compileModel(T, "HodgkinHuxley", exec::EngineTier::Native);
    R.layer("compiler.native_attach_ms", T->meanMs("compileEntry.native"),
            "ms");
    R.layer("easyml.frontend_ms", T->meanMs("compileModelInfo"), "ms");
    R.layer("compiler.native_cc_s", ccSecondsEach(C0, C1), "s");
  }

  // Timed: server start on an empty state dir until ping answers, plus
  // the first job of each kind, on cold in-process caches.
  std::vector<double> SetupS;
  std::unique_ptr<Daemon> D;
  Counters S0 = Counters::now();
  for (int Rep = 0; Rep != kSetupReps; ++Rep) {
    if (D)
      D->stop();
    D.reset();
    coldenCaches();
    std::string StateDir = StateRoot + "/rep-" + std::to_string(Rep);
    Clock::time_point T0 = Clock::now();
    uint64_t Op = T ? T->newOp() : 0;
    Tracer::Scope S(T, "daemon", "setup", Op);
    {
      Tracer::Scope Start(T, "daemon", "Server::start");
      D = std::make_unique<Daemon>(Socket, StateDir);
    }
    if (!D->status()) {
      R.Ops.fail("server start: " + D->status().message());
      return R;
    }
    Client C;
    bool Pong = C.connect(Socket, 10) && C.send(R"({"verb":"ping"})");
    std::optional<daemon::JsonValue> E = C.next(10);
    if (!Pong || !E || E->stringOr("detail", "") != "pong") {
      R.Ops.fail("server did not answer ping");
      return R;
    }
    std::vector<JobRecord> First(kNumJobKinds);
    std::vector<JobRecord *> Ptrs;
    for (int K = 0; K != kNumJobKinds; ++K) {
      First[size_t(K)].Kind = K;
      First[size_t(K)].Submit = Clock::now();
      C.send(submitLine(P.Kinds[size_t(K)], "setup"));
      Ptrs.push_back(&First[size_t(K)]);
    }
    collect(C, Ptrs);
    SetupS.push_back(secondsSince(T0));
    for (const JobRecord &J : First)
      checkJob(R.Ops, J, P, Want);
  }
  Counters S1 = Counters::now();

  // Timed: closed loop, until --seconds have passed and enough jobs have
  // finished that at least ten lie beyond p90.
  std::vector<std::vector<JobRecord>> Done(kClients);
  std::atomic<bool> Stop{false};
  std::atomic<size_t> Finished{0};
  std::vector<double> Calib;
  Counters P0 = Counters::now();
  Clock::time_point Start = Clock::now();
  std::vector<std::thread> Clients;
  for (int CI = 0; CI != kClients; ++CI)
    Clients.emplace_back([&, CI] {
      Client C;
      if (!C.connect(Socket, 10)) {
        JobRecord J;
        J.State = "client could not connect";
        Done[size_t(CI)].push_back(J);
        Finished.fetch_add(1);
        return;
      }
      std::string Tenant = "c" + std::to_string(CI);
      const std::vector<int> &Seq = P.Sequence[size_t(CI)];
      for (size_t I = 0; !Stop.load(); ++I) {
        JobRecord J;
        J.Kind = Seq[I % Seq.size()];
        J.Submit = Clock::now();
        bool Sent = C.send(submitLine(P.Kinds[size_t(J.Kind)], Tenant));
        bool Ok = Sent && collect(C, {&J});
        Done[size_t(CI)].push_back(J);
        Finished.fetch_add(1);
        if (!Ok)
          return;
      }
    });
  while (!(secondsSince(Start) >= A.Seconds && Finished.load() >= kMinJobs) &&
         secondsSince(Start) < 3 * A.Seconds + 30) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    if (Calib.size() < size_t(secondsSince(Start)))
      Calib.push_back(hostCalibMs());
  }
  Stop.store(true);
  for (std::thread &Th : Clients)
    Th.join();
  double Timed = secondsSince(Start);
  Counters P1 = Counters::now();
  D->stop();

  std::vector<JobRecord> Jobs;
  for (const std::vector<JobRecord> &V : Done)
    Jobs.insert(Jobs.end(), V.begin(), V.end());
  std::vector<double> Latency, AdmitMs, FirstProgMs;
  std::vector<std::vector<double>> KindLatency(kNumJobKinds);
  // Per kind, the cell-steps stepped between each job's first progress
  // event and its terminal event, and the summed time of those windows.
  // Their ratio is the kind's stepping rate: work over mean time, not a
  // median of per-job rates, for the reason given at mean() in Stats.h.
  std::vector<double> RunCellSteps(kNumJobKinds), RunSec(kNumJobKinds);
  double CellSteps = 0, LatencySum = 0;
  int64_t Sweeps = 0, Steps = 0;
  for (const JobRecord &J : Jobs) {
    if (!checkJob(R.Ops, J, P, Want))
      continue;
    const JobTemplate &K = P.Kinds[size_t(J.Kind)];
    Latency.push_back(J.latencyMs());
    KindLatency[size_t(J.Kind)].push_back(J.latencyMs());
    LatencySum += J.latencyMs();
    CellSteps += double(K.Cells) * double(K.Steps);
    Steps += K.Steps;
    Sweeps += K.Kind == JobKind::NativeSweep;
    AdmitMs.push_back(
        std::chrono::duration<double, std::milli>(J.Accepted - J.Submit)
            .count());
    if (J.FirstProgressSteps >= 0) {
      FirstProgMs.push_back(std::chrono::duration<double, std::milli>(
                                J.FirstProgress - J.Accepted)
                                .count());
      RunSec[size_t(J.Kind)] +=
          std::chrono::duration<double>(J.Terminal - J.FirstProgress).count();
      RunCellSteps[size_t(J.Kind)] +=
          double(K.Cells) * double(K.Steps - J.FirstProgressSteps);
    }
    if (T) {
      uint64_t Op = T->newOp();
      uint64_t Job = T->addSpan("daemon", "job", Op, J.Submit, J.Terminal);
      T->addSpan("daemon", "admit", Op, J.Submit, J.Accepted, Job);
      if (J.FirstProgressSteps >= 0) {
        T->addSpan("daemon", "queue+compile", Op, J.Accepted, J.FirstProgress,
                   Job);
        T->addSpan("sim", "step", Op, J.FirstProgress, J.Terminal, Job);
      }
    }
  }

  char Buf[240];
  std::snprintf(Buf, sizeof(Buf),
                "jobs %zu finished and checked of %zu, %lld beyond p90, "
                "%.1f cell-steps/s overall",
                Latency.size(), Jobs.size(),
                (long long)samplesBeyond(Latency.size(), 90),
                CellSteps / Timed);
  R.note(Buf);
  for (int K = 0; K != kNumJobKinds; ++K) {
    std::snprintf(Buf, sizeof(Buf),
                  "kind %-18s jobs %3zu  median latency %8.2f ms",
                  jobKindName(JobKind(K)), KindLatency[size_t(K)].size(),
                  median(KindLatency[size_t(K)]));
    R.note(Buf);
  }
  auto SteppingRate = [&](JobKind K) {
    size_t I = size_t(K);
    return RunSec[I] > 0 ? RunCellSteps[I] / RunSec[I] : 0.0;
  };
  R.e2e("setup_s", median(SetupS), "s");
  R.e2e("cell_steps_per_s.vm", SteppingRate(JobKind::VmPopulation),
        "cell-steps/s");
  R.e2e("cell_steps_per_s.native", SteppingRate(JobKind::NativePopulation),
        "cell-steps/s");
  R.e2e("op_ms.p50", median(Latency), "ms");
  R.e2e("op_ms.p90", percentile(Latency, 90), "ms");
  R.e2e("ops_per_s", double(Latency.size()) / Timed, "ops/s");
  R.e2e("peak_rss_mb", peakRssMb(), "MB");
  R.note("host.calib_ms " + std::to_string(median(Calib)));

  if (T) {
    int64_t Cold = int64_t(delta(S0, S1, "compile.cold.count"));
    addCommonLayerMetrics(R, *T, S0, S1, Cold, int64_t(Jobs.size()));
    R.layer("compiler.cold_compile_ms",
            delta(S0, S1, "compile.cold.ns") * 1e-6 /
                double(std::max<int64_t>(1, Cold)),
            "ms");
    R.layer("compiler.bytecode_instrs",
            delta(S0, S1, "compile.bytecode.instrs") /
                double(std::max<int64_t>(1, Cold)),
            "count");
    double Warm = delta(P0, P1, "compile.warm.count");
    R.layer("compiler.warm_compile_ms",
            Warm > 0 ? delta(P0, P1, "compile.warm.ns") * 1e-6 / Warm : 0,
            "ms");
    double Hits = delta(P0, P1, "compile.cache.hit");
    double Misses = delta(P0, P1, "compile.cache.miss");
    R.layer("compiler.cache_hit_ratio",
            Hits + Misses > 0 ? Hits / (Hits + Misses) : 0, "ratio");
    double Scans = delta(P0, P1, "sim.health.scans");
    R.layer("sim.health_scan_us",
            Scans > 0 ? delta(P0, P1, "sim.health.scan.ns") * 1e-3 / Scans : 0,
            "us");
    double PerSweep = Sweeps > 0 ? 1.0 / double(Sweeps) : 0;
    R.layer("sim.recovery_ms_per_sweep",
            delta(P0, P1, "sim.recovery.ns") * 1e-6 * PerSweep, "ms");
    R.layer("sim.quarantined_per_sweep",
            delta(P0, P1, "sim.ensemble.quarantined") * PerSweep, "count");
    double Ckpts = delta(P0, P1, "sim.checkpoint.count");
    R.layer("sim.checkpoint_ms",
            Ckpts > 0 ? delta(P0, P1, "sim.checkpoint.ns") * 1e-6 / Ckpts : 0,
            "ms");
    R.layer("sim.checkpoint_bytes",
            Ckpts > 0 ? delta(P0, P1, "sim.checkpoint.bytes") / Ckpts : 0, "B");
    double PerStep = 1.0 / double(std::max<int64_t>(1, Steps));
    R.layer("runtime.parallel_for_per_step",
            delta(P0, P1, "pool.parallel_for.calls") * PerStep, "count");
    R.layer("sim.stages_per_step", delta(P0, P1, "sim.sched.stages") * PerStep,
            "count");
    R.layer("daemon.admit_ms", median(AdmitMs), "ms");
    R.layer("daemon.queue_to_first_progress_ms", median(FirstProgMs), "ms");
    R.layer("daemon.run_share", delta(P0, P1, "sim.run.ns") * 1e-6 / LatencySum,
            "ratio");
    // Journal appends on the same disk as the daemon's state dir.
    {
      std::string Path = StateRoot + "/bench-journal.lmpj";
      daemon::Journal J(Path);
      std::vector<double> Us;
      if (J.open()) {
        for (int I = 0; I != 200; ++I) {
          Tracer::Scope S(T, "daemon", "Journal::append");
          Clock::time_point T0 = Clock::now();
          (void)J.append(daemon::Journal::Kind::Started, uint64_t(I));
          Us.push_back(secondsSince(T0) * 1e6);
        }
        J.close();
      }
      R.layer("daemon.journal_append_us", median(Us), "us");
    }
    R.layer("host.calib_ms", median(Calib), "ms");
  }
  return R;
}
