//===- limpetctl.cpp - limpetd control client -----------------------------===//
//
// Thin NDJSON client for the limpetd daemon (docs/DAEMON.md): submits
// jobs, streams their events, cancels, polls status, and drives the
// daemon smoke harness. One request verb per invocation:
//
//   limpetctl --socket S submit --model OHara --steps 2000 --wait
//   limpetctl --socket S cancel --id 3
//   limpetctl --socket S wait --id 3
//   limpetctl --socket S status [--id N] | stats [--tenant T]
//   limpetctl --socket S ping | shutdown
//
// Exit codes make terminal states scriptable: 0 finished/ok, 3 rejected,
// 4 failed, 5 cancelled, 6 expired, 7 shed, 1 protocol/connection error.
//
//===----------------------------------------------------------------------===//

#include "daemon/Json.h"
#include "daemon/Protocol.h"
#include "support/StringUtils.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

using namespace limpet;
using namespace limpet::daemon;

namespace {

void printUsage() {
  std::printf(
      "usage: limpetctl --socket PATH <verb> [options]\n"
      "verbs:\n"
      "  submit   --model NAME [--cells N] [--steps N] [--dt X]\n"
      "           [--tenant T] [--priority P] [--timeout-sec X]\n"
      "           [--checkpoint-every N] [--progress-every N]\n"
      "           [--no-guard] [--preset baseline|limpetmlir|autovec]\n"
      "           [--width N|auto] [--layout aos|soa|aosoa]\n"
      "           [--engine vm|native|auto] [--autotune] [--wait]\n"
      "           [--tissue NX[xNY]] [--dx D] [--sigma S]\n"
      "           [--diffusion ftcs|cn] [--stim PROTO]\n"
      "           [--sweep EXPR] [--member-cells N]\n"
      "  cancel   --id N\n"
      "  wait     --id N      poll until the job is terminal\n"
      "  status   [--id N]\n"
      "  stats    [--tenant T]\n"
      "  ping | shutdown\n"
      "connection:\n"
      "  --retry N            retry a refused connect up to N times with\n"
      "                       exponential backoff + jitter (daemon restart\n"
      "                       windows; default 0 = fail on the first error)\n"
      "  --connect-timeout S  keep retrying the connect for up to S seconds\n"
      "                       (implies retrying even with --retry 0)\n"
      "ensemble:\n"
      "  --sweep EXPR         submit a fault-isolated parameter sweep\n"
      "                       ('gK=0.1:0.5:5;gNa=7,11' grid grammar); the\n"
      "                       terminal event reports members_ok /\n"
      "                       members_quarantined (docs/ENSEMBLE.md)\n"
      "  --member-cells N     cells per sweep member (default 1)\n");
}

#ifndef _WIN32

/// Blocking line-oriented client connection.
class Client {
public:
  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool connect(const std::string &Path) {
    sockaddr_un Addr{};
    if (Path.size() >= sizeof(Addr.sun_path))
      return false;
    Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0)
      return false;
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      ::close(Fd);
      Fd = -1;
      return false;
    }
    return true;
  }

  bool sendLine(const std::string &Line) {
    std::string Framed = Line + "\n";
    size_t Off = 0;
    while (Off < Framed.size()) {
      ssize_t N = ::send(Fd, Framed.data() + Off, Framed.size() - Off,
                         MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += size_t(N);
    }
    return true;
  }

  /// Reads one newline-terminated line; false on EOF/error.
  bool readLine(std::string &Out) {
    size_t Nl;
    while ((Nl = Buf.find('\n')) == std::string::npos) {
      char Tmp[4096];
      ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Buf.append(Tmp, size_t(N));
    }
    Out = Buf.substr(0, Nl);
    Buf.erase(0, Nl + 1);
    return true;
  }

private:
  int Fd = -1;
  std::string Buf;
};

/// Connects with bounded retries: exponential backoff (25 ms doubling to
/// a 1 s cap) with +-25% jitter, so a fleet of clients waiting out a
/// daemon restart window does not reconnect in lockstep. Retries continue
/// while either budget remains: up to \p MaxRetries extra attempts, or
/// until the \p TimeoutSec wall-clock budget expires (TimeoutSec <= 0 =
/// attempt budget only).
bool connectWithRetry(Client &C, const std::string &Path, int MaxRetries,
                      double TimeoutSec) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             TimeoutSec > 0 ? TimeoutSec : 0));
  unsigned Seed =
      unsigned(::getpid()) ^
      unsigned(Clock::now().time_since_epoch().count());
  double DelayMs = 25;
  for (int Attempt = 0;; ++Attempt) {
    if (C.connect(Path))
      return true;
    if (Attempt >= MaxRetries &&
        !(TimeoutSec > 0 && Clock::now() < Deadline))
      return false;
    if (TimeoutSec > 0 && Clock::now() >= Deadline)
      return false;
    // rand_r keeps the jitter per-process deterministic-free without
    // dragging in <random>; +-25% around the current backoff step.
    double Jitter = 0.75 + 0.5 * (double(rand_r(&Seed)) / double(RAND_MAX));
    double SleepMs = DelayMs * Jitter;
    if (TimeoutSec > 0) {
      double LeftMs =
          std::chrono::duration<double, std::milli>(Deadline - Clock::now())
              .count();
      if (LeftMs <= 0)
        return false;
      if (SleepMs > LeftMs)
        SleepMs = LeftMs;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(SleepMs));
    DelayMs = DelayMs * 2 < 1000 ? DelayMs * 2 : 1000;
  }
}

/// Exit code for a terminal job state (scriptable by the smoke harness).
int exitCodeFor(const std::string &State) {
  if (State == "finished")
    return 0;
  if (State == "failed")
    return 4;
  if (State == "cancelled")
    return 5;
  if (State == "expired")
    return 6;
  if (State == "shed")
    return 7;
  return 1;
}

bool isTerminalState(const std::string &State) {
  return State == "finished" || State == "failed" || State == "cancelled" ||
         State == "expired" || State == "shed";
}

/// Polls `status` for one job until it reaches a terminal state.
int waitForJob(Client &C, uint64_t Id) {
  JsonValue Req = JsonValue::object();
  Req.set("verb", JsonValue::string("status"));
  Req.set("id", JsonValue::number(Id));
  std::string ReqLine = Req.str();
  while (true) {
    if (!C.sendLine(ReqLine))
      return 1;
    std::string Line;
    if (!C.readLine(Line))
      return 1;
    Expected<JsonValue> Resp = JsonValue::parse(Line);
    if (!Resp)
      return 1;
    if (Resp->stringOr("event", "") == "error") {
      std::fprintf(stderr, "error: %s\n",
                   Resp->stringOr("error", "?").c_str());
      return 1;
    }
    const JsonValue *Job = Resp->find("job");
    std::string State = Job ? Job->stringOr("state", "") : "";
    if (isTerminalState(State)) {
      std::printf("%s\n", Job->str().c_str());
      return exitCodeFor(State);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

#endif // !_WIN32

} // namespace

int main(int argc, char **argv) {
#ifdef _WIN32
  (void)argc;
  (void)argv;
  std::fprintf(stderr, "error: limpetctl requires POSIX sockets\n");
  return 1;
#else
  std::string Socket, Verb;
  JsonValue Req = JsonValue::object();
  JsonValue Cfg = JsonValue::object();
  bool Wait = false;
  uint64_t WaitId = 0;
  int ConnectRetries = 0;
  double ConnectTimeoutSec = 0;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string Val;
    if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else if (flagValue(argc, argv, I, "--socket", Val))
      Socket = Val;
    else if (flagValue(argc, argv, I, "--model", Val))
      Req.set("model", JsonValue::string(Val));
    else if (flagValue(argc, argv, I, "--tenant", Val))
      Req.set("tenant", JsonValue::string(Val));
    else if (flagValue(argc, argv, I, "--cells", Val))
      Req.set("cells", JsonValue::number(double(std::atoll(Val.c_str()))));
    else if (flagValue(argc, argv, I, "--steps", Val))
      Req.set("steps", JsonValue::number(double(std::atoll(Val.c_str()))));
    else if (flagValue(argc, argv, I, "--dt", Val))
      Req.set("dt", JsonValue::number(std::atof(Val.c_str())));
    else if (flagValue(argc, argv, I, "--priority", Val))
      Req.set("priority", JsonValue::number(double(std::atoi(Val.c_str()))));
    else if (flagValue(argc, argv, I, "--timeout-sec", Val))
      Req.set("timeout_sec", JsonValue::number(std::atof(Val.c_str())));
    else if (flagValue(argc, argv, I, "--checkpoint-every", Val))
      Req.set("checkpoint_every",
              JsonValue::number(double(std::atoll(Val.c_str()))));
    else if (flagValue(argc, argv, I, "--progress-every", Val))
      Req.set("progress_every",
              JsonValue::number(double(std::atoll(Val.c_str()))));
    else if (flagValue(argc, argv, I, "--tissue", Val)) {
      long long NX = 0, NY = 1;
      char Sep = 0;
      int N = std::sscanf(Val.c_str(), "%lld%c%lld", &NX, &Sep, &NY);
      if (N == 1)
        NY = 1;
      else if (N != 3 || (Sep != 'x' && Sep != 'X')) {
        std::fprintf(stderr,
                     "error: bad --tissue spec '%s' (want NX or NXxNY)\n",
                     Val.c_str());
        return 1;
      }
      Req.set("tissue_nx", JsonValue::number(double(NX)));
      Req.set("tissue_ny", JsonValue::number(double(NY)));
    } else if (flagValue(argc, argv, I, "--dx", Val))
      Req.set("tissue_dx", JsonValue::number(std::atof(Val.c_str())));
    else if (flagValue(argc, argv, I, "--sigma", Val))
      Req.set("tissue_sigma", JsonValue::number(std::atof(Val.c_str())));
    else if (flagValue(argc, argv, I, "--diffusion", Val))
      Req.set("tissue_method", JsonValue::string(Val));
    else if (flagValue(argc, argv, I, "--stim", Val))
      Req.set("tissue_stim", JsonValue::string(Val));
    else if (flagValue(argc, argv, I, "--sweep", Val))
      Req.set("ensemble_sweep", JsonValue::string(Val));
    else if (flagValue(argc, argv, I, "--member-cells", Val))
      Req.set("ensemble_cells_per",
              JsonValue::number(double(std::atoll(Val.c_str()))));
    else if (flagValue(argc, argv, I, "--retry", Val))
      ConnectRetries = std::atoi(Val.c_str());
    else if (flagValue(argc, argv, I, "--connect-timeout", Val))
      ConnectTimeoutSec = std::atof(Val.c_str());
    else if (flagValue(argc, argv, I, "--id", Val)) {
      WaitId = uint64_t(std::atoll(Val.c_str()));
      Req.set("id", JsonValue::number(double(WaitId)));
    } else if (flagValue(argc, argv, I, "--preset", Val))
      Cfg.set("preset", JsonValue::string(Val));
    else if (flagValue(argc, argv, I, "--width", Val)) {
      if (Val == "auto")
        Cfg.set("width", JsonValue::string("auto"));
      else
        Cfg.set("width", JsonValue::number(double(std::atoi(Val.c_str()))));
    } else if (flagValue(argc, argv, I, "--layout", Val))
      Cfg.set("layout", JsonValue::string(Val));
    else if (flagValue(argc, argv, I, "--engine", Val))
      Req.set("engine", JsonValue::string(Val));
    else if (Arg == "--autotune")
      Req.set("autotune", JsonValue::boolean(true));
    else if (Arg == "--no-guard")
      Req.set("guard", JsonValue::boolean(false));
    else if (Arg == "--wait")
      Wait = true;
    else if (!Arg.empty() && Arg[0] != '-' && Verb.empty())
      Verb = Arg;
    else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Arg.c_str());
      printUsage();
      return 1;
    }
  }
  if (Socket.empty() || Verb.empty()) {
    std::fprintf(stderr, "error: --socket and a verb are required\n");
    printUsage();
    return 1;
  }
  // As in limpetc, --width N > 1 without --preset selects limpetMLIR.
  if (const JsonValue *W = Cfg.find("width");
      W && W->isNumber() && W->asNumber() > 1 && !Cfg.find("preset"))
    Cfg.set("preset", JsonValue::string("limpetmlir"));
  if (!Cfg.members().empty())
    Req.set("config", std::move(Cfg));

  Client C;
  if (!connectWithRetry(C, Socket, ConnectRetries, ConnectTimeoutSec)) {
    std::fprintf(stderr, "error: cannot connect to '%s'\n", Socket.c_str());
    return 1;
  }

  if (Verb == "wait") {
    if (!WaitId) {
      std::fprintf(stderr, "error: wait needs --id\n");
      return 1;
    }
    return waitForJob(C, WaitId);
  }

  Req.set("verb", JsonValue::string(Verb));
  if (!C.sendLine(Req.str()))
    return 1;

  uint64_t SubmittedId = 0;
  while (true) {
    std::string Line;
    if (!C.readLine(Line)) {
      // EOF before a terminal event: with --wait that is a failure (the
      // daemon died); otherwise it just ends the stream.
      return Wait ? 1 : 0;
    }
    std::printf("%s\n", Line.c_str());
    std::fflush(stdout);
    Expected<JsonValue> Resp = JsonValue::parse(Line);
    if (!Resp)
      return 1;
    std::string Event = Resp->stringOr("event", "");
    if (Event == "rejected")
      return 3;
    if (Event == "error")
      return 1;
    if (Verb != "submit")
      return 0; // single-response verbs
    if (Event == "accepted") {
      SubmittedId = uint64_t(Resp->numberOr("id", 0));
      if (!Wait)
        return 0;
      continue;
    }
    if (isTerminalState(Event) &&
        uint64_t(Resp->numberOr("id", 0)) == SubmittedId) {
      // Ensemble partial-result summary, human-readable next to the raw
      // NDJSON: "997/1000 ok, 3 quarantined".
      if (const JsonValue *Ok = Resp->find("members_ok")) {
        int64_t NOk = int64_t(Ok->asNumber());
        int64_t NQ = Resp->intOr("members_quarantined", 0);
        std::fprintf(stderr, "members: %lld/%lld ok, %lld quarantined\n",
                     (long long)NOk, (long long)(NOk + NQ), (long long)NQ);
      }
      return exitCodeFor(Event);
    }
  }
#endif
}
