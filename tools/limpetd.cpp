//===- limpetd.cpp - simulation-as-a-service daemon -----------------------===//
//
// Long-lived job server over the limpet runtime: accepts simulation jobs
// (model + engine configuration + protocol) as newline-delimited JSON on
// a Unix domain socket, multiplexes them over the shared thread pool
// with admission control, per-tenant fairness, deadlines and cooperative
// cancellation, and journals every accepted job so a killed daemon
// replays unfinished work from its newest valid checkpoint on restart.
// See docs/DAEMON.md for the protocol and policies; limpetctl is the
// matching client.
//
//   limpetd --socket /tmp/limpetd.sock --state-dir /var/lib/limpetd
//
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"
#include "support/Signals.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace limpet;

static void printUsage() {
  std::printf(
      "usage: limpetd --socket PATH --state-dir DIR [options]\n"
      "  --socket PATH       Unix socket to listen on (required)\n"
      "  --state-dir DIR     journal + per-job checkpoints (required)\n"
      "  --runners N         concurrent job runner threads (default 2)\n"
      "  --sim-threads N     stepping threads per job (default 2)\n"
      "  --max-queue N       bounded queue depth (default 16)\n"
      "  --tenant-running N  running jobs per tenant (default 2)\n"
      "  --tenant-inflight N queued+running jobs per tenant (default 8)\n"
      "  --checkpoint-every N  default checkpoint cadence in steps for\n"
      "                      jobs that do not set one (default 10000)\n"
      "\n"
      "SIGINT/SIGTERM drain cleanly: running jobs stop at their next step\n"
      "boundary with a final checkpoint and replay on the next start.\n"
      "SIGKILL loses nothing accepted: the journal replays it.\n");
}

int main(int argc, char **argv) {
  daemon::Server::Options O;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string Val;
    if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else if (flagValue(argc, argv, I, "--socket", Val))
      O.SocketPath = Val;
    else if (flagValue(argc, argv, I, "--state-dir", Val))
      O.StateDir = Val;
    else if (flagValue(argc, argv, I, "--runners", Val))
      O.Runners = unsigned(std::atoi(Val.c_str()));
    else if (flagValue(argc, argv, I, "--sim-threads", Val))
      O.SimThreads = unsigned(std::atoi(Val.c_str()));
    else if (flagValue(argc, argv, I, "--max-queue", Val))
      O.Limits.MaxQueued = size_t(std::atoll(Val.c_str()));
    else if (flagValue(argc, argv, I, "--tenant-running", Val))
      O.Limits.PerTenantRunning = std::atoi(Val.c_str());
    else if (flagValue(argc, argv, I, "--tenant-inflight", Val))
      O.Limits.PerTenantInFlight = std::atoi(Val.c_str());
    else if (flagValue(argc, argv, I, "--checkpoint-every", Val))
      O.DefaultCheckpointEvery = std::atoll(Val.c_str());
    else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      printUsage();
      return 1;
    }
  }
  if (O.SocketPath.empty() || O.StateDir.empty()) {
    std::fprintf(stderr, "error: --socket and --state-dir are required\n");
    printUsage();
    return 1;
  }

  // One place touches signal disposition: SIGINT/SIGTERM set the
  // shutdown flag the accept loop and every Simulator poll, SIGPIPE is
  // ignored so vanished clients surface as send() errors. Previous
  // handlers are restored when main returns.
  support::ScopedSignalHandlers Signals(/*IgnorePipe=*/true);

  daemon::Server Server(O);
  if (Status S = Server.start(); !S) {
    std::fprintf(stderr, "error: %s\n", S.message().c_str());
    return 1;
  }
  if (Server.replayedJobs())
    std::fprintf(stderr, "limpetd: replaying %zu unfinished job(s)\n",
                 Server.replayedJobs());
  std::fprintf(stderr, "limpetd: listening on %s\n", O.SocketPath.c_str());
  int Rc = Server.serve();
  std::fprintf(stderr, "limpetd: drained, exiting\n");
  return Rc;
}
