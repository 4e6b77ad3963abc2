//===- DaemonTests.cpp - limpetd building-block unit tests ----------------===//
//
// The daemon's pieces in isolation: the NDJSON value type, the SPSC
// event ring, admission control / shedding / fair-share dispatch in the
// JobQueue, the durable job journal, and JobSpec (de)serialization.
// The end-to-end daemon (socket, runners, crash replay) is covered by
// scripts/daemon_smoke.sh and the faultinject daemon-* scenarios.
//
//===----------------------------------------------------------------------===//

#include "compiler/CompileCache.h"
#include "compiler/KernelEmitter.h"
#include "daemon/JobQueue.h"
#include "daemon/JobRunner.h"
#include "daemon/Journal.h"
#include "daemon/Json.h"
#include "daemon/Protocol.h"
#include "daemon/SpscRing.h"
#include "sim/Checkpoint.h"
#include "sim/Run.h"
#include "support/Telemetry.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <gtest/gtest.h>
#include <limits>
#include <thread>
#include <unistd.h>

using namespace limpet;
using namespace limpet::daemon;

namespace {

/// A unique, empty temp directory per test.
std::string freshDir(const char *Tag) {
  std::string Dir = ::testing::TempDir() + "limpet-daemon-" + Tag + "-" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(DaemonJson, RendersCompactSingleLine) {
  JsonValue J = JsonValue::object();
  J.set("verb", JsonValue::string("submit"));
  J.set("steps", JsonValue::number(int64_t(2000)));
  J.set("dt", JsonValue::number(0.01));
  J.set("guard", JsonValue::boolean(false));
  J.set("note", JsonValue::string("line1\nline2\ttab"));
  std::string S = J.str();
  // NDJSON framing: control characters are escaped, never raw.
  EXPECT_EQ(S.find('\n'), std::string::npos);
  EXPECT_EQ(S.find('\t'), std::string::npos);
  EXPECT_NE(S.find("\\n"), std::string::npos);
  EXPECT_NE(S.find("\"steps\":2000"), std::string::npos);
  EXPECT_NE(S.find("\"guard\":false"), std::string::npos);
}

TEST(DaemonJson, ParseRoundTripsRenderedValues) {
  JsonValue J = JsonValue::object();
  J.set("model", JsonValue::string("O'Hara \"quoted\" \\ slash"));
  J.set("cells", JsonValue::number(int64_t(1 << 20)));
  J.set("dt", JsonValue::number(0.005));
  J.set("nil", JsonValue::null());
  JsonValue Arr = JsonValue::array();
  Arr.push(JsonValue::number(int64_t(1)));
  Arr.push(JsonValue::boolean(true));
  Arr.push(JsonValue::string(""));
  J.set("mixed", std::move(Arr));

  Expected<JsonValue> P = JsonValue::parse(J.str());
  ASSERT_TRUE(bool(P)) << P.status().message();
  EXPECT_EQ(P->str(), J.str());
  EXPECT_EQ(P->stringOr("model", ""), "O'Hara \"quoted\" \\ slash");
  EXPECT_EQ(P->intOr("cells", 0), 1 << 20);
  EXPECT_DOUBLE_EQ(P->numberOr("dt", 0), 0.005);
  ASSERT_NE(P->find("nil"), nullptr);
  EXPECT_TRUE(P->find("nil")->isNull());
  ASSERT_NE(P->find("mixed"), nullptr);
  EXPECT_EQ(P->find("mixed")->items().size(), 3u);
}

TEST(DaemonJson, TypedAccessorsDefaultOnAbsentOrWrongType) {
  Expected<JsonValue> P = JsonValue::parse("{\"a\":\"text\",\"b\":3}");
  ASSERT_TRUE(bool(P));
  EXPECT_EQ(P->intOr("a", 7), 7);        // wrong type
  EXPECT_EQ(P->intOr("missing", 9), 9);  // absent
  EXPECT_EQ(P->stringOr("b", "d"), "d"); // wrong type
  EXPECT_EQ(P->intOr("b", 0), 3);
}

TEST(DaemonJson, MalformedInputIsARecoverableError) {
  // Client bytes are hostile: none of these may crash or parse.
  for (const char *Bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\":1}trailing", "\"unterminated",
        "{\"a\" 1}", "nul", "[1,2", "{\"\\u12\":1}"}) {
    Expected<JsonValue> P = JsonValue::parse(Bad);
    EXPECT_FALSE(bool(P)) << "accepted: " << Bad;
  }
  // Deeply nested input hits the depth limit, not the stack.
  std::string Deep(100000, '[');
  EXPECT_FALSE(bool(JsonValue::parse(Deep)));
}

//===----------------------------------------------------------------------===//
// SpscRing
//===----------------------------------------------------------------------===//

TEST(DaemonSpscRing, PushPopFifoAndFullDrops) {
  SpscRing<int> R(4); // rounds to capacity 4
  EXPECT_EQ(R.capacity(), 4u);
  for (int I = 0; I != 4; ++I)
    EXPECT_TRUE(R.tryPush(I));
  EXPECT_FALSE(R.tryPush(99)); // full: dropped, counted, not blocking
  EXPECT_EQ(R.dropped(), 1u);
  int V = -1;
  for (int I = 0; I != 4; ++I) {
    ASSERT_TRUE(R.tryPop(V));
    EXPECT_EQ(V, I);
  }
  EXPECT_FALSE(R.tryPop(V)); // empty
  EXPECT_TRUE(R.tryPush(5)); // space reclaimed
}

TEST(DaemonSpscRing, CloseTurnsPushesIntoCountedDrops) {
  SpscRing<std::string> R(8);
  EXPECT_TRUE(R.tryPush("before"));
  R.close();
  EXPECT_TRUE(R.closed());
  EXPECT_FALSE(R.tryPush("after"));
  EXPECT_FALSE(R.tryPush("after2"));
  EXPECT_EQ(R.dropped(), 2u);
  // Already-buffered events stay poppable after close.
  std::string V;
  EXPECT_TRUE(R.tryPop(V));
  EXPECT_EQ(V, "before");
}

TEST(DaemonSpscRing, ConcurrentProducerConsumerKeepsStrictFifo) {
  SpscRing<uint64_t> R(64);
  constexpr uint64_t N = 50000;
  std::thread Producer([&] {
    for (uint64_t I = 0; I != N; ++I)
      while (!R.tryPush(I)) // paced producer: retry instead of dropping
        std::this_thread::yield();
  });
  uint64_t Expect = 0, V = 0;
  while (Expect != N) {
    if (R.tryPop(V)) {
      ASSERT_EQ(V, Expect); // strict FIFO across threads, nothing lost
      ++Expect;
    }
  }
  Producer.join();
  EXPECT_FALSE(R.tryPop(V));
}

//===----------------------------------------------------------------------===//
// JobQueue
//===----------------------------------------------------------------------===//

JobPtr mkJob(uint64_t Id, const char *Tenant = "default", int Priority = 0) {
  auto J = std::make_shared<Job>();
  J->Spec.Id = Id;
  J->Spec.Tenant = Tenant;
  J->Spec.Priority = Priority;
  J->Spec.Model = "HodgkinHuxley";
  return J;
}

TEST(DaemonJobQueue, RejectsBeyondBoundedDepthWithReason) {
  JobQueue::Limits Lim;
  Lim.MaxQueued = 2;
  Lim.PerTenantRunning = 2;
  Lim.PerTenantInFlight = 8;
  JobQueue Q(Lim);
  EXPECT_TRUE(Q.submit(mkJob(1, "a")).Accepted);
  EXPECT_TRUE(Q.submit(mkJob(2, "b")).Accepted);
  JobQueue::Admission A = Q.submit(mkJob(3, "c"));
  EXPECT_FALSE(A.Accepted);
  EXPECT_EQ(A.Reason, "queue-full");
  EXPECT_EQ(Q.queuedCount(), 2u);
  EXPECT_EQ(Q.find(3), nullptr); // rejected jobs never enter the table
}

TEST(DaemonJobQueue, PerTenantInFlightCapFiresBeforeQueueDepth) {
  JobQueue::Limits Lim;
  Lim.MaxQueued = 8;
  Lim.PerTenantInFlight = 2;
  JobQueue Q(Lim);
  EXPECT_TRUE(Q.submit(mkJob(1, "a")).Accepted);
  EXPECT_TRUE(Q.submit(mkJob(2, "a")).Accepted);
  JobQueue::Admission A = Q.submit(mkJob(3, "a", /*Priority=*/5));
  EXPECT_FALSE(A.Accepted);
  EXPECT_EQ(A.Reason, "tenant-cap"); // even at high priority
  EXPECT_TRUE(Q.submit(mkJob(4, "b")).Accepted);
}

TEST(DaemonJobQueue, HigherPrioritySubmitShedsYoungestLowestPriority) {
  JobQueue::Limits Lim;
  Lim.MaxQueued = 3;
  JobQueue Q(Lim);
  EXPECT_TRUE(Q.submit(mkJob(1, "a", 1)).Accepted);
  EXPECT_TRUE(Q.submit(mkJob(2, "a", 0)).Accepted);
  EXPECT_TRUE(Q.submit(mkJob(3, "b", 0)).Accepted); // youngest at prio 0

  // Priority equal to the would-be victim's never evicts.
  JobQueue::Admission A = Q.submit(mkJob(4, "b", 0));
  EXPECT_FALSE(A.Accepted);
  EXPECT_EQ(A.Reason, "queue-full");
  EXPECT_EQ(Q.shedCount(), 0u);

  // Strictly higher priority evicts the youngest lowest-priority job.
  A = Q.submit(mkJob(5, "b", 2));
  ASSERT_TRUE(A.Accepted);
  ASSERT_NE(A.Shed, nullptr);
  EXPECT_EQ(A.Shed->Spec.Id, 3u);
  EXPECT_EQ(A.Shed->State.load(), JobState::Shed);
  EXPECT_EQ(Q.shedCount(), 1u);
  EXPECT_EQ(Q.queuedCount(), 3u);
  // The shed job stays findable (terminal) for status queries.
  ASSERT_NE(Q.find(3), nullptr);
  EXPECT_EQ(Q.find(3)->State.load(), JobState::Shed);
}

TEST(DaemonJobQueue, FairShareDispatchAcrossTenants) {
  JobQueue::Limits Lim;
  Lim.MaxQueued = 8;
  Lim.PerTenantRunning = 2;
  JobQueue Q(Lim);
  // Tenant a bursts four jobs before tenant b submits one.
  for (uint64_t I = 1; I <= 4; ++I)
    EXPECT_TRUE(Q.submit(mkJob(I, "a")).Accepted);
  EXPECT_TRUE(Q.submit(mkJob(5, "b")).Accepted);

  // First pop is a's FIFO head; second prefers b (fewer running).
  JobPtr P1 = Q.pop();
  ASSERT_TRUE(P1);
  EXPECT_EQ(P1->Spec.Id, 1u);
  JobPtr P2 = Q.pop();
  ASSERT_TRUE(P2);
  EXPECT_EQ(P2->Spec.Tenant, "b");
  EXPECT_EQ(P2->State.load(), JobState::Running);

  // a can run one more (cap 2)...
  JobPtr P3 = Q.pop();
  ASSERT_TRUE(P3);
  EXPECT_EQ(P3->Spec.Id, 2u);
  EXPECT_EQ(Q.runningCount(), 3u);

  // ...then a is capped; a freed slot unblocks the next a job.
  Q.finished(P1);
  JobPtr P4 = Q.pop();
  ASSERT_TRUE(P4);
  EXPECT_EQ(P4->Spec.Id, 3u);
}

TEST(DaemonJobQueue, PriorityBeatsFifoWithinATenant) {
  JobQueue Q;
  EXPECT_TRUE(Q.submit(mkJob(1, "a", 0)).Accepted);
  EXPECT_TRUE(Q.submit(mkJob(2, "a", 3)).Accepted);
  EXPECT_TRUE(Q.submit(mkJob(3, "a", 3)).Accepted);
  JobPtr P = Q.pop();
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Spec.Id, 2u); // highest priority, oldest among ties
}

TEST(DaemonJobQueue, CancelRemovesQueuedOnly) {
  JobQueue Q;
  EXPECT_TRUE(Q.submit(mkJob(1)).Accepted);
  EXPECT_TRUE(Q.submit(mkJob(2)).Accepted);
  JobPtr Running = Q.pop();
  ASSERT_TRUE(Running);
  EXPECT_EQ(Q.removeQueued(Running->Spec.Id), nullptr); // running: no
  JobPtr Removed = Q.removeQueued(2);
  ASSERT_TRUE(Removed);
  EXPECT_EQ(Removed->Spec.Id, 2u);
  EXPECT_EQ(Q.removeQueued(2), nullptr); // already gone
  EXPECT_EQ(Q.removeQueued(99), nullptr);
  EXPECT_EQ(Q.queuedCount(), 0u);
}

TEST(DaemonJobQueue, ShutdownDrainsBlockedPops) {
  JobQueue Q;
  std::thread Waiter([&] { EXPECT_EQ(Q.pop(), nullptr); });
  Q.shutdown();
  Waiter.join();
  JobQueue::Admission A = Q.submit(mkJob(1));
  EXPECT_FALSE(A.Accepted);
  EXPECT_EQ(A.Reason, "shutting-down");
}

//===----------------------------------------------------------------------===//
// Journal
//===----------------------------------------------------------------------===//

TEST(DaemonJournal, AppendReadAllRoundTrips) {
  std::string Dir = freshDir("journal-rt");
  std::string Path = Dir + "/journal.lj";
  {
    Journal J(Path);
    ASSERT_TRUE(J.open().isOk());
    ASSERT_TRUE(J.append(Journal::Kind::Accepted, 1, "{\"id\":1}").isOk());
    ASSERT_TRUE(J.append(Journal::Kind::Started, 1).isOk());
    ASSERT_TRUE(J.append(Journal::Kind::Accepted, 2, "{\"id\":2}").isOk());
    ASSERT_TRUE(J.append(Journal::Kind::Cancelled, 2).isOk());
  }
  bool Truncated = true;
  Expected<std::vector<Journal::Record>> R = Journal::readAll(Path, &Truncated);
  ASSERT_TRUE(bool(R)) << R.status().message();
  ASSERT_EQ(R->size(), 4u);
  EXPECT_FALSE(Truncated);
  EXPECT_EQ((*R)[0].K, Journal::Kind::Accepted);
  EXPECT_EQ((*R)[0].JobId, 1u);
  EXPECT_EQ((*R)[0].Payload, "{\"id\":1}");
  EXPECT_EQ((*R)[3].K, Journal::Kind::Cancelled);

  // Job 1 was accepted and started but never reached a terminal record;
  // job 2 was cancelled. Exactly job 1 replays.
  std::vector<Journal::Record> Live = Journal::unfinished(*R);
  ASSERT_EQ(Live.size(), 1u);
  EXPECT_EQ(Live[0].JobId, 1u);
  std::filesystem::remove_all(Dir);
}

TEST(DaemonJournal, TruncatedTailLosesOnlyTheTornRecord) {
  std::string Dir = freshDir("journal-trunc");
  std::string Path = Dir + "/journal.lj";
  {
    Journal J(Path);
    ASSERT_TRUE(J.open().isOk());
    for (uint64_t Id = 1; Id <= 3; ++Id)
      ASSERT_TRUE(J.append(Journal::Kind::Accepted, Id, "{}").isOk());
  }
  uintmax_t Full = std::filesystem::file_size(Path);
  // Chop the file at every prefix length: the reader must always return
  // an intact prefix of whole records and never error or misparse.
  std::string Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In), {});
  }
  ASSERT_EQ(Bytes.size(), Full);
  size_t RecordSize = Bytes.size() / 3;
  for (size_t Len : {Bytes.size() - 1, 2 * RecordSize + 5, RecordSize, size_t(3),
                     size_t(0)}) {
    std::ofstream(Path, std::ios::binary | std::ios::trunc)
        .write(Bytes.data(), std::streamsize(Len));
    bool Truncated = false;
    Expected<std::vector<Journal::Record>> R =
        Journal::readAll(Path, &Truncated);
    ASSERT_TRUE(bool(R)) << "len=" << Len;
    EXPECT_EQ(R->size(), Len / RecordSize) << "len=" << Len;
    EXPECT_EQ(Truncated, Len % RecordSize != 0) << "len=" << Len;
  }
  std::filesystem::remove_all(Dir);
}

TEST(DaemonJournal, CompactRewritesExactlyTheLiveSet) {
  std::string Dir = freshDir("journal-compact");
  std::string Path = Dir + "/journal.lj";
  {
    Journal J(Path);
    ASSERT_TRUE(J.open().isOk());
    for (uint64_t Id = 1; Id <= 5; ++Id)
      ASSERT_TRUE(J.append(Journal::Kind::Accepted, Id, "{}").isOk());
    for (uint64_t Id : {1, 3, 5})
      ASSERT_TRUE(J.append(Journal::Kind::Finished, Id).isOk());
  }
  Expected<std::vector<Journal::Record>> R = Journal::readAll(Path);
  ASSERT_TRUE(bool(R));
  std::vector<Journal::Record> Live = Journal::unfinished(*R);
  ASSERT_EQ(Live.size(), 2u);
  ASSERT_TRUE(Journal::compact(Path, Live).isOk());

  R = Journal::readAll(Path);
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->size(), 2u);
  EXPECT_EQ((*R)[0].JobId, 2u);
  EXPECT_EQ((*R)[1].JobId, 4u);
  // A compacted journal accepts further appends.
  {
    Journal J(Path);
    ASSERT_TRUE(J.open().isOk());
    ASSERT_TRUE(J.append(Journal::Kind::Finished, 2).isOk());
  }
  R = Journal::readAll(Path);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R->size(), 3u);
  EXPECT_EQ(Journal::unfinished(*R).size(), 1u);
  std::filesystem::remove_all(Dir);
}

TEST(DaemonJournal, MissingFileIsAnEmptyJournal) {
  bool Truncated = true;
  Expected<std::vector<Journal::Record>> R =
      Journal::readAll(::testing::TempDir() + "limpet-daemon-nope/absent.lj",
                       &Truncated);
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(R->empty());
  EXPECT_FALSE(Truncated);
}

//===----------------------------------------------------------------------===//
// JobSpec
//===----------------------------------------------------------------------===//

TEST(DaemonJobSpec, JsonRoundTripPreservesEveryField) {
  Expected<JsonValue> Body = JsonValue::parse(
      "{\"model\":\"OHaraRudy\",\"tenant\":\"lab7\",\"priority\":2,"
      "\"cells\":512,\"steps\":4000,\"dt\":0.005,\"guard\":false,"
      "\"timeout_sec\":1.5,\"checkpoint_every\":200,\"progress_every\":50,"
      "\"config\":{\"preset\":\"limpetmlir\",\"width\":8,\"layout\":\"aosoa\"}}");
  ASSERT_TRUE(bool(Body));
  Expected<JobSpec> Spec = parseJobSpec(*Body);
  ASSERT_TRUE(bool(Spec)) << Spec.status().message();
  (*Spec).Id = 42;
  EXPECT_EQ(Spec->Model, "OHaraRudy");
  EXPECT_EQ(Spec->Tenant, "lab7");
  EXPECT_EQ(Spec->Priority, 2);
  EXPECT_EQ(Spec->NumCells, 512);
  EXPECT_EQ(Spec->NumSteps, 4000);
  EXPECT_DOUBLE_EQ(Spec->Dt, 0.005);
  EXPECT_FALSE(Spec->Guard);
  EXPECT_DOUBLE_EQ(Spec->TimeoutSec, 1.5);
  EXPECT_EQ(Spec->CheckpointEveryN, 200);
  EXPECT_EQ(Spec->ProgressEvery, 50);
  EXPECT_EQ(Spec->Config.Width, 8u);

  // journal payload -> parse -> identical spec (the recovery path).
  Expected<JobSpec> Back = parseJobSpec(jobSpecToJson(*Spec));
  ASSERT_TRUE(bool(Back)) << Back.status().message();
  EXPECT_EQ(Back->Id, 42u);
  EXPECT_EQ(jobSpecToJson(*Back).str(), jobSpecToJson(*Spec).str());
}

TEST(DaemonJobSpec, StructurallyInvalidSpecsAreRecoverableErrors) {
  const char *Bad[] = {
      "{}",                                        // missing model
      "{\"model\":\"HH\",\"cells\":0}",            // non-positive cells
      "{\"model\":\"HH\",\"steps\":-5}",           // non-positive steps
      "{\"model\":\"HH\",\"dt\":0}",               // non-positive dt
      "{\"model\":\"HH\",\"timeout_sec\":-1}",     // negative deadline
      "{\"model\":\"HH\",\"tenant\":\"\"}",        // empty tenant
      "{\"model\":\"HH\",\"config\":{\"preset\":\"turbo\"}}", // bad preset
      "{\"model\":\"HH\",\"config\":{\"layout\":\"csr\"}}",   // bad layout
      "[1,2,3]",                                   // not an object
  };
  for (const char *Text : Bad) {
    Expected<JsonValue> Body = JsonValue::parse(Text);
    ASSERT_TRUE(bool(Body)) << Text;
    EXPECT_FALSE(bool(parseJobSpec(*Body))) << "accepted: " << Text;
  }
  // Defaults apply when optional fields are omitted.
  Expected<JsonValue> Min = JsonValue::parse("{\"model\":\"HH\"}");
  ASSERT_TRUE(bool(Min));
  Expected<JobSpec> Spec = parseJobSpec(*Min);
  ASSERT_TRUE(bool(Spec));
  EXPECT_EQ(Spec->Tenant, "default");
  EXPECT_EQ(Spec->NumCells, 256);
  EXPECT_EQ(Spec->NumSteps, 1000);
  EXPECT_TRUE(Spec->Guard);
}

TEST(DaemonJobSpec, EnsembleSweepRoundTripsAndValidatesAtAdmission) {
  Expected<JsonValue> Body = JsonValue::parse(
      "{\"model\":\"HodgkinHuxley\",\"steps\":200,"
      "\"ensemble_sweep\":\"gK=20:40:5;gNa=90,120\","
      "\"ensemble_cells_per\":2}");
  ASSERT_TRUE(bool(Body));
  Expected<JobSpec> Spec = parseJobSpec(*Body);
  ASSERT_TRUE(bool(Spec)) << Spec.status().message();
  EXPECT_EQ(Spec->EnsembleSweep, "gK=20:40:5;gNa=90,120");
  EXPECT_EQ(Spec->EnsembleCellsPer, 2);

  // Journal payload -> parse -> identical spec (the replay path).
  Expected<JobSpec> Back = parseJobSpec(jobSpecToJson(*Spec));
  ASSERT_TRUE(bool(Back)) << Back.status().message();
  EXPECT_EQ(Back->EnsembleSweep, Spec->EnsembleSweep);
  EXPECT_EQ(Back->EnsembleCellsPer, 2);
  EXPECT_EQ(jobSpecToJson(*Back).str(), jobSpecToJson(*Spec).str());

  // Malformed grammar, bad member width, and tissue+ensemble are all
  // rejected at admission, not when the job runs.
  const char *Bad[] = {
      "{\"model\":\"HH\",\"ensemble_sweep\":\"gK=\"}",
      "{\"model\":\"HH\",\"ensemble_sweep\":\"gK=1:2\"}",
      "{\"model\":\"HH\",\"ensemble_sweep\":\"gK=1:2:0\"}",
      "{\"model\":\"HH\",\"ensemble_sweep\":\"gK=1,2;gK=3\"}",
      "{\"model\":\"HH\",\"ensemble_sweep\":\"gK=1,2\","
      "\"ensemble_cells_per\":0}",
      "{\"model\":\"HH\",\"ensemble_sweep\":\"gK=1,2\",\"tissue_nx\":8}",
  };
  for (const char *Text : Bad) {
    Expected<JsonValue> B = JsonValue::parse(Text);
    ASSERT_TRUE(bool(B)) << Text;
    EXPECT_FALSE(bool(parseJobSpec(*B))) << "accepted: " << Text;
  }
}

//===----------------------------------------------------------------------===//
// RunSpec: one set of checks for limpetc and limpetd
//===----------------------------------------------------------------------===//

// Every invalid run field is rejected by RunSpec::validate, which limpetc
// runs before it compiles, and admission rejects the wire form of the
// same value with the same message.
TEST(RunSpecValidate, RejectsEachInvalidRunFieldLikeAdmission) {
  struct Case {
    const char *Fields; ///< wire form, nullptr when the field is limpetc's
    std::function<void(sim::RunSpec &)> Set;
  };
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const Case Cases[] = {
      {"\"model\":\"\"", [](sim::RunSpec &S) { S.Model.clear(); }},
      {"\"cells\":0", [](sim::RunSpec &S) { S.NumCells = 0; }},
      {"\"steps\":-5", [](sim::RunSpec &S) { S.NumSteps = -5; }},
      {"\"dt\":0", [](sim::RunSpec &S) { S.Dt = 0; }},
      {"\"dt\":-1", [](sim::RunSpec &S) { S.Dt = -1; }},
      {nullptr, [&](sim::RunSpec &S) { S.Dt = NaN; }},
      {"\"timeout_sec\":-1", [](sim::RunSpec &S) { S.TimeoutSec = -1; }},
      {"\"tissue_nx\":-1", [](sim::RunSpec &S) { S.TissueNX = -1; }},
      {"\"tissue_nx\":8,\"tissue_ny\":0",
       [](sim::RunSpec &S) { S.TissueNX = 8, S.TissueNY = 0; }},
      {"\"tissue_nx\":8,\"tissue_dx\":0",
       [](sim::RunSpec &S) { S.TissueNX = 8, S.TissueDx = 0; }},
      {"\"tissue_nx\":8,\"tissue_sigma\":-1",
       [](sim::RunSpec &S) { S.TissueNX = 8, S.TissueSigma = -1; }},
      {"\"tissue_nx\":8,\"tissue_stim\":\"warp:x=1\"",
       [](sim::RunSpec &S) { S.TissueNX = 8, S.TissueStim = "warp:x=1"; }},
      {"\"ensemble_sweep\":\"gK=1,2\",\"ensemble_cells_per\":0",
       [](sim::RunSpec &S) { S.EnsembleSweep = "gK=1,2", S.EnsembleCellsPer = 0; }},
      {"\"ensemble_sweep\":\"gK=\"",
       [](sim::RunSpec &S) { S.EnsembleSweep = "gK="; }},
      {"\"ensemble_sweep\":\"gK=1,2\",\"tissue_nx\":8",
       [](sim::RunSpec &S) { S.EnsembleSweep = "gK=1,2", S.TissueNX = 8; }},
      {nullptr,
       [](sim::RunSpec &S) {
         S.EnsembleSweep = "gK=1,2", S.EnsembleMembers = "[{\"gK\":1}]";
       }},
      {nullptr, [](sim::RunSpec &S) { S.EnsembleMembers = "[{\"gK\":"; }},
      {"\"config\":{\"preset\":\"limpetmlir\",\"width\":3}",
       [](sim::RunSpec &S) { S.Config = exec::EngineConfig::limpetMLIR(3); }},
  };
  sim::RunSpec Valid;
  Valid.Model = "HodgkinHuxley";
  ASSERT_TRUE(Valid.validate().isOk()) << Valid.validate().message();
  for (const Case &C : Cases) {
    sim::RunSpec S = Valid;
    C.Set(S);
    Status V = S.validate();
    EXPECT_FALSE(V.isOk()) << "accepted: " << (C.Fields ? C.Fields : "");
    if (!C.Fields)
      continue;
    Expected<JsonValue> Body = JsonValue::parse(
        "{\"model\":\"HodgkinHuxley\"," + std::string(C.Fields) + "}");
    ASSERT_TRUE(bool(Body)) << C.Fields;
    Expected<JobSpec> J = parseJobSpec(*Body);
    ASSERT_FALSE(bool(J)) << "admitted: " << C.Fields;
    EXPECT_EQ(J.status().message(), V.message()) << C.Fields;
  }
}

//===----------------------------------------------------------------------===//
// RunSpec parity: buildRun directly and a limpetd job agree
//===----------------------------------------------------------------------===//

// One run description, two entry points: sim::buildRun as limpetc --run
// calls it (one stepping thread), and the JSON wire form through
// parseJobSpec and JobRunner::execute as a limpetd job (two stepping
// threads). A plain run, a 2D tissue run with a stimulus protocol and a
// sweep with one poison member end with the same checksum bit for bit,
// and the sweep quarantines the same members, on the VM and, with a
// toolchain, on the native tier.
TEST(RunSpecParity, BuildRunAndDaemonJobAgreeBitForBit) {
  std::string Dir = freshDir("runspec-parity");
  Journal Jr(Dir + "/journal.lj");
  ASSERT_TRUE(Jr.open().isOk());
  JobRunner::Config RC;
  RC.StateDir = Dir;
  RC.SimThreads = 2;
  JobRunner Runner(RC, Jr);

  const char *Kinds[] = {
      "\"cells\":37",
      "\"tissue_nx\":12,\"tissue_ny\":8,"
      "\"tissue_stim\":\"s1s2:period=300,count=2,s2=2,amp=40,dur=2,width=2\"",
      "\"ensemble_sweep\":\"gNa=120,1e9,90\",\"ensemble_cells_per\":3",
  };
  std::vector<const char *> Tiers = {"vm"};
  if (compiler::nativeToolchain())
    Tiers.push_back("native");
  uint64_t Id = 0;
  for (const char *Tier : Tiers)
    for (const char *Kind : Kinds) {
      std::string Text = "{\"model\":\"HodgkinHuxley\",\"steps\":300,"
                         "\"guard\":true,\"engine\":\"" +
                         std::string(Tier) +
                         "\",\"config\":{\"preset\":\"limpetmlir\","
                         "\"width\":8}," +
                         Kind + "}";
      SCOPED_TRACE(Text);
      Expected<JsonValue> Body = JsonValue::parse(Text);
      ASSERT_TRUE(bool(Body));
      Expected<JobSpec> Spec = parseJobSpec(*Body);
      ASSERT_TRUE(bool(Spec)) << Spec.status().message();

      Expected<std::unique_ptr<sim::Run>> Direct =
          sim::buildRun(*Spec, sim::RunEnv());
      ASSERT_TRUE(bool(Direct)) << Direct.status().message();
      sim::Run &R = **Direct;
      R.Sim->run();
      EXPECT_EQ(R.steppingNative(), std::string(Tier) == "native");

      auto J = std::make_shared<Job>();
      J->Spec = *Spec;
      J->Spec.Id = ++Id;
      ASSERT_EQ(Runner.execute(*J), JobState::Finished) << J->Error;

      double Want = R.Sim->stateChecksum();
      uint64_t WantBits, GotBits;
      std::memcpy(&WantBits, &Want, 8);
      std::memcpy(&GotBits, &J->Checksum, 8);
      EXPECT_EQ(GotBits, WantBits) << J->Checksum << " vs " << Want;
      if (sim::EnsembleRunner *E = R.ensembleRunner()) {
        EXPECT_EQ(E->membersQuarantined(), 1);
        EXPECT_EQ(J->MembersQuarantined, E->membersQuarantined());
        EXPECT_EQ(J->MembersOk, E->membersOk());
      }
    }
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// JobRunner: ensemble shutdown interruption
//===----------------------------------------------------------------------===//

// A member hitting its dt-floor (quarantine) in the same window the
// daemon begins shutting down must leave the job NON-terminal: the
// journal's Accepted-without-terminal shape replays it, and the replay
// resumes from the final checkpoint with the member still quarantined.
// Journaling it as failed would turn a routine restart into a lost sweep.
TEST(DaemonJobRunner, ShutdownDuringMemberDtFloorJournalsNonTerminal) {
  std::string Dir = freshDir("runner-ens-shutdown");
  std::string JPath = Dir + "/journal.lj";
  Journal Jr(JPath);
  ASSERT_TRUE(Jr.open().isOk());
  JobRunner::Config RC;
  RC.StateDir = Dir;
  RC.SimThreads = 1;
  RC.DefaultCheckpointEvery = 50;
  JobRunner Runner(RC, Jr);

  auto J = std::make_shared<Job>();
  J->Spec.Id = 1;
  J->Spec.Model = "HodgkinHuxley";
  J->Spec.NumSteps = 400;
  J->Spec.Guard = true;
  // Middle member poisoned: it blows up within the first scan window and
  // walks the member-local ladder to quarantine.
  J->Spec.EnsembleSweep = "gNa=120,1e9,90";

  ASSERT_TRUE(
      Jr.append(Journal::Kind::Accepted, 1, jobSpecToJson(J->Spec).str())
          .isOk());
  // Shutdown is already in flight when the poisoned member faults: the
  // quarantine happens inside the guarded window, the stop at the step
  // boundary right after it.
  sim::requestShutdown();
  JobState S = Runner.execute(*J);
  sim::clearShutdownRequest();
  EXPECT_EQ(S, JobState::Queued);
  EXPECT_EQ(J->State.load(), JobState::Queued);
  // Non-terminal: no result file, and the journal marks the job live.
  EXPECT_FALSE(std::filesystem::exists(Dir + "/job-1/result.json"));
  Expected<std::vector<Journal::Record>> R = Journal::readAll(JPath);
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(Journal::unfinished(*R).size(), 1u);
  EXPECT_EQ(Journal::unfinished(*R)[0].JobId, 1u);

  // Replay (what the next daemon start does): the job resumes from its
  // final checkpoint and finishes with the quarantine preserved as a
  // delivered partial result.
  J->State.store(JobState::Queued);
  J->Replayed = true;
  EXPECT_EQ(Runner.execute(*J), JobState::Finished);
  EXPECT_EQ(J->MembersOk, 2);
  EXPECT_EQ(J->MembersQuarantined, 1);
  EXPECT_TRUE(std::filesystem::exists(Dir + "/job-1/result.json"));
  EXPECT_TRUE(std::filesystem::exists(Dir + "/job-1/members.ndjson"));
  R = Journal::readAll(JPath);
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(Journal::unfinished(*R).empty());
  std::filesystem::remove_all(Dir);
}

// An ensemble job asking for the native tier steps its lowered model on a
// native kernel of its own (the base model's kernel cannot serve the
// lowered program) and compiles no other: the base model is never
// compiled. The sweep ends bit-identical to the VM job, the poisoned
// member's quarantine included.
TEST(DaemonJobRunner, NativeEnsembleStepsOnItsOwnKernelLikeTheVm) {
  if (!compiler::nativeToolchain())
    GTEST_SKIP() << "no native toolchain";
  std::string Dir = freshDir("runner-ens-native");
  std::filesystem::create_directories(Dir + "/cache");
  compiler::CompileCache::global().setDiskDir(Dir + "/cache");
  compiler::CompileCache::global().clearMemory();
  compiler::clearNativeKernelRegistry();
  Journal Jr(Dir + "/journal.lj");
  ASSERT_TRUE(Jr.open().isOk());
  JobRunner::Config RC;
  RC.StateDir = Dir;
  RC.SimThreads = 1;
  JobRunner Runner(RC, Jr);

  auto Run = [&](uint64_t Id, exec::EngineTier Tier) {
    auto J = std::make_shared<Job>();
    J->Spec.Id = Id;
    J->Spec.Model = "HodgkinHuxley";
    J->Spec.NumSteps = 400;
    J->Spec.Config = exec::EngineConfig::limpetMLIR(8);
    J->Spec.Tier = Tier;
    J->Spec.EnsembleSweep = "gNa=120,1e9,90,100,110,130,140,150,160";
    EXPECT_EQ(Runner.execute(*J), JobState::Finished) << J->Error;
    return J;
  };
  auto Native = [] { return telemetry::counter("daemon.jobs.native").get(); };
  auto Fallback = [] {
    return telemetry::counter("daemon.jobs.native_fallback").get();
  };
  std::shared_ptr<Job> Vm = Run(1, exec::EngineTier::VM);
  const uint64_t Native0 = Native(), Fallback0 = Fallback();
  std::shared_ptr<Job> Nat = Run(2, exec::EngineTier::Native);
  EXPECT_EQ(Native() - Native0, 1u);
  EXPECT_EQ(Fallback() - Fallback0, 0u);
  // One kernel in the disk tier: the lowered model's.
  unsigned Kernels = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir + "/cache"))
    Kernels += E.path().string().find(".native.so") != std::string::npos;
  EXPECT_EQ(Kernels, 1u);

  EXPECT_EQ(Nat->MembersOk, Vm->MembersOk);
  EXPECT_EQ(Nat->MembersQuarantined, 1);
  EXPECT_EQ(Vm->MembersQuarantined, 1);
  uint64_t VmBits, NatBits;
  std::memcpy(&VmBits, &Vm->Checksum, 8);
  std::memcpy(&NatBits, &Nat->Checksum, 8);
  EXPECT_EQ(NatBits, VmBits) << Nat->Checksum << " vs " << Vm->Checksum;

  compiler::CompileCache::global().setDiskDir("");
  compiler::CompileCache::global().clearMemory();
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Event lines
//===----------------------------------------------------------------------===//

TEST(DaemonEvents, TerminalEventChecksumRoundTripsExactly) {
  double Checksum = -32783.205604917683;
  std::string Line = terminalEvent(JobState::Finished, 7, 2000, Checksum,
                                   /*Degraded=*/1, /*Frozen=*/0, {},
                                   /*Replayed=*/true);
  Expected<JsonValue> J = JsonValue::parse(Line);
  ASSERT_TRUE(bool(J));
  EXPECT_EQ(J->stringOr("event", ""), "finished");
  EXPECT_EQ(J->intOr("id", 0), 7);
  EXPECT_EQ(J->intOr("steps", 0), 2000);
  EXPECT_TRUE(J->boolOr("replayed", false));
  // %.17g through a string field: exact to the last bit.
  EXPECT_EQ(std::stod(J->stringOr("checksum", "0")), Checksum);

  std::string Failed = terminalEvent(JobState::Failed, 8, 0, 0, 0, 0,
                                     "model 'X' not found", false);
  Expected<JsonValue> F = JsonValue::parse(Failed);
  ASSERT_TRUE(bool(F));
  EXPECT_EQ(F->stringOr("event", ""), "failed");
  EXPECT_EQ(F->stringOr("error", ""), "model 'X' not found");
  EXPECT_EQ(F->find("checksum"), nullptr); // only finished jobs carry one

  // Finished ensemble jobs carry the member tally; plain jobs omit it.
  EXPECT_EQ(Line.find("members_ok"), std::string::npos);
  std::string Ens = terminalEvent(JobState::Finished, 9, 1000, 1.5, 0, 3, {},
                                  false, /*MembersOk=*/997,
                                  /*MembersQuarantined=*/3);
  Expected<JsonValue> E = JsonValue::parse(Ens);
  ASSERT_TRUE(bool(E));
  EXPECT_EQ(E->intOr("members_ok", -1), 997);
  EXPECT_EQ(E->intOr("members_quarantined", -1), 3);
}

} // namespace
