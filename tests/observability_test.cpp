//===- tests/observability_test.cpp - Metrics/trace/manifest tests -----------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The observability contract: the metrics registry is safe to register and
// bump from concurrent workers; snapshots are deterministic values; the
// trace merge is byte-identical at every job count; the run manifest
// round-trips its JSON schema; and the legacy --stats line is a pure
// formatter over the snapshot.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchJson.h"
#include "checkers/FaultInjector.h"
#include "driver/Tool.h"
#include "engine/RunManifest.h"
#include "support/EventLog.h"
#include "support/Histogram.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/RawOstream.h"
#include "support/Trace.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace mc;

namespace {

//===----------------------------------------------------------------------===//
// MetricsRegistry / MetricsSnapshot
//===----------------------------------------------------------------------===//

TEST(Metrics, RegisterOrGetAndAdd) {
  MetricsRegistry R;
  std::atomic<uint64_t> *A = R.counter("a.x");
  ASSERT_NE(A, nullptr);
  // Same name, same cell.
  EXPECT_EQ(R.counter("a.x"), A);
  A->fetch_add(3, std::memory_order_relaxed);
  R.add("a.x", 4);
  EXPECT_EQ(R.value("a.x"), 7u);
  EXPECT_EQ(R.value("never.registered"), 0u);
  EXPECT_EQ(R.size(), 1u);
}

TEST(Metrics, SnapshotIsSortedAndKeepsZeros) {
  MetricsRegistry R;
  R.counter("z.last");
  R.add("m.mid", 5);
  R.counter("a.first");
  MetricsSnapshot S = R.snapshot();
  ASSERT_EQ(S.size(), 3u);
  std::vector<std::string> Names;
  for (const auto &[Name, Value] : S)
    Names.push_back(Name);
  EXPECT_EQ(Names, (std::vector<std::string>{"a.first", "m.mid", "z.last"}));
  // Registered-but-zero counters survive into the snapshot: the key set is
  // the registration set, not the touched set.
  EXPECT_EQ(S.value("a.first"), 0u);
  EXPECT_EQ(S.value("m.mid"), 5u);
}

TEST(Metrics, SnapshotMergeAndEquality) {
  MetricsSnapshot A, B;
  A.add("x", 1);
  A.add("y", 2);
  B.add("y", 40);
  B.add("z", 5);
  A.merge(B);
  EXPECT_EQ(A.value("x"), 1u);
  EXPECT_EQ(A.value("y"), 42u);
  EXPECT_EQ(A.value("z"), 5u);
  MetricsSnapshot C = A;
  EXPECT_TRUE(C == A);
  C.add("x", 1);
  EXPECT_FALSE(C == A);
}

TEST(Metrics, ConcurrentRegisterAndBump) {
  // 8 threads hammer overlapping names: half bump a shared cached cell,
  // half register-or-get by name. Run under TSan via the parallel label.
  MetricsRegistry R;
  std::atomic<uint64_t> *Shared = R.counter("shared.hits");
  constexpr unsigned Threads = 8, Iters = 2000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T) {
    Pool.emplace_back([&R, Shared, T] {
      std::string Mine = "worker." + std::to_string(T % 4) + ".ops";
      for (unsigned I = 0; I != Iters; ++I) {
        Shared->fetch_add(1, std::memory_order_relaxed);
        R.add(Mine, 1);
      }
    });
  }
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(R.value("shared.hits"), uint64_t(Threads) * Iters);
  uint64_t PerName = 0;
  for (unsigned N = 0; N != 4; ++N)
    PerName += R.value("worker." + std::to_string(N) + ".ops");
  EXPECT_EQ(PerName, uint64_t(Threads) * Iters);
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledCollectorIsInert) {
  TraceCollector C(/*Enabled=*/false);
  EXPECT_EQ(C.openBuffer(0), nullptr);
  {
    TraceSpan S(nullptr, "anything");
    S.arg("k", "v");
  }
  EXPECT_EQ(C.eventCount(), 0u);
}

TEST(Trace, SpansNestAndExport) {
  TraceCollector C(/*Enabled=*/true);
  TraceBuffer *B = C.openBuffer(3);
  ASSERT_NE(B, nullptr);
  {
    TraceSpan Outer(B, "outer");
    Outer.arg("who", "test");
    TraceSpan Inner(B, "inner");
  }
  EXPECT_EQ(C.eventCount(), 2u);
  std::string Json;
  raw_string_ostream OS(Json);
  C.exportChromeJson(OS, /*IncludeTimes=*/false);
  EXPECT_EQ(Json.compare(0, 16, "{\"traceEvents\":["), 0);
  // Open order is the deterministic sort key: outer precedes inner.
  EXPECT_LT(Json.find("\"outer\""), Json.find("\"inner\""));
  EXPECT_NE(Json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(Json.find("\"who\":\"test\""), std::string::npos);
  // Times are stripped for byte-comparison.
  EXPECT_NE(Json.find("\"ts\":0.000,\"dur\":0.000"), std::string::npos);
}

/// N roots calling the injector's reporting rule; analysis is real engine
/// work, so the trace carries root/traverse/end-of-path spans.
std::string traceCorpus(unsigned Roots) {
  std::string S = "int ok(int x);\nvoid bad_call(void *p);\n";
  for (unsigned I = 0; I != Roots; ++I) {
    std::string T = std::to_string(I);
    S += "int fn" + T + "(int *p, int a) {\n"
         "  a = ok(a + " + T + ");\n"
         "  bad_call(p);\n"
         "  return a;\n}\n";
  }
  return S;
}

std::string tracedRun(const std::string &Source, unsigned Jobs,
                      std::string *Rendered = nullptr) {
  XgccTool Tool;
  EXPECT_TRUE(Tool.addSource("t.c", Source));
  Tool.addChecker(std::make_unique<FaultInjectorChecker>(
      FaultInjectorChecker::Mode::None));
  TraceCollector Trace(/*Enabled=*/true);
  Tool.setTrace(&Trace);
  EngineOptions Opts;
  Opts.Jobs = Jobs;
  Tool.run(Opts);
  if (Rendered) {
    raw_string_ostream OS(*Rendered);
    Tool.reports().print(OS, RankPolicy::Generic);
  }
  std::string Json;
  raw_string_ostream OS(Json);
  Trace.exportChromeJson(OS, /*IncludeTimes=*/false);
  return Json;
}

TEST(Trace, MergeIsByteIdenticalAcrossJobCounts) {
  std::string Source = traceCorpus(9);
  std::string Rendered1, Rendered4, Rendered8;
  std::string T1 = tracedRun(Source, 1, &Rendered1);
  std::string T4 = tracedRun(Source, 4, &Rendered4);
  std::string T8 = tracedRun(Source, 8, &Rendered8);
  EXPECT_FALSE(T1.empty());
  EXPECT_EQ(T1, T4);
  EXPECT_EQ(T1, T8);
  // And tracing never perturbs the reports.
  EXPECT_EQ(Rendered1, Rendered4);
  EXPECT_EQ(Rendered1, Rendered8);
  // Engine spans made it in, attributed to the per-root lanes.
  EXPECT_NE(T1.find("\"root\""), std::string::npos);
  EXPECT_NE(T1.find("\"traverse\""), std::string::npos);
  EXPECT_NE(T1.find("\"outcome\":\"ok\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Run manifest
//===----------------------------------------------------------------------===//

TEST(RunManifest, JsonRoundTripsIdentically) {
  RunManifest M;
  M.Options.Jobs = 4;
  M.Options.EnableBlockCache = false;
  M.Options.Reporting.ShowStats = true;
  M.Options.Reporting.StatsJsonPath = "out \"quoted\".json";
  M.Options.Reporting.ProfileTopN = 7;
  M.Options.Reporting.RootDeadlineMs = 250;
  M.Options.Reporting.FailOn = FailPolicy::Degraded;
  M.Metrics.add("engine.points.visited", 123);
  M.Metrics.add("checker.fault_injector.injections", 2);
  RootIncident Inc;
  Inc.Root = "fn0";
  Inc.Checker = "fault_injector";
  Inc.Quarantined = true;
  Inc.Reason = "injected checker fault";
  M.Incidents.push_back(Inc);
  RootIncident Deg = Inc;
  Deg.Root = "fn1";
  Deg.Quarantined = false;
  Deg.Stage = 2;
  Deg.Reason = "deadline";
  M.Incidents.push_back(Deg);
  M.ReportCount = 5;
  M.ParseOk = false;

  std::string Json;
  raw_string_ostream OS(Json);
  M.writeJson(OS);
  EXPECT_EQ(Json.find("{\n  \"schema\": \"mc.run-manifest.v1\""), 0u);

  RunManifest Back;
  std::string Err;
  ASSERT_TRUE(parseRunManifest(Json, Back, &Err)) << Err;
  EXPECT_TRUE(Back == M);
}

TEST(RunManifest, ParserRejectsGarbageAndSkipsUnknownKeys) {
  RunManifest Out;
  std::string Err;
  EXPECT_FALSE(parseRunManifest("not json", Out, &Err));
  EXPECT_FALSE(Err.empty());
  // Unknown keys are skipped for forward compatibility.
  RunManifest M;
  std::string Json;
  raw_string_ostream OS(Json);
  M.writeJson(OS);
  std::string Extended = Json;
  size_t Pos = Extended.find("\"schema\"");
  ASSERT_NE(Pos, std::string::npos);
  Extended.insert(Pos, "\"future_key\": [1, {\"deep\": true}, \"x\"],\n  ");
  RunManifest Back;
  EXPECT_TRUE(parseRunManifest(Extended, Back, &Err)) << Err;
  EXPECT_TRUE(Back == M);
  // A number above UINT64_MAX, or above what its field holds, is rejected
  // at its offset rather than wrapped.
  for (const auto &[From, To] :
       {std::pair<std::string, std::string>{"\"report_count\": 0",
                                            "\"report_count\": "
                                            "18446744073709551616"},
        {"\"jobs\": 1", "\"jobs\": 4294967297"}}) {
    std::string Bad = Json;
    size_t At = Bad.find(From);
    ASSERT_NE(At, std::string::npos) << From;
    Bad.replace(At, From.size(), To);
    EXPECT_FALSE(parseRunManifest(Bad, Out, &Err)) << To;
    EXPECT_EQ(Err, "number out of range at offset " +
                       std::to_string(At + To.find(": ") + 2));
  }
}

TEST(RunManifest, ToolManifestReflectsTheRun) {
  XgccTool Tool;
  ASSERT_TRUE(Tool.addSource("t.c", traceCorpus(3)));
  Tool.addChecker(std::make_unique<FaultInjectorChecker>(
      FaultInjectorChecker::Mode::None));
  EngineOptions Opts;
  Opts.Jobs = 1;
  Tool.run(Opts);
  RunManifest M = Tool.manifest(Opts);
  EXPECT_EQ(M.Schema, kRunManifestSchema);
  EXPECT_EQ(M.ReportCount, Tool.reports().size());
  EXPECT_GT(M.ReportCount, 0u);
  EXPECT_GT(M.Metrics.value("engine.points.visited"), 0u);
  EXPECT_GT(M.Metrics.value("checker.fault_injector.transitions.fired"), 0u);
  EXPECT_TRUE(M.Options == Opts);
  std::string Json;
  raw_string_ostream OS(Json);
  M.writeJson(OS);
  RunManifest Back;
  std::string Err;
  ASSERT_TRUE(parseRunManifest(Json, Back, &Err)) << Err;
  EXPECT_TRUE(Back == M);
}

//===----------------------------------------------------------------------===//
// Text formatters over the snapshot
//===----------------------------------------------------------------------===//

TEST(Formatters, StatsLineMatchesHistoricalShape) {
  MetricsSnapshot M;
  M.add("engine.points.visited", 9);
  M.add("index.candidates.tried", 4);
  std::string Line;
  raw_string_ostream OS(Line);
  formatStatsText(M, OS);
  EXPECT_EQ(Line,
            "points=9 blocks=0 paths=0 cache-hits=0 fn-hits=0 fn-analyses=0 "
            "pruned=0 kills=0 synonyms=0 index-lookups=0 index-tried=4 "
            "index-skipped=0 index-blocks-skipped=0 deadline-hits=0 "
            "state-limit-hits=0 roots-degraded=0 roots-quarantined=0 "
            "degradation-retries=0 arena-bytes=0 arena-slabs=0\n");
}

TEST(Formatters, ProfileRanksByCalloutTime) {
  MetricsSnapshot M;
  // Checker names may themselves contain dots — suffix matching must still
  // recover them.
  M.add("checker.a.b.callout_ns", 5000000);
  M.add("checker.a.b.transitions.tried", 10);
  M.add("checker.fast.callout_ns", 1000);
  M.add("checker.fast.transitions.tried", 99);
  M.add("checker.fast.reports", 1);
  M.add("engine.points.visited", 1); // not a checker metric; ignored
  std::string Text;
  raw_string_ostream OS(Text);
  formatProfileText(M, 5, OS);
  EXPECT_NE(Text.find("profile: top 2 of 2 checker(s)"), std::string::npos);
  // a.b has the larger callout time: ranked first.
  EXPECT_LT(Text.find(" a.b "), Text.find(" fast "));
  EXPECT_NE(Text.find("callout_ms=5.000"), std::string::npos);
}

TEST(Formatters, BenchJsonCarriesCountersOnlyUnderMetrics) {
  // One encoding: a BENCH_JSON line is one JSON object whose "metrics" is
  // the snapshot it was given, name for name, with no counter key beside it.
  MetricsSnapshot M;
  M.add("engine.points.visited", 3580);
  M.add("index.candidates.tried", 7);
  M.add("arena.slabs", 0);
  M.add("checker.free.reports", 2);
  std::string Line;
  raw_string_ostream OS(Line);
  bench::BenchJson("x").engine(M).emit(OS);
  OS.flush();
  const std::string Prefix = "BENCH_JSON ";
  ASSERT_EQ(Line.rfind(Prefix, 0), 0u) << Line;
  ASSERT_EQ(Line.find('\n'), Line.size() - 1) << Line;

  std::string Err;
  JsonReader R(std::string_view(Line).substr(Prefix.size()), &Err);
  std::vector<std::string> Keys;
  MetricsSnapshot Got;
  ASSERT_TRUE(R.readObject([&](const std::string &Key) {
    Keys.push_back(Key);
    if (Key != "metrics")
      return R.skipValue();
    return R.readObject([&](const std::string &Name) {
      uint64_t V = 0;
      if (!R.readUInt(V))
        return false;
      Got.add(Name, V);
      return true;
    });
  })) << Err;
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(Keys,
            (std::vector<std::string>{"bench", "metrics", "peak_rss_kb"}));
  EXPECT_EQ(Got, M);
}

//===----------------------------------------------------------------------===//
// Histogram / HistogramRegistry
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketLayoutEdges) {
  // Bucket 0 holds exactly the value 0; bucket i holds [2^(i-1), 2^i - 1];
  // the last bucket is the overflow bucket [2^62, +inf).
  EXPECT_EQ(HistogramSnapshot::bucketFor(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucketFor(1), 1u);
  EXPECT_EQ(HistogramSnapshot::bucketFor(2), 2u);
  EXPECT_EQ(HistogramSnapshot::bucketFor(3), 2u);
  EXPECT_EQ(HistogramSnapshot::bucketFor(4), 3u);
  EXPECT_EQ(HistogramSnapshot::bucketFor(255), 8u);
  EXPECT_EQ(HistogramSnapshot::bucketFor(256), 9u);
  EXPECT_EQ(HistogramSnapshot::bucketFor(1ull << 61), 62u);
  EXPECT_EQ(HistogramSnapshot::bucketFor((1ull << 62) - 1), 62u);
  EXPECT_EQ(HistogramSnapshot::bucketFor(1ull << 62), 63u);
  EXPECT_EQ(HistogramSnapshot::bucketFor(UINT64_MAX), 63u);

  EXPECT_EQ(HistogramSnapshot::bucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucketUpperBound(1), 1u);
  EXPECT_EQ(HistogramSnapshot::bucketUpperBound(8), 255u);
  EXPECT_EQ(HistogramSnapshot::bucketUpperBound(63), UINT64_MAX);
  // Every value lands in a bucket whose bound covers it.
  for (uint64_t V : {0ull, 1ull, 7ull, 1000ull, (1ull << 40) + 3})
    EXPECT_GE(HistogramSnapshot::bucketUpperBound(
                  HistogramSnapshot::bucketFor(V)),
              V);
}

TEST(Histogram, RecordCountSumPercentile) {
  Histogram H;
  EXPECT_EQ(H.snapshot().count(), 0u);
  EXPECT_EQ(H.snapshot().percentile(99), 0u); // Empty: 0 by definition.
  for (uint64_t V : {0ull, 1ull, 2ull, 3ull, 100ull, 200ull, 5000ull})
    H.record(V);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.count(), 7u);
  EXPECT_EQ(S.Sum, 0u + 1 + 2 + 3 + 100 + 200 + 5000);
  // Rank math: p50 of 7 samples is rank 4 (the sample "3", bucket bound 3).
  EXPECT_EQ(S.percentile(50), 3u);
  // p100 is the last occupied bucket's bound; 5000 lives in [4096, 8191].
  EXPECT_EQ(S.percentile(100), 8191u);
  // p0 reads the first occupied bucket (the recorded 0).
  EXPECT_EQ(S.percentile(0), 0u);
  // An out-of-range P clamps instead of reading out of bounds.
  EXPECT_EQ(S.percentile(250), S.percentile(100));
  EXPECT_EQ(S.percentile(-5), S.percentile(0));
}

TEST(Histogram, OverflowBucketReportsUpperBoundMax) {
  Histogram H;
  H.record(1ull << 63);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.count(), 1u);
  EXPECT_EQ(S.percentile(50), UINT64_MAX);
}

TEST(Histogram, MergeIsDeterministicAcrossInterleavings) {
  // Two recording orders, same values → identical snapshots; merging the
  // per-thread halves in either order gives the same result (the
  // MetricsSnapshot contract, extended to distributions).
  std::vector<uint64_t> Values;
  for (uint64_t I = 0; I != 1000; ++I)
    Values.push_back((I * 7919) % 4096);

  Histogram A, B;
  std::thread T1([&] {
    for (size_t I = 0; I < Values.size(); I += 2)
      A.record(Values[I]);
  });
  std::thread T2([&] {
    for (size_t I = 1; I < Values.size(); I += 2)
      B.record(Values[I]);
  });
  T1.join();
  T2.join();

  HistogramSnapshot AB = A.snapshot(), BA = B.snapshot();
  AB.merge(B.snapshot());
  BA.merge(A.snapshot());
  EXPECT_EQ(AB, BA);
  EXPECT_EQ(AB.count(), Values.size());

  Histogram Serial;
  for (uint64_t V : Values)
    Serial.record(V);
  EXPECT_EQ(Serial.snapshot(), AB);
}

TEST(Histogram, ConcurrentRecordOnOneHistogramLosesNothing) {
  Histogram H;
  const unsigned Threads = 8, PerThread = 5000;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Threads; ++T)
    Ts.emplace_back([&H] {
      for (unsigned I = 0; I != PerThread; ++I)
        H.record(I % 100);
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(H.snapshot().count(), uint64_t(Threads) * PerThread);
}

TEST(Histogram, RegistryStablePointersAndSortedSnapshot) {
  HistogramRegistry R;
  Histogram *Z = R.histogram("z.late");
  Histogram *A = R.histogram("a.early");
  EXPECT_EQ(R.histogram("z.late"), Z); // Same name, same cell.
  R.record("z.late", 5);
  A->record(7);
  auto All = R.snapshotAll();
  ASSERT_EQ(All.size(), 2u);
  EXPECT_EQ(All[0].first, "a.early"); // Name-sorted.
  EXPECT_EQ(All[1].first, "z.late");
  EXPECT_EQ(All[0].second.count(), 1u);
  EXPECT_EQ(All[1].second.Sum, 5u);
}

TEST(Histogram, JsonAndExportCarryValuesOnlyWhenAsked) {
  Histogram H;
  H.record(3);
  H.record(300);
  HistogramSnapshot S = H.snapshot();

  std::string Live, Stripped;
  {
    raw_string_ostream OS(Live);
    S.writeJson(OS, /*IncludeValues=*/true);
  }
  {
    raw_string_ostream OS(Stripped);
    S.writeJson(OS, /*IncludeValues=*/false);
  }
  EXPECT_NE(Live.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(Live.find("\"b\": 2"), std::string::npos);
  // The stripped form is the same for every histogram with any contents —
  // the byte-identity mode, mirroring trace export's IncludeTimes=false.
  EXPECT_EQ(Stripped, "{\"count\": 0, \"sum\": 0, \"buckets\": []}");

  MetricsSnapshot M;
  S.exportTo(M, "hist.x");
  EXPECT_EQ(M.value("hist.x.count"), 2u);
  EXPECT_EQ(M.value("hist.x.sum"), 303u);
  EXPECT_EQ(M.value("hist.x.p50"), 3u);
  MetricsSnapshot M0;
  S.exportTo(M0, "hist.x", /*IncludeValues=*/false);
  EXPECT_EQ(M0.value("hist.x.count"), 0u);
  EXPECT_EQ(M0.value("hist.x.p99"), 0u);
  EXPECT_EQ(M0.size(), M.size()); // Same names either way: stable schema.
}

//===----------------------------------------------------------------------===//
// EventLog
//===----------------------------------------------------------------------===//

namespace fs = std::filesystem;

struct EventLogTest : ::testing::Test {
  std::string Dir;
  void SetUp() override {
    Dir = (fs::path(::testing::TempDir()) /
           ("mc-eventlog-" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name())))
              .string();
    std::error_code EC;
    fs::remove_all(Dir, EC);
    fs::create_directories(Dir, EC);
    ASSERT_FALSE(EC);
  }
  void TearDown() override {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  static std::vector<std::string> lines(const std::string &Path) {
    std::vector<std::string> Out;
    std::ifstream In(Path);
    std::string L;
    while (std::getline(In, L))
      Out.push_back(L);
    return Out;
  }
};

TEST_F(EventLogTest, DisabledEmitIsANoOp) {
  EventLog L;
  EXPECT_FALSE(L.enabled());
  EXPECT_EQ(L.emit(ServiceEvent("x")), 0u);
}

TEST_F(EventLogTest, EmitsSchemaSeqAndFieldsInOrder) {
  std::string Path = Dir + "/ev.jsonl";
  EventLog L;
  std::string Err;
  ASSERT_TRUE(L.open(Path, 0, &Err)) << Err;
  EXPECT_EQ(L.emit(ServiceEvent("start").str("socket", "/tmp/s").num("pid", 7)),
            1u);
  EXPECT_EQ(L.emit(ServiceEvent("complete")
                       .str("id", "a\"b\n") // Escaping exercised.
                       .num("run_ms", 12)),
            2u);
  L.close();

  auto Ls = lines(Path);
  ASSERT_EQ(Ls.size(), 2u);
  EXPECT_EQ(Ls[0],
            "{\"schema\": \"mc.service-event.v1\", \"seq\": 1, \"event\": "
            "\"start\", \"socket\": \"/tmp/s\", \"pid\": 7}");
  EXPECT_EQ(Ls[1],
            "{\"schema\": \"mc.service-event.v1\", \"seq\": 2, \"event\": "
            "\"complete\", \"id\": \"a\\\"b\\n\", \"run_ms\": 12}");
}

TEST_F(EventLogTest, RotationKeepsOneGenerationAndSeqKeepsClimbing) {
  std::string Path = Dir + "/ev.jsonl";
  EventLog L;
  ASSERT_TRUE(L.open(Path, /*MaxBytes=*/256, nullptr));
  uint64_t LastSeq = 0;
  for (int I = 0; I != 20; ++I)
    LastSeq = L.emit(ServiceEvent("tick").num("i", uint64_t(I)));
  L.close();
  EXPECT_EQ(LastSeq, 20u);

  // The live file plus exactly one rotated generation exist, both capped.
  ASSERT_TRUE(fs::exists(Path));
  ASSERT_TRUE(fs::exists(Path + ".1"));
  EXPECT_LE(fs::file_size(Path), 256u + 128u);
  // Sequence numbers keep climbing across the rotation boundary: the last
  // line of the live file carries the latest seq.
  auto Ls = lines(Path);
  ASSERT_FALSE(Ls.empty());
  EXPECT_NE(Ls.back().find("\"seq\": 20"), std::string::npos);
}

} // namespace
