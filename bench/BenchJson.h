//===- bench/BenchJson.h - Machine-readable bench result lines ---*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every bench binary prints, next to its human-readable report, one (or a
/// few) single-line JSON records prefixed with "BENCH_JSON " so trajectory
/// tooling can grep them out of the output:
///
///   BENCH_JSON {"bench":"corpus","wall_ms":412.8,"stmts_per_s":91244.0,...}
///
/// The shared schema: "bench" (name), "wall_ms", "stmts_per_s" (program
/// points visited per second; 0 when the bench runs no engine), "metrics"
/// (the run's counters by dotted name, from engine(); absent when the bench
/// runs no engine), "peak_rss_kb" (appended to every line at emit time), and
/// "ok" (the bench's own pass/fail verdict). Benches append extra fields as
/// needed; engine counters appear only under "metrics".
///
/// The header also hosts the --smoke convention: every bench accepts the
/// flag and shrinks to a tiny corpus / skips its heavyweight sections so the
/// bench-smoke ctest label can execute each binary in a few seconds.
///
//===----------------------------------------------------------------------===//

#ifndef MC_BENCH_BENCHJSON_H
#define MC_BENCH_BENCHJSON_H

#include "support/Json.h"
#include "support/Metrics.h"
#include "support/RawOstream.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace mc::bench {

/// Peak resident set size of this process in kilobytes; 0 where the platform
/// offers no getrusage. (Linux reports ru_maxrss in KB, macOS in bytes.)
inline uint64_t peakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) != 0)
    return 0;
#if defined(__APPLE__)
  return uint64_t(RU.ru_maxrss) / 1024;
#else
  return uint64_t(RU.ru_maxrss);
#endif
#else
  return 0;
#endif
}

/// Builder for one BENCH_JSON line. Field order is insertion order; keys are
/// assumed not to need escaping (they are string literals in the benches).
class BenchJson {
public:
  explicit BenchJson(std::string_view Bench) { str("bench", Bench); }

  BenchJson &str(std::string_view Key, std::string_view V) {
    beginField(Key);
    raw_string_ostream OS(Buf);
    writeJsonString(OS, V);
    return *this;
  }

  /// Doubles print with three decimals — enough for milliseconds and rates.
  BenchJson &num(std::string_view Key, double V) {
    char Tmp[64];
    std::snprintf(Tmp, sizeof(Tmp), "%.3f", V);
    beginField(Key);
    Buf += Tmp;
    return *this;
  }

  BenchJson &count(std::string_view Key, uint64_t V) {
    beginField(Key);
    Buf += std::to_string(V);
    return *this;
  }

  BenchJson &flag(std::string_view Key, bool V) {
    beginField(Key);
    Buf += V ? "true" : "false";
    return *this;
  }

  /// The shared counter block: the dotted-name snapshot nested under
  /// "metrics" — the same map --stats-json carries, so bench output and run
  /// manifests can be joined by one consumer.
  BenchJson &engine(const MetricsSnapshot &M) {
    beginField("metrics");
    Buf += '{';
    bool First = true;
    raw_string_ostream OS(Buf);
    for (const auto &[Name, Value] : M) {
      if (!First)
        Buf += ',';
      First = false;
      writeJsonString(OS, Name);
      Buf += ':';
      Buf += std::to_string(Value);
    }
    Buf += '}';
    return *this;
  }

  /// Emits the line, appending "peak_rss_kb" (sampled at emit time so it
  /// covers the whole measured run) to every record.
  void emit(raw_ostream &OS) const {
    OS << "BENCH_JSON {" << Buf << ",\"peak_rss_kb\":" << peakRssKb() << "}\n";
  }

private:
  void beginField(std::string_view Key) {
    if (!Buf.empty())
      Buf += ',';
    Buf += '"';
    Buf += Key;
    Buf += "\":";
  }

  std::string Buf;
};

/// Stopwatch for the wall_ms field.
class BenchTimer {
public:
  BenchTimer() : Start(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
        .count();
  }
  double seconds() const { return ms() / 1000.0; }

private:
  std::chrono::steady_clock::time_point Start;
};

/// The median of \p Samples (the mean of the middle two for an even count;
/// 0 when empty). A timing gate compares medians of repeated, interleaved
/// samples, so one preemption cannot flip its verdict.
inline double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t Mid = Samples.size() / 2;
  return Samples.size() % 2 ? Samples[Mid]
                            : (Samples[Mid - 1] + Samples[Mid]) / 2;
}

/// Program points visited per second (the "stmts_per_s" field) of the run
/// \p M counts, guarding the zero-duration corner.
inline double stmtsPerSec(const MetricsSnapshot &M, double Seconds) {
  return double(M.value("engine.points.visited")) /
         (Seconds > 0 ? Seconds : 1e-9);
}

/// Detects --smoke and strips it from argv so leftover arguments can still
/// be forwarded (e.g. to google-benchmark's Initialize).
inline bool smokeMode(int &argc, char **argv) {
  bool Smoke = false;
  int W = 1;
  for (int I = 1; I < argc; ++I) {
    if (std::string_view(argv[I]) == "--smoke") {
      Smoke = true;
      continue;
    }
    argv[W++] = argv[I];
  }
  argc = W;
  return Smoke;
}

} // namespace mc::bench

#endif // MC_BENCH_BENCHJSON_H
