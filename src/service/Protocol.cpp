//===- service/Protocol.cpp - xgccd wire schema ------------------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "support/Hash.h"
#include "support/Json.h"
#include "support/RawOstream.h"

using namespace mc;

const char *mc::serviceStatusName(ServiceStatus S) {
  switch (S) {
  case ServiceStatus::Ok:
    return "ok";
  case ServiceStatus::Incomplete:
    return "incomplete";
  case ServiceStatus::Overloaded:
    return "overloaded";
  case ServiceStatus::Retriable:
    return "retriable";
  case ServiceStatus::Error:
    return "error";
  }
  return "error";
}

bool mc::parseServiceStatus(std::string_view Spelling, ServiceStatus &Out) {
  if (Spelling == "ok")
    Out = ServiceStatus::Ok;
  else if (Spelling == "incomplete")
    Out = ServiceStatus::Incomplete;
  else if (Spelling == "overloaded")
    Out = ServiceStatus::Overloaded;
  else if (Spelling == "retriable")
    Out = ServiceStatus::Retriable;
  else if (Spelling == "error")
    Out = ServiceStatus::Error;
  else
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

void writeStringArray(raw_ostream &OS, const char *Key,
                      const std::vector<std::string> &Items) {
  OS << ", \"" << Key << "\": [";
  for (size_t I = 0; I != Items.size(); ++I) {
    if (I)
      OS << ", ";
    writeJsonString(OS, Items[I]);
  }
  OS << ']';
}

void writePairArray(raw_ostream &OS, const char *Key, const char *AKey,
                    const char *BKey,
                    const std::vector<std::pair<std::string, std::string>> &P) {
  OS << ", \"" << Key << "\": [";
  for (size_t I = 0; I != P.size(); ++I) {
    OS << (I ? ", {" : "{") << '"' << AKey << "\": ";
    writeJsonString(OS, P[I].first);
    OS << ", \"" << BKey << "\": ";
    writeJsonString(OS, P[I].second);
    OS << '}';
  }
  OS << ']';
}

const char *jsonBool(bool B) { return B ? "true" : "false"; }

template <typename T> std::string lineOf(const T &Message) {
  std::string Buf;
  raw_string_ostream OS(Buf);
  Message.serialize(OS);
  return Buf;
}

} // namespace

void ServiceRequest::serialize(raw_ostream &OS) const {
  // Canonical form: every field, fixed order — serialize∘parse∘serialize is
  // the identity, so fingerprint() is well-defined across processes.
  OS << "{\"schema\": \"" << kServiceRequestSchema << "\", \"id\": ";
  writeJsonString(OS, Id);
  writeStringArray(OS, "files", Files);
  writeStringArray(OS, "checkers", Checkers);
  writePairArray(OS, "metal", "name", "source", Metal);
  writeStringArray(OS, "include_dirs", IncludeDirs);
  writePairArray(OS, "defines", "name", "value", Defines);
  OS << ", \"jobs\": " << Jobs;
  OS << ", \"deadline_ms\": " << DeadlineMs;
  OS << ", \"rank\": ";
  writeJsonString(OS, Rank);
  OS << ", \"format\": ";
  writeJsonString(OS, Format);
  OS << ", \"explain_top_n\": " << ExplainTopN;
  OS << ", \"keep_going\": " << jsonBool(KeepGoing);
  OS << ", \"baseline\": ";
  writeJsonString(OS, Baseline);
  OS << ", \"suppress_known\": " << jsonBool(SuppressKnown);
  OS << ", \"options\": {\"block_cache\": " << jsonBool(Options.BlockCache)
     << ", \"function_summaries\": " << jsonBool(Options.FunctionSummaries)
     << ", \"false_path_pruning\": " << jsonBool(Options.FalsePathPruning)
     << ", \"dispatch_index\": " << jsonBool(Options.DispatchIndex)
     << ", \"interprocedural\": " << jsonBool(Options.Interprocedural)
     << ", \"root_deadline_ms\": " << Options.RootDeadlineMs
     << ", \"root_path_budget\": " << Options.RootPathBudget
     << ", \"max_active_states\": " << Options.MaxActiveStates
     << ", \"fail_on\": ";
  writeJsonString(OS, Options.FailOn);
  OS << "}, \"inject\": {\"slow_ms\": " << InjectKnobs.SlowMs
     << ", \"die\": " << jsonBool(InjectKnobs.Die)
     << ", \"poison_checker\": " << jsonBool(InjectKnobs.PoisonChecker)
     << "}}";
}

std::string ServiceRequest::serializeToString() const {
  return lineOf(*this);
}

uint64_t ServiceRequest::fingerprint() const {
  ServiceRequest Anon = *this;
  Anon.Id.clear();
  return fnv1a64(Anon.serializeToString());
}

void ServiceResponse::serialize(raw_ostream &OS) const {
  OS << "{\"schema\": \"" << kServiceResponseSchema << "\", \"id\": ";
  writeJsonString(OS, Id);
  OS << ", \"status\": \"" << serviceStatusName(Status) << '"';
  OS << ", \"exit_code\": " << ExitCode;
  OS << ", \"queue_ms\": " << QueueMs;
  OS << ", \"run_ms\": " << RunMs;
  OS << ", \"error\": ";
  writeJsonString(OS, Error);
  OS << ", \"output\": ";
  writeJsonString(OS, Output);
  OS << ", \"log\": ";
  writeJsonString(OS, Log);
  OS << ", \"manifest\": ";
  writeJsonString(OS, Manifest);
  OS << '}';
}

std::string ServiceResponse::serializeToString() const {
  return lineOf(*this);
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

namespace {

bool readPairArray(JsonReader &R, const char *AKey, const char *BKey,
                   std::vector<std::pair<std::string, std::string>> &Out) {
  Out.clear();
  return R.readArray([&] {
    std::pair<std::string, std::string> &P = Out.emplace_back();
    return R.readObject([&](const std::string &Key) {
      if (Key == AKey)
        return R.readString(P.first);
      if (Key == BKey)
        return R.readString(P.second);
      return R.skipValue();
    });
  });
}

/// A histogram's "data" object. "count" is derived from the buckets, so it
/// skips like any unknown key.
bool readHistogram(JsonReader &R, HistogramSnapshot &Snap) {
  return R.readObject([&](const std::string &Key) {
    if (Key == "sum")
      return R.readUInt(Snap.Sum);
    if (Key != "buckets")
      return R.skipValue();
    return R.readArray([&] {
      uint64_t B = 0, N = 0;
      if (!R.readObject([&](const std::string &BK) {
            if (BK == "b")
              return R.readUInt(B);
            if (BK == "n")
              return R.readUInt(N);
            return R.skipValue();
          }))
        return false;
      if (B >= HistogramSnapshot::kBuckets)
        return R.fail("bucket index out of range");
      Snap.Buckets[B] = N;
      return true;
    });
  });
}

/// Reads one whole line as an object of \p Schema: \p OnKey handles every
/// key but "schema"; the line must end after the object.
template <typename Fn>
bool readLine(std::string_view Line, std::string *Err, const char *Schema,
              Fn &&OnKey) {
  JsonReader R(Line, Err);
  std::string Seen;
  if (!R.readObject([&](const std::string &Key) {
        return Key == "schema" ? R.readString(Seen) : OnKey(R, Key);
      }))
    return false;
  if (!R.atEnd())
    return R.fail("trailing bytes after the object");
  if (Seen != Schema)
    return R.fail(std::string("not an ") + Schema + " line");
  return true;
}

} // namespace

bool ServiceRequest::parse(std::string_view Line, std::string *Err) {
  ServiceRequest Q;
  RunRequest::EngineKnobs &K = Q.Options;
  auto OnKey = [&](JsonReader &R, const std::string &Key) {
    if (Key == "id")
      return R.readString(Q.Id);
    if (Key == "files")
      return R.readStringArray(Q.Files);
    if (Key == "checkers")
      return R.readStringArray(Q.Checkers);
    if (Key == "metal")
      return readPairArray(R, "name", "source", Q.Metal);
    if (Key == "include_dirs")
      return R.readStringArray(Q.IncludeDirs);
    if (Key == "defines")
      return readPairArray(R, "name", "value", Q.Defines);
    if (Key == "jobs")
      return R.readUInt(Q.Jobs);
    if (Key == "deadline_ms")
      return R.readUInt(Q.DeadlineMs);
    if (Key == "rank")
      return R.readString(Q.Rank);
    if (Key == "format")
      return R.readString(Q.Format);
    if (Key == "explain_top_n")
      return R.readUInt(Q.ExplainTopN);
    if (Key == "keep_going")
      return R.readBool(Q.KeepGoing);
    if (Key == "baseline")
      return R.readString(Q.Baseline);
    if (Key == "suppress_known")
      return R.readBool(Q.SuppressKnown);
    if (Key == "options")
      return R.readObject([&](const std::string &O) {
        if (O == "block_cache")
          return R.readBool(K.BlockCache);
        if (O == "function_summaries")
          return R.readBool(K.FunctionSummaries);
        if (O == "false_path_pruning")
          return R.readBool(K.FalsePathPruning);
        if (O == "dispatch_index")
          return R.readBool(K.DispatchIndex);
        if (O == "interprocedural")
          return R.readBool(K.Interprocedural);
        if (O == "root_deadline_ms")
          return R.readUInt(K.RootDeadlineMs);
        if (O == "root_path_budget")
          return R.readUInt(K.RootPathBudget);
        if (O == "max_active_states")
          return R.readUInt(K.MaxActiveStates);
        if (O == "fail_on")
          return R.readString(K.FailOn);
        return R.skipValue();
      });
    if (Key == "inject")
      return R.readObject([&](const std::string &I) {
        if (I == "slow_ms")
          return R.readUInt(Q.InjectKnobs.SlowMs);
        if (I == "die")
          return R.readBool(Q.InjectKnobs.Die);
        if (I == "poison_checker")
          return R.readBool(Q.InjectKnobs.PoisonChecker);
        return R.skipValue();
      });
    return R.skipValue();
  };
  if (!readLine(Line, Err, kServiceRequestSchema, OnKey))
    return false;
  *this = std::move(Q);
  return true;
}

std::string mc::peekServiceSchema(std::string_view Line) {
  JsonReader R(Line, nullptr);
  std::string Schema;
  R.readObject([&](const std::string &Key) {
    return Key == "schema" ? R.readString(Schema) : R.skipValue();
  });
  return Schema; // Whatever was seen before any malformed tail.
}

//===----------------------------------------------------------------------===//
// Status RPC
//===----------------------------------------------------------------------===//

void ServiceStatusRequest::serialize(raw_ostream &OS) const {
  OS << "{\"schema\": \"" << kServiceStatusRequestSchema << "\", \"id\": ";
  writeJsonString(OS, Id);
  OS << '}';
}

std::string ServiceStatusRequest::serializeToString() const {
  return lineOf(*this);
}

bool ServiceStatusRequest::parse(std::string_view Line, std::string *Err) {
  ServiceStatusRequest Q;
  if (!readLine(Line, Err, kServiceStatusRequestSchema,
                [&](JsonReader &R, const std::string &Key) {
                  return Key == "id" ? R.readString(Q.Id) : R.skipValue();
                }))
    return false;
  *this = std::move(Q);
  return true;
}

void ServiceStatusReply::serialize(raw_ostream &OS) const {
  OS << "{\"schema\": \"" << kServiceStatusReplySchema << "\", \"id\": ";
  writeJsonString(OS, Id);
  OS << ", \"uptime_ms\": " << UptimeMs;
  OS << ", \"requests\": {\"ok\": " << Ok << ", \"incomplete\": " << Incomplete
     << ", \"overloaded\": " << Overloaded << ", \"retriable\": " << Retriable
     << ", \"error\": " << Error << ", \"total\": " << Total << '}';
  OS << ", \"peak_queue_depth\": " << PeakQueueDepth;
  OS << ", \"quarantine\": [";
  for (size_t I = 0; I != Quarantine.size(); ++I) {
    OS << (I ? ", {" : "{") << "\"checker\": ";
    writeJsonString(OS, Quarantine[I].Checker);
    OS << ", \"remaining\": " << Quarantine[I].Remaining
       << ", \"faults\": " << Quarantine[I].Faults << '}';
  }
  OS << ']';
  writeStringArray(OS, "baselines", Baselines);
  OS << ", \"cache\": [";
  for (size_t I = 0; I != CacheCounters.size(); ++I) {
    OS << (I ? ", {" : "{") << "\"name\": ";
    writeJsonString(OS, CacheCounters[I].first);
    OS << ", \"value\": " << CacheCounters[I].second << '}';
  }
  OS << ']';
  OS << ", \"histograms\": [";
  for (size_t I = 0; I != Histograms.size(); ++I) {
    const HistogramEntry &H = Histograms[I];
    OS << (I ? ", {" : "{") << "\"name\": ";
    writeJsonString(OS, H.Name);
    OS << ", \"p50\": " << H.P50 << ", \"p95\": " << H.P95
       << ", \"p99\": " << H.P99 << ", \"data\": ";
    H.Snap.writeJson(OS);
    OS << '}';
  }
  OS << "]}";
}

std::string ServiceStatusReply::serializeToString() const {
  return lineOf(*this);
}

bool ServiceResponse::parse(std::string_view Line, std::string *Err) {
  ServiceResponse Q;
  auto OnKey = [&](JsonReader &R, const std::string &Key) {
    if (Key == "id")
      return R.readString(Q.Id);
    if (Key == "status") {
      std::string S;
      return R.readString(S) &&
             (parseServiceStatus(S, Q.Status) || R.fail("unknown status"));
    }
    if (Key == "exit_code")
      return R.readUInt(Q.ExitCode);
    if (Key == "queue_ms")
      return R.readUInt(Q.QueueMs);
    if (Key == "run_ms")
      return R.readUInt(Q.RunMs);
    if (Key == "error")
      return R.readString(Q.Error);
    if (Key == "output")
      return R.readString(Q.Output);
    if (Key == "log")
      return R.readString(Q.Log);
    if (Key == "manifest")
      return R.readString(Q.Manifest);
    return R.skipValue();
  };
  if (!readLine(Line, Err, kServiceResponseSchema, OnKey))
    return false;
  *this = std::move(Q);
  return true;
}

bool ServiceStatusReply::parse(std::string_view Line, std::string *Err) {
  ServiceStatusReply Q;
  auto OnKey = [&](JsonReader &R, const std::string &Key) {
    if (Key == "id")
      return R.readString(Q.Id);
    if (Key == "uptime_ms")
      return R.readUInt(Q.UptimeMs);
    if (Key == "requests")
      return R.readObject([&](const std::string &K) {
        if (K == "ok")
          return R.readUInt(Q.Ok);
        if (K == "incomplete")
          return R.readUInt(Q.Incomplete);
        if (K == "overloaded")
          return R.readUInt(Q.Overloaded);
        if (K == "retriable")
          return R.readUInt(Q.Retriable);
        if (K == "error")
          return R.readUInt(Q.Error);
        if (K == "total")
          return R.readUInt(Q.Total);
        return R.skipValue();
      });
    if (Key == "peak_queue_depth")
      return R.readUInt(Q.PeakQueueDepth);
    if (Key == "quarantine")
      return R.readArray([&] {
        QuarantineEntry &E = Q.Quarantine.emplace_back();
        return R.readObject([&](const std::string &K) {
          if (K == "checker")
            return R.readString(E.Checker);
          if (K == "remaining")
            return R.readUInt(E.Remaining);
          if (K == "faults")
            return R.readUInt(E.Faults);
          return R.skipValue();
        });
      });
    if (Key == "baselines")
      return R.readStringArray(Q.Baselines);
    if (Key == "cache")
      return R.readArray([&] {
        std::pair<std::string, uint64_t> &C = Q.CacheCounters.emplace_back();
        return R.readObject([&](const std::string &K) {
          if (K == "name")
            return R.readString(C.first);
          if (K == "value")
            return R.readUInt(C.second);
          return R.skipValue();
        });
      });
    if (Key == "histograms")
      return R.readArray([&] {
        HistogramEntry &H = Q.Histograms.emplace_back();
        return R.readObject([&](const std::string &K) {
          if (K == "name")
            return R.readString(H.Name);
          if (K == "p50")
            return R.readUInt(H.P50);
          if (K == "p95")
            return R.readUInt(H.P95);
          if (K == "p99")
            return R.readUInt(H.P99);
          if (K == "data")
            return readHistogram(R, H.Snap);
          return R.skipValue();
        });
      });
    return R.skipValue();
  };
  if (!readLine(Line, Err, kServiceStatusReplySchema, OnKey))
    return false;
  *this = std::move(Q);
  return true;
}
