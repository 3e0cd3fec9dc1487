//===- driver/xgccd_main.cpp - The xgccd analysis daemon ---------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   xgccd --socket PATH --cache-dir DIR [options]     serve analysis requests
//   xgccd --client --socket PATH                      send stdin request lines
//
// Server options:
//   --socket PATH            Unix-domain socket to listen on (required)
//   --cache-dir DIR          warm-store root; also holds the crash journal
//                            (required; the directory lock makes this daemon
//                            the store's only writer)
//   --max-queue N            admitted-request bound; the next request gets a
//                            typed `overloaded` response (default 16)
//   --default-deadline-ms N  deadline for requests that send 0 (default: none)
//   --jobs N                 worker threads for requests that send 0
//                            (default: one per hardware thread)
//   --cache-max-mb N         evict oldest cache entries beyond N MiB at drain
//   --allow-inject           honor requests' fault-injection block (tests)
//
// Observability options (docs/OBSERVABILITY.md):
//   --log-file PATH          structured JSONL event log (mc.service-event.v1,
//                            one object per admission/completion/shed/fault/
//                            quarantine/drain; size-capped rotation)
//   --log-max-bytes N        event-log rotation cap in bytes (default 4 MiB)
//   --slow-request-ms N      flight-recorder slow threshold: a request whose
//                            queue+run time meets N is captured under
//                            <cache-dir>/flightrec/ (0 = off; retriable and
//                            error terminals are captured regardless)
//   --flightrec-max N        captures kept in the flight-recorder ring
//                            (default 16; oldest evicted beyond it)
//
// A live daemon answers `mc.service-status.v1` lines (send one with
// `xgcc-triage status SOCK` or `xgccd --client`) on the connection thread,
// without queueing: uptime, requests by status, quarantine, histograms.
//
// SIGTERM/SIGINT drain gracefully: stop admitting, answer everything already
// admitted, flush the stores, exit 0. See docs/SERVICE.md for the wire
// schema and the status taxonomy.
//
// Client mode reads newline-delimited mc.service-request.v1 lines from stdin
// and prints one mc.service-response.v1 line per request to stdout.
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Server.h"
#include "support/OptionParser.h"
#include "support/RawOstream.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <csignal>
#include <unistd.h>

using namespace mc;

namespace {

void printUsage() {
  outs() << "usage: xgccd --socket PATH --cache-dir DIR [--max-queue N]\n"
         << "             [--default-deadline-ms N] [--jobs N]\n"
         << "             [--cache-max-mb N] [--allow-inject]\n"
         << "             [--log-file PATH] [--log-max-bytes N]\n"
         << "             [--slow-request-ms N] [--flightrec-max N]\n"
         << "       xgccd --client --socket PATH\n";
}

ServiceServer *ActiveServer = nullptr;

void onSignal(int) {
  if (ActiveServer)
    ActiveServer->requestStop(); // Async-signal-safe (one pipe write).
}

int runClient(const std::string &SocketPath) {
  if (SocketPath.empty()) {
    errs() << "xgccd: --client requires --socket PATH\n";
    return 2;
  }
  char *Line = nullptr;
  size_t Cap = 0;
  int RC = 0;
  for (;;) {
    ssize_t N = getline(&Line, &Cap, stdin);
    if (N < 0)
      break;
    std::string Request(Line, size_t(N));
    while (!Request.empty() &&
           (Request.back() == '\n' || Request.back() == '\r'))
      Request.pop_back();
    if (Request.empty())
      continue;
    std::string Reply, Err;
    if (!serviceRoundTrip(SocketPath, Request, Reply, &Err)) {
      errs() << "xgccd: " << Err << '\n';
      RC = 1;
      break;
    }
    outs() << Reply << '\n';
    outs().flush();
  }
  std::free(Line);
  return RC;
}

} // namespace

int main(int Argc, char **Argv) {
  ServiceConfig Cfg;
  bool ClientMode = false;

  OptionParser P(Argc, Argv);
  while (P.next()) {
    const std::string &Arg = P.arg();
    const char *V = nullptr;
    if (P.flag("--help")) {
      printUsage();
      return 0;
    }
    if (P.flag("--client")) {
      ClientMode = true;
      continue;
    }
    if (P.flag("--allow-inject")) {
      Cfg.AllowInject = true;
      continue;
    }
    if (P.value("--socket", &V)) {
      Cfg.SocketPath = V ? V : "";
      continue;
    }
    if (P.value("--cache-dir", &V)) {
      Cfg.CacheDir = V ? V : "";
      continue;
    }
    if (P.value("--max-queue", &V)) {
      if (!parseCount(V, Cfg.MaxQueue) || !Cfg.MaxQueue) {
        errs() << "xgccd: --max-queue expects a positive count\n";
        return 2;
      }
      continue;
    }
    if (P.value("--default-deadline-ms", &V)) {
      if (!parseCount(V, Cfg.DefaultDeadlineMs)) {
        errs() << "xgccd: --default-deadline-ms expects a non-negative "
                  "count\n";
        return 2;
      }
      continue;
    }
    if (P.value("--jobs", &V)) {
      if (!parseCount(V, Cfg.DefaultJobs)) {
        errs() << "xgccd: --jobs expects a non-negative count\n";
        return 2;
      }
      continue;
    }
    if (P.value("--cache-max-mb", &V)) {
      if (!parseCount(V, Cfg.CacheMaxMB)) {
        errs() << "xgccd: --cache-max-mb expects a size in MiB\n";
        return 2;
      }
      continue;
    }
    if (P.value("--log-file", &V)) {
      Cfg.LogFile = V ? V : "";
      if (Cfg.LogFile.empty()) {
        errs() << "xgccd: --log-file expects a path\n";
        return 2;
      }
      continue;
    }
    if (P.value("--log-max-bytes", &V)) {
      if (!parseCount(V, Cfg.LogMaxBytes) || !Cfg.LogMaxBytes) {
        errs() << "xgccd: --log-max-bytes expects a positive count\n";
        return 2;
      }
      continue;
    }
    if (P.value("--slow-request-ms", &V)) {
      if (!parseCount(V, Cfg.SlowRequestMs)) {
        errs() << "xgccd: --slow-request-ms expects a non-negative count\n";
        return 2;
      }
      continue;
    }
    if (P.value("--flightrec-max", &V)) {
      if (!parseCount(V, Cfg.FlightRecMax) || !Cfg.FlightRecMax) {
        errs() << "xgccd: --flightrec-max expects a positive count\n";
        return 2;
      }
      continue;
    }
    errs() << "xgccd: unknown option '" << Arg << "'\n";
    printUsage();
    return 2;
  }

  std::signal(SIGPIPE, SIG_IGN); // A vanished client must not kill the daemon.

  if (ClientMode)
    return runClient(Cfg.SocketPath);

  if (Cfg.SocketPath.empty() || Cfg.CacheDir.empty()) {
    printUsage();
    return 2;
  }

  ServiceServer Server(Cfg);
  if (!Server.start())
    return 1;

  ActiveServer = &Server;
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignal;
  sigemptyset(&SA.sa_mask);
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);

  int RC = Server.serve();
  ActiveServer = nullptr;
  return RC;
}
