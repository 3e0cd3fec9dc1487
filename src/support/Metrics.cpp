//===- support/Metrics.cpp - Named counter/timer registry -----------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include <algorithm>
#include <chrono>

namespace mc {

void MetricsSnapshot::add(std::string_view Name, uint64_t Delta) {
  auto It = std::lower_bound(
      Values.begin(), Values.end(), Name,
      [](const auto &Entry, std::string_view N) { return Entry.first < N; });
  if (It != Values.end() && It->first == Name) {
    It->second += Delta;
    return;
  }
  Values.insert(It, {std::string(Name), Delta});
}

void MetricsSnapshot::merge(const MetricsSnapshot &O) {
  for (const auto &[Name, V] : O.Values)
    add(Name, V);
}

uint64_t MetricsSnapshot::value(std::string_view Name) const {
  auto It = std::lower_bound(
      Values.begin(), Values.end(), Name,
      [](const auto &Entry, std::string_view N) { return Entry.first < N; });
  if (It != Values.end() && It->first == Name)
    return It->second;
  return 0;
}

std::atomic<uint64_t> *MetricsRegistry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Name);
  if (It != Index.end())
    return It->second;
  std::atomic<uint64_t> &Cell = Cells.emplace_back(0);
  Index.emplace(std::string(Name), &Cell);
  return &Cell;
}

uint64_t MetricsRegistry::value(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Name);
  if (It == Index.end())
    return 0;
  return It->second->load(std::memory_order_relaxed);
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Index.size();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  MetricsSnapshot Snap;
  // std::map iterates in name order, matching the snapshot's invariant, so
  // each add() appends at the end.
  for (const auto &[Name, Cell] : Index)
    Snap.add(Name, Cell->load(std::memory_order_relaxed));
  return Snap;
}

static uint64_t nowNs() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ScopedTimerNs::ScopedTimerNs(std::atomic<uint64_t> *Cell) : Cell(Cell) {
  if (Cell)
    StartNs = nowNs();
}

ScopedTimerNs::~ScopedTimerNs() {
  if (Cell)
    Cell->fetch_add(nowNs() - StartNs, std::memory_order_relaxed);
}

} // namespace mc
