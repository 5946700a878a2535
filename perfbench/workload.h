// The interface each perfbench workload implements, and the measurements a
// run collects from it.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "engine/engine.h"
#include "harness.h"

namespace perfbench {

/// Latencies of the closed-loop steady phase.
struct Samples {
  std::vector<double> query_ms;
  std::vector<double> append_ms;
  /// query class -> latencies, for the per-class breakdown.
  std::map<std::string, std::vector<double>> by_class;

  void AddQuery(const std::string& query_class, double ms) {
    query_ms.push_back(ms);
    by_class[query_class].push_back(ms);
  }
  void Merge(const Samples& other) {
    query_ms.insert(query_ms.end(), other.query_ms.begin(),
                    other.query_ms.end());
    append_ms.insert(append_ms.end(), other.append_ms.begin(),
                     other.append_ms.end());
    for (const auto& [cls, v] : other.by_class) {
      by_class[cls].insert(by_class[cls].end(), v.begin(), v.end());
    }
  }
};

/// Seeded draws from n literals: each pass visits every literal once, in
/// a fresh random order, so a run's query mix does not depend on luck.
class ShuffledCycle {
 public:
  ShuffledCycle(std::size_t n, std::uint64_t seed) : rng_(seed), order_(n) {
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
  }
  std::size_t Next() {
    if (pos_ == 0) {
      for (std::size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.Uniform(i)]);
      }
    }
    const std::size_t v = order_[pos_];
    pos_ = (pos_ + 1) % order_.size();
    return v;
  }

 private:
  cre::Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

/// Work units for a steady phase meant to last about `seconds`, at
/// `per_second` units a second (the workload's measured rate on a 4-core
/// host); at least one.
inline std::size_t UnitsFor(double seconds, double per_second) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(seconds * per_second)));
}

/// Per-layer metric: value and unit.
using LayerMetrics = std::map<std::string, std::pair<double, std::string>>;

/// One workload. main() calls, in order: Generate, BuildReferences
/// (both untimed), then Load on several freshly constructed engines (timed
/// as set-up), FirstQueries on each, Steady on the last one, and in the traced
/// run Probes.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Steady-phase percentile reported as tail_ms: the highest one that
  /// keeps at least ten samples beyond it at the default run length.
  virtual double tail_percentile() const = 0;

  /// Synthesizes the workload's inputs from the seed (untimed).
  virtual void Generate(std::uint64_t seed, bool tiny) = 0;
  /// Computes the reference result of every query the run can issue
  /// (untimed): pinned brute force or unoptimized dop-1 execution.
  virtual cre::Status BuildReferences() = 0;

  /// Puts the tables, models and detectors into a freshly constructed
  /// engine and builds any index the workload declares; the fact table
  /// arrives in Catalog::Append batches (latencies into `append_ms`).
  /// `counting` wraps each embedding model in a CountingModel (traced run).
  virtual cre::Status Load(cre::Engine* engine, Tracer* tracer, bool counting,
                           std::vector<double>* append_ms) = 0;

  /// One query of each class on a freshly loaded engine (cold plan cache,
  /// untuned knobs), each checked against its reference: what an ad-hoc
  /// analyst sees first. Returns their summed latency in ms.
  virtual double FirstQueries(Runner* runner) = 0;

  /// Closed-loop steady phase: a fixed amount of work, sized by UnitsFor
  /// to last about `seconds`. The work, not the clock, ends it, so every
  /// run of a seed issues the same operations and its attempted and failed
  /// counts repeat; a faster engine finishes sooner.
  virtual void Steady(cre::Engine* engine, Runner* runner, double seconds,
                      Samples* out) = 0;

  /// One representative CRE-QL statement per query class.
  virtual std::vector<std::pair<std::string, std::string>> ClassQueries()
      const = 0;

  /// Workload-specific per-layer numbers of the traced run: probes of
  /// module functions on the workload's own data, and counter deltas of
  /// the steady phase (`steady_queries` queries ran on `engine`).
  virtual void Probes(cre::Engine* engine, Tracer* tracer,
                      std::uint64_t steady_queries, LayerMetrics* out) = 0;

  /// Counter snapshots around the traced steady phase, for Probes.
  virtual void MarkSteadyStart() {}
  virtual void MarkSteadyEnd() {}
};

std::unique_ptr<Workload> MakeMultisource();
std::unique_ptr<Workload> MakeTextIngest();
std::unique_ptr<Workload> MakeServingMix();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
