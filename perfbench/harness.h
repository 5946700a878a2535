// Shared machinery of the perfbench workloads: run arguments, in-memory
// spans for the traced run, operation outcomes, result checking against
// references, a counting embedding-model decorator, and the query runner
// every workload drives the engine through.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mutex.h"
#include "embed/embedding_model.h"
#include "engine/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nominal per-image cost of the simulated object detector (microseconds),
/// as in the repository's Fig. 2 harness.
constexpr double kDetectorCostUs = 500.0;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny data sizes and run length: the smoke test of the benchmark.
  bool tiny = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".";
};

// ---------------------------------------------------------------------------
// Spans (traced run only)

/// One timed call the benchmark made into a module's public function.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer was created
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;   ///< -1 = root
  std::uint64_t query_id = 0;  ///< 0 = not part of a query
};

/// In-memory span store. Spans are kept until the run ends and written out
/// once; a disabled tracer records nothing, so the end-to-end runs pay one
/// branch per call site. Parents follow the calling thread's open spans.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span for the current scope (no-op when disabled).
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// A fresh query id, unique within the run.
  std::uint64_t NextQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// The query id stamped on spans opened by the calling thread.
  static void SetQueryId(std::uint64_t id);

  std::vector<Span> spans() const;
  /// Per span name: summed duration and summed self time (duration minus
  /// the part of the span its child spans cover), in seconds, plus counts.
  struct Totals {
    double total_s = 0;
    double self_s = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Totals> TotalsByName() const;
  /// Writes spans and per-name totals as JSON; false on an IO error.
  bool Write(const std::string& path, const std::string& meta_json) const;

 private:
  std::int64_t NowNs() const;

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  std::atomic<std::int64_t> next_id_{0};
  std::atomic<std::uint64_t> next_query_id_{1};
  mutable cre::Mutex mu_;
  std::vector<Span> spans_ CRE_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Outcomes

/// Thread-safe tally of attempted and failed operations and of result
/// checks. A failure keeps its query class and status code; the run
/// carries on.
class Outcomes {
 public:
  void Ok();
  void Fail(const std::string& query_class, const std::string& code,
            const std::string& message);

  /// Reference-row tallies over every checked result.
  struct CheckTotals {
    std::size_t matched = 0;    ///< result rows found in the reference
    std::size_t reference = 0;  ///< reference rows
    std::size_t mismatches = 0;  ///< results that differ from the reference
    std::size_t wrong_rows = 0;  ///< result rows absent from the reference
    std::size_t wrong_results = 0;  ///< mismatches that are wrong answers
  };
  void AddCheck(const CheckTotals& check);
  CheckTotals check_totals() const;

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  /// Failures whose status names a vector-index family: the physical
  /// similarity strategy the optimizer chose could not run.
  std::uint64_t strategy_failed() const;
  /// "class/code" -> count, with one example message each.
  std::map<std::string, std::pair<std::uint64_t, std::string>> failures()
      const;

 private:
  mutable cre::Mutex mu_;
  std::uint64_t attempted_ CRE_GUARDED_BY(mu_) = 0;
  std::uint64_t failed_ CRE_GUARDED_BY(mu_) = 0;
  std::uint64_t strategy_failed_ CRE_GUARDED_BY(mu_) = 0;
  CheckTotals checks_ CRE_GUARDED_BY(mu_);
  std::map<std::string, std::pair<std::uint64_t, std::string>> failures_
      CRE_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Result checking

/// Order-independent fingerprint of a result: one hash per row over every
/// cell's rendering, sorted (a row multiset).
using RowSet = std::vector<std::uint64_t>;
RowSet RowsOf(const cre::Table& table);

struct RowMatch {
  std::size_t matched = 0;  ///< multiset intersection size
  std::size_t reference = 0;
  std::size_t got = 0;
  bool exact() const { return matched == reference && matched == got; }
};
RowMatch CompareRows(const RowSet& reference, const RowSet& got);

/// Pins every semantic node of `plan` to exact brute-force similarity.
void PinBruteForce(const cre::PlanPtr& plan);
/// Keeps `columns` of `child`, in order.
cre::PlanPtr ProjectColumns(cre::PlanPtr child,
                            const std::vector<std::string>& columns);
/// Puts an empty `table` into the engine's catalog and fills it with `rows`
/// through Catalog::Append batches of `batch_rows`, each inside a span; each
/// append's latency (ms) goes to `append_ms`.
cre::Status LoadInBatches(cre::Engine* engine, Tracer* tracer,
                          const std::string& table, const cre::Table& rows,
                          std::size_t batch_rows,
                          std::vector<double>* append_ms);
/// Executes `plan` exactly as written (no optimizer) and fingerprints it.
cre::Result<RowSet> Reference(cre::Engine* engine, const cre::PlanPtr& plan);

// ---------------------------------------------------------------------------
// Counting embedding model (traced run)

/// Decorator counting every string the engine embeds. It forwards every
/// virtual of EmbeddingModel, including the optimizer's cost hint and the
/// batched entry point, so plans and kernels are those of the wrapped model.
class CountingModel : public cre::EmbeddingModel {
 public:
  explicit CountingModel(cre::EmbeddingModelPtr inner)
      : inner_(std::move(inner)) {}

  std::size_t dim() const override { return inner_->dim(); }
  void Embed(std::string_view text, float* out) const override {
    rows_.fetch_add(1, std::memory_order_relaxed);
    inner_->Embed(text, out);
  }
  std::string name() const override { return inner_->name(); }
  double cost_ns_per_embedding() const override {
    return inner_->cost_ns_per_embedding();
  }
  void EmbedBatch(const std::vector<std::string>& texts,
                  float* out) const override {
    rows_.fetch_add(texts.size(), std::memory_order_relaxed);
    inner_->EmbedBatch(texts, out);
  }

  std::uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }

 private:
  cre::EmbeddingModelPtr inner_;
  mutable std::atomic<std::uint64_t> rows_{0};
};

// ---------------------------------------------------------------------------
// Query runner

/// Per-query engine counters summed over the traced run's queries.
struct ExecTotals {
  std::uint64_t queries = 0;
  /// Operator busy seconds (summed across workers) by operator name. An
  /// operator's time includes the operators beneath it in its pipeline.
  std::map<std::string, double> busy_s;
  double queue_wait_s = 0;
  double admission_s = 0;
  std::uint64_t tasks = 0;
};

/// Outcome of one query: its latency, and its rows when it succeeded.
struct QueryResult {
  bool ok = false;
  double ms = 0;
  cre::TablePtr table;
};

/// Issues CRE-QL text against one engine: ParseSql, then Execute (end-to-end
/// run) or ExecuteWithStats (traced run), each inside a span. Failures are
/// recorded in `outcomes` and returned, never thrown.
class Runner {
 public:
  Runner(cre::Engine* engine, Tracer* tracer, Outcomes* outcomes)
      : engine_(engine), tracer_(tracer), outcomes_(outcomes) {}

  QueryResult Run(const std::string& query_class, const std::string& sql);

  /// Checks a successful result against its reference row set. Any
  /// mismatch is a failed operation, and matched/reference rows feed
  /// `recall`. A returned row missing from the reference is a wrong
  /// answer; so is a missing row, unless `approximate` (a similarity query
  /// the optimizer may serve with an approximate strategy, which the
  /// engine allows by default).
  void Check(const std::string& query_class, const QueryResult& result,
             const RowSet& reference, bool approximate);

  /// Catalog::Append inside a span; returns its latency in ms, or a
  /// negative value when it failed (recorded as a failed operation).
  double Append(const std::string& table, const cre::Table& rows);

  ExecTotals exec_totals() const;

 private:
  cre::Engine* engine_;
  Tracer* tracer_;
  Outcomes* outcomes_;
  mutable cre::Mutex mu_;
  ExecTotals totals_ CRE_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Small helpers

/// `s` as a JSON string literal.
std::string JsonQuoted(const std::string& s);
double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p);
/// Peak resident set of this process in MiB.
double PeakRssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
