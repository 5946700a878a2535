// text_ingest: online integration over dirty text. A `docs` table of
// Zipf-sampled words with 15% misspellings grows through Catalog::Append
// while one closed-loop client queries it semantically: each iteration
// appends a batch of unseen rows, then runs an unfiltered semantic select,
// a filtered semantic select, a filtered semantic join against a
// dictionary, and a semantic group-by over a filtered slice. A cycle is a
// fixed number of iterations, after which the table is reset, so the
// table's growth repeats from run to run.
//
// Chosen because embedding dominates it and because it writes beside its
// reads: appends bump catalog stamps (plan-cache invalidation, stale
// indexes), which the read-only workloads never do.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "corpus.h"
#include "embed/hash_embedding_model.h"
#include "plan/plan_node.h"
#include "probes.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr float kSelectThreshold = 0.75f;
constexpr float kJoinThreshold = 0.9f;
constexpr float kGroupThreshold = 0.8f;
/// Filtered queries keep `bucket < b` (b% of rows). b sweeps a fixed range
/// over a cycle's iterations, the same for every seed, so the filtered
/// classes' latencies overlap and the run's median falls inside them
/// rather than in a gap between two classes.
constexpr std::int64_t kSelectBucketsLo = 10, kSelectBucketsHi = 90;
constexpr std::int64_t kJoinBucketsLo = 10, kJoinBucketsHi = 50;
constexpr std::int64_t kSliceBuckets = 5;  ///< group-by slice: 5% of rows
constexpr std::int64_t kFirstBuckets = 30;  ///< filter of the first queries
constexpr std::size_t kLoadBatchRows = 1000;
/// Query words are drawn from the most frequent vocabulary ranks, so every
/// select has matches.
constexpr std::size_t kQueryRanks = 50;
/// Steady-phase cycles per second of --seconds (a cycle took about 1.9 s).
constexpr double kCyclesPerSecond = 0.55;

const char* const kClasses[] = {"select", "filtered_select", "filtered_join",
                                "group_by"};

struct Sizes {
  std::size_t vocabulary, rows, dict, batch, iterations;
};

class TextIngest : public Workload {
 public:
  double tail_percentile() const override { return 0.95; }

  void Generate(std::uint64_t seed, bool tiny) override {
    sizes_ = tiny ? Sizes{600, 1000, 100, 50, 2}
                  : Sizes{6000, 20000, 2000, 200, 10};
    corpus_ = MakeTextCorpus(seed, sizes_.vocabulary, sizes_.rows,
                             sizes_.batch * sizes_.iterations);
    model_ = std::make_shared<cre::HashEmbeddingModel>();
    dict_ = cre::Table::Make(cre::Schema({{"term_id", cre::DataType::kInt64, 0},
                                          {"term", cre::DataType::kString, 0}}));
    for (std::size_t i = 0; i < sizes_.dict; ++i) {
      dict_->column(0).AppendInt64(static_cast<std::int64_t>(i));
      dict_->column(1).AppendString(corpus_.vocabulary[i]);
    }
    cre::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
    for (std::size_t i = 0; i < sizes_.iterations; ++i) {
      Step step;
      step.batch = corpus_.extra->Slice(i * sizes_.batch, sizes_.batch);
      step.select_word = corpus_.vocabulary[rng.Uniform(kQueryRanks)];
      step.filtered_word = corpus_.vocabulary[rng.Uniform(kQueryRanks)];
      step.slice = static_cast<std::int64_t>(rng.Uniform(100 / kSliceBuckets)) *
                   kSliceBuckets;
      const auto at = static_cast<std::int64_t>(i);
      const auto last = static_cast<std::int64_t>(sizes_.iterations - 1);
      step.select_buckets =
          kSelectBucketsLo + (kSelectBucketsHi - kSelectBucketsLo) * at / last;
      step.join_buckets =
          kJoinBucketsHi - (kJoinBucketsHi - kJoinBucketsLo) * at / last;
      steps_.push_back(std::move(step));
    }
    first_word_ = corpus_.vocabulary[3];
  }

  cre::Status BuildReferences() override {
    // Brute-force similarity pinned on every semantic node, filters on the
    // scans, run as written; the appends are replayed so each iteration's
    // reference sees the table its queries see.
    cre::Engine ref;
    ref.models().Put("h", model_);
    ref.catalog().Put("dict", dict_);
    ref.catalog().Put("docs", corpus_.docs);
    // ClassQueries() on the table as loaded: the first queries.
    const cre::PlanPtr first[] = {
        RefSelect(first_word_, 0), RefSelect(first_word_, kFirstBuckets),
        RefJoin(kFirstBuckets), RefGroupBy(0)};
    for (const cre::PlanPtr& plan : first) {
      cre::Result<RowSet> rows = Reference(&ref, plan);
      if (!rows.ok()) return rows.status();
      first_refs_.push_back(std::move(rows).ValueOrDie());
    }
    for (Step& step : steps_) {
      if (!ref.catalog().Append("docs", *step.batch).ok()) {
        return cre::Status::Internal("reference append failed");
      }
      const cre::PlanPtr plans[] = {
          RefSelect(step.select_word, 0),
          RefSelect(step.filtered_word, step.select_buckets),
          RefJoin(step.join_buckets), RefGroupBy(step.slice)};
      for (const cre::PlanPtr& plan : plans) {
        cre::Result<RowSet> rows = Reference(&ref, plan);
        if (!rows.ok()) return rows.status();
        step.refs.push_back(std::move(rows).ValueOrDie());
      }
    }
    return cre::Status::OK();
  }

  cre::Status Load(cre::Engine* engine, Tracer* tracer, bool counting,
                   std::vector<double>* append_ms) override {
    cre::EmbeddingModelPtr model = model_;
    if (counting) {
      counting_ = std::make_shared<CountingModel>(model_);
      model = counting_;
    }
    engine->models().Put("h", model);
    engine->catalog().Put("dict", dict_);
    return LoadInBatches(engine, tracer, "docs", *corpus_.docs,
                         kLoadBatchRows, append_ms);
  }

  double FirstQueries(Runner* runner) override {
    double ms = 0;
    const std::vector<std::pair<std::string, std::string>> queries =
        ClassQueries();
    for (std::size_t c = 0; c < queries.size(); ++c) {
      const QueryResult r = runner->Run(queries[c].first, queries[c].second);
      runner->Check(queries[c].first, r, first_refs_[c],
                    /*approximate=*/c != 3);
      ms += r.ms;
    }
    return ms;
  }

  void Steady(cre::Engine* engine, Runner* runner, double seconds,
              Samples* out) override {
    // Whole cycles only, so every run sees the same table growth.
    const std::size_t cycles = UnitsFor(seconds, kCyclesPerSecond);
    for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
      for (const Step& step : steps_) {
        const double ms = runner->Append("docs", *step.batch);
        if (ms >= 0) out->append_ms.push_back(ms);
        const std::string sql[] = {
            SelectSql(step.select_word, 0),
            SelectSql(step.filtered_word, step.select_buckets),
            JoinSql(step.join_buckets), GroupBySql(step.slice)};
        for (int c = 0; c < 4; ++c) {
          const QueryResult r = runner->Run(kClasses[c], sql[c]);
          // Similarity selects and joins may use an approximate strategy;
          // the group-by's online clustering is exact.
          runner->Check(kClasses[c], r, step.refs[c], /*approximate=*/c != 3);
          out->AddQuery(kClasses[c], r.ms);
        }
      }
      engine->catalog().Put("docs", corpus_.docs);
    }
  }

  std::vector<std::pair<std::string, std::string>> ClassQueries()
      const override {
    return {{kClasses[0], SelectSql(first_word_, 0)},
            {kClasses[1], SelectSql(first_word_, kFirstBuckets)},
            {kClasses[2], JoinSql(kFirstBuckets)},
            {kClasses[3], GroupBySql(0)}};
  }

  void MarkSteadyStart() override {
    embedded0_ = counting_ ? counting_->rows() : 0;
  }
  void MarkSteadyEnd() override {
    embedded1_ = counting_ ? counting_->rows() : 0;
  }

  void Probes(cre::Engine* engine, Tracer* tracer,
              std::uint64_t steady_queries, LayerMetrics* out) override {
    const double q =
        static_cast<double>(std::max<std::uint64_t>(1, steady_queries));
    const std::vector<std::string> words =
        StringColumn(*corpus_.docs, "word");
    (*out)["embed.rows_per_query"] = {
        static_cast<double>(embedded1_ - embedded0_) / q, "count"};
    (*out)["embed.us_per_row"] = {ProbeEmbedUsPerRow(*model_, words, tracer),
                                  "us"};
    (*out)["vecsim.dot_batch_ns"] = {
        ProbeDotBatchNs(*model_,
                        std::vector<std::string>(
                            words.begin(),
                            words.begin() + std::min<std::size_t>(
                                                words.size(), 4096)),
                        tracer),
        "ns"};
    std::vector<std::string> queries;
    for (const Step& step : steps_) queries.push_back(step.select_word);
    engine->catalog().Put("docs", corpus_.docs);
    const IndexProbe ip =
        ProbeIndex(engine, "docs", "word", "h", *corpus_.extra, queries,
                   kSelectThreshold, tracer);
    (*out)["index.build_ms"] = {ip.build_ms, "ms"};
    (*out)["index.refresh_ms"] = {ip.refresh_ms, "ms"};
    (*out)["index.probe_us"] = {ip.probe_us, "us"};
    (*out)["vision.images_detected_per_query"] = {0, "count"};
    (*out)["vision.ms_per_image"] = {ProbeDetectSyntheticMsPerImage(tracer),
                                     "ms"};
    (*out)["exec.aggregate_ns_per_row"] = {
        ProbeAggregateNsPerRow(corpus_.docs, "bucket", "doc_id", tracer),
        "ns"};
  }

 private:
  struct Step {
    cre::TablePtr batch;
    std::string select_word;
    std::string filtered_word;
    std::int64_t slice = 0;
    std::int64_t select_buckets = 0;
    std::int64_t join_buckets = 0;
    std::vector<RowSet> refs;  ///< one per class, after this step's append
  };

  /// buckets == 0: unfiltered.
  static std::string SelectSql(const std::string& word, std::int64_t buckets) {
    const std::string filter =
        buckets > 0 ? "bucket < " + std::to_string(buckets) + " AND " : "";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "SELECT doc_id, word FROM docs WHERE %sword SIMILAR TO '%s' "
                  "USING h THRESHOLD %.2f",
                  filter.c_str(), word.c_str(), kSelectThreshold);
    return buf;
  }
  static std::string JoinSql(std::int64_t buckets) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "SELECT doc_id, word, term FROM docs SEMANTIC JOIN dict ON "
                  "word ~ term USING h THRESHOLD %.2f WHERE bucket < %lld",
                  kJoinThreshold, static_cast<long long>(buckets));
    return buf;
  }
  static std::string GroupBySql(std::int64_t slice) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "SELECT doc_id, word, cluster_id FROM docs WHERE bucket >= "
                  "%lld AND bucket < %lld SEMANTIC GROUP BY word USING h "
                  "THRESHOLD %.2f",
                  static_cast<long long>(slice),
                  static_cast<long long>(slice + kSliceBuckets),
                  kGroupThreshold);
    return buf;
  }

  static cre::PlanPtr Docs(cre::ExprPtr filter) {
    cre::PlanPtr scan = cre::PlanNode::Scan("docs");
    return filter ? cre::PlanNode::Filter(scan, std::move(filter)) : scan;
  }
  static cre::PlanPtr RefSelect(const std::string& word, std::int64_t buckets) {
    cre::PlanPtr plan = cre::PlanNode::SemanticSelect(
        Docs(buckets > 0 ? cre::Lt(cre::Col("bucket"), cre::Lit(buckets))
                         : nullptr),
        "word", word, "h", kSelectThreshold);
    PinBruteForce(plan);
    return ProjectColumns(plan, {"doc_id", "word"});
  }
  static cre::PlanPtr RefJoin(std::int64_t buckets) {
    cre::PlanPtr plan = cre::PlanNode::SemanticJoin(
        Docs(cre::Lt(cre::Col("bucket"), cre::Lit(buckets))),
        cre::PlanNode::Scan("dict"), "word", "term", "h", kJoinThreshold);
    PinBruteForce(plan);
    return ProjectColumns(plan, {"doc_id", "word", "term"});
  }
  static cre::PlanPtr RefGroupBy(std::int64_t slice) {
    cre::PlanPtr plan = cre::PlanNode::SemanticGroupBy(
        Docs(cre::And(cre::Ge(cre::Col("bucket"), cre::Lit(slice)),
                      cre::Lt(cre::Col("bucket"),
                              cre::Lit(slice + kSliceBuckets)))),
        "word", "h", kGroupThreshold);
    return ProjectColumns(plan, {"doc_id", "word", "cluster_id"});
  }

  Sizes sizes_{};
  TextCorpus corpus_;
  cre::TablePtr dict_;
  std::shared_ptr<cre::HashEmbeddingModel> model_;
  std::vector<Step> steps_;
  std::string first_word_;
  std::vector<RowSet> first_refs_;  ///< per class, for FirstQueries
  std::shared_ptr<CountingModel> counting_;
  std::uint64_t embedded0_ = 0, embedded1_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTextIngest() {
  return std::make_unique<TextIngest>();
}

}  // namespace perfbench
