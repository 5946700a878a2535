// serving_mix: read-only concurrent serving. Three closed-loop clients share
// one engine and cycle through four query classes: filter plus aggregate
// into 16 groups, a filtered hash join (twice as often as the others), a
// filtered top-k sort, and a semantic lookup on `docs` served by a resident HNSW index built during
// set-up. Literals are drawn per query from seeded grids.
//
// Chosen because relational operators, scheduling contention and
// per-query planning (the plan cache) dominate it; the index is only
// probed, never refreshed, and embedding covers only query constants.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "corpus.h"
#include "embed/hash_embedding_model.h"
#include "index/index_manager.h"
#include "plan/plan_node.h"
#include "probes.h"
#include "sql/parser.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr float kThreshold = 0.75f;
constexpr std::size_t kClients = 3;
constexpr std::size_t kGrid = 16;
constexpr std::size_t kLoadBatchRows = 2000;
constexpr std::size_t kQueryRanks = 50;
/// Steady-phase queries per client per second of --seconds (about 105
/// measured with three clients).
constexpr double kQueriesPerClientPerSecond = 105.0;

enum Class { kAggregate = 0, kJoin, kTopK, kSemantic, kNumClasses };
const char* const kClassNames[] = {"aggregate", "join", "topk", "semantic"};
/// Each client's repeating class sequence. Joins take two of the five
/// slots, so the median latency of the mix falls inside the join class
/// rather than in the gap between the top-k and join classes, where it
/// would hinge on the tails of both.
constexpr Class kMix[] = {kAggregate, kJoin, kTopK, kJoin, kSemantic};
constexpr std::size_t kMixLength = sizeof(kMix) / sizeof(kMix[0]);

class ServingMix : public Workload {
 public:
  double tail_percentile() const override { return 0.995; }

  void Generate(std::uint64_t seed, bool tiny) override {
    seed_ = seed;
    const std::size_t items = tiny ? 2000 : 40000;
    const std::size_t dims = tiny ? 100 : 2000;
    const std::size_t docs = tiny ? 1000 : 20000;
    cre::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);

    items_ = cre::Table::Make(cre::Schema({{"id", cre::DataType::kInt64, 0},
                                           {"num", cre::DataType::kInt64, 0},
                                           {"flag", cre::DataType::kInt64, 0}}));
    std::vector<std::int64_t> nums(items);
    std::iota(nums.begin(), nums.end(), 0);
    for (std::size_t i = items; i > 1; --i) {
      std::swap(nums[i - 1], nums[rng.Uniform(i)]);
    }
    for (std::size_t i = 0; i < items; ++i) {
      items_->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(dims)));
      items_->column(1).AppendInt64(nums[i]);
      items_->column(2).AppendInt64(static_cast<std::int64_t>(rng.Uniform(16)));
    }
    dims_ = cre::Table::Make(cre::Schema({{"dim_id", cre::DataType::kInt64, 0},
                                          {"weight", cre::DataType::kInt64, 0}}));
    for (std::size_t i = 0; i < dims; ++i) {
      dims_->column(0).AppendInt64(static_cast<std::int64_t>(i));
      dims_->column(1).AppendInt64(static_cast<std::int64_t>(rng.Uniform(1000)));
    }
    corpus_ = MakeTextCorpus(seed, tiny ? 600 : 6000, docs, docs / 10);
    model_ = std::make_shared<cre::HashEmbeddingModel>();

    // Grids at fixed shares of the key ranges and fixed frequency ranks of
    // the lookup words, so selectivity is the same for every seed.
    const auto n = static_cast<std::int64_t>(items);
    for (std::size_t k = 0; k < kGrid; ++k) {
      const auto kk = static_cast<std::int64_t>(k);
      sql_[kAggregate].push_back(AggregateSql(n * kk / 20));
      sql_[kJoin].push_back(JoinSql(n * kk / 20, 1000 - 60 * kk));
      sql_[kTopK].push_back(TopKSql(kk + 1));
      sql_[kSemantic].push_back(
          SemanticSql(corpus_.vocabulary[k * kQueryRanks / kGrid]));
    }
  }

  cre::Status BuildReferences() override {
    // Relational classes: unoptimized dop-1 execution. Semantic lookups:
    // pinned brute force (parallel, exact).
    cre::EngineOptions one;
    one.num_threads = 1;
    cre::Engine serial(one);
    cre::Engine parallel;
    for (cre::Engine* e : {&serial, &parallel}) {
      e->catalog().Put("items", items_);
      e->catalog().Put("dims", dims_);
      e->catalog().Put("docs", corpus_.docs);
      e->models().Put("h", model_);
    }
    for (int c = 0; c < kNumClasses; ++c) {
      for (const std::string& sql : sql_[c]) {
        cre::Result<cre::PlanPtr> plan = cre::sql::ParseSql(sql);
        if (!plan.ok()) return plan.status();
        if (c == kSemantic) PinBruteForce(plan.ValueOrDie());
        cre::Result<RowSet> rows = Reference(
            c == kSemantic ? &parallel : &serial, plan.ValueOrDie());
        if (!rows.ok()) return rows.status();
        refs_[c].push_back(std::move(rows).ValueOrDie());
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
    engine->catalog().Put("dims", dims_);
    engine->catalog().Put("docs", corpus_.docs);
    const cre::Status loaded = LoadInBatches(engine, tracer, "items", *items_,
                                             kLoadBatchRows, append_ms);
    if (!loaded.ok()) return loaded;
    // The resident index the semantic lookups are served from.
    Tracer::Scope span(tracer, "index.GetOrBuild");
    return engine->index_manager()
        ->GetOrBuild({"docs", "word", "h", cre::SemanticJoinStrategy::kHnsw})
        .status();
  }

  double FirstQueries(Runner* runner) override {
    double ms = 0;
    for (int c = 0; c < kNumClasses; ++c) {
      const QueryResult r = runner->Run(kClassNames[c], sql_[c][kGrid / 2]);
      runner->Check(kClassNames[c], r, refs_[c][kGrid / 2],
                    /*approximate=*/c == kSemantic);
      ms += r.ms;
    }
    return ms;
  }

  void Steady(cre::Engine* /*engine*/, Runner* runner, double seconds,
              Samples* out) override {
    const std::size_t queries = UnitsFor(seconds, kQueriesPerClientPerSecond);
    const std::size_t clients = std::min<std::size_t>(
        kClients, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<Samples> per_client(clients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<ShuffledCycle> literals;
        for (int cls = 0; cls < kNumClasses; ++cls) {
          literals.emplace_back(kGrid, seed_ * 0x9e3779b97f4a7c15ULL +
                                           17 * (c + 1) + 131 * cls);
        }
        for (std::size_t i = c; i < c + queries; ++i) {
          const Class cls = kMix[i % kMixLength];
          const std::size_t k = literals[cls].Next();
          const QueryResult r = runner->Run(kClassNames[cls], sql_[cls][k]);
          runner->Check(kClassNames[cls], r, refs_[cls][k],
                        /*approximate=*/cls == kSemantic);
          per_client[c].AddQuery(kClassNames[cls], r.ms);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Samples& s : per_client) out->Merge(s);
  }

  std::vector<std::pair<std::string, std::string>> ClassQueries()
      const override {
    std::vector<std::pair<std::string, std::string>> out;
    for (int c = 0; c < kNumClasses; ++c) {
      out.emplace_back(kClassNames[c], sql_[c][kGrid / 2]);
    }
    return out;
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
    for (std::size_t k = 0; k < kGrid; ++k) {
      queries.push_back(corpus_.vocabulary[k]);
    }
    const IndexProbe ip = ProbeIndex(engine, "docs", "word", "h",
                                     *corpus_.extra, queries, kThreshold,
                                     tracer);
    (*out)["index.build_ms"] = {ip.build_ms, "ms"};
    (*out)["index.refresh_ms"] = {ip.refresh_ms, "ms"};
    (*out)["index.probe_us"] = {ip.probe_us, "us"};
    (*out)["vision.images_detected_per_query"] = {0, "count"};
    (*out)["vision.ms_per_image"] = {ProbeDetectSyntheticMsPerImage(tracer),
                                     "ms"};
    (*out)["exec.aggregate_ns_per_row"] = {
        ProbeAggregateNsPerRow(items_, "flag", "num", tracer), "ns"};
  }

 private:
  static std::string AggregateSql(std::int64_t min_num) {
    return "SELECT flag, COUNT(*) AS n, SUM(num) AS total FROM items WHERE "
           "num > " +
           std::to_string(min_num) + " GROUP BY flag";
  }
  static std::string JoinSql(std::int64_t min_num, std::int64_t max_weight) {
    return "SELECT id, num, weight FROM items JOIN dims ON id = dim_id WHERE "
           "num > " +
           std::to_string(min_num) + " AND weight < " +
           std::to_string(max_weight);
  }
  static std::string TopKSql(std::int64_t flags) {
    return "SELECT id, num FROM items WHERE flag < " + std::to_string(flags) +
           " ORDER BY num DESC LIMIT 10";
  }
  static std::string SemanticSql(const std::string& word) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "SELECT doc_id, word FROM docs WHERE word SIMILAR TO '%s' "
                  "USING h THRESHOLD %.2f",
                  word.c_str(), kThreshold);
    return buf;
  }

  std::uint64_t seed_ = 0;
  cre::TablePtr items_;
  cre::TablePtr dims_;
  TextCorpus corpus_;
  std::shared_ptr<cre::HashEmbeddingModel> model_;
  std::vector<std::string> sql_[kNumClasses];
  std::vector<RowSet> refs_[kNumClasses];
  std::shared_ptr<CountingModel> counting_;
  std::uint64_t embedded0_ = 0, embedded1_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServingMix() {
  return std::make_unique<ServingMix>();
}

}  // namespace perfbench
