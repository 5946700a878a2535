// multisource: the paper's Fig. 2 query. Products are semantically joined
// with the knowledge base's clothing category and with objects detected in
// customer images (products ~ KB category ~ DetectScan(shop_images)), over
// the repository's GenerateShopDataset sizes. One client, closed loop.
//
// Chosen because model inference and the optimizer's inference avoidance
// (pushdown below DetectScan, data-induced predicates) dominate it, while
// embedding, aggregation and the plan cache barely matter.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "corpus.h"
#include "datagen/shop.h"
#include "plan/plan_node.h"
#include "probes.h"
#include "vision/object_detector.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr float kThreshold = 0.8f;
constexpr std::size_t kLoadBatchRows = 500;
/// Literal grid at fixed quantiles of the generated data, so the filters
/// pass the same share of rows for every seed; the seed picks the data and
/// the order in which queries draw from the grid.
/// Detection work scales with the date filter's share, so the median query
/// sits inside the middle date level rather than between two levels.
constexpr double kPriceQuantiles[] = {0.05, 0.10, 0.15};
constexpr double kDateQuantiles[] = {0.85, 0.865, 0.88, 0.895, 0.91};
constexpr double kFirstPriceQuantile = 0.10;
constexpr double kFirstDateQuantile = 0.88;
/// Steady-phase queries per second of --seconds (about 3 q/s measured).
constexpr double kQueriesPerSecond = 3.0;

const std::vector<std::string> kColumns = {"product_id", "subject",
                                           "image_id", "object_label"};

struct Literals {
  double price = 0;
  std::int64_t date = 0;
};

class Multisource : public Workload {
 public:
  double tail_percentile() const override { return 0.75; }

  void Generate(std::uint64_t seed, bool tiny) override {
    seed_ = seed;
    cre::ShopOptions so;
    so.num_products = tiny ? 300 : 4000;
    so.num_images = tiny ? 200 : 3000;
    so.num_transactions = 10;
    so.seed = seed;
    ds_ = cre::GenerateShopDataset(so);
    kb_ = ds_.kb.Export("category");
    detector_ = std::make_unique<cre::ObjectDetector>(
        cre::ObjectDetector::Options{kDetectorCostUs, 77});

    std::vector<double> prices;
    const cre::Column& price_col =
        *ds_.products->ColumnByName("price").ValueOrDie();
    for (std::size_t i = 0; i < ds_.products->num_rows(); ++i) {
      prices.push_back(price_col.GetValue(i).AsFloat64());
    }
    std::vector<double> dates;
    for (const cre::SyntheticImage& img : ds_.images.images()) {
      dates.push_back(static_cast<double>(img.date_taken));
    }
    std::sort(prices.begin(), prices.end());
    std::sort(dates.begin(), dates.end());
    auto at = [](const std::vector<double>& v, double q) {
      return v[std::min(v.size() - 1, static_cast<std::size_t>(
                                          q * static_cast<double>(v.size())))];
    };
    for (const double pq : kPriceQuantiles) {
      for (const double dq : kDateQuantiles) {
        grid_.push_back({at(prices, pq), static_cast<std::int64_t>(at(dates, dq))});
      }
    }
    first_ = {at(prices, kFirstPriceQuantile),
              static_cast<std::int64_t>(at(dates, kFirstDateQuantile))};
  }

  cre::Status BuildReferences() override {
    // Exact reference: the same joins with the filters applied to their own
    // inputs, brute-force similarity, run as written on one thread against
    // the detector's output materialized once by a zero-cost detector of
    // the same seed (detections do not depend on the simulated cost).
    cre::EngineOptions options;
    options.num_threads = 1;
    cre::Engine ref(options);
    const cre::ObjectDetector free_detector(
        cre::ObjectDetector::Options{0.0, 77});
    ref.catalog().Put("products", ds_.products);
    ref.catalog().Put("kb_category", kb_);
    ref.catalog().Put("detections", free_detector.DetectAll(ds_.images));
    ref.models().Put("shop", ds_.model);
    for (const Literals& lit : grid_) {
      cre::Result<RowSet> rows = Reference(&ref, ReferencePlan(lit));
      if (!rows.ok()) return rows.status();
      grid_refs_.push_back(std::move(rows).ValueOrDie());
    }
    cre::Result<RowSet> rows = Reference(&ref, ReferencePlan(first_));
    if (!rows.ok()) return rows.status();
    first_ref_ = std::move(rows).ValueOrDie();
    return cre::Status::OK();
  }

  cre::Status Load(cre::Engine* engine, Tracer* tracer, bool counting,
                   std::vector<double>* append_ms) override {
    cre::EmbeddingModelPtr model = ds_.model;
    if (counting) {
      counting_ = std::make_shared<CountingModel>(ds_.model);
      model = counting_;
    }
    engine->models().Put("shop", model);
    engine->catalog().Put("kb_category", kb_);
    engine->detectors().Put("shop_images", {&ds_.images, detector_.get()});
    return LoadInBatches(engine, tracer, "products", *ds_.products,
                         kLoadBatchRows, append_ms);
  }

  double FirstQueries(Runner* runner) override {
    const QueryResult r = runner->Run("fig2", Sql(first_));
    runner->Check("fig2", r, first_ref_, /*approximate=*/true);
    return r.ms;
  }

  void Steady(cre::Engine* /*engine*/, Runner* runner, double seconds,
              Samples* out) override {
    ShuffledCycle order(grid_.size(), seed_ * 0x9e3779b97f4a7c15ULL + 1);
    const std::size_t queries = UnitsFor(seconds, kQueriesPerSecond);
    for (std::size_t q = 0; q < queries; ++q) {
      const std::size_t i = order.Next();
      const QueryResult r = runner->Run("fig2", Sql(grid_[i]));
      runner->Check("fig2", r, grid_refs_[i], /*approximate=*/true);
      out->AddQuery("fig2", r.ms);
    }
  }

  std::vector<std::pair<std::string, std::string>> ClassQueries()
      const override {
    return {{"fig2", Sql(first_)}};
  }

  void MarkSteadyStart() override {
    images0_ = detector_->images_processed();
    embedded0_ = counting_ ? counting_->rows() : 0;
  }
  void MarkSteadyEnd() override {
    images1_ = detector_->images_processed();
    embedded1_ = counting_ ? counting_->rows() : 0;
  }

  void Probes(cre::Engine* engine, Tracer* tracer,
              std::uint64_t steady_queries, LayerMetrics* out) override {
    const double q =
        static_cast<double>(std::max<std::uint64_t>(1, steady_queries));
    const std::vector<std::string> labels =
        StringColumn(*ds_.products, "type_label");
    (*out)["vision.images_detected_per_query"] = {
        static_cast<double>(images1_ - images0_) / q, "count"};
    (*out)["embed.rows_per_query"] = {
        static_cast<double>(embedded1_ - embedded0_) / q, "count"};
    (*out)["embed.us_per_row"] = {
        ProbeEmbedUsPerRow(*ds_.model, labels, tracer), "us"};
    (*out)["vecsim.dot_batch_ns"] = {
        ProbeDotBatchNs(*ds_.model, labels, tracer), "ns"};
    const std::vector<std::string> queries(ds_.clothing_concepts.begin(),
                                           ds_.clothing_concepts.end());
    const IndexProbe ip = ProbeIndex(
        engine, "products", "type_label", "shop",
        *ds_.products->Slice(0, ds_.products->num_rows() / 10), queries,
        kThreshold, tracer);
    (*out)["index.build_ms"] = {ip.build_ms, "ms"};
    (*out)["index.refresh_ms"] = {ip.refresh_ms, "ms"};
    (*out)["index.probe_us"] = {ip.probe_us, "us"};
    (*out)["vision.ms_per_image"] = {
        ProbeDetectMsPerImage(ds_.images, *detector_, 40, tracer), "ms"};
    (*out)["exec.aggregate_ns_per_row"] = {
        ProbeAggregateNsPerRow(ds_.products, "type_label", "price", tracer),
        "ns"};
  }

 private:
  static std::string Sql(const Literals& lit) {
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "SELECT product_id, subject, image_id, object_label FROM products "
        "SEMANTIC JOIN kb_category ON type_label ~ subject USING shop "
        "THRESHOLD %.2f "
        "SEMANTIC JOIN DETECT shop_images ON type_label ~ object_label "
        "USING shop THRESHOLD %.2f "
        "WHERE price > %.17g AND object = 'clothes' AND date_taken > DATE "
        "%lld AND objects_in_image > 2",
        kThreshold, kThreshold, lit.price, static_cast<long long>(lit.date));
    return buf;
  }

  static cre::PlanPtr ReferencePlan(const Literals& lit) {
    using cre::PlanNode;
    cre::PlanPtr products = PlanNode::Filter(
        PlanNode::Scan("products"), cre::Gt(cre::Col("price"), cre::Lit(lit.price)));
    cre::PlanPtr kb =
        PlanNode::Filter(PlanNode::Scan("kb_category"),
                         cre::Eq(cre::Col("object"), cre::Lit("clothes")));
    cre::PlanPtr images = PlanNode::Filter(
        PlanNode::Scan("detections"),
        cre::And(cre::Gt(cre::Col("date_taken"),
                         cre::Lit(cre::Value::Date(lit.date))),
                 cre::Gt(cre::Col("objects_in_image"),
                         cre::Lit(static_cast<std::int64_t>(2)))));
    cre::PlanPtr plan = PlanNode::SemanticJoin(
        PlanNode::SemanticJoin(products, kb, "type_label", "subject", "shop",
                               kThreshold),
        images, "type_label", "object_label", "shop", kThreshold);
    PinBruteForce(plan);
    return ProjectColumns(plan, kColumns);
  }

  std::uint64_t seed_ = 0;
  cre::ShopDataset ds_;
  cre::TablePtr kb_;
  std::unique_ptr<cre::ObjectDetector> detector_;
  std::vector<Literals> grid_;
  std::vector<RowSet> grid_refs_;
  Literals first_;
  RowSet first_ref_;
  std::shared_ptr<CountingModel> counting_;
  std::size_t images0_ = 0, images1_ = 0;
  std::uint64_t embedded0_ = 0, embedded1_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeMultisource() {
  return std::make_unique<Multisource>();
}

}  // namespace perfbench
