#include "probes.h"

#include <algorithm>
#include <cstdio>

#include "index/index_manager.h"
#include "plan/plan_node.h"
#include "vecsim/kernels.h"

namespace perfbench {

namespace {
// Each probe repeats its call and keeps the median, so one preempted
// repetition does not decide the number.
constexpr int kRepeats = 5;
}  // namespace

double ProbeEmbedUsPerRow(const cre::EmbeddingModel& model,
                          const std::vector<std::string>& texts,
                          Tracer* tracer) {
  if (texts.empty()) return 0;
  std::vector<float> out(texts.size() * model.dim());
  std::vector<double> us;
  for (int r = 0; r < kRepeats; ++r) {
    Tracer::Scope span(tracer, "embed.EmbedBatch");
    const Clock::time_point start = Clock::now();
    model.EmbedBatch(texts, out.data());
    us.push_back(SecondsSince(start) * 1e6 /
                 static_cast<double>(texts.size()));
  }
  return Median(us);
}

double ProbeDotBatchNs(const cre::EmbeddingModel& model,
                       const std::vector<std::string>& texts, Tracer* tracer) {
  if (texts.size() < 2) return 0;
  const std::size_t dim = model.dim();
  const std::size_t n = texts.size();
  std::vector<float> base(n * dim);
  model.EmbedBatch(texts, base.data());
  const cre::DotBatchFn kernel =
      cre::GetDotBatchKernel(cre::BestKernelVariant());
  std::vector<float> scores(n);
  // Enough passes that one repetition takes well over a millisecond.
  const std::size_t passes = std::max<std::size_t>(1, 2000000 / (n * dim));
  volatile float sink = 0;
  std::vector<double> ns;
  for (int r = 0; r < kRepeats; ++r) {
    Tracer::Scope span(tracer, "vecsim.DotBatch");
    const Clock::time_point start = Clock::now();
    for (std::size_t p = 0; p < passes; ++p) {
      kernel(base.data() + (p % n) * dim, base.data(), n, dim, scores.data());
      sink = sink + scores[p % n];
    }
    ns.push_back(SecondsSince(start) * 1e9 /
                 static_cast<double>(passes * n));
  }
  return Median(ns);
}

IndexProbe ProbeIndex(cre::Engine* engine, const std::string& table,
                      const std::string& column, const std::string& model,
                      const cre::Table& append_rows,
                      const std::vector<std::string>& queries, float threshold,
                      Tracer* tracer) {
  IndexProbe out;
  cre::IndexManager manager(&engine->catalog(), &engine->models(),
                            engine->options().index);
  const cre::IndexKey key{table, column, model, cre::SemanticJoinStrategy::kHnsw};

  Clock::time_point start = Clock::now();
  cre::Result<std::shared_ptr<const cre::VectorIndex>> built = [&] {
    Tracer::Scope span(tracer, "index.GetOrBuild(build)");
    return manager.GetOrBuild(key);
  }();
  out.build_ms = SecondsSince(start) * 1e3;
  if (!built.ok()) {
    std::fprintf(stderr, "perfbench: index probe build failed: %s\n",
                 built.status().ToString().c_str());
    return out;
  }

  if (!engine->catalog().Append(table, append_rows).ok()) return out;
  start = Clock::now();
  cre::Result<std::shared_ptr<const cre::VectorIndex>> refreshed = [&] {
    Tracer::Scope span(tracer, "index.GetOrBuild(refresh)");
    return manager.GetOrBuild(key);
  }();
  out.refresh_ms = SecondsSince(start) * 1e3;
  if (!refreshed.ok()) return out;

  const cre::VectorIndex& index = *refreshed.ValueOrDie();
  cre::Result<cre::EmbeddingModelPtr> m = engine->models().Get(model);
  if (!m.ok() || queries.empty()) return out;
  std::vector<float> q(index.dim());
  std::vector<cre::ScoredId> hits;
  std::vector<double> us;
  for (const std::string& text : queries) {
    m.ValueOrDie()->Embed(text, q.data());
    Tracer::Scope span(tracer, "index.RangeSearch");
    start = Clock::now();
    hits.clear();
    index.RangeSearch(q.data(), threshold, &hits);
    us.push_back(SecondsSince(start) * 1e6);
  }
  out.probe_us = Median(us);
  return out;
}

double ProbeDetectMsPerImage(const cre::ImageStore& store,
                             const cre::ObjectDetector& detector,
                             std::size_t n, Tracer* tracer) {
  n = std::min(n, store.size());
  if (n == 0) return 0;
  std::vector<std::uint32_t> subset(n);
  for (std::size_t i = 0; i < n; ++i) subset[i] = static_cast<std::uint32_t>(i);
  std::vector<double> ms;
  for (int r = 0; r < kRepeats; ++r) {
    Tracer::Scope span(tracer, "vision.DetectAll");
    const Clock::time_point start = Clock::now();
    const cre::TablePtr rows = detector.DetectAll(store, &subset);
    ms.push_back(SecondsSince(start) * 1e3 / static_cast<double>(n));
  }
  return Median(ms);
}

double ProbeDetectSyntheticMsPerImage(Tracer* tracer) {
  cre::ImageStore store;
  for (std::int64_t i = 0; i < 40; ++i) {
    store.AddImage({i, 19300 + i, {"shirt", "lamp", "dog"}});
  }
  const cre::ObjectDetector detector(
      cre::ObjectDetector::Options{kDetectorCostUs, 77});
  return ProbeDetectMsPerImage(store, detector, store.size(), tracer);
}

double ProbeAggregateNsPerRow(const cre::TablePtr& table,
                              const std::string& key,
                              const std::string& sum_column, Tracer* tracer) {
  cre::EngineOptions options;
  options.num_threads = 1;
  cre::Engine engine(options);
  engine.catalog().Put("probe", table);
  const cre::PlanPtr plan = cre::PlanNode::Aggregate(
      cre::PlanNode::Scan("probe"), {key},
      {{cre::AggKind::kCount, "", "n"}, {cre::AggKind::kSum, sum_column, "s"}});
  std::vector<double> ns;
  for (int r = 0; r < kRepeats; ++r) {
    Tracer::Scope span(tracer, "exec.Aggregate(dop1)");
    const Clock::time_point start = Clock::now();
    if (!engine.ExecuteUnoptimized(plan).ok()) return 0;
    ns.push_back(SecondsSince(start) * 1e9 /
                 static_cast<double>(std::max<std::size_t>(1, table->num_rows())));
  }
  return Median(ns);
}

}  // namespace perfbench
