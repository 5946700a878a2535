// perfbench: the repository's benchmark. One workload per process:
//
//   perfbench --workload multisource|text_ingest|serving_mix --seed N
//             --seconds S --trace 0|1 [--tiny] [--out-dir DIR]
//             [--source-id ID]
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// records spans around its own calls into the engine's modules and reports
// per-module numbers instead. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "probes.h"
#include "sql/parser.h"
#include "vecsim/kernels.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Set-ups per run: set-up time and the first queries are reported as the
/// median over these fresh engines.
constexpr int kSetups = 7;

/// A second seed, never used while the benchmark was tuned, for checking
/// that a claimed gain holds on inputs it was not developed against.
constexpr std::uint64_t kValidationSeed = 9001;

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},       {"first_query_ms", "ms"},
      {"qps", "1/s"},         {"p50_ms", "ms"},
      {"tail_ms", "ms"},      {"success_pct", "%"},
      {"recall", "ratio"},    {"peak_rss_mb", "MiB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"sql.parse_us", "us"},
      {"optimizer.optimize_ms", "ms"},
      {"optimizer.plan_cache_hit_ratio", "ratio"},
      {"optimizer.plan_cache_lookups", "count"},
      {"optimizer.failed_strategy_ops", "count"},
      {"engine.queue_wait_ms", "ms"},
      {"engine.admission_ms", "ms"},
      {"engine.tasks_per_query", "count"},
      {"exec.scan_filter_busy_ms", "ms"},
      {"exec.hash_join_busy_ms", "ms"},
      {"exec.aggregate_busy_ms", "ms"},
      {"exec.sort_busy_ms", "ms"},
      {"exec.aggregate_ns_per_row", "ns"},
      {"semantic.select_busy_ms", "ms"},
      {"semantic.join_busy_ms", "ms"},
      {"semantic.group_by_busy_ms", "ms"},
      {"embed.us_per_row", "us"},
      {"embed.rows_per_query", "count"},
      {"vecsim.dot_batch_ns", "ns"},
      {"index.build_ms", "ms"},
      {"index.refresh_ms", "ms"},
      {"index.probe_us", "us"},
      {"index.hits", "count"},
      {"index.builds", "count"},
      {"index.refreshes", "count"},
      {"index.build_failures", "count"},
      {"index.async_fallbacks", "count"},
      {"vision.images_detected_per_query", "count"},
      {"vision.ms_per_image", "ms"},
      {"vision.detect_busy_ms", "ms"},
      {"storage.append_ms", "ms"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kDefs;
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload multisource|text_ingest|"
               "serving_mix --seed N --seconds S --trace 0|1 [--tiny] "
               "[--out-dir DIR] [--source-id ID]\n");
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* source_id) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--source-id") {
      *source_id = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "multisource") return MakeMultisource();
  if (name == "text_ingest") return MakeTextIngest();
  if (name == "serving_mix") return MakeServingMix();
  return nullptr;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Sums operator busy time per module bucket, per query, in ms. Phase
/// slots (indented names) break down their parent slot and are skipped.
void AddBusyMetrics(const ExecTotals& exec, LayerMetrics* out) {
  struct Bucket {
    const char* metric;
    std::vector<const char*> prefixes;
  };
  const std::vector<Bucket> buckets = {
      {"exec.scan_filter_busy_ms", {"Scan", "Filter("}},
      {"exec.hash_join_busy_ms", {"HashJoin("}},
      {"exec.aggregate_busy_ms", {"Aggregate"}},
      {"exec.sort_busy_ms", {"Sort("}},
      {"semantic.select_busy_ms",
       {"SemanticSelect(", "SemanticMultiSelect(", "SemanticIndexSelect["}},
      {"semantic.join_busy_ms", {"SemanticJoin["}},
      {"semantic.group_by_busy_ms", {"SemanticGroupBy("}},
      {"vision.detect_busy_ms", {"DetectScan"}},
  };
  const double q = static_cast<double>(std::max<std::uint64_t>(1, exec.queries));
  for (const Bucket& b : buckets) {
    double seconds = 0;
    for (const auto& [name, s] : exec.busy_s) {
      for (const char* prefix : b.prefixes) {
        if (name.compare(0, std::strlen(prefix), prefix) == 0) seconds += s;
      }
    }
    (*out)[b.metric] = {seconds * 1e3 / q, "ms"};
  }
}

/// Median Optimizer::Optimize time over the workload's query classes.
double ProbeOptimizeMs(cre::Engine* engine, const Workload& workload,
                       Tracer* tracer) {
  const cre::Optimizer optimizer = engine->MakeOptimizer();
  std::vector<double> ms;
  for (const auto& [cls, sql] : workload.ClassQueries()) {
    cre::Result<cre::PlanPtr> plan = cre::sql::ParseSql(sql);
    if (!plan.ok()) continue;
    for (int r = 0; r < 3; ++r) {
      Tracer::Scope span(tracer, "optimizer.Optimize");
      const Clock::time_point start = Clock::now();
      if (!optimizer.Optimize(plan.ValueOrDie()).ok()) break;
      ms.push_back(SecondsSince(start) * 1e3);
    }
  }
  return Median(ms);
}

/// Tracing must not change plans: EXPLAIN of every query class on a
/// traced-configuration engine (counting models) equals EXPLAIN on an
/// untraced one.
bool PlansMatch(Workload* workload, Tracer* tracer) {
  std::vector<double> ignored;
  Tracer off(false);
  cre::Engine plain;
  cre::Engine traced;
  if (!workload->Load(&plain, &off, /*counting=*/false, &ignored).ok() ||
      !workload->Load(&traced, tracer, /*counting=*/true, &ignored).ok()) {
    return false;
  }
  bool match = true;
  for (const auto& [cls, sql] : workload->ClassQueries()) {
    cre::Result<cre::PlanPtr> plan = cre::sql::ParseSql(sql);
    if (!plan.ok()) return false;
    cre::Result<std::string> a = plain.Explain(plan.ValueOrDie());
    cre::Result<std::string> b = traced.Explain(plan.ValueOrDie());
    if (!a.ok() || !b.ok() || a.ValueOrDie() != b.ValueOrDie()) {
      std::fprintf(stderr, "perfbench: EXPLAIN of %s differs when traced\n",
                   cls.c_str());
      match = false;
    }
  }
  return match;
}

int Run(const Args& args, const std::string& source_id) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Tracer tracer(args.trace);
  Outcomes outcomes;

  workload->Generate(args.seed, args.tiny);
  const cre::Status refs = workload->BuildReferences();
  if (!refs.ok()) {
    std::fprintf(stderr, "perfbench: reference results failed: %s\n",
                 refs.ToString().c_str());
    return 1;
  }

  std::vector<double> setup_s;
  std::vector<double> first_query_ms;
  std::vector<double> load_append_ms;
  std::unique_ptr<Runner> runner;
  std::unique_ptr<cre::Engine> engine;
  for (int k = 0; k < kSetups; ++k) {
    runner.reset();
    engine.reset();
    const Clock::time_point start = Clock::now();
    engine = std::make_unique<cre::Engine>();
    const cre::Status loaded =
        workload->Load(engine.get(), &tracer, args.trace, &load_append_ms);
    setup_s.push_back(SecondsSince(start));
    if (!loaded.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
    runner = std::make_unique<Runner>(engine.get(), &tracer, &outcomes);
    first_query_ms.push_back(workload->FirstQueries(runner.get()));
  }

  Samples samples;
  double steady_s = 0;
  LayerMetrics layer;
  bool plans_match = true;
  if (!args.trace) {
    const Clock::time_point start = Clock::now();
    workload->Steady(engine.get(), runner.get(), args.seconds, &samples);
    steady_s = SecondsSince(start);
  } else {
    // Traced half first (it sees the engine as the end-to-end steady phase
    // does, right after the first query), then an untraced half on the
    // same engine for the tracing overhead.
    const double half = args.seconds / 2;
    const cre::PlanCache::Stats cache0 = engine->plan_cache()->stats();
    const cre::IndexManager::Stats index0 = engine->index_manager()->stats();
    const std::uint64_t strategy0 = outcomes.strategy_failed();
    Runner traced(engine.get(), &tracer, &outcomes);
    workload->MarkSteadyStart();
    Clock::time_point start = Clock::now();
    workload->Steady(engine.get(), &traced, half, &samples);
    steady_s = SecondsSince(start);
    workload->MarkSteadyEnd();
    const cre::PlanCache::Stats cache1 = engine->plan_cache()->stats();
    const cre::IndexManager::Stats index1 = engine->index_manager()->stats();
    const std::uint64_t strategy1 = outcomes.strategy_failed();
    const ExecTotals exec = traced.exec_totals();

    Tracer off(false);
    Runner plain(engine.get(), &off, &outcomes);
    Samples untraced;
    start = Clock::now();
    workload->Steady(engine.get(), &plain, half, &untraced);
    const double untraced_qps =
        static_cast<double>(untraced.query_ms.size()) / SecondsSince(start);
    const double traced_qps =
        static_cast<double>(samples.query_ms.size()) / steady_s;

    const std::map<std::string, Tracer::Totals> totals = tracer.TotalsByName();
    const double q =
        static_cast<double>(std::max<std::uint64_t>(1, exec.queries));
    auto span_mean = [&](const std::string& name, double scale) {
      auto it = totals.find(name);
      return it == totals.end() || it->second.count == 0
                 ? 0.0
                 : it->second.total_s * scale /
                       static_cast<double>(it->second.count);
    };
    const std::uint64_t lookups =
        (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
    layer["sql.parse_us"] = {span_mean("sql.ParseSql", 1e6), "us"};
    layer["optimizer.optimize_ms"] = {
        ProbeOptimizeMs(engine.get(), *workload, &tracer), "ms"};
    layer["optimizer.plan_cache_hit_ratio"] = {
        lookups == 0 ? 0.0
                     : static_cast<double>(cache1.hits - cache0.hits) /
                           static_cast<double>(lookups),
        "ratio"};
    layer["optimizer.plan_cache_lookups"] = {static_cast<double>(lookups),
                                             "count"};
    layer["optimizer.failed_strategy_ops"] = {
        static_cast<double>(strategy1 - strategy0), "count"};
    layer["engine.queue_wait_ms"] = {exec.queue_wait_s * 1e3 / q, "ms"};
    layer["engine.admission_ms"] = {exec.admission_s * 1e3 / q, "ms"};
    layer["engine.tasks_per_query"] = {static_cast<double>(exec.tasks) / q,
                                       "count"};
    AddBusyMetrics(exec, &layer);
    layer["index.hits"] = {static_cast<double>(index1.hits - index0.hits),
                           "count"};
    layer["index.builds"] = {static_cast<double>(index1.builds - index0.builds),
                             "count"};
    layer["index.refreshes"] = {
        static_cast<double>(index1.refreshes - index0.refreshes), "count"};
    layer["index.build_failures"] = {
        static_cast<double>(index1.build_failures - index0.build_failures),
        "count"};
    layer["index.async_fallbacks"] = {
        static_cast<double>(index1.async_fallbacks - index0.async_fallbacks),
        "count"};
    layer["storage.append_ms"] = {
        Median(samples.append_ms.empty() ? load_append_ms : samples.append_ms),
        "ms"};
    layer["obs.trace_overhead_pct"] = {
        untraced_qps > 0 ? (untraced_qps - traced_qps) / untraced_qps * 100
                         : 0.0,
        "%"};
    workload->Probes(engine.get(), &tracer, exec.queries, &layer);
    plans_match = PlansMatch(workload.get(), &tracer);
  }

  const Outcomes::CheckTotals checks = outcomes.check_totals();
  const bool correct = checks.wrong_results == 0 && plans_match;
  const std::uint64_t attempted = outcomes.attempted();
  const std::uint64_t failed = outcomes.failed();

  // Run metadata, then per-class and failure detail (not part of the
  // result line).
  const double tail_p = workload->tail_percentile();
  const std::size_t n = samples.query_ms.size();
  std::string meta = "{\"workload\": " + JsonQuoted(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"validation_seed\": " +
                     std::to_string(kValidationSeed) +
                     ", \"trace\": " + (args.trace ? "true" : "false") +
                     ", \"tiny\": " + (args.tiny ? "true" : "false") +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"kernel_variant\": " +
                     JsonQuoted(cre::KernelVariantName(cre::BestKernelVariant())) +
                     ", \"compiler\": " + JsonQuoted(PERFBENCH_COMPILER) +
                     ", \"build_type\": " + JsonQuoted(PERFBENCH_BUILD_TYPE) +
                     ", \"source_id\": " + JsonQuoted(source_id) +
                     ", \"tail_percentile\": " + Num(tail_p * 100) +
                     ", \"steady_queries\": " + std::to_string(n) +
                     ", \"samples_beyond_tail\": " +
                     std::to_string(n - std::min<std::size_t>(
                                            n, static_cast<std::size_t>(std::ceil(
                                                   tail_p * static_cast<double>(n))))) +
                     ", \"mismatches\": " + std::to_string(checks.mismatches) +
                     ", \"wrong_rows\": " + std::to_string(checks.wrong_rows) +
                     ", \"wrong_results\": " +
                     std::to_string(checks.wrong_results) +
                     ", \"plans_match_untraced\": " +
                     (plans_match ? "true" : "false") + ", \"p50_ms_by_class\": {";
  bool first = true;
  for (const auto& [cls, v] : samples.by_class) {
    meta += std::string(first ? "" : ", ") + JsonQuoted(cls) + ": " + Num(Median(v));
    first = false;
  }
  meta += "}, \"latency_ms\": {";
  first = true;
  for (const char* p : {"50", "75", "80", "90", "95", "99", "99.5", "99.9"}) {
    meta += std::string(first ? "" : ", ") + "\"p" + p + "\": " +
            Num(Percentile(samples.query_ms, std::atof(p) / 100));
    first = false;
  }
  meta += "}, \"failures\": {";
  first = true;
  for (const auto& [key, entry] : outcomes.failures()) {
    meta += std::string(first ? "" : ", ") + JsonQuoted(key) +
            ": {\"count\": " + std::to_string(entry.first) +
            ", \"example\": " + JsonQuoted(entry.second) + "}";
    first = false;
  }
  meta += "}}";
  std::printf("{\"meta\": %s}\n", meta.c_str());

  if (args.trace) {
    const std::string path = args.out_dir + "/trace_" + args.workload +
                             "_seed" + std::to_string(args.seed) + ".json";
    if (!tracer.Write(path, meta)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  LayerMetrics metrics;
  if (!args.trace) {
    metrics["setup_s"] = {Median(setup_s), "s"};
    metrics["first_query_ms"] = {Median(first_query_ms), "ms"};
    metrics["qps"] = {steady_s > 0 ? static_cast<double>(n) / steady_s : 0,
                      "1/s"};
    metrics["p50_ms"] = {Median(samples.query_ms), "ms"};
    metrics["tail_ms"] = {Percentile(samples.query_ms, tail_p), "ms"};
    metrics["success_pct"] = {
        attempted == 0 ? 0.0
                       : 100.0 * static_cast<double>(attempted - failed) /
                             static_cast<double>(attempted),
        "%"};
    metrics["recall"] = {checks.reference == 0
                             ? 1.0
                             : static_cast<double>(checks.matched) /
                                   static_cast<double>(checks.reference),
                         "ratio"};
    metrics["peak_rss_mb"] = {PeakRssMiB(), "MiB"};
  } else {
    metrics = layer;
  }
  const std::vector<MetricDef>& defs =
      args.trace ? PerLayerMetrics() : EndToEndMetrics();
  if (metrics.size() != defs.size()) {
    std::fprintf(stderr, "perfbench: %zu metrics measured, %zu defined\n",
                 metrics.size(), defs.size());
    return 1;
  }
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    auto it = metrics.find(defs[i].name);
    if (it == metrics.end() || it->second.second != defs[i].unit) {
      std::fprintf(stderr, "perfbench: metric %s missing or mis-unit\n",
                   defs[i].name);
      return 1;
    }
    line += std::string(i ? ", " : "") + JsonQuoted(defs[i].name) +
            ": {\"value\": " + Num(it->second.first) +
            ", \"unit\": " + JsonQuoted(defs[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string source_id = "unknown";
  if (!perfbench::ParseArgs(argc, argv, &args, &source_id)) {
    perfbench::Usage();
    return 2;
  }
  return perfbench::Run(args, source_id);
}
