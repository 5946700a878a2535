#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/hash.h"
#include "plan/plan_node.h"
#include "sql/parser.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Tracer

namespace {
thread_local std::vector<std::int64_t> t_open_spans;
thread_local std::uint64_t t_query_id = 0;
}  // namespace

std::string JsonQuoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out + "\"";
}

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, std::string name)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = std::move(name);
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  span_.query_id = t_query_id;
  t_open_spans.push_back(span_.id);
  span_.start_ns = tracer_->NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->NowNs();
  t_open_spans.pop_back();
  cre::MutexLock lock(tracer_->mu_);
  tracer_->spans_.push_back(std::move(span_));
}

void Tracer::SetQueryId(std::uint64_t id) { t_query_id = id; }

std::vector<Span> Tracer::spans() const {
  cre::MutexLock lock(mu_);
  return spans_;
}

std::map<std::string, Tracer::Totals> Tracer::TotalsByName() const {
  const std::vector<Span> all = spans();
  std::map<std::int64_t, std::vector<const Span*>> children;
  for (const Span& s : all) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, Totals> out;
  for (const Span& s : all) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        iv.emplace_back(std::max(c->start_ns, s.start_ns),
                        std::min(c->end_ns, s.end_ns));
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : iv) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    Totals& t = out[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.total_s += dur;
    t.self_s += dur - static_cast<double>(covered) * 1e-9;
    t.count += 1;
  }
  return out;
}

bool Tracer::Write(const std::string& path,
                   const std::string& meta_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"meta\": %s,\n\"totals\": {", meta_json.c_str());
  bool first = true;
  for (const auto& [name, t] : TotalsByName()) {
    std::fprintf(f,
                 "%s\n  %s: {\"count\": %llu, \"total_s\": %.9f, "
                 "\"self_s\": %.9f}",
                 first ? "" : ",", JsonQuoted(name).c_str(),
                 static_cast<unsigned long long>(t.count), t.total_s,
                 t.self_s);
    first = false;
  }
  std::fprintf(f, "},\n\"spans\": [");
  first = true;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "%s\n  {\"name\": %s, \"id\": %lld, \"parent\": %lld, "
                 "\"query_id\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}",
                 first ? "" : ",", JsonQuoted(s.name).c_str(),
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.query_id),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Outcomes

void Outcomes::Ok() {
  cre::MutexLock lock(mu_);
  ++attempted_;
}

void Outcomes::Fail(const std::string& query_class, const std::string& code,
                    const std::string& message) {
  bool strategy = false;
  for (const char* family : {"ivfpq", "ivf", "hnsw", "lsh", "flat"}) {
    const std::size_t len = std::strlen(family);
    strategy = strategy || (message.compare(0, len, family) == 0 &&
                            message.size() > len &&
                            (message[len] == ':' || message[len] == ' '));
  }
  cre::MutexLock lock(mu_);
  ++attempted_;
  ++failed_;
  if (strategy) ++strategy_failed_;
  auto& entry = failures_[query_class + "/" + code];
  if (entry.first++ == 0) entry.second = message;
}

std::uint64_t Outcomes::attempted() const {
  cre::MutexLock lock(mu_);
  return attempted_;
}

std::uint64_t Outcomes::failed() const {
  cre::MutexLock lock(mu_);
  return failed_;
}

std::uint64_t Outcomes::strategy_failed() const {
  cre::MutexLock lock(mu_);
  return strategy_failed_;
}

void Outcomes::AddCheck(const CheckTotals& check) {
  cre::MutexLock lock(mu_);
  checks_.matched += check.matched;
  checks_.reference += check.reference;
  checks_.mismatches += check.mismatches;
  checks_.wrong_rows += check.wrong_rows;
  checks_.wrong_results += check.wrong_results;
}

Outcomes::CheckTotals Outcomes::check_totals() const {
  cre::MutexLock lock(mu_);
  return checks_;
}

std::map<std::string, std::pair<std::uint64_t, std::string>>
Outcomes::failures() const {
  cre::MutexLock lock(mu_);
  return failures_;
}

// ---------------------------------------------------------------------------
// Result checking

RowSet RowsOf(const cre::Table& table) {
  RowSet rows;
  rows.reserve(table.num_rows());
  std::string cell;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      cell = table.GetValue(r, c).ToString();
      h = cre::HashCombine(h, cre::HashString(cell));
    }
    rows.push_back(h);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

RowMatch CompareRows(const RowSet& reference, const RowSet& got) {
  RowMatch m;
  m.reference = reference.size();
  m.got = got.size();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < reference.size() && j < got.size()) {
    if (reference[i] == got[j]) {
      ++m.matched;
      ++i;
      ++j;
    } else if (reference[i] < got[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return m;
}

void PinBruteForce(const cre::PlanPtr& plan) {
  switch (plan->kind) {
    case cre::PlanKind::kSemanticSelect:
    case cre::PlanKind::kSemanticJoin:
      plan->strategy = cre::SemanticJoinStrategy::kBruteForce;
      plan->strategy_pinned = true;
      break;
    default:
      break;
  }
  for (const cre::PlanPtr& child : plan->children) PinBruteForce(child);
}

cre::PlanPtr ProjectColumns(cre::PlanPtr child,
                            const std::vector<std::string>& columns) {
  std::vector<cre::ProjectionItem> items;
  for (const std::string& c : columns) items.push_back({c, cre::Col(c)});
  return cre::PlanNode::Project(std::move(child), std::move(items));
}

cre::Status LoadInBatches(cre::Engine* engine, Tracer* tracer,
                          const std::string& table, const cre::Table& rows,
                          std::size_t batch_rows,
                          std::vector<double>* append_ms) {
  engine->catalog().Put(table, cre::Table::Make(rows.schema()));
  for (std::size_t off = 0; off < rows.num_rows(); off += batch_rows) {
    const cre::TablePtr batch = rows.Slice(off, batch_rows);
    const Clock::time_point start = Clock::now();
    cre::Result<cre::TablePtr> r = [&] {
      Tracer::Scope span(tracer, "storage.Catalog::Append");
      return engine->catalog().Append(table, *batch);
    }();
    if (!r.ok()) return r.status();
    append_ms->push_back(SecondsSince(start) * 1e3);
  }
  return cre::Status::OK();
}

cre::Result<RowSet> Reference(cre::Engine* engine, const cre::PlanPtr& plan) {
  cre::Result<cre::TablePtr> r = engine->ExecuteUnoptimized(plan);
  if (!r.ok()) return r.status();
  return RowsOf(*r.ValueOrDie());
}

// ---------------------------------------------------------------------------
// Runner

QueryResult Runner::Run(const std::string& query_class,
                        const std::string& sql) {
  Tracer::SetQueryId(tracer_->NextQueryId());
  QueryResult out;
  const Clock::time_point start = Clock::now();
  cre::Status status;
  {
    Tracer::Scope query_span(tracer_, "query." + query_class);
    cre::Result<cre::PlanPtr> plan = [&] {
      Tracer::Scope span(tracer_, "sql.ParseSql");
      return cre::sql::ParseSql(sql);
    }();
    if (!plan.ok()) {
      status = plan.status();
    } else if (!tracer_->enabled()) {
      cre::Result<cre::TablePtr> r = engine_->Execute(plan.ValueOrDie());
      if (r.ok()) {
        out.table = r.ValueOrDie();
      } else {
        status = r.status();
      }
    } else {
      cre::Result<cre::Engine::AnalyzedResult> r = [&] {
        Tracer::Scope span(tracer_, "engine.ExecuteWithStats");
        return engine_->ExecuteWithStats(plan.ValueOrDie());
      }();
      if (r.ok()) {
        const cre::Engine::AnalyzedResult& a = r.ValueOrDie();
        out.table = a.table;
        cre::MutexLock lock(mu_);
        totals_.queries += 1;
        totals_.queue_wait_s += a.scheduling.queue_wait_seconds;
        totals_.admission_s += a.scheduling.admission_seconds;
        totals_.tasks += a.scheduling.tasks_dispatched;
        for (const cre::OperatorStats* slot : a.stats->slots()) {
          totals_.busy_s[slot->name] +=
              slot->open_seconds.load(std::memory_order_relaxed) +
              slot->next_seconds.load(std::memory_order_relaxed);
        }
      } else {
        status = r.status();
      }
    }
  }
  Tracer::SetQueryId(0);
  out.ms = SecondsSince(start) * 1e3;
  out.ok = status.ok();
  if (!out.ok) {
    outcomes_->Fail(query_class, cre::StatusCodeName(status.code()),
                    status.message());
  }
  return out;
}

void Runner::Check(const std::string& query_class, const QueryResult& result,
                   const RowSet& reference, bool approximate) {
  if (!result.ok) return;  // already counted as a failed operation
  const RowMatch m = CompareRows(reference, RowsOf(*result.table));
  Outcomes::CheckTotals check;
  check.matched = m.matched;
  check.reference = m.reference;
  check.wrong_rows = m.got - m.matched;
  check.mismatches = m.exact() ? 0 : 1;
  check.wrong_results =
      m.got != m.matched || (!approximate && !m.exact()) ? 1 : 0;
  outcomes_->AddCheck(check);
  if (m.exact()) {
    outcomes_->Ok();
  } else {
    outcomes_->Fail(query_class, "ResultMismatch",
                    std::to_string(m.matched) + " of " +
                        std::to_string(m.reference) + " reference rows, " +
                        std::to_string(m.got) + " rows returned");
  }
}

double Runner::Append(const std::string& table, const cre::Table& rows) {
  const Clock::time_point start = Clock::now();
  cre::Result<cre::TablePtr> r = [&] {
    Tracer::Scope span(tracer_, "storage.Catalog::Append");
    return engine_->catalog().Append(table, rows);
  }();
  const double ms = SecondsSince(start) * 1e3;
  if (!r.ok()) {
    outcomes_->Fail("append", cre::StatusCodeName(r.status().code()),
                    r.status().message());
    return -1;
  }
  outcomes_->Ok();
  return ms;
}

ExecTotals Runner::exec_totals() const {
  cre::MutexLock lock(mu_);
  return totals_;
}


// ---------------------------------------------------------------------------
// Helpers

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return v[i];
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
