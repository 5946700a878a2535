// Probes of single module functions on a workload's own data, run after
// the steady phase of the traced run so they cannot change its plans.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>
#include <vector>

#include "embed/embedding_model.h"
#include "engine/engine.h"
#include "harness.h"
#include "vision/image_store.h"
#include "vision/object_detector.h"

namespace perfbench {

/// EmbedBatch over `texts` on one thread: microseconds per row.
double ProbeEmbedUsPerRow(const cre::EmbeddingModel& model,
                          const std::vector<std::string>& texts,
                          Tracer* tracer);

/// The bound batch dot-product kernel (KernelVariantName(BestKernelVariant()))
/// scoring one query against the embeddings of `texts`: ns per dot product.
double ProbeDotBatchNs(const cre::EmbeddingModel& model,
                       const std::vector<std::string>& texts, Tracer* tracer);

struct IndexProbe {
  double build_ms = 0;
  double refresh_ms = 0;
  double probe_us = 0;
};
/// A standalone IndexManager with the engine's index options over the
/// engine's catalog: a cold HNSW GetOrBuild of table.column, an Append of
/// `append_rows` followed by the GetOrBuild that refreshes it, and range
/// probes with each of `queries`.
IndexProbe ProbeIndex(cre::Engine* engine, const std::string& table,
                      const std::string& column, const std::string& model,
                      const cre::Table& append_rows,
                      const std::vector<std::string>& queries, float threshold,
                      Tracer* tracer);

/// Serial ObjectDetector::DetectAll over the first `n` images of `store`:
/// ms per image.
double ProbeDetectMsPerImage(const cre::ImageStore& store,
                             const cre::ObjectDetector& detector,
                             std::size_t n, Tracer* tracer);

/// ProbeDetectMsPerImage on a small synthetic store, for workloads without
/// images of their own; the detector has the multisource workload's cost.
double ProbeDetectSyntheticMsPerImage(Tracer* tracer);

/// A single Aggregate(COUNT, SUM) over a scan of `table`, grouped by
/// `key`, executed as written on a one-thread engine: ns per input row.
double ProbeAggregateNsPerRow(const cre::TablePtr& table,
                              const std::string& key,
                              const std::string& sum_column, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
