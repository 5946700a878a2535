// Dirty text shared by the text workloads: Zipf-sampled words of a
// synthetic vocabulary with a share of misspellings.

#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/table.h"

namespace perfbench {

struct TextCorpus {
  /// Distinct vocabulary words; index = Zipf rank (0 = most frequent).
  std::vector<std::string> vocabulary;
  /// {doc_id:int64, word:string, bucket:int64 in [0, 100)}.
  cre::TablePtr docs;
  /// Rows in the same schema with fresh doc ids, for appends.
  cre::TablePtr extra;
};

/// `rows` base rows and `extra_rows` appendable rows; 15% of sampled words
/// carry one edit.
TextCorpus MakeTextCorpus(std::uint64_t seed, std::size_t vocabulary_words,
                          std::size_t rows, std::size_t extra_rows);

/// Copies column `name` of `table` (a string column) into a vector.
std::vector<std::string> StringColumn(const cre::Table& table,
                                      const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
