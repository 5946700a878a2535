#include "corpus.h"

#include <iterator>
#include <map>

#include "core/rng.h"
#include "datagen/corpus.h"
#include "datagen/vocabulary.h"

namespace perfbench {

TextCorpus MakeTextCorpus(std::uint64_t seed, std::size_t vocabulary_words,
                          std::size_t rows, std::size_t extra_rows) {
  TextCorpus out;
  cre::VocabularyOptions vo;
  vo.num_groups = 0;
  vo.words_per_group = 0;
  vo.num_singletons = vocabulary_words;
  vo.seed = seed;
  // Embedding cost grows with word length, and Zipf sampling makes the top
  // ranks most of the corpus. Ranks therefore get word lengths in a fixed
  // rotation, the same for every seed; only the words themselves vary.
  std::map<std::size_t, std::vector<std::string>> by_length;
  for (std::string& w : cre::AllWords(cre::GenerateVocabulary(vo))) {
    by_length[w.size()].push_back(std::move(w));
  }
  while (!by_length.empty()) {
    for (auto it = by_length.begin(); it != by_length.end();) {
      out.vocabulary.push_back(std::move(it->second.back()));
      it->second.pop_back();
      it = it->second.empty() ? by_length.erase(it) : std::next(it);
    }
  }

  cre::CorpusGenerator::Options co;
  co.zipf_s = 1.0;
  co.misspell_prob = 0.15;
  co.seed = seed + 1;
  cre::CorpusGenerator gen(out.vocabulary, co);
  cre::Rng rng(seed + 2);
  const cre::Schema schema({{"doc_id", cre::DataType::kInt64, 0},
                            {"word", cre::DataType::kString, 0},
                            {"bucket", cre::DataType::kInt64, 0}});
  std::int64_t next_id = 0;
  auto make = [&](std::size_t n) {
    cre::TablePtr t = cre::Table::Make(schema);
    t->Reserve(n);
    for (std::string& word : gen.Sample(n)) {
      t->column(0).AppendInt64(next_id++);
      t->column(1).AppendString(std::move(word));
      t->column(2).AppendInt64(static_cast<std::int64_t>(rng.Uniform(100)));
    }
    return t;
  };
  out.docs = make(rows);
  out.extra = make(extra_rows);
  return out;
}

std::vector<std::string> StringColumn(const cre::Table& table,
                                      const std::string& name) {
  std::vector<std::string> out;
  const cre::Column& col = *table.ColumnByName(name).ValueOrDie();
  out.reserve(table.num_rows());
  for (std::size_t i = 0; i < table.num_rows(); ++i) {
    out.push_back(col.GetValue(i).AsString());
  }
  return out;
}

}  // namespace perfbench
