// Deterministic mutation fuzz of the chunked CSV reader's framing.
//
// A serial read (num_threads = 1) never runs the framing pre-scan: one
// chunk covers the whole body. A parallel read with min_chunk_bytes = 1
// plans a chunk boundary per thread. Every mutant below must read the
// same either way: same status text (line numbers included), same codes,
// same dictionaries. The mutations aim at the framing scan's two regimes
// (the quote-free prefix and the quoting state machine after the first
// '"'), including first quotes placed just before, on and after a chunk
// target.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "relational/csv.h"

namespace hamlet {
namespace {

constexpr uint32_t kParallelThreads = 4;

struct ReadOutcome {
  std::string status;
  std::vector<std::vector<uint32_t>> codes;
  std::vector<std::vector<std::string>> labels;
};

ReadOutcome Read(const std::string& path, const Schema& schema,
                 const std::vector<std::shared_ptr<Domain>>& domains,
                 uint32_t num_threads, bool strict) {
  CsvOptions options;
  options.num_threads = num_threads;
  options.min_chunk_bytes = 1;
  options.strict = strict;
  Result<Table> t = ReadCsvWithDomains(path, "T", schema, domains, options);
  ReadOutcome out;
  out.status = t.status().ToString();
  if (!t.ok()) return out;
  for (uint32_t c = 0; c < t->num_columns(); ++c) {
    out.codes.push_back(t->column(c).codes());
    out.labels.push_back(t->column(c).domain()->labels());
  }
  return out;
}

void ExpectSameOutcome(const ReadOutcome& serial, const ReadOutcome& got) {
  EXPECT_EQ(got.status, serial.status);
  EXPECT_EQ(got.codes, serial.codes);
  EXPECT_EQ(got.labels, serial.labels);
}

class CsvFramingFuzzTest : public ::testing::Test {
 protected:
  std::string WriteTemp(const std::string& contents) {
    const std::string path =
        ::testing::TempDir() + "/hamlet_csv_fuzz_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".csv";
    std::ofstream out(path, std::ios::binary);
    out << contents;
    return path;
  }

  /// Reads `body` (after a fixed header) with fresh domains, then with a
  /// declared closed domain for column B that lacks one of its labels,
  /// in strict and lenient mode; each parallel read must equal the
  /// serial one. Returns false once a mismatch was reported.
  bool CheckBody(const std::string& body) {
    const std::string path = WriteTemp("A,B,C\n" + body);
    const Schema schema({ColumnSpec::Feature("A"), ColumnSpec::Feature("B"),
                         ColumnSpec::Feature("C")});
    const std::vector<std::shared_ptr<Domain>> fresh(3, nullptr);
    const ReadOutcome serial = Read(path, schema, fresh, 1, true);
    ExpectSameOutcome(serial,
                      Read(path, schema, fresh, kParallelThreads, true));
    ++reads_;

    if (!serial.labels.empty() && serial.labels[1].size() >= 2) {
      std::vector<std::string> closed_labels = serial.labels[1];
      closed_labels.erase(closed_labels.begin() +
                          static_cast<long>(closed_labels.size() / 2));
      const std::vector<std::shared_ptr<Domain>> declared = {
          nullptr, std::make_shared<Domain>(closed_labels), nullptr};
      for (bool strict : {true, false}) {
        const ReadOutcome closed_serial =
            Read(path, schema, declared, 1, strict);
        ExpectSameOutcome(closed_serial,
                          Read(path, schema, declared, kParallelThreads,
                               strict));
        ++reads_;
      }
    }
    return !::testing::Test::HasFailure();
  }

  int reads_ = 0;
};

/// A quote-free body of `rows` three-field records.
std::string CleanBody(Rng& rng, int rows) {
  std::string body;
  for (int r = 0; r < rows; ++r) {
    body += "k" + std::to_string(rng.Uniform(40)) + ",v" +
            std::to_string(rng.Uniform(9)) + ",w" +
            std::to_string(rng.Uniform(3)) + "\n";
  }
  return body;
}

/// One random edit of `body`.
void Mutate(Rng& rng, std::string& body) {
  static const std::vector<std::string> kInserts = {
      "\"",           "\"\"",         "\r",           "\r\n",
      "\"q\nq\"",     "\"a,b\"",      "\"\"\"\"",     "\n",
      ",",            "\n\n",         std::string("\0", 1),
      "\xff\xfe",     "\xc3",         "\xe2\x82",     "x\"y",
      "\"open",       "\"\r\n\"",     "\r\"",
  };
  const size_t pos = rng.Uniform(static_cast<uint32_t>(body.size() + 1));
  switch (rng.Uniform(5)) {
    case 0:
    case 1:
    case 2:
      body.insert(pos, kInserts[rng.Uniform(
                           static_cast<uint32_t>(kInserts.size()))]);
      break;
    case 3:
      if (pos < body.size()) body.erase(pos, 1 + rng.Uniform(4));
      break;
    default:
      // A very long record, quoted or not.
      if (rng.Uniform(2) == 0) {
        body.insert(pos, std::string(3000 + rng.Uniform(3000), 'L'));
      } else {
        body.insert(pos, "\"" + std::string(4000, 'Q') + "\n" +
                             std::string(100, 'Q') + "\"");
      }
      break;
  }
}

TEST_F(CsvFramingFuzzTest, RandomMutantsFrameLikeTheSerialReader) {
  Rng rng(20261020);
  for (int mutant = 0; mutant < 400; ++mutant) {
    std::string body = CleanBody(rng, 20 + static_cast<int>(rng.Uniform(60)));
    const uint32_t edits = 1 + rng.Uniform(4);
    for (uint32_t e = 0; e < edits; ++e) Mutate(rng, body);
    SCOPED_TRACE("mutant " + std::to_string(mutant));
    if (!CheckBody(body)) return;
  }
  EXPECT_GT(reads_, 400);
}

// The first '"' of the body at, just before or just after a chunk target,
// preceded by each byte that decides whether it opens a quoted run.
TEST_F(CsvFramingFuzzTest, FirstQuoteAroundEachChunkTarget) {
  Rng rng(17);
  const std::vector<std::string> before = {"", ",", "\n", "\r", ",\r",
                                           "\n\r\r", "x", "x\r"};
  const std::vector<std::string> quoted = {"\"", "\"a\nb\",", "\"\"",
                                           "\"a,b\"\n", "\"\r\n"};
  for (int round = 0; round < 6; ++round) {
    const std::string clean = CleanBody(rng, 40 + round * 13);
    for (uint32_t k = 1; k < kParallelThreads; ++k) {
      const size_t target = clean.size() * k / kParallelThreads;
      for (int delta = -2; delta <= 2; ++delta) {
        const size_t at = target + static_cast<size_t>(delta);
        for (const std::string& pre : before) {
          for (const std::string& q : quoted) {
            std::string body = clean;
            const size_t start = at >= pre.size() ? at - pre.size() : 0;
            body.replace(start, pre.size() + q.size(), pre + q);
            SCOPED_TRACE("round " + std::to_string(round) + " target " +
                         std::to_string(k) + " delta " +
                         std::to_string(delta) + " pre '" + pre + "' q '" +
                         q + "'");
            if (!CheckBody(body)) return;
          }
        }
      }
    }
  }
}

// Quote-free bodies: the framing scan never leaves its memchr prefix,
// including bodies ending without a newline or in blank lines and '\r'.
TEST_F(CsvFramingFuzzTest, QuoteFreeBodiesFrameLikeTheSerialReader) {
  Rng rng(99);
  const std::vector<std::string> tails = {"", "\n", "\n\n", "\r\n", "k1,v1,w1",
                                          "\r"};
  for (int round = 0; round < 40; ++round) {
    std::string body = CleanBody(rng, 1 + static_cast<int>(rng.Uniform(30)));
    if (rng.Uniform(2) == 0) body.pop_back();  // Drop the final newline.
    body += tails[rng.Uniform(static_cast<uint32_t>(tails.size()))];
    SCOPED_TRACE("round " + std::to_string(round));
    if (!CheckBody(body)) return;
  }
}

}  // namespace
}  // namespace hamlet
