#include "relational/domain.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hamlet {
namespace {

TEST(DomainTest, EmptyByDefault) {
  Domain d;
  EXPECT_EQ(d.size(), 0u);
}

TEST(DomainTest, ConstructFromLabels) {
  Domain d({"red", "green", "blue"});
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.label(0), "red");
  EXPECT_EQ(d.label(2), "blue");
}

TEST(DomainTest, LookupFindsCodes) {
  Domain d({"a", "b"});
  ASSERT_TRUE(d.Lookup("b").ok());
  EXPECT_EQ(*d.Lookup("b"), 1u);
}

TEST(DomainTest, LookupMissingIsNotFound) {
  Domain d({"a"});
  EXPECT_EQ(d.Lookup("z").status().code(), StatusCode::kNotFound);
}

TEST(DomainTest, GetOrAddAppends) {
  Domain d;
  EXPECT_EQ(d.GetOrAdd("x"), 0u);
  EXPECT_EQ(d.GetOrAdd("y"), 1u);
  EXPECT_EQ(d.GetOrAdd("x"), 0u);  // Idempotent.
  EXPECT_EQ(d.size(), 2u);
}

TEST(DomainTest, Contains) {
  Domain d({"a"});
  EXPECT_TRUE(d.Contains("a"));
  EXPECT_FALSE(d.Contains("b"));
}

TEST(DomainTest, DenseFactory) {
  auto d = Domain::Dense(4, "id_");
  EXPECT_EQ(d->size(), 4u);
  EXPECT_EQ(d->label(0), "id_0");
  EXPECT_EQ(d->label(3), "id_3");
  EXPECT_EQ(*d->Lookup("id_2"), 2u);
}

TEST(DomainTest, DenseWithoutPrefix) {
  auto d = Domain::Dense(2);
  EXPECT_EQ(d->label(1), "1");
}

TEST(DomainTest, LabelsVectorMatchesOrder) {
  Domain d({"p", "q"});
  ASSERT_EQ(d.labels().size(), 2u);
  EXPECT_EQ(d.labels()[0], "p");
}

TEST(DomainTest, HeterogeneousLookupAcceptsStringView) {
  Domain d({"alpha", "beta"});
  // A view into a larger buffer: no temporary std::string is required.
  std::string buffer = "xxbetayy";
  std::string_view view(buffer.data() + 2, 4);
  EXPECT_TRUE(d.Contains(view));
  ASSERT_TRUE(d.Lookup(view).ok());
  EXPECT_EQ(*d.Lookup(view), 1u);
  EXPECT_EQ(d.GetOrAdd(view), 1u);
}

TEST(DomainTest, CodeOfReturnsSentinelOnMiss) {
  Domain d({"a", "b"});
  EXPECT_EQ(d.CodeOf("b"), 1u);
  EXPECT_EQ(d.CodeOf("zzz"), Domain::kNoCode);
}

TEST(DomainRemapTest, SameObjectIsIdentity) {
  auto d = std::make_shared<Domain>(std::vector<std::string>{"a", "b"});
  DomainRemap remap(d, d);
  EXPECT_TRUE(remap.identity());
  EXPECT_EQ(remap[0], 0u);
  EXPECT_EQ(remap[1], 1u);
}

TEST(DomainRemapTest, TranslatesByLabel) {
  auto from =
      std::make_shared<Domain>(std::vector<std::string>{"a", "b", "c"});
  auto to =
      std::make_shared<Domain>(std::vector<std::string>{"c", "a"});
  DomainRemap remap(from, to);
  EXPECT_FALSE(remap.identity());
  EXPECT_EQ(remap[0], 1u);                  // "a" -> 1 in `to`.
  EXPECT_EQ(remap[1], DomainRemap::kNoCode);  // "b" absent from `to`.
  EXPECT_EQ(remap[2], 0u);                  // "c" -> 0 in `to`.
}

TEST(DomainTest, GetOrAddRoundTripsThroughManyGrowths) {
  constexpr uint32_t kLabels = 200000;
  Domain d;
  size_t growths = 0;
  size_t capacity = d.capacity();
  for (uint32_t i = 0; i < kLabels; ++i) {
    ASSERT_EQ(d.GetOrAdd("RatingID_" + std::to_string(i)), i);
    if (d.capacity() != capacity) {
      ++growths;
      capacity = d.capacity();
    }
  }
  EXPECT_GE(growths, 10u);
  EXPECT_EQ(d.size(), kLabels);
  EXPECT_LE(static_cast<size_t>(d.size()) * 4, d.capacity() * 3);
  for (uint32_t i = 0; i < kLabels; ++i) {
    const std::string label = "RatingID_" + std::to_string(i);
    ASSERT_EQ(d.label(i), label);
    ASSERT_EQ(d.CodeOf(label), i);
    ASSERT_EQ(d.GetOrAdd(label), i);  // Present labels never move.
  }
  EXPECT_EQ(d.size(), kLabels);
  EXPECT_EQ(d.CodeOf("RatingID_" + std::to_string(kLabels)), Domain::kNoCode);
}

TEST(DomainTest, ConstructorAndDenseAgreeWithGetOrAdd) {
  auto dense = Domain::Dense(5000, "k");
  std::vector<std::string> labels;
  Domain grown;
  for (uint32_t i = 0; i < 5000; ++i) {
    labels.push_back("k" + std::to_string(i));
    ASSERT_EQ(grown.GetOrAdd(labels.back()), i);
  }
  const Domain built(labels);
  EXPECT_EQ(built.labels(), labels);
  EXPECT_EQ(dense->labels(), labels);
  EXPECT_EQ(grown.labels(), labels);
  for (uint32_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(built.CodeOf(labels[i]), i);
    ASSERT_EQ(dense->CodeOf(labels[i]), i);
  }
}

TEST(DomainTest, EmptyPrefixSharingAndEmbeddedNulLabelsAreDistinct) {
  const std::string nul_a("a\0b", 3);
  const std::string nul_c("a\0c", 3);
  const std::string lone_nul("\0", 1);
  Domain d({"", "prefix", "prefix_", "prefix_a", "prefix_b", nul_a, nul_c,
            lone_nul, "a"});
  EXPECT_EQ(d.size(), 9u);
  EXPECT_EQ(d.CodeOf(""), 0u);
  EXPECT_EQ(d.label(0), "");
  EXPECT_EQ(d.CodeOf("prefix_b"), 4u);
  EXPECT_EQ(d.CodeOf(nul_a), 5u);
  EXPECT_EQ(d.CodeOf(nul_c), 6u);
  EXPECT_EQ(d.label(5), nul_a);
  EXPECT_EQ(d.label(5).size(), 3u);
  EXPECT_EQ(d.CodeOf(lone_nul), 7u);
  EXPECT_EQ(d.CodeOf("a"), 8u);
  EXPECT_EQ(d.CodeOf("prefix_c"), Domain::kNoCode);
  EXPECT_EQ(d.CodeOf(std::string("a\0", 2)), Domain::kNoCode);
  EXPECT_EQ(d.GetOrAdd(""), 0u);
  EXPECT_EQ(d.size(), 9u);
}

TEST(DomainTest, GetOrAddAcceptsAViewIntoItsOwnArena) {
  Domain d({"longer_label_"});
  // A prefix of an existing label is a new label whose bytes live in the
  // arena that the append may reallocate.
  for (int i = 0; i < 100; ++i) {
    const std::string_view own = d.label(static_cast<uint32_t>(d.size() - 1));
    const std::string expected(own.substr(0, own.size() - 1));
    if (expected.empty()) break;
    const uint32_t code = d.GetOrAdd(own.substr(0, own.size() - 1));
    ASSERT_EQ(code, d.size() - 1);
    ASSERT_EQ(d.label(code), expected);
  }
  EXPECT_EQ(d.CodeOf("l"), d.size() - 1);
}

// Labels whose hash sends them to one home slot of a 64-slot index form a
// single probe chain that wraps past the end of the table; a miss with
// the same home slot must walk all of it and still report absence.
TEST(DomainTest, MissesWalkAFullProbeChain) {
  constexpr uint32_t kMask = 63;
  std::vector<std::string> chain;
  std::vector<std::string> misses;
  for (uint32_t i = 0; chain.size() < 40 || misses.size() < 20; ++i) {
    std::string label = "c" + std::to_string(i);
    if ((Domain::Hash(label) & kMask) != kMask) continue;
    (chain.size() < 40 ? chain : misses).push_back(std::move(label));
  }
  Domain d(chain);
  ASSERT_EQ(d.capacity(), 64u);
  for (uint32_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(d.CodeOf(chain[i]), i);
  }
  for (const std::string& miss : misses) {
    EXPECT_EQ(d.CodeOf(miss), Domain::kNoCode) << miss;
    EXPECT_FALSE(d.Contains(miss));
    EXPECT_EQ(d.Lookup(miss).status().code(), StatusCode::kNotFound);
  }
  // Misses elsewhere in the table run into the chain's wrapped tail.
  for (uint32_t i = 0; i < 200; ++i) {
    const std::string other = "o" + std::to_string(i);
    EXPECT_EQ(d.CodeOf(other), Domain::kNoCode);
  }
}

TEST(DomainRemapTest, TranslatesBetweenTwoGrownDomains) {
  auto from = std::make_shared<Domain>();
  auto to = std::make_shared<Domain>();
  for (uint32_t i = 0; i < 3000; ++i) from->GetOrAdd("v" + std::to_string(i));
  // `to` holds the even labels in reverse order, plus some of its own.
  for (uint32_t i = 3000; i-- > 0;) {
    if (i % 2 == 0) to->GetOrAdd("v" + std::to_string(i));
    if (i % 7 == 0) to->GetOrAdd("w" + std::to_string(i));
  }
  DomainRemap remap(from, to);
  EXPECT_FALSE(remap.identity());
  for (uint32_t c = 0; c < from->size(); ++c) {
    if (c % 2 == 0) {
      ASSERT_NE(remap[c], DomainRemap::kNoCode);
      ASSERT_EQ(to->label(remap[c]), from->label(c));
    } else {
      ASSERT_EQ(remap[c], DomainRemap::kNoCode) << c;
    }
  }
}

TEST(DomainDeathTest, DuplicateLabelAborts) {
  EXPECT_DEATH(Domain d({"a", "a"}), "duplicate");
}

TEST(DomainDeathTest, LabelOutOfRangeAborts) {
  Domain d({"a"});
  EXPECT_DEATH((void)d.label(1), "out of domain");
}

}  // namespace
}  // namespace hamlet
