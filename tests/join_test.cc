#include "relational/join.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hamlet {
namespace {

// The paper's running example: Customers ⋈ Employers.
struct ChurnFixture {
  Table customers;
  Table employers;

  ChurnFixture() {
    Schema r_schema({ColumnSpec::PrimaryKey("EmployerID"),
                     ColumnSpec::Feature("Country"),
                     ColumnSpec::Feature("Revenue")});
    TableBuilder rb("Employers", r_schema);
    EXPECT_TRUE(rb.AppendRowLabels({"e0", "US", "high"}).ok());
    EXPECT_TRUE(rb.AppendRowLabels({"e1", "IN", "low"}).ok());
    EXPECT_TRUE(rb.AppendRowLabels({"e2", "UK", "high"}).ok());
    employers = rb.Build();

    Schema s_schema({ColumnSpec::PrimaryKey("CustomerID"),
                     ColumnSpec::Target("Churn"),
                     ColumnSpec::Feature("Gender"),
                     ColumnSpec::ForeignKey("EmployerID", "Employers")});
    // FK shares the Employers PK domain (closed-domain setting).
    auto pk_domain = employers.column(0).domain();
    TableBuilder sb("Customers", s_schema,
                    {nullptr, nullptr, nullptr, pk_domain});
    EXPECT_TRUE(sb.AppendRowLabels({"c0", "yes", "F", "e1"}).ok());
    EXPECT_TRUE(sb.AppendRowLabels({"c1", "no", "M", "e0"}).ok());
    EXPECT_TRUE(sb.AppendRowLabels({"c2", "no", "F", "e1"}).ok());
    EXPECT_TRUE(sb.AppendRowLabels({"c3", "yes", "M", "e2"}).ok());
    customers = sb.Build();
  }
};

TEST(KfkJoinTest, ProducesExpectedSchema) {
  ChurnFixture f;
  auto t = KfkJoin(f.customers, f.employers, "EmployerID");
  ASSERT_TRUE(t.ok()) << t.status();
  // T(SID, Y, X_S, FK, X_R): RID dropped, FK kept.
  EXPECT_EQ(t->num_columns(), 6u);
  EXPECT_TRUE(t->schema().Contains("EmployerID"));
  EXPECT_TRUE(t->schema().Contains("Country"));
  EXPECT_TRUE(t->schema().Contains("Revenue"));
  EXPECT_EQ(t->num_rows(), 4u);
}

TEST(KfkJoinTest, GathersMatchingForeignFeatures) {
  ChurnFixture f;
  auto t = *KfkJoin(f.customers, f.employers, "EmployerID");
  const Column& country = **t.ColumnByName("Country");
  EXPECT_EQ(country.label(0), "IN");  // c0 -> e1.
  EXPECT_EQ(country.label(1), "US");  // c1 -> e0.
  EXPECT_EQ(country.label(2), "IN");  // c2 -> e1.
  EXPECT_EQ(country.label(3), "UK");  // c3 -> e2.
}

TEST(KfkJoinTest, FdHoldsInOutput) {
  // The FD FK -> X_R of Section 3.1: equal FK codes imply equal X_R.
  ChurnFixture f;
  auto t = *KfkJoin(f.customers, f.employers, "EmployerID");
  const Column& fk = **t.ColumnByName("EmployerID");
  const Column& country = **t.ColumnByName("Country");
  const Column& revenue = **t.ColumnByName("Revenue");
  for (uint32_t i = 0; i < t.num_rows(); ++i) {
    for (uint32_t j = 0; j < t.num_rows(); ++j) {
      if (fk.code(i) == fk.code(j)) {
        EXPECT_EQ(country.code(i), country.code(j));
        EXPECT_EQ(revenue.code(i), revenue.code(j));
      }
    }
  }
}

TEST(KfkJoinTest, NonFkColumnRejected) {
  ChurnFixture f;
  auto t = KfkJoin(f.customers, f.employers, "Gender");
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(KfkJoinTest, MissingColumnRejected) {
  ChurnFixture f;
  EXPECT_EQ(KfkJoin(f.customers, f.employers, "Nope").status().code(),
            StatusCode::kNotFound);
}

TEST(KfkJoinTest, ReferentialIntegrityViolationDetected) {
  ChurnFixture f;
  // An employers table missing e2, which c3 references.
  Table shrunk = f.employers.GatherRows({0, 1});
  auto t = KfkJoin(f.customers, shrunk, "EmployerID");
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("referential integrity"),
            std::string::npos);
}

TEST(KfkJoinTest, DuplicateRidRejected) {
  ChurnFixture f;
  Table dup = f.employers.GatherRows({0, 0, 1, 2});
  EXPECT_FALSE(KfkJoin(f.customers, dup, "EmployerID").ok());
}

TEST(KfkJoinTest, NameCollisionRejected) {
  ChurnFixture f;
  // An attribute table with a feature named like an S column.
  Schema r_schema({ColumnSpec::PrimaryKey("EmployerID2"),
                   ColumnSpec::Feature("Gender")});
  TableBuilder rb("Employers2", r_schema);
  ASSERT_TRUE(rb.AppendRowLabels({"e0", "x"}).ok());
  Schema s_schema({ColumnSpec::Target("Y"),
                   ColumnSpec::Feature("Gender"),
                   ColumnSpec::ForeignKey("FK", "Employers2")});
  TableBuilder sb("S", s_schema);
  ASSERT_TRUE(sb.AppendRowLabels({"1", "F", "e0"}).ok());
  auto t = KfkJoin(sb.Build(), rb.Build(), "FK");
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(KfkJoinTest, WorksAcrossDistinctDomainObjects) {
  // FK built with its own dictionary (same labels, different object).
  ChurnFixture f;
  Schema s_schema({ColumnSpec::Target("Y"),
                   ColumnSpec::ForeignKey("EmpFK", "Employers")});
  TableBuilder sb("S2", s_schema);
  ASSERT_TRUE(sb.AppendRowLabels({"1", "e2"}).ok());
  ASSERT_TRUE(sb.AppendRowLabels({"0", "e0"}).ok());
  Schema r_schema({ColumnSpec::PrimaryKey("EmployerID"),
                   ColumnSpec::Feature("Country"),
                   ColumnSpec::Feature("Revenue")});
  auto t = KfkJoin(sb.Build(), f.employers, "EmpFK");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ((*t->ColumnByName("Country"))->label(0), "UK");
  EXPECT_EQ((*t->ColumnByName("Country"))->label(1), "US");
}

TEST(HashJoinTest, MatchesOnEquality) {
  ChurnFixture f;
  auto t = HashJoin(f.customers, f.employers, "EmployerID", "EmployerID");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->num_rows(), 4u);  // Every customer matches exactly once.
}

TEST(HashJoinTest, DropsNonMatchingRows) {
  ChurnFixture f;
  Table shrunk = f.employers.GatherRows({1});  // Only e1 remains.
  auto t = HashJoin(f.customers, shrunk, "EmployerID", "EmployerID");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);  // c0 and c2 reference e1.
}

TEST(HashJoinTest, ManyToManyProducesCrossMatches) {
  Schema l_schema({ColumnSpec::Feature("K"), ColumnSpec::Feature("L")});
  TableBuilder lb("L", l_schema);
  ASSERT_TRUE(lb.AppendRowLabels({"k1", "l1"}).ok());
  ASSERT_TRUE(lb.AppendRowLabels({"k1", "l2"}).ok());
  Schema r_schema({ColumnSpec::Feature("K2"), ColumnSpec::Feature("R")});
  TableBuilder rb("R", r_schema);
  ASSERT_TRUE(rb.AppendRowLabels({"k1", "r1"}).ok());
  ASSERT_TRUE(rb.AppendRowLabels({"k1", "r2"}).ok());
  auto t = HashJoin(lb.Build(), rb.Build(), "K", "K2");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 4u);  // 2 x 2 cross matches.
}

TEST(HashJoinTest, MatchCountBeyondUint32IsRejectedBeforeAllocating) {
  // 65,537 x 65,536 rows on one key is 2^32 + 2^16 matches: one past what
  // 32-bit row indices can address. The join must refuse with a typed
  // error instead of allocating ~32 GB of index vectors or truncating.
  auto keys = Domain::Dense(1, "k");
  auto values = Domain::Dense(1, "v");
  constexpr uint32_t kLeftRows = 65537;
  constexpr uint32_t kRightRows = 65536;
  Table left("L", Schema({ColumnSpec::Feature("K"), ColumnSpec::Feature("L")}),
             {Column(std::vector<uint32_t>(kLeftRows, 0), keys),
              Column(std::vector<uint32_t>(kLeftRows, 0), values)});
  Table right("R",
              Schema({ColumnSpec::Feature("K2"), ColumnSpec::Feature("R")}),
              {Column(std::vector<uint32_t>(kRightRows, 0), keys),
               Column(std::vector<uint32_t>(kRightRows, 0), values)});
  auto t = HashJoin(left, right, "K", "K2");
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("4295032832 rows"), std::string::npos)
      << t.status();
}

// Property test: KfkJoin agrees with HashJoin (the nested-loop-equivalent
// reference) on randomized star schemas.
class JoinEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinEquivalenceTest, KfkJoinMatchesHashJoin) {
  Rng rng(GetParam());
  const uint32_t n_r = 3 + rng.Uniform(20);
  const uint32_t n_s = 5 + rng.Uniform(60);

  Schema r_schema({ColumnSpec::PrimaryKey("RID"),
                   ColumnSpec::Feature("XR1"),
                   ColumnSpec::Feature("XR2")});
  TableBuilder rb("R", r_schema);
  for (uint32_t i = 0; i < n_r; ++i) {
    ASSERT_TRUE(rb.AppendRowLabels({"r" + std::to_string(i),
                                    "v" + std::to_string(rng.Uniform(4)),
                                    "w" + std::to_string(rng.Uniform(3))})
                    .ok());
  }
  Table r = rb.Build();

  Schema s_schema({ColumnSpec::Target("Y"), ColumnSpec::Feature("XS"),
                   ColumnSpec::ForeignKey("FK", "R")});
  TableBuilder sb("S", s_schema, {nullptr, nullptr, r.column(0).domain()});
  for (uint32_t i = 0; i < n_s; ++i) {
    ASSERT_TRUE(
        sb.AppendRowLabels({std::to_string(rng.Uniform(2)),
                            "x" + std::to_string(rng.Uniform(5)),
                            "r" + std::to_string(rng.Uniform(n_r))})
            .ok());
  }
  Table s = sb.Build();

  auto kfk = KfkJoin(s, r, "FK");
  ASSERT_TRUE(kfk.ok()) << kfk.status();
  auto reference = HashJoin(s, r, "FK", "RID");
  ASSERT_TRUE(reference.ok()) << reference.status();

  ASSERT_EQ(kfk->num_rows(), reference->num_rows());
  // HashJoin emits matches in left-row order and each S row matches one R
  // row, so outputs must agree cell-for-cell on the shared columns.
  for (const char* col : {"Y", "XS", "FK", "XR1", "XR2"}) {
    const Column& a = **kfk->ColumnByName(col);
    const Column& b = **reference->ColumnByName(col);
    for (uint32_t row = 0; row < kfk->num_rows(); ++row) {
      ASSERT_EQ(a.label(row), b.label(row))
          << "column " << col << " row " << row;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStarSchemas, JoinEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace hamlet
