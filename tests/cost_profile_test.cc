#include "obs/cost_profile.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/trace.h"

namespace hamlet {
namespace {

obs::OperatorFeatures JoinFeatures(uint64_t rows_in) {
  obs::OperatorFeatures f;
  f.op = "join.kfk";
  f.rows_in = rows_in;
  f.rows_out = rows_in;
  f.build_rows = 1000;
  f.distinct_keys = 1000;
  f.num_threads = 4;
  return f;
}

obs::CostObservation Cost(uint64_t total_ns) {
  obs::CostObservation c;
  c.total_ns = total_ns;
  c.build_ns = total_ns / 4;
  c.probe_ns = total_ns / 2;
  c.materialize_ns = total_ns / 4;
  return c;
}

TEST(CostProfileTest, SameFeaturesAggregateIntoOneRecord) {
  obs::CostProfile profile;
  profile.Add(JoinFeatures(50000), Cost(2000));
  profile.Add(JoinFeatures(50000), Cost(1000));
  profile.Add(JoinFeatures(50000), Cost(3000));
  ASSERT_EQ(profile.size(), 1u);
  const obs::CostRecord& r = profile.records().begin()->second;
  EXPECT_EQ(r.observations, 3u);
  EXPECT_EQ(r.total_ns_sum, 6000u);
  EXPECT_EQ(r.total_ns_min, 1000u);
  EXPECT_EQ(r.total_ns_max, 3000u);
  EXPECT_EQ(r.MeanTotalNs(), 2000u);
  // Different feature vectors open distinct records.
  profile.Add(JoinFeatures(90000), Cost(4000));
  EXPECT_EQ(profile.size(), 2u);
}

TEST(CostProfileTest, KeyIsCanonicalAndSortsByOperator) {
  EXPECT_EQ(JoinFeatures(50000).Key(), "join.kfk|50000|50000|1000|1000|4|0");
  obs::CostProfile profile;
  obs::OperatorFeatures ingest;
  ingest.op = "ingest.csv";
  profile.Add(JoinFeatures(1), Cost(1));
  profile.Add(ingest, Cost(1));
  // std::map ordering: ingest.csv before join.kfk.
  EXPECT_EQ(profile.records().begin()->second.features.op, "ingest.csv");
}

TEST(CostProfileStoreTest, ScopedCollectionClearsTheStore) {
  obs::CostProfileStore::Global().Clear();
  {
    obs::ScopedCollection collection(true);
    obs::CostProfileStore::Global().Record(JoinFeatures(50000), Cost(2000));
    EXPECT_EQ(obs::CostProfileStore::Global().Snapshot().size(), 1u);
  }
  // A new window starts clean: leftover records would leak into the
  // next run's export.
  obs::ScopedCollection collection(true);
  EXPECT_TRUE(obs::CostProfileStore::Global().Snapshot().empty());
}

}  // namespace
}  // namespace hamlet
