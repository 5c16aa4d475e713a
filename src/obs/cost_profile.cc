#include "obs/cost_profile.h"

#include <algorithm>

#include "common/string_util.h"

namespace hamlet::obs {

std::string OperatorFeatures::Key() const {
  return StringFormat(
      "%s|%llu|%llu|%llu|%llu|%u|%u", op.c_str(),
      static_cast<unsigned long long>(rows_in),
      static_cast<unsigned long long>(rows_out),
      static_cast<unsigned long long>(build_rows),
      static_cast<unsigned long long>(distinct_keys), num_threads, shards);
}

void CostRecord::Add(const CostObservation& obs) {
  if (observations == 0) {
    total_ns_min = obs.total_ns;
    total_ns_max = obs.total_ns;
  } else {
    total_ns_min = std::min(total_ns_min, obs.total_ns);
    total_ns_max = std::max(total_ns_max, obs.total_ns);
  }
  ++observations;
  total_ns_sum += obs.total_ns;
  build_ns_sum += obs.build_ns;
  probe_ns_sum += obs.probe_ns;
  materialize_ns_sum += obs.materialize_ns;
}

void CostProfile::Add(const OperatorFeatures& features,
                      const CostObservation& obs) {
  CostRecord& record = records_[features.Key()];
  if (record.observations == 0) record.features = features;
  record.Add(obs);
}

CostProfileStore& CostProfileStore::Global() {
  static CostProfileStore* store = new CostProfileStore();
  return *store;
}

void CostProfileStore::Record(const OperatorFeatures& features,
                              const CostObservation& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  profile_.Add(features, obs);
}

CostProfile CostProfileStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return profile_;
}

void CostProfileStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  profile_ = CostProfile();
}

}  // namespace hamlet::obs
