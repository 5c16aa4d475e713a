#include "relational/table_stats.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "stats/contingency.h"
#include "stats/info_theory.h"

namespace hamlet {

const ColumnStats* TableStats::Find(const std::string& name) const {
  for (const auto& c : columns) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TableStats ComputeTableStats(const Table& table) {
  TableStats stats;
  stats.table_name = table.name();
  stats.num_rows = table.num_rows();
  for (uint32_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    ColumnStats cs;
    cs.name = table.schema().column(c).name;
    cs.role = table.schema().column(c).role;
    cs.domain_size = col.domain_size();
    cs.distinct_observed = col.CountDistinct();
    auto counts = MarginalCounts(col.codes(), col.domain_size());
    cs.entropy_bits = EntropyFromCounts(counts);
    if (!counts.empty() && table.num_rows() > 0) {
      uint32_t top = static_cast<uint32_t>(
          std::max_element(counts.begin(), counts.end()) - counts.begin());
      cs.top_label = std::string(col.domain()->label(top));
      cs.top_share = static_cast<double>(counts[top]) /
                     static_cast<double>(table.num_rows());
    }
    stats.columns.push_back(std::move(cs));
  }
  return stats;
}

std::string TableStats::ToString() const {
  TablePrinter printer({"Column", "Role", "|D_F|", "Distinct", "H (bits)",
                        "Top", "Share"});
  for (const ColumnStats& c : columns) {
    printer.AddRow({c.name, ColumnRoleToString(c.role),
                    std::to_string(c.domain_size),
                    std::to_string(c.distinct_observed),
                    StringFormat("%.3f", c.entropy_bits), c.top_label,
                    StringFormat("%.3f", c.top_share)});
  }
  std::ostringstream oss;
  oss << StringFormat("%s: %u rows\n", table_name.c_str(), num_rows);
  printer.Print(oss);
  return oss.str();
}

Result<CandidateTableStats> ToCandidateStats(const Table& attribute_table,
                                             const std::string& fk_column,
                                             bool closed) {
  std::vector<uint32_t> features =
      attribute_table.schema().FeatureIndices();
  if (features.empty()) {
    return Status::InvalidArgument(StringFormat(
        "attribute table '%s' has no features",
        attribute_table.name().c_str()));
  }
  CandidateTableStats out;
  out.fk_column = fk_column;
  out.table_name = attribute_table.name();
  out.num_rows = attribute_table.num_rows();
  out.min_feature_domain = UINT64_MAX;
  for (uint32_t idx : features) {
    out.min_feature_domain = std::min<uint64_t>(
        out.min_feature_domain, attribute_table.column(idx).domain_size());
  }
  out.min_feature_domain = std::max<uint64_t>(out.min_feature_domain, 1);
  out.closed_domain = closed;
  return out;
}

}  // namespace hamlet
