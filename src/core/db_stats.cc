// DbStats aggregation and text rendering.  ShardedDB::GetStats folds
// per-shard snapshots with operator+=; each field combines by its
// aggregation column in core/db_stats_fields.h.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "core/db.h"

namespace iamdb {

namespace {

// Write amp is a ratio (bytes written / user bytes); combining two
// instances must weight each side by its denominator so the result equals
// the amp a single instance with the union of their traffic would report.
double CombineAmps(double lhs_amp, uint64_t lhs_user, double rhs_amp,
                   uint64_t rhs_user) {
  const double total_user =
      static_cast<double>(lhs_user) + static_cast<double>(rhs_user);
  if (total_user <= 0) return 0;
  return (lhs_amp * static_cast<double>(lhs_user) +
          rhs_amp * static_cast<double>(rhs_user)) /
         total_user;
}

template <typename T>
void Combine(DbStatsAgg agg, T* lhs, const T& rhs, uint64_t lhs_user,
             uint64_t rhs_user) {
  switch (agg) {
    case DbStatsAgg::kSum:
      *lhs += rhs;
      break;
    case DbStatsAgg::kMax:
      *lhs = std::max(*lhs, rhs);
      break;
    case DbStatsAgg::kAmp:
      *lhs = static_cast<T>(CombineAmps(*lhs, lhs_user, rhs, rhs_user));
      break;
  }
}

// Per-level vectors pad to the longer side, then combine level by level.
template <typename T>
void Combine(DbStatsAgg agg, std::vector<T>* lhs, const std::vector<T>& rhs,
             uint64_t lhs_user, uint64_t rhs_user) {
  if (lhs->size() < rhs.size()) lhs->resize(rhs.size(), T{});
  for (size_t i = 0; i < rhs.size(); i++) {
    Combine(agg, &(*lhs)[i], rhs[i], lhs_user, rhs_user);
  }
}

}  // namespace

DbStats& operator+=(DbStats& lhs, const DbStats& rhs) {
  // Amps weigh by the user bytes from before this sum, so both weights are
  // read before any field changes.  That also keeps a self-add (x += x)
  // correct.
  const uint64_t lhs_user = lhs.*kAmpWeight;
  const uint64_t rhs_user = rhs.*kAmpWeight;
  ForEachDbStatsField(
      [&](const DbStatsField& f, auto& l, const auto& r) {
        Combine(f.agg, &l, r, lhs_user, rhs_user);
      },
      lhs, rhs);
  return lhs;
}

std::string FormatDbStats(const DbStats& stats) {
  std::string out;
  char buf[96];
  ForEachEmittedDbStatsField(
      [&](const DbStatsField& f, const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, double>) {
          std::snprintf(buf, sizeof(buf), "%.3f", v);
          out += std::string(f.name) + ": " + buf + "\n";
        } else if constexpr (std::is_integral_v<T>) {
          out += std::string(f.name) + ": " + std::to_string(v) + "\n";
        }
      },
      stats);
  for (size_t i = 0; i < stats.level_bytes.size(); i++) {
    std::snprintf(buf, sizeof(buf), "level %zu: %" PRIu64 "B in %d nodes",
                  i + 1, stats.level_bytes[i],
                  i < stats.level_node_counts.size()
                      ? stats.level_node_counts[i]
                      : 0);
    out.append(buf);
    if (i < stats.level_write_amp.size()) {
      std::snprintf(buf, sizeof(buf), ", write_amp %.3f",
                    stats.level_write_amp[i]);
      out.append(buf);
    }
    out.append("\n");
  }
  return out;
}

}  // namespace iamdb
