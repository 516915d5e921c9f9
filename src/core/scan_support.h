#ifndef PROST_CORE_SCAN_SUPPORT_H_
#define PROST_CORE_SCAN_SUPPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/column.h"
#include "rdf/triple.h"

namespace prost::core {

/// Zone-map test: can any row of a chunk with these stats bind `id`?
/// NULLs never participate in min/max, and an all-NULL chunk
/// (value_count == 0) admits nothing, so the interval test is exact on
/// ids.
inline bool ZoneMayContain(const columnar::ColumnStats& stats,
                           rdf::TermId id) {
  return stats.value_count != 0 && id >= stats.min_id && id <= stats.max_id;
}

/// One pushed-filter fact a scan may prune with: rows where
/// `variable` binds to anything but `id` will be removed by the scan
/// node's own pushed filters, so row groups whose zone maps exclude `id`
/// (and partitions whose bloom filters exclude it, for key columns) can
/// be skipped without changing the query result. `id == kNullTermId`
/// means the filter constant is not in the dictionary — no stored row
/// can survive, so everything is skippable.
///
/// Only derived from equality filters against non-numeric constants:
/// numeric SPARQL equality is value-based ("1"^^xsd:integer equals
/// "01"^^xsd:integer under a different id), so those never become hints.
struct ScanEqualityHint {
  std::string variable;
  rdf::TermId id = rdf::kNullTermId;
};

struct ScanHints {
  std::vector<ScanEqualityHint> equals;
};

/// What a scan's pruning did, for EXPLAIN ANALYZE and the smoke guards.
/// A scan that skips nothing has `bytes_scanned` equal to the planner's
/// estimate of the same scan.
struct ScanTelemetry {
  uint64_t row_groups_skipped = 0;
  uint64_t partitions_skipped = 0;
  /// Scan bytes actually charged (lexical cost domain — comparable to
  /// the planner's estimate and to cluster::ExecutionCounters).
  uint64_t bytes_scanned = 0;
};

}  // namespace prost::core

#endif  // PROST_CORE_SCAN_SUPPORT_H_
