#ifndef PROST_OBS_TRACE_H_
#define PROST_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "common/timer.h"

namespace prost::obs {

/// What an execution span measures. One span per plan node (scans,
/// joins) plus spans for the pipeline operators that post-process them.
enum class SpanKind {
  kQuery,      // root: the whole query
  kScan,       // VP / PT / RPT table scan (a join-tree leaf)
  kJoin,       // hash join (broadcast or shuffle; see detail)
  kExchange,   // repartition-by-join-key shuffle
  kFilter,     // FILTER predicate
  kProject,    // SELECT projection
  kDistinct,   // DISTINCT dedupe
  kOrderBy,    // ORDER BY driver-side sort
  kAggregate,  // COUNT aggregate
  kLimit,      // OFFSET/LIMIT slice
  kModifiers,  // container for FILTER + solution modifiers
               // (baseline systems' modifier tail)
};

const char* SpanKindName(SpanKind kind);

/// One node of a query's execution trace. `charge_millis` is the span's
/// *exclusive* share of the simulated clock: the clock advance observed
/// while this span was the innermost open one. Exclusive charges
/// partition the clock, so summing them over the whole tree reproduces
/// `simulated_millis`; `total_charge_millis` is the inclusive rollup.
struct Span {
  SpanKind kind = SpanKind::kQuery;
  std::string label;       // operator identity, e.g. "PT(type ; name)"
  std::string detail;      // variant, e.g. "broadcast" vs "shuffle"
  int32_t parent = -1;     // index into QueryProfile::spans(), -1 = root
  std::vector<int32_t> children;

  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t bytes_scanned = 0;
  uint64_t bytes_shuffled = 0;
  uint64_t bytes_broadcast = 0;
  double charge_millis = 0;        // exclusive simulated charge
  double total_charge_millis = 0;  // inclusive (self + descendants)
  double wall_millis = 0;          // real time; varies with threads
  double estimated_rows = -1;      // planner estimate; < 0 = none

  // Storage telemetry (scan spans only). `bytes_scanned` above is the
  // *actual* charge after zone-map / bloom skipping;
  // `storage_bytes_estimated` is what the planner assumed (the unpruned
  // scan size). With nothing skipped the two are equal.
  uint64_t storage_bytes_estimated = 0;
  uint64_t row_groups_skipped = 0;
  uint64_t partitions_skipped = 0;
};

/// A per-query span tree, built on the coordinating thread.
///
/// NOT thread-safe by contract: all opens, closes, and attribute writes
/// happen on the thread driving the operators. Morsel-parallel operators
/// already funnel every CostModel charge through the coordinating thread
/// after their parallel region (see DESIGN.md §7), so the aggregated
/// span tree is identical between serial and parallel runs. Because of
/// this confinement the tree deliberately owns no Mutex and sits outside
/// the DESIGN.md §11 lock hierarchy.
///
/// Charge attribution: opens and closes carry the CostModel's
/// "accounted" clock (CostModel::AccountedMillis — elapsed time plus the
/// open stage's pending straggler + transfer contribution). The profile
/// slices that monotone clock into per-span exclusive segments: a span
/// accumulates the clock advance seen while it is the innermost open
/// span. Every accounted unit lands in exactly one span.
class QueryProfile {
 public:
  QueryProfile() = default;
  QueryProfile(const QueryProfile&) = delete;
  QueryProfile& operator=(const QueryProfile&) = delete;

  /// Opens a span as a child of the innermost open span (or as the root)
  /// and returns its id. `accounted_now` is CostModel::AccountedMillis().
  int32_t OpenSpan(SpanKind kind, std::string label, double accounted_now);

  /// Closes the innermost open span; `id` must match it.
  void CloseSpan(int32_t id, double accounted_now);

  /// Mutable access while building (attributes set between open/close).
  Span& span(int32_t id) { return spans_[static_cast<size_t>(id)]; }

  const std::vector<Span>& spans() const { return spans_; }
  int32_t root() const { return spans_.empty() ? -1 : 0; }
  bool finished() const { return finished_; }

  /// Seals the profile with the query's final simulated time and
  /// aggregate counters.
  void Finish(double simulated_millis,
              const cluster::ExecutionCounters& counters);

  double simulated_millis() const { return simulated_millis_; }
  const cluster::ExecutionCounters& counters() const { return counters_; }

  /// Sum of exclusive charges over all spans — reproduces
  /// simulated_millis when the root span brackets the whole execution.
  double TotalChargedMillis() const;

 private:
  struct OpenFrame {
    int32_t id;
    double segment_start;  // accounted clock when this span last became
                           // the innermost open span
  };

  std::vector<Span> spans_;
  std::vector<OpenFrame> stack_;
  bool finished_ = false;
  double simulated_millis_ = 0;
  cluster::ExecutionCounters counters_;
};

/// RAII operator instrumentation. Inactive (a null check per call) when
/// `profile` is null, so profiling off costs nothing on the hot path.
/// On open it snapshots the CostModel's counters and accounted clock; on
/// close it attributes the deltas (bytes scanned/shuffled/broadcast,
/// simulated charge) plus wall time to the span.
class OperatorSpan {
 public:
  OperatorSpan(QueryProfile* profile, const cluster::CostModel& cost,
               SpanKind kind, std::string label);
  ~OperatorSpan() { Close(); }
  OperatorSpan(const OperatorSpan&) = delete;
  OperatorSpan& operator=(const OperatorSpan&) = delete;

  bool active() const { return profile_ != nullptr; }

  void SetDetail(std::string detail);
  void SetRowsIn(uint64_t rows) { if (active()) Mutable().rows_in = rows; }
  void SetRowsOut(uint64_t rows) { if (active()) Mutable().rows_out = rows; }
  void SetEstimatedRows(double rows) {
    if (active()) Mutable().estimated_rows = rows;
  }

  /// Records a scan's planner estimate and what its pruning pass did
  /// (see Span's storage fields).
  void SetStorage(uint64_t estimated_bytes, uint64_t row_groups_skipped,
                  uint64_t partitions_skipped) {
    if (!active()) return;
    Span& span = Mutable();
    span.storage_bytes_estimated = estimated_bytes;
    span.row_groups_skipped = row_groups_skipped;
    span.partitions_skipped = partitions_skipped;
  }

  /// Closes the span early (e.g. to exclude result post-processing).
  void Close();

 private:
  Span& Mutable() { return profile_->span(id_); }

  QueryProfile* profile_ = nullptr;
  const cluster::CostModel* cost_ = nullptr;
  int32_t id_ = -1;
  cluster::ExecutionCounters open_counters_;
  double wall_millis_ = 0;
  ScopedTimer timer_{&wall_millis_};
};

}  // namespace prost::obs

#endif  // PROST_OBS_TRACE_H_
