#ifndef PROST_CORE_VP_STORE_H_
#define PROST_CORE_VP_STORE_H_

#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "columnar/buffer_pool.h"
#include "columnar/paged_table.h"
#include "columnar/table.h"
#include "common/status.h"
#include "core/pattern_term.h"
#include "core/scan_support.h"
#include "engine/exec_context.h"
#include "engine/relation.h"
#include "rdf/graph.h"

namespace prost::core {

/// Vertical Partitioning storage (§3.1): one two-column (subject, object)
/// table per distinct predicate, each hash-partitioned on the subject
/// across workers. This is the storage model of SPARQLGX and the base
/// layer of both S2RDF and PRoST.
///
/// Partitions are stored the way PRoST stores Parquet (DESIGN.md §15):
/// row groups of encoded column chunks with min/max zone maps, plus a
/// bloom filter over the subject column. Scans decode chunks through a
/// columnar::BufferPool, which with a zero budget keeps every decoded
/// chunk resident after first use.
class VpStore {
 public:
  /// One predicate's table, split across workers.
  struct PredicateTable {
    /// partitions[w]: the (s, o) rows placed on worker `w`.
    std::vector<columnar::PagedTable> partitions;
    /// Serialized-size estimate per partition (cost-model scan charge).
    std::vector<uint64_t> partition_bytes;
    uint64_t total_rows = 0;

    /// Sum of partition_bytes: the planner-visible size of a full scan.
    uint64_t bytes() const {
      return std::accumulate(partition_bytes.begin(), partition_bytes.end(),
                             uint64_t{0});
    }
  };

  VpStore() = default;
  VpStore(const VpStore&) = delete;
  VpStore& operator=(const VpStore&) = delete;
  VpStore(VpStore&&) = default;
  VpStore& operator=(VpStore&&) = default;

  /// Builds VP tables from an encoded graph (one pass, grouped by
  /// predicate, subject-hash partitioned over `num_workers`) in row
  /// groups of `row_group_rows` rows (0 = columnar::kRowGroupSize).
  /// Scans decode through `pool`, which must outlive the store.
  static VpStore Build(const rdf::EncodedGraph& graph, uint32_t num_workers,
                       columnar::BufferPool& pool,
                       uint32_t row_group_rows = 0);

  /// Assembles a store from already-built tables (reopening a persisted
  /// database); `pool` as for Build.
  static VpStore Assemble(uint32_t num_workers,
                          std::map<rdf::TermId, PredicateTable> tables,
                          columnar::BufferPool& pool);

  /// Packs one predicate's per-worker (s, o) tables into a
  /// PredicateTable: lexical size estimates from `term_lengths`
  /// (rdf::Dictionary::TermLengths), then row groups of `row_group_rows`.
  /// The decoded `partitions` are freed when it returns.
  static PredicateTable PackTable(
      std::vector<columnar::StoredTable> partitions,
      const std::vector<uint32_t>& term_lengths, uint32_t row_group_rows);

  /// The table for `predicate`, or nullptr when the predicate does not
  /// occur in the dataset.
  const PredicateTable* Find(rdf::TermId predicate) const;

  /// The planner-visible size of a Scan over `predicate` — exactly the
  /// `Relation::PlannerBytes` the scan output will carry (0 for unknown
  /// predicates). Lets the plan-time optimizer resolve join strategies
  /// from the same numbers the runtime would use.
  uint64_t ScanPlannerBytes(rdf::TermId predicate) const;

  /// Evaluates one triple pattern against the predicate's VP table,
  /// producing a distributed relation over the pattern's variables.
  /// Charges scan bytes and CPU rows to `cost` (inside the caller's
  /// stage). Unknown predicates and impossible constants produce an empty
  /// relation with the right columns. A parallel `exec` scans morsels of
  /// exec->morsel_rows() rows concurrently, merged in row order (output
  /// bit-identical to serial); all cost charges stay on the calling
  /// thread.
  ///
  /// Row groups whose zone maps exclude a constant term or an equality
  /// `hint`, and partitions whose key bloom filter excludes a constant
  /// subject, are skipped before decode — the query result is unchanged
  /// because skipped rows could only have been removed by the pattern
  /// constants / pushed filters anyway. Skips reduce the scan's cost
  /// charge; a scan that skips nothing charges exactly the planner's
  /// size. What the scan did is reported through `telemetry` when given.
  Result<engine::Relation> Scan(rdf::TermId predicate,
                                const PatternTerm& subject,
                                const PatternTerm& object,
                                cluster::CostModel& cost,
                                const engine::ExecContext* exec = nullptr,
                                const ScanHints* hints = nullptr,
                                ScanTelemetry* telemetry = nullptr) const;

  /// Same evaluation over an arbitrary (s, o) PredicateTable — also used
  /// for S2RDF's ExtVP reductions, which share the VP layout. A null
  /// `table` stands for an absent predicate (empty answer, no scan).
  /// `pool` decodes the table's chunks.
  static Result<engine::Relation> ScanTable(
      const PredicateTable* table, const PatternTerm& subject,
      const PatternTerm& object, uint32_t num_workers,
      columnar::BufferPool& pool, cluster::CostModel& cost,
      const engine::ExecContext* exec = nullptr,
      const ScanHints* hints = nullptr, ScanTelemetry* telemetry = nullptr);

  /// Builds a PredicateTable directly from (subject, object) pairs,
  /// subject-hash partitioned (S2RDF ExtVP construction). `term_lengths`
  /// (rdf::Dictionary::TermLengths) drives the lexical size estimates.
  static PredicateTable BuildTable(
      const std::vector<std::pair<rdf::TermId, rdf::TermId>>& rows,
      uint32_t num_workers, const std::vector<uint32_t>& term_lengths,
      uint32_t row_group_rows = 0);

  uint32_t num_workers() const { return num_workers_; }
  size_t num_predicates() const { return tables_.size(); }
  const std::map<rdf::TermId, PredicateTable>& tables() const {
    return tables_;
  }

  /// Sum of serialized-size estimates over all tables.
  uint64_t TotalBytesEstimate() const;

  /// Persists every partition as a lexical (Parquet-like) file under
  /// `dir`, named vp_<predicateId>_p<worker>.tbl.
  Status WriteTo(const std::string& dir,
                 const rdf::Dictionary& dictionary) const;

 private:
  uint32_t num_workers_ = 0;
  std::map<rdf::TermId, PredicateTable> tables_;
  columnar::BufferPool* pool_ = nullptr;  // Non-owning.
};

}  // namespace prost::core

#endif  // PROST_CORE_VP_STORE_H_
