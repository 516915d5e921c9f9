#ifndef PROST_CORE_MODIFIERS_H_
#define PROST_CORE_MODIFIERS_H_

#include <memory>
#include <vector>

#include "cluster/cost_model.h"
#include "common/status.h"
#include "engine/exec_context.h"
#include "engine/relation.h"
#include "rdf/dictionary.h"
#include "sparql/algebra.h"

namespace prost::core {

/// Row-level FILTER and ORDER BY evaluation with SPARQL comparison
/// semantics. Comparison follows SPARQL's operator mapping
/// pragmatically: numeric when both sides are numeric literals
/// (xsd integer/decimal/double/float), term equality for `=`/`!=`
/// otherwise, and lexical-form ordering for `<`/`<=`/`>`/`>=` on
/// non-numeric terms.
///
/// One evaluator holds one memoizing id → comparison-key cache over the
/// shared dictionary, reused across every filter and sort key of a
/// query. Not thread-safe; emits no spans of its own (callers wrap each
/// call in the span naming their plan node).
class FilterEvaluator {
 public:
  explicit FilterEvaluator(const rdf::Dictionary& dictionary);
  ~FilterEvaluator();
  FilterEvaluator(const FilterEvaluator&) = delete;
  FilterEvaluator& operator=(const FilterEvaluator&) = delete;

  /// Applies one FILTER constraint row by row. Preserves hash
  /// partitioning and the planner size (Spark 2.1 static planning:
  /// filters do not discount sizeInBytes), so a filter pushed below a
  /// join never flips the join strategy the planner resolved.
  Result<engine::Relation> ApplyFilter(const engine::Relation& input,
                                       const sparql::FilterConstraint& filter,
                                       cluster::CostModel& cost);

  /// Driver-side stable ORDER BY (like Spark's collect for ordered
  /// results), materializing the sorted rows into chunk 0.
  Result<engine::Relation> ApplyOrderBy(
      engine::Relation relation, const std::vector<sparql::OrderKey>& keys,
      cluster::CostModel& cost);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// True when `filter` pins its variable to exactly one stored term id —
/// i.e. it is `?var = <non-numeric constant>` — making it usable as a
/// scan pruning hint (core::ScanEqualityHint). `*id` receives the
/// constant's dictionary id, or rdf::kNullTermId when the constant is
/// not interned (then no stored row can satisfy the filter at all).
///
/// Numeric-literal constants never qualify: SPARQL numeric equality is
/// value-based ("1"^^xsd:integer equals "01"^^xsd:integer under a
/// different id), so rows with other ids could still pass the filter.
bool FilterEqualityPruneId(const sparql::FilterConstraint& filter,
                           const rdf::Dictionary& dictionary,
                           rdf::TermId* id);

/// Collapses the solutions to one COUNT / COUNT DISTINCT row carrying a
/// virtual integer id. A non-zero OFFSET slices the single row away, so
/// it folds in here and the plan needs no node after the aggregate.
Result<engine::Relation> ApplyCountAggregate(
    const engine::Relation& relation, const sparql::CountAggregate& count,
    uint64_t offset, cluster::CostModel& cost);

/// Order-preserving DISTINCT on the driver (the engine's distributed
/// DISTINCT would destroy an ORDER BY's ordering); result in chunk 0.
engine::Relation OrderPreservingDistinct(const engine::Relation& relation,
                                         cluster::CostModel& cost);

/// Drops the first `offset` rows in collection order. A free slice: no
/// simulated charge, like engine::Limit.
engine::Relation ApplyOffset(engine::Relation relation, uint64_t offset);

/// Applies a query's FILTER constraints and solution modifiers to a
/// relation of bound variables, in SPARQL evaluation order:
///
///   FILTER → projection → DISTINCT → ORDER BY → OFFSET → LIMIT
///
/// The baseline systems' modifier tail. PRoST itself executes these
/// steps as plan nodes (see plan/planner.h) through the same helpers
/// above, so all systems implement the modifier semantics once.
///
/// ORDER BY materializes the result on the driver (like Spark's collect)
/// into chunk 0, preserving row order for consumers.
///
/// `exec` (nullable) parallelizes the projection only. FILTER evaluation
/// shares a memoizing dictionary cache (not thread-safe), the sort is
/// already a driver-side stable_sort, and DISTINCT/OFFSET/LIMIT are
/// order-sensitive slices — those stay serial by design.
Result<engine::Relation> ApplyFiltersAndModifiers(
    engine::Relation relation, const sparql::Query& query,
    const rdf::Dictionary& dictionary, cluster::CostModel& cost,
    const engine::ExecContext* exec = nullptr);

}  // namespace prost::core

#endif  // PROST_CORE_MODIFIERS_H_
