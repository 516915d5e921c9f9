// Paged-storage differential harness (DESIGN.md §15).
//
// Every store decodes its row groups through a buffer pool, and the pool
// budget, row-group size and thread count must be invisible to query
// semantics: every WatDiv basic query returns a relation *bit-identical*
// (chunk layout, row order, columns) to the unbounded serial store,
// whose F, L and S answers are in turn checked against the brute-force
// reference evaluator. On top of identity, the harness checks that
// bounded pools actually page (pins, misses, evictions under a tight
// budget), that pruning actually skips (zone-map row groups on the
// constant-heavy queries, bloom-filtered partitions on point-subject
// lookups), that a scan which skips nothing charges exactly the
// planner's estimate, and that EXPLAIN ANALYZE surfaces the skips.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "columnar/buffer_pool.h"
#include "core/prost_db.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "reference_evaluator.h"
#include "sparql/parser.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace prost {
namespace {

using SharedGraph = std::shared_ptr<const rdf::EncodedGraph>;

/// Small row groups so the 40k-triple partitions split into many pages:
/// real eviction traffic and real zone-map granularity at test scale.
constexpr uint32_t kTestRowGroupRows = 512;

/// A mixed store with the reverse PT. `pool_bytes` = 0 is unbounded;
/// `row_group_rows` = 0 is columnar::kRowGroupSize.
std::unique_ptr<core::ProstDb> MakeDb(const SharedGraph& graph,
                                      uint64_t pool_bytes,
                                      uint32_t num_threads,
                                      uint32_t row_group_rows) {
  core::ProstDb::Options options;
  options.use_reverse_property_table = true;
  options.exec.num_threads = num_threads;
  options.storage.buffer_pool_bytes = pool_bytes;
  options.storage.row_group_rows = row_group_rows;
  auto db = core::ProstDb::LoadFromSharedGraph(graph, options);
  EXPECT_TRUE(db.ok()) << db.status();
  return db.ok() ? std::move(db).value() : nullptr;
}

/// Bit-identity: same column names, same chunk count, and every chunk's
/// every column is the same vector — row order included.
void ExpectBitIdentical(const engine::Relation& actual,
                        const engine::Relation& expected,
                        const std::string& context) {
  ASSERT_EQ(actual.column_names(), expected.column_names()) << context;
  ASSERT_EQ(actual.num_chunks(), expected.num_chunks()) << context;
  for (uint32_t w = 0; w < expected.num_chunks(); ++w) {
    const engine::RelationChunk& a = actual.chunks()[w];
    const engine::RelationChunk& e = expected.chunks()[w];
    ASSERT_EQ(a.columns.size(), e.columns.size()) << context << ", chunk " << w;
    for (size_t c = 0; c < e.columns.size(); ++c) {
      EXPECT_EQ(a.columns[c], e.columns[c])
          << context << ", chunk " << w << ", column "
          << expected.column_names()[c];
    }
  }
}

/// `query` with its BGP patterns reordered so that each one shares a
/// variable with an earlier one where it can. A BGP's answers do not
/// depend on pattern order, but the brute-force evaluator backtracks in
/// the order given, and a disconnected prefix (L1's caption pattern)
/// would make it enumerate a cross product.
sparql::Query ConnectedOrder(sparql::Query query) {
  std::vector<sparql::TriplePattern> rest = std::move(query.bgp.patterns);
  query.bgp.patterns.clear();
  std::set<std::string> bound;
  auto terms = [](const sparql::TriplePattern& p) {
    return std::array<const rdf::Term*, 3>{&p.subject, &p.predicate,
                                           &p.object};
  };
  while (!rest.empty()) {
    auto next = std::find_if(rest.begin(), rest.end(), [&](const auto& p) {
      for (const rdf::Term* t : terms(p)) {
        if (t->is_variable() && bound.count(t->value) > 0) return true;
      }
      return false;
    });
    if (next == rest.end()) next = rest.begin();
    for (const rdf::Term* t : terms(*next)) {
      if (t->is_variable()) bound.insert(t->value);
    }
    query.bgp.patterns.push_back(std::move(*next));
    rest.erase(next);
  }
  return query;
}

/// The no-skip charge invariant: every scan span whose pruning skipped
/// nothing charged exactly the planner's estimate of the same scan.
/// Returns how many scan spans it checked.
size_t ExpectUnprunedScansChargeEstimate(const core::ProstDb& db,
                                         const sparql::Query& query,
                                         const std::string& context) {
  obs::QueryProfile profile;
  auto result = db.Execute(query, &profile);
  EXPECT_TRUE(result.ok()) << context << ": " << result.status();
  size_t checked = 0;
  for (const obs::Span& span : profile.spans()) {
    if (span.kind != obs::SpanKind::kScan || span.row_groups_skipped != 0 ||
        span.partitions_skipped != 0) {
      continue;
    }
    EXPECT_EQ(span.bytes_scanned, span.storage_bytes_estimated)
        << context << ": " << span.label;
    ++checked;
  }
  return checked;
}

/// Store variants the invariant runs over.
std::vector<std::pair<std::string, core::ProstDb::Options>> StoreVariants() {
  core::ProstDb::Options mixed;
  core::ProstDb::Options vp_only;
  vp_only.use_property_table = false;
  core::ProstDb::Options reverse_pt;
  reverse_pt.use_reverse_property_table = true;
  return {{"mixed", mixed}, {"VP-only", vp_only}, {"reverse-PT", reverse_pt}};
}

class PagedScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    watdiv::WatDivConfig config;
    config.target_triples = 40000;
    config.seed = 7;
    watdiv::WatDivDataset dataset = watdiv::Generate(config);
    dataset.graph.SortAndDedupe();
    graph_ =
        std::make_shared<const rdf::EncodedGraph>(std::move(dataset.graph));
    watdiv::WatDivDataset sizing_only;  // Queries depend only on IRIs.
    queries_ = watdiv::BasicQuerySet(sizing_only);
    baseline_ = MakeDb(graph_, /*pool_bytes=*/0, /*num_threads=*/1,
                       /*row_group_rows=*/0);
  }

  static void TearDownTestSuite() {
    baseline_.reset();
    graph_.reset();
  }

  static SharedGraph graph_;
  static std::vector<watdiv::WatDivQuery> queries_;
  static std::unique_ptr<core::ProstDb> baseline_;
};

SharedGraph PagedScanTest::graph_;
std::vector<watdiv::WatDivQuery> PagedScanTest::queries_;
std::unique_ptr<core::ProstDb> PagedScanTest::baseline_;

TEST_F(PagedScanTest, BaselineMatchesReferenceOnAllQueries) {
  ASSERT_NE(baseline_, nullptr);
  size_t checked = 0;
  // In connected order the brute-force evaluator is cheap on all 20
  // queries at this scale: about 2 s in total on a 4-vCPU VM with an -O2
  // build, the slowest being C3 (0.8 s) and C2 (0.4 s).
  for (const watdiv::WatDivQuery& wq : queries_) {
    auto parsed = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(parsed.ok()) << wq.id << ": " << parsed.status();
    auto result = baseline_->Execute(*parsed);
    ASSERT_TRUE(result.ok()) << wq.id << ": " << result.status();
    ASSERT_EQ(result->relation.column_names(), parsed->EffectiveProjection())
        << wq.id;
    EXPECT_EQ(result->relation.CollectSortedRows(),
              testing::ReferenceEvaluate(ConnectedOrder(*parsed), *graph_))
        << wq.id;
    ++checked;
  }
  EXPECT_EQ(checked, 20u);
}

TEST_F(PagedScanTest, BitIdenticalAcrossBudgetsAndThreadCounts) {
  ASSERT_EQ(queries_.size(), 20u);
  ASSERT_NE(baseline_, nullptr);
  const uint64_t footprint = baseline_->load_report().storage_bytes;
  ASSERT_GT(footprint, 0u);

  // Budgets: unbounded (0), a quarter of the columnar footprint (the
  // bounded-memory CI point), and far below any single partition (every
  // scan must page its own working set in and out).
  for (uint64_t budget : {uint64_t{0}, footprint / 4, uint64_t{4096}}) {
    for (uint32_t threads : {1u, 8u}) {
      for (uint32_t group_rows : {0u, kTestRowGroupRows}) {
        auto db = MakeDb(graph_, budget, threads, group_rows);
        ASSERT_NE(db, nullptr);
        for (const watdiv::WatDivQuery& wq : queries_) {
          auto parsed = sparql::ParseQuery(wq.sparql);
          ASSERT_TRUE(parsed.ok()) << wq.id << ": " << parsed.status();
          auto expected = baseline_->Execute(*parsed);
          auto actual = db->Execute(*parsed);
          ASSERT_TRUE(expected.ok()) << wq.id << ": " << expected.status();
          ASSERT_TRUE(actual.ok()) << wq.id << ": " << actual.status();
          ExpectBitIdentical(
              actual->relation, expected->relation,
              wq.id + " @ budget " + std::to_string(budget) + ", " +
                  std::to_string(threads) + " threads, row groups of " +
                  std::to_string(group_rows));
        }
      }
    }
  }
}

TEST_F(PagedScanTest, TinyBudgetActuallyPagesAndEvicts) {
  ASSERT_NE(baseline_, nullptr);
  // 4 KiB is smaller than any 512-row id column (512 * 8 bytes), so no
  // two pages fit: the pool must stream every scan through evictions.
  auto paged =
      MakeDb(graph_, /*pool_bytes=*/4096, /*num_threads=*/1, kTestRowGroupRows);
  ASSERT_NE(paged, nullptr);
  for (const watdiv::WatDivQuery& wq : queries_) {
    auto parsed = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(parsed.ok()) << wq.id;
    ASSERT_TRUE(paged->Execute(*parsed).ok()) << wq.id;
  }
  obs::MetricsSnapshot snapshot = paged->metrics().Snapshot();
  EXPECT_GT(snapshot.counter("storage.pages_pinned"), 0u);
  EXPECT_GT(snapshot.counter("storage.page_misses"), 0u);
  EXPECT_GT(snapshot.counter("storage.evictions"), 0u);
  EXPECT_GT(snapshot.counter("storage.bytes_scanned"), 0u);

  ASSERT_NE(paged->buffer_pool(), nullptr);
  columnar::BufferPool::Stats stats = paged->buffer_pool()->GetStats();
  EXPECT_EQ(stats.pinned_pages, 0u) << "pins leaked past query end";
  EXPECT_LE(stats.resident_bytes, 4096u) << "budget not enforced at rest";
}

TEST_F(PagedScanTest, ConstantQueriesSkipRowGroupsViaZoneMaps) {
  ASSERT_NE(baseline_, nullptr);
  auto paged =
      MakeDb(graph_, /*pool_bytes=*/0, /*num_threads=*/1, kTestRowGroupRows);
  ASSERT_NE(paged, nullptr);
  for (const watdiv::WatDivQuery& wq : queries_) {
    auto parsed = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(parsed.ok()) << wq.id;
    ASSERT_TRUE(paged->Execute(*parsed).ok()) << wq.id;
  }
  obs::MetricsSnapshot snapshot = paged->metrics().Snapshot();
  // The workload is rich in constant objects (C/S/F classes): zone maps
  // must prune at least some row groups, or skipping is dead code.
  EXPECT_GT(snapshot.counter("storage.row_groups_skipped_zonemap"), 0u);
}

TEST_F(PagedScanTest, PointSubjectLookupSkipsPartitionsViaBloom) {
  ASSERT_NE(baseline_, nullptr);
  auto paged =
      MakeDb(graph_, /*pool_bytes=*/0, /*num_threads=*/1, kTestRowGroupRows);
  ASSERT_NE(paged, nullptr);

  // A constant-subject point lookup: the subject lives in exactly one
  // subject-hash partition, so the other workers' key blooms must
  // reject their partitions without decoding a single page.
  const rdf::EncodedTriple& triple = graph_->triples().front();
  sparql::Query query;
  sparql::TriplePattern pattern;
  pattern.subject = *graph_->dictionary().DecodeTerm(triple.subject);
  pattern.predicate = *graph_->dictionary().DecodeTerm(triple.predicate);
  pattern.object = rdf::Term::Variable("o");
  query.bgp.patterns.push_back(std::move(pattern));

  auto expected = baseline_->Execute(query);
  auto actual = paged->Execute(query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_TRUE(actual.ok()) << actual.status();
  ExpectBitIdentical(actual->relation, expected->relation, "point lookup");
  EXPECT_GT(actual->relation.TotalRows(), 0u);

  obs::MetricsSnapshot snapshot = paged->metrics().Snapshot();
  EXPECT_GT(snapshot.counter("storage.partitions_skipped_bloom"), 0u);
}

TEST_F(PagedScanTest, ExplainAnalyzeReportsBytesAndSkips) {
  ASSERT_NE(baseline_, nullptr);
  auto paged =
      MakeDb(graph_, /*pool_bytes=*/0, /*num_threads=*/1, kTestRowGroupRows);
  ASSERT_NE(paged, nullptr);

  // Find a query whose execution skips row groups, and check the report
  // line carries the storage clause.
  bool found = false;
  for (const watdiv::WatDivQuery& wq : queries_) {
    auto parsed = sparql::ParseQuery(wq.sparql);
    ASSERT_TRUE(parsed.ok()) << wq.id;
    obs::QueryProfile profile;
    auto result = paged->Execute(*parsed, &profile);
    ASSERT_TRUE(result.ok()) << wq.id << ": " << result.status();
    std::string report = obs::ExplainAnalyze(profile);
    if (report.find("skipped=") == std::string::npos) continue;
    EXPECT_NE(report.find("bytes="), std::string::npos) << report;
    found = true;
    break;
  }
  EXPECT_TRUE(found)
      << "no WatDiv query produced an EXPLAIN ANALYZE skip clause";
}

TEST_F(PagedScanTest, UnprunedScansChargeThePlannerEstimate) {
  size_t checked = 0;
  for (const auto& [name, options] : StoreVariants()) {
    for (uint32_t group_rows : {0u, kTestRowGroupRows}) {
      core::ProstDb::Options variant = options;
      variant.storage.row_group_rows = group_rows;
      auto db = core::ProstDb::LoadFromSharedGraph(graph_, variant);
      ASSERT_TRUE(db.ok()) << db.status();
      for (const watdiv::WatDivQuery& wq : queries_) {
        auto parsed = sparql::ParseQuery(wq.sparql);
        ASSERT_TRUE(parsed.ok()) << wq.id;
        checked += ExpectUnprunedScansChargeEstimate(
            **db, *parsed,
            wq.id + " on " + name + ", row groups of " +
                std::to_string(group_rows));
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(ScanChargeTest, EmptyPartitionsChargeThePlannerEstimate) {
  // <rare> has two subjects against nine workers, so most of its VP
  // partitions (and some PT partitions) hold no rows at all.
  const char* ntriples =
      "<a> <rare> <x> .\n"
      "<b> <rare> <y> .\n"
      "<a> <name> \"ann\" .\n"
      "<b> <name> \"bob\" .\n"
      "<c> <name> \"cat\" .\n"
      "<d> <name> \"dan\" .\n"
      "<x> <label> \"ex\" .\n";
  size_t checked = 0;
  for (const auto& [name, options] : StoreVariants()) {
    ASSERT_GT(options.cluster.num_workers, 2u);
    auto db = core::ProstDb::LoadFromNTriples(ntriples, options);
    ASSERT_TRUE(db.ok()) << db.status();
    for (const char* text : {
             "SELECT * WHERE { ?s <rare> ?o . }",
             "SELECT * WHERE { ?s <rare> ?o . ?s <name> ?n . }",
             "SELECT * WHERE { ?s <rare> ?o . ?o <label> ?l . }",
             "SELECT * WHERE { ?s <rare> <x> . }",
         }) {
      auto query = sparql::ParseQuery(text);
      ASSERT_TRUE(query.ok()) << text;
      checked += ExpectUnprunedScansChargeEstimate(
          **db, *query, std::string(text) + " on " + name);
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(PagedPersistenceTest, RoundTripWithPagingOnBothSides) {
  core::ProstDb::Options options;
  options.storage.buffer_pool_bytes = 1 << 16;
  options.storage.row_group_rows = 4;
  auto db = core::ProstDb::LoadFromNTriples(
      "<u1> <likes> <p1> .\n"
      "<u1> <likes> <p2> .\n"
      "<u1> <age> \"30\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "<u2> <likes> <p1> .\n"
      "<u3> <likes> <p2> .\n"
      "<p1> <label> \"x\" .\n"
      "<p2> <label> \"y\" .\n",
      options);
  ASSERT_TRUE(db.ok()) << db.status();

  std::string dir = ::testing::TempDir() + "/prost_paged_roundtrip";
  ASSERT_TRUE((*db)->PersistTo(dir).ok());

  // Reopen paged with a different (tiny) budget: the lexical files on
  // disk are representation-agnostic, so decoded results must agree.
  core::ProstDb::Options reopen_options;
  reopen_options.storage.buffer_pool_bytes = 4096;
  reopen_options.storage.row_group_rows = 2;
  auto reopened = core::ProstDb::OpenFrom(dir, reopen_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_NE((*reopened)->buffer_pool(), nullptr);

  for (const char* text : {
           "SELECT * WHERE { ?u <likes> ?p . ?p <label> ?l . }",
           "SELECT * WHERE { ?u <likes> ?p . ?u <age> ?a . }",
           "SELECT ?u WHERE { ?u <likes> ?p . FILTER(?p != <p2>) }",
       }) {
    auto query = sparql::ParseQuery(text);
    ASSERT_TRUE(query.ok());
    auto original = (*db)->Execute(*query);
    auto restored = (*reopened)->Execute(*query);
    ASSERT_TRUE(original.ok()) << original.status();
    ASSERT_TRUE(restored.ok()) << text << ": " << restored.status();
    auto original_rows = (*db)->DecodeRows(original->relation);
    auto restored_rows = (*reopened)->DecodeRows(restored->relation);
    ASSERT_TRUE(original_rows.ok());
    ASSERT_TRUE(restored_rows.ok());
    EXPECT_EQ(*original_rows, *restored_rows) << text;
  }
}

}  // namespace
}  // namespace prost
