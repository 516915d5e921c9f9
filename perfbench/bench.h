#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the wall-clock benchmark (overview in main.cc): the
// workloads' query catalogs and op streams, the output checks, and the
// span recorder of the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/prost_db.h"
#include "engine/relation.h"
#include "obs/trace.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace perfbench {

using prost::core::ProstDb;

// ---------------------------------------------------------------- time

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------- queries

// One distinct query text a workload sends.
struct QueryText {
  std::string sparql;
  std::string target;  // "/sparql?query=<percent-encoded sparql>"
  size_t template_index = 0;  // into the 20 WatDiv basic templates
};

// Every distinct text a run sends, interned in first-use order.
class Catalog {
 public:
  explicit Catalog(std::vector<prost::watdiv::WatDivQuery> templates)
      : templates_(std::move(templates)) {}

  size_t Intern(std::string sparql, size_t template_index);

  const QueryText& text(size_t i) const { return texts_[i]; }
  size_t size() const { return texts_.size(); }
  const std::vector<prost::watdiv::WatDivQuery>& templates() const {
    return templates_;
  }
  const std::string& template_id(size_t text_index) const {
    return templates_[texts_[text_index].template_index].id;
  }

 private:
  std::vector<prost::watdiv::WatDivQuery> templates_;
  std::vector<QueryText> texts_;
  std::unordered_map<std::string, size_t> index_;
};

// Deterministic op streams: op k of a run maps to one text, from the
// seed and k alone, so any number of clients can draw from one stream.
//
//  * ClassMixTemplate: rounds of 10 class slots in a seeded order, one
//    slot per unit of class weight in the serving mix of
//    tests/random_workload.h (C1:F2:L4:S3); each class cycles through
//    its templates in a seeded order per cycle. Ops 30c..30c+29 hold C1,
//    C2 and C3 once each, so the heavy templates' share of any window is
//    exact to about one op.
//  * RoundTemplate: rounds of the 20 templates, each round in a seeded order.
size_t ClassMixTemplate(const Catalog& catalog, uint64_t seed, uint64_t k);
// Ops of a ClassMixTemplate stream in which every template appears.
uint64_t ClassMixPeriod(const Catalog& catalog);
size_t RoundTemplate(uint64_t seed, uint64_t k, size_t num_templates);

// Instantiates template `t` for op k of a RoundTemplate stream: every
// constant becomes an entity of its type, named by the watdiv::*Iri(i)
// functions. Ranks are drawn log-uniformly over the dataset's entity count
// (popular entities are asked about more often) and stratified: every
// `strata` consecutive rounds draw once from each of `strata` equal
// slices of log-rank, one slice per round for all its templates, in a
// seeded order. Runs with different seeds then hold the same spread of
// popular and rare constants, and so of heavy and light rounds.
std::string InstantiateTemplate(const Catalog& catalog, size_t t,
                                const prost::watdiv::WatDivSizing& sizing,
                                uint64_t seed, uint64_t k, uint64_t strata);

// -------------------------------------------------------------- checks

// Order-independent fingerprint of a result: row count plus a multiset
// hash over rows keyed by column name (so stores that order columns or
// rows differently agree).
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintOf(const prost::engine::Relation& relation);

// Fast hash of a response body (word-at-a-time).
uint64_t HashBody(std::string_view body);

// Row-for-row check of a JSON response (SparqlResultWriter::ParseJson)
// against ProstDb::DecodeRows of the same result computed in process:
// same variables, same rows in the same order. Returns "" or what differs.
std::string CompareJsonRows(std::string_view body, const ProstDb& db,
                            const prost::engine::Relation& relation);

// ------------------------------------------------------------ tracing

// One span of the traced run, in milliseconds since the run's origin.
// start_ms < 0 marks a span copied from an obs::QueryProfile, which
// records durations but not start times.
struct SpanRecord {
  std::string name;
  double start_ms = 0;
  double dur_ms = 0;
  int32_t parent = -1;  // index into the op's spans, -1 = the op itself
  uint64_t op = 0;
};

// The spans of one op, recorded by the thread that runs it.
class OpSpans {
 public:
  OpSpans(uint64_t op, Clock::time_point origin)
      : op_(op), origin_(origin) {}

  int32_t Open(std::string name, int32_t parent);
  void Close(int32_t id);

  // Copies an execution profile's span tree under `parent`, one span per
  // profile span, named by layer (see LayerOfSpanKind in support.cc).
  void AddProfile(const prost::obs::QueryProfile& profile, int32_t parent);

  double Duration(int32_t id) const {
    return spans_[static_cast<size_t>(id)].dur_ms;
  }
  // Per span name: duration minus the part its children cover.
  std::map<std::string, double> SelfTimes() const;
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  double Now() const { return MillisBetween(origin_, Clock::now()); }
  // A finished span of known duration and unknown start.
  int32_t AddDuration(std::string name, double millis, int32_t parent);

  uint64_t op_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
