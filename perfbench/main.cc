// Wall-clock benchmark of the PRoST endpoint.
//
//   prost_perfbench --workload http-mix --seed 7 --seconds 20 --trace 0
//   prost_perfbench --short
//
// Data: WatDiv at 274,865 triples, dataset seed 42, turned into N-Triples
// text by watdiv::ToNTriplesText and loaded with ProstDb::LoadFromNTriples.
// The workload seed picks the op stream and, on vp-plan, the template
// constants. Every workload is a closed loop.
//
//  * http-mix: the default mixed (VP+PT) store behind an in-process
//    net::Server and serve::SessionManager with prost_serverd's defaults
//    (exec threads 1, 4 handlers, max_in_flight 4); 4 keep-alive
//    net::Client connections send GET /sparql for the 20 fixed WatDiv
//    texts in the C1:F2:L4:S3 class mix.
//  * vp-plan: the VP-only store; one caller runs ProstDb::Execute on
//    instantiations of the 20 templates, constants drawn by the seed.
//  * paged-scan: the mixed store with a buffer pool of 1/4 of its storage
//    bytes and exec threads = nproc; one caller runs the 20 fixed texts.
//
// --trace 0 prints the end-to-end metrics. --trace 1 replays the same op
// stream through the public entry points in the order the server calls
// them (parse, translate, build, each pass, plan check, execute,
// serialize, round trip), times each call as a span, and prints per-layer
// self times and the layers' own counters. Outputs are checked in both:
// each distinct text's result is fingerprinted once on a reference store
// (VP only, optimizer passes off, serial), every op is compared against
// it, and over HTTP the first response of each text is compared row for
// row. --short runs every workload for a few ops on a small dataset with
// every check on, plus checks of the checks.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/plan_checker.h"
#include "bench.h"
#include "net/client.h"
#include "net/result_writer.h"
#include "net/server.h"
#include "plan/passes.h"
#include "plan/planner.h"
#include "rdf/graph.h"
#include "reference_evaluator.h"
#include "serve/session_manager.h"
#include "sparql/parser.h"

namespace perfbench {
namespace {

namespace core = prost::core;
namespace net = prost::net;
namespace obs = prost::obs;
namespace plan = prost::plan;
namespace serve = prost::serve;
namespace watdiv = prost::watdiv;
using prost::Result;
using prost::Status;

// ------------------------------------------------------------ settings

constexpr uint64_t kTriples = 274'865;  // the ROADMAP baseline scale
constexpr uint64_t kShortTriples = 20'000;
constexpr uint64_t kDatasetSeed = 42;
// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
constexpr int kHttpConnections = 4;
// The tail percentile has at least this many samples beyond it, and is
// not on a cliff: the samples this many ranks above and below it differ
// by less than this factor (see TailLatency).
constexpr size_t kTailBeyond = 10;
constexpr size_t kTailGuard = 2;
constexpr double kTailCliff = 1.5;
// A traced op's top-level spans must cover its measured time to within
// this share or this many milliseconds, whichever is larger.
constexpr double kCoverShare = 0.05;
constexpr double kCoverFloorMs = 0.25;

enum class Kind { kHttpMix, kVpPlan, kPagedScan };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kHttpMix:
      return "http-mix";
    case Kind::kVpPlan:
      return "vp-plan";
    case Kind::kPagedScan:
      return "paged-scan";
  }
  return "?";
}

struct Flags {
  Kind workload = Kind::kHttpMix;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_mode = false;
  std::string trace_out;  // where the traced run writes its spans
};

// In --short mode a sub-run stops after this many ops instead of a time.
constexpr uint64_t kShortOps = 40;
// Every sub-run measures at least this many samples of each template, so
// the tail percentile can always land inside the slowest template's
// samples, off the cliff below them (see TailLatency).
constexpr uint64_t kMinSamples = kTailBeyond + 1 + kTailGuard;

// When a client stops issuing ops: after the window and min_ops ops (or
// after max_ops ops), and only at a multiple of `round`.
struct StopRule {
  uint64_t min_ops = 0;
  uint64_t max_ops = 0;  // > 0: stop by count, not time
  uint64_t round = 1;

  bool Done(uint64_t k, Clock::time_point deadline) const {
    if (k % round != 0) return false;
    if (max_ops > 0) return k >= max_ops;
    return k >= min_ops && Clock::now() >= deadline;
  }
};

// ------------------------------------------------------------ helpers

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Continued fraction of the regularized incomplete beta function
// (modified Lentz's method).
double BetaFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  auto clamp = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1;
  double d = 1 / clamp(1 - (a + b) * x / (a + 1));
  double h = d;
  for (int m = 1; m <= 10000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a + m2 - 1) * (a + m2));
    d = 1 / clamp(1 + aa * d);
    c = clamp(1 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1));
    d = 1 / clamp(1 + aa * d);
    c = clamp(1 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::fabs(step - 1) < 1e-13) break;
  }
  return h;
}

// I_x(a, b).
double IncompleteBeta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1) / (a + b + 2)) return front * BetaFraction(a, b, x) / a;
  return 1 - front * BetaFraction(b, a, 1 - x) / b;
}

// The Harrell-Davis estimate of the median: a weighted mean of all order
// statistics, the weights a Beta((n+1)/2, (n+1)/2) density over ranks.
// Unlike the sample median it does not jump when the middle of the
// sorted latencies falls between two templates' samples.
double HarrellDavisMedian(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = 0.5 * (n + 1);
  double estimate = 0;
  double below = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double upto = IncompleteBeta(a, a, static_cast<double>(i + 1) / n);
    const double weight = upto - below;
    below = upto;
    if (weight > 0) estimate += weight * values[i];
  }
  return estimate;
}

// The mean of the middle half: a quarter of the values (rounded down) is
// dropped from each end. Robust to a few slow rounds like a median, but it
// does not jump between two clusters of values as a median can.
double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() / 4;
  double sum = 0;
  for (size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

// Samples the resident set every few milliseconds while alive.
class RssSampler {
 public:
  RssSampler() : peak_(ResidentBytes()), thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  uint64_t Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return std::max(peak_.load(), ResidentBytes());
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      const uint64_t now = ResidentBytes();
      uint64_t peak = peak_.load();
      while (now > peak && !peak_.compare_exchange_weak(peak, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_;
  std::thread thread_;
};

uint64_t CounterDelta(const obs::MetricsSnapshot& before,
                      const obs::MetricsSnapshot& after,
                      const std::string& name) {
  return after.counter(name) - before.counter(name);
}

// -------------------------------------------------------------- system

// The store under test and, on http-mix, the endpoint in front of it.
// Members are destroyed server first, then sessions, then the store.
struct System {
  std::unique_ptr<ProstDb> db;
  std::unique_ptr<serve::SessionManager> sessions;
  std::unique_ptr<net::Server> server;

  System() = default;
  ~System() {
    if (server != nullptr) server->Shutdown();
    if (sessions != nullptr) sessions->Shutdown();
  }
  System(const System&) = delete;
  System& operator=(const System&) = delete;
};

// What one traced op learned, besides its spans.
struct TracedOp {
  std::map<std::string, double> self_ms;
  double op_ms = 0;
  double covered_ms = 0;
  double execute_ms = 0;   // the profile's root kQuery span
  double repeat_ms = 0;    // work the replay repeats (see RunTracedOp)
  double transfer_ms = 0;  // round trip minus replayed server-side spans
  prost::cluster::ExecutionCounters counters;
};

// One op of a sub-run.
struct OpRecord {
  uint64_t k = 0;
  size_t text = 0;
  double start_ms = 0;  // since the sub-run's start
  double end_ms = 0;
  bool ok = false;
  bool has_fingerprint = false;  // in-process ops: checked afterwards
  Fingerprint fingerprint;
  uint64_t response_bytes = 0;
  std::string error;
};

// The numbers of one sub-run.
struct SubRun {
  std::vector<OpRecord> ops;
  double window_ms = 0;
  double qps = 0;
  uint64_t peak_rss = 0;
  double sim_query_ms = 0;
  std::map<std::string, uint64_t> counter_deltas;
  // Traced sub-runs only.
  std::vector<TracedOp> traced;
  std::vector<SpanRecord> spans;
};

// ------------------------------------------------------------ the bench

// Metric name -> (value, unit), in print order.
using MetricList =
    std::vector<std::pair<std::string, std::pair<double, const char*>>>;

class Bench {
 public:
  explicit Bench(Flags flags) : flags_(std::move(flags)) {}

  // Builds the data, the reference and the system, runs and prints the
  // result line. An error Status means no result was printed; a failed
  // output check prints correct: false and clears correct().
  Status Run();

  bool correct() const { return correct_; }

 private:
  core::ProstDb::Options WorkloadOptions(uint64_t pool_bytes) const;
  Status SetUp();
  Status SetUpOnce(const core::ProstDb::Options& options, OpSpans* spans);
  Result<Fingerprint> ReferenceFingerprint(size_t text);
  Status WarmUp();
  size_t OpText(uint64_t k);
  // Ops after which the stream has sent every template at least once.
  uint64_t TemplatePeriod() const;
  SubRun Measure(bool traced, double seconds);
  void RunClient(bool traced, const StopRule& stop, Clock::time_point origin,
                 Clock::time_point deadline, std::atomic<uint64_t>* next,
                 std::vector<OpRecord>* ops,
                 std::vector<TracedOp>* traced_ops,
                 std::vector<SpanRecord>* spans);
  void RunOp(net::Client* client, OpRecord* record);
  void RunTracedOp(net::Client* client, Clock::time_point origin,
                   OpRecord* record, TracedOp* traced,
                   std::vector<SpanRecord>* spans);
  void CheckHttpBody(const net::HttpResponseParser::Response& response,
                     OpRecord* record) const;
  void Verify(SubRun* run);
  void Fail(const std::string& what);
  void ReportEndToEnd(const SubRun& run);
  void ReportPerLayer(const SubRun& untraced, const SubRun& traced);
  void PrintResult(uint64_t attempted, uint64_t failed,
                   const MetricList& metrics);
  bool http() const { return flags_.workload == Kind::kHttpMix; }
  bool rounds() const { return !http(); }

  Flags flags_;
  bool correct_ = true;
  uint64_t failures_ = 0;

  watdiv::WatDivSizing sizing_;
  std::string ntriples_;
  std::optional<Catalog> catalog_;
  std::unique_ptr<ProstDb> reference_;
  std::vector<std::optional<Fingerprint>> reference_fp_;
  std::unique_ptr<System> system_;
  std::vector<double> setup_s_;
  std::vector<double> encode_ms_;
  std::vector<double> load_ms_;
  // http-mix: the body every text must come back with.
  std::vector<uint64_t> expected_length_;
  std::vector<uint64_t> expected_hash_;
};

core::ProstDb::Options ReferenceOptions() {
  core::ProstDb::Options options;
  options.use_property_table = false;
  options.passes = plan::PassOptions{false, false, false, false};
  options.exec.num_threads = 1;
  return options;
}

core::ProstDb::Options Bench::WorkloadOptions(uint64_t pool_bytes) const {
  core::ProstDb::Options options;
  options.exec.num_threads = 1;
  switch (flags_.workload) {
    case Kind::kHttpMix:
      break;
    case Kind::kVpPlan:
      options.use_property_table = false;
      break;
    case Kind::kPagedScan:
      options.exec.num_threads =
          std::max<uint32_t>(1, std::thread::hardware_concurrency());
      options.storage.buffer_pool_bytes = pool_bytes;
      break;
  }
  return options;
}

void Bench::Fail(const std::string& what) {
  correct_ = false;
  if (++failures_ <= 20) {
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", what.c_str());
  }
}

Status Bench::SetUpOnce(const core::ProstDb::Options& options,
                        OpSpans* spans) {
  system_.reset();
  auto system = std::make_unique<System>();
  const Clock::time_point start = Clock::now();
  if (spans == nullptr) {
    PROST_ASSIGN_OR_RETURN(system->db,
                           ProstDb::LoadFromNTriples(ntriples_, options));
  } else {
    // LoadFromNTriples is exactly these two calls.
    int32_t encode = spans->Open("rdf.encode", -1);
    auto graph = prost::rdf::EncodeNTriples(ntriples_);
    spans->Close(encode);
    PROST_RETURN_IF_ERROR(graph.status());
    int32_t load = spans->Open("core.load", -1);
    auto db = ProstDb::LoadFromGraph(std::move(graph).value(), options);
    spans->Close(load);
    PROST_ASSIGN_OR_RETURN(system->db, std::move(db));
    encode_ms_.push_back(spans->Duration(encode));
    load_ms_.push_back(spans->Duration(load));
  }
  if (http()) {
    system->sessions = std::make_unique<serve::SessionManager>(
        *system->db, serve::AdmissionOptions{});
    system->server = std::make_unique<net::Server>(*system->sessions,
                                                   net::ServerOptions{});
    PROST_RETURN_IF_ERROR(system->server->Start());
  }
  setup_s_.push_back(MillisBetween(start, Clock::now()) / 1000.0);
  system_ = std::move(system);
  return Status::OK();
}

Status Bench::SetUp() {
  watdiv::WatDivConfig config;
  config.target_triples = flags_.short_mode ? kShortTriples : kTriples;
  config.seed = kDatasetSeed;
  watdiv::WatDivDataset dataset = watdiv::Generate(config);
  sizing_ = dataset.sizing;
  ntriples_ = watdiv::ToNTriplesText(dataset);
  catalog_.emplace(watdiv::BasicQuerySet(dataset));

  PROST_ASSIGN_OR_RETURN(reference_,
                         ProstDb::LoadFromNTriples(ntriples_,
                                                   ReferenceOptions()));

  uint64_t pool_bytes = 0;
  if (flags_.workload == Kind::kPagedScan) {
    // The pool is a quarter of the mixed store's storage bytes, which
    // only a load can tell.
    core::ProstDb::Options sizing_options;
    PROST_ASSIGN_OR_RETURN(auto sizing_db,
                           ProstDb::LoadFromNTriples(ntriples_,
                                                     sizing_options));
    pool_bytes =
        std::max<uint64_t>(1, sizing_db->load_report().storage_bytes / 4);
  }
  const core::ProstDb::Options options = WorkloadOptions(pool_bytes);
  const int repeats = flags_.short_mode ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    OpSpans spans(0, Clock::now());
    PROST_RETURN_IF_ERROR(
        SetUpOnce(options, flags_.trace ? &spans : nullptr));
  }
  if (flags_.workload != Kind::kVpPlan) {
    for (size_t t = 0; t < catalog_->templates().size(); ++t) {
      catalog_->Intern(catalog_->templates()[t].sparql, t);
    }
  }
  return Status::OK();
}

Result<Fingerprint> Bench::ReferenceFingerprint(size_t text) {
  if (reference_fp_.size() <= text) reference_fp_.resize(text + 1);
  if (!reference_fp_[text].has_value()) {
    PROST_ASSIGN_OR_RETURN(
        auto query, prost::sparql::ParseQuery(catalog_->text(text).sparql));
    PROST_ASSIGN_OR_RETURN(auto result, reference_->Execute(query));
    reference_fp_[text] = FingerprintOf(result.relation);
  }
  return *reference_fp_[text];
}

size_t Bench::OpText(uint64_t k) {
  const size_t n = catalog_->templates().size();
  switch (flags_.workload) {
    case Kind::kHttpMix:
      return ClassMixTemplate(*catalog_, flags_.seed, k);
    case Kind::kPagedScan:
      return RoundTemplate(flags_.seed, k, n);
    case Kind::kVpPlan: {
      size_t t = RoundTemplate(flags_.seed, k, n);
      return catalog_->Intern(InstantiateTemplate(*catalog_, t, sizing_,
                                                  flags_.seed, k, kMinSamples),
                              t);
    }
  }
  return 0;
}

uint64_t Bench::TemplatePeriod() const {
  const uint64_t n = catalog_->templates().size();
  if (rounds()) return n;
  return ClassMixPeriod(*catalog_);
}

Status Bench::WarmUp() {
  if (http()) {
    // The first response of each text, row for row against the same
    // query run in process, whose rows must match the reference; later
    // responses must repeat its bytes.
    net::Client client;
    PROST_RETURN_IF_ERROR(
        client.Connect("127.0.0.1", system_->server->port(), 120.0));
    expected_length_.assign(catalog_->size(), 0);
    expected_hash_.assign(catalog_->size(), 0);
    for (size_t t = 0; t < catalog_->size(); ++t) {
      const QueryText& text = catalog_->text(t);
      PROST_ASSIGN_OR_RETURN(auto response, client.Get(text.target));
      if (response.status != 200) {
        Fail(catalog_->template_id(t) + ": HTTP " +
             std::to_string(response.status));
        continue;
      }
      PROST_ASSIGN_OR_RETURN(auto query,
                             prost::sparql::ParseQuery(text.sparql));
      PROST_ASSIGN_OR_RETURN(auto local, system_->db->Execute(query));
      std::string diff =
          CompareJsonRows(response.body, *system_->db, local.relation);
      if (!diff.empty()) Fail(catalog_->template_id(t) + ": " + diff);
      PROST_ASSIGN_OR_RETURN(Fingerprint expected, ReferenceFingerprint(t));
      if (!(FingerprintOf(local.relation) == expected)) {
        Fail(catalog_->template_id(t) + ": rows differ from the reference");
      }
      expected_length_[t] = response.body.size();
      expected_hash_[t] = HashBody(response.body);
    }
    return Status::OK();
  }
  // In process: one round, checked like every op.
  const size_t n = catalog_->templates().size();
  for (uint64_t i = 0; i < n; ++i) {
    // Warm-up ops come from their own part of the stream.
    OpRecord record;
    record.k = std::numeric_limits<uint64_t>::max() - i;
    record.text = OpText(record.k);
    RunOp(nullptr, &record);
    PROST_ASSIGN_OR_RETURN(Fingerprint expected,
                           ReferenceFingerprint(record.text));
    if (!record.ok || !(record.fingerprint == expected)) {
      Fail("warm-up " + catalog_->template_id(record.text) + ": " +
           (record.ok ? "rows differ from the reference" : record.error));
    }
  }
  return Status::OK();
}

void Bench::CheckHttpBody(const net::HttpResponseParser::Response& response,
                          OpRecord* record) const {
  record->response_bytes = response.body.size();
  if (response.status != 200) {
    record->error = "HTTP " + std::to_string(response.status);
  } else if (response.body.size() != expected_length_[record->text] ||
             HashBody(response.body) != expected_hash_[record->text]) {
    record->error = "response body differs from the checked first response";
  } else {
    record->ok = true;
  }
}

void Bench::RunOp(net::Client* client, OpRecord* record) {
  const QueryText& text = catalog_->text(record->text);
  if (client != nullptr) {
    const Clock::time_point start = Clock::now();
    auto response = client->Get(text.target);
    record->end_ms = MillisBetween(start, Clock::now());
    if (!response.ok()) {
      record->error = response.status().ToString();
      return;
    }
    CheckHttpBody(*response, record);
    return;
  }
  const Clock::time_point start = Clock::now();
  auto query = prost::sparql::ParseQuery(text.sparql);
  Result<core::QueryResult> result =
      query.ok() ? system_->db->Execute(*query)
                 : Result<core::QueryResult>(query.status());
  record->end_ms = MillisBetween(start, Clock::now());
  if (!result.ok()) {
    record->error = result.status().ToString();
    return;
  }
  record->ok = true;
  record->has_fingerprint = true;
  record->fingerprint = FingerprintOf(result->relation);
}

// The replay: the server's calls, one span each (see the file comment).
void Bench::RunTracedOp(net::Client* client, Clock::time_point origin,
                        OpRecord* record, TracedOp* traced,
                        std::vector<SpanRecord>* spans) {
  const QueryText& text = catalog_->text(record->text);
  const ProstDb& db = *system_->db;
  OpSpans op(record->k, origin);
  const int32_t root = op.Open("op", -1);
  Status status = Status::OK();
  auto step = [&](const char* name, const std::function<Status()>& call) {
    if (!status.ok()) return;
    int32_t id = op.Open(name, root);
    status = call();
    op.Close(id);
  };

  prost::sparql::Query query;
  core::JoinTree tree;
  plan::PhysicalPlan physical;
  obs::QueryProfile profile;
  Result<core::QueryResult> result = Status::Internal("not executed");
  size_t replayed_bytes = 0;
  std::optional<Result<net::HttpResponseParser::Response>> response;
  const bool verify = db.options().verify_plans;

  step("sparql.parse", [&] {
    PROST_ASSIGN_OR_RETURN(query, prost::sparql::ParseQuery(text.sparql));
    return Status::OK();
  });
  step("core.translate", [&] {
    PROST_ASSIGN_OR_RETURN(tree, db.Plan(query));
    return Status::OK();
  });
  step("plan.build", [&] {
    plan::PlannerInputs inputs;
    inputs.vp = &db.vp_store();
    inputs.property_table = db.property_table();
    PROST_ASSIGN_OR_RETURN(physical, plan::BuildPlan(tree, query, inputs));
    return Status::OK();
  });
  auto check = [&] {
    if (verify) {
      step("analysis.check",
           [&] { return prost::analysis::CheckPhysicalPlan(physical, query); });
    }
  };
  check();
  const plan::PassOptions& enabled = db.options().passes;
  const std::pair<bool, std::unique_ptr<plan::OptimizerPass> (*)()> passes[] = {
      {enabled.filter_pushdown, plan::MakeFilterPushdownPass},
      {enabled.join_order, plan::MakeJoinOrderPass},
      {enabled.resolve_join_strategy, plan::MakeJoinStrategyPass},
      {enabled.early_projection, plan::MakeEarlyProjectionPass},
  };
  for (const auto& [on, make] : passes) {
    if (!on || !status.ok()) continue;
    std::unique_ptr<plan::OptimizerPass> pass = make();
    const std::string name = std::string("plan.") + pass->name();
    step(name.c_str(), [&] {
      plan::PassManager manager;
      manager.AddPass(std::move(pass));
      plan::PassContext context;
      context.join = db.options().join;
      context.cluster = &db.options().cluster;
      context.estimator = &db.estimator();
      return manager.Run(physical, context);
    });
    check();
  }
  int32_t execute = -1;
  if (status.ok()) {
    execute = op.Open("core.execute_call", root);
    result = db.Execute(query, &profile);
    op.Close(execute);
    status = result.status();
  }
  if (client != nullptr) {
    // The body is dropped inside the span, as the server drops its own
    // after writing it; only its size is kept for the check.
    step("net.serialize", [&] {
      PROST_ASSIGN_OR_RETURN(std::string body,
                             net::SparqlResultWriter::Serialize(
                                 db, result->relation,
                                 net::ResultFormat::kJson));
      replayed_bytes = body.size();
      return Status::OK();
    });
    step("net.roundtrip", [&] {
      response = client->Get(text.target);
      return response->status();
    });
  }
  op.Close(root);

  record->end_ms = op.Duration(root);
  if (!status.ok()) {
    record->error = status.ToString();
  } else if (client != nullptr) {
    CheckHttpBody(**response, record);
    if (record->ok && replayed_bytes != expected_length_[record->text]) {
      record->ok = false;
      record->error = "replayed serialization differs in length";
    }
  } else {
    record->ok = true;
  }
  if (result.ok()) {
    record->has_fingerprint = true;
    record->fingerprint = FingerprintOf(result->relation);
    traced->counters = result->counters;
    op.AddProfile(profile, execute);
  }

  traced->self_ms = op.SelfTimes();
  traced->op_ms = op.Duration(root);
  if (!profile.spans().empty()) {
    traced->execute_ms = profile.spans()[profile.root()].wall_millis;
  }
  // The replayed server path: every top-level span but the round trip,
  // with Execute counted for its execution only (its own planning is the
  // second copy of the replayed planning spans).
  double replayed = 0;
  for (const SpanRecord& span : op.spans()) {
    if (span.parent != root) continue;
    traced->covered_ms += span.dur_ms;
    if (span.name != "net.roundtrip") replayed += span.dur_ms;
  }
  const double replanned = traced->self_ms["core.execute_call"];
  // The untraced op is Parse + Execute in process, or the round trip over
  // HTTP; everything else the traced op runs is repeated work.
  traced->repeat_ms = client != nullptr ? replayed : replanned;
  if (client != nullptr && response.has_value()) {
    traced->transfer_ms =
        traced->self_ms["net.roundtrip"] - (replayed - replanned);
  }
  spans->insert(spans->end(), op.spans().begin(), op.spans().end());
}

void Bench::RunClient(bool traced, const StopRule& stop,
                      Clock::time_point origin,
                      Clock::time_point deadline, std::atomic<uint64_t>* next,
                      std::vector<OpRecord>* ops,
                      std::vector<TracedOp>* traced_ops,
                      std::vector<SpanRecord>* spans) {
  std::optional<net::Client> client;
  if (http()) {
    client.emplace();
    Status connected =
        client->Connect("127.0.0.1", system_->server->port(), 120.0);
    if (!connected.ok()) {
      OpRecord record;
      record.error = "connect: " + connected.ToString();
      ops->push_back(record);
      return;
    }
  }
  while (true) {
    const uint64_t k = next->fetch_add(1);
    if (stop.Done(k, deadline)) break;
    OpRecord record;
    record.k = k;
    record.text = OpText(k);
    record.start_ms = MillisBetween(origin, Clock::now());
    if (traced) {
      TracedOp traced_op;
      RunTracedOp(client ? &*client : nullptr, origin, &record, &traced_op,
                  spans);
      traced_ops->push_back(std::move(traced_op));
    } else {
      RunOp(client ? &*client : nullptr, &record);
    }
    record.end_ms += record.start_ms;
    ops->push_back(std::move(record));
  }
}

SubRun Bench::Measure(bool traced, double seconds) {
  SubRun run;
  const ProstDb& db = *system_->db;
  const obs::MetricsSnapshot db_before = db.metrics().Snapshot();
  obs::MetricsSnapshot serve_before;
  obs::MetricsSnapshot net_before;
  if (http()) {
    serve_before = system_->sessions->metrics().Snapshot();
    net_before = system_->server->metrics().Snapshot();
  }
  // Memory the set-up and warm-up freed goes back to the system, so the
  // window's peak is the system's own.
  malloc_trim(0);
  RssSampler rss;
  StopRule stop;
  if (flags_.short_mode) {
    stop.max_ops = kShortOps;
  } else {
    stop.min_ops = kMinSamples * TemplatePeriod();
  }
  stop.round = rounds() ? catalog_->templates().size() : 1;
  const Clock::time_point origin = Clock::now();
  const Clock::time_point deadline =
      origin + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::atomic<uint64_t> next{0};
  if (http()) {
    // Connections share one stream, so its class shares hold exactly.
    std::vector<std::vector<OpRecord>> ops(kHttpConnections);
    std::vector<std::vector<TracedOp>> traced_ops(kHttpConnections);
    std::vector<std::vector<SpanRecord>> spans(kHttpConnections);
    std::vector<std::thread> clients;
    for (int c = 0; c < kHttpConnections; ++c) {
      clients.emplace_back([&, c] {
        RunClient(traced, stop, origin, deadline, &next, &ops[c],
                  &traced_ops[c], &spans[c]);
      });
    }
    for (std::thread& client : clients) client.join();
    for (int c = 0; c < kHttpConnections; ++c) {
      run.ops.insert(run.ops.end(), ops[c].begin(), ops[c].end());
      run.traced.insert(run.traced.end(), traced_ops[c].begin(),
                        traced_ops[c].end());
      run.spans.insert(run.spans.end(), spans[c].begin(), spans[c].end());
    }
  } else {
    RunClient(traced, stop, origin, deadline, &next, &run.ops, &run.traced,
              &run.spans);
  }
  const double end_ms = MillisBetween(origin, Clock::now());
  run.peak_rss = rss.Stop();

  // Throughput. One caller runs whole rounds of the templates: each
  // round's rate is its 20 ops over the time spent in them, and qps is
  // the interquartile mean of the rounds. Connections stop issuing at the
  // end of the window; each op counts by the share of its duration inside
  // it.
  if (http()) {
    double window = stop.max_ops > 0 ? end_ms : seconds * 1000.0;
    for (const OpRecord& op : run.ops) window = std::max(window, op.start_ms);
    double completed = 0;
    for (const OpRecord& op : run.ops) {
      const double dur = op.end_ms - op.start_ms;
      if (op.end_ms <= window) {
        completed += 1;
      } else if (op.start_ms < window && dur > 0) {
        completed += (window - op.start_ms) / dur;
      }
    }
    run.window_ms = window;
    run.qps = completed / (window / 1000.0);
  } else {
    run.window_ms = end_ms;
    std::vector<double> round_qps;
    for (size_t begin = 0; begin + stop.round <= run.ops.size();
         begin += stop.round) {
      double busy_ms = 0;
      for (size_t i = begin; i < begin + stop.round; ++i) {
        busy_ms += run.ops[i].end_ms - run.ops[i].start_ms;
      }
      round_qps.push_back(static_cast<double>(stop.round) / (busy_ms / 1000.0));
    }
    run.qps = InterquartileMean(round_qps);
  }

  const obs::MetricsSnapshot db_after = db.metrics().Snapshot();
  auto histogram = [](const obs::MetricsSnapshot& s) {
    auto it = s.histograms.find("query.simulated_ms");
    return it == s.histograms.end() ? obs::MetricsSnapshot::HistogramData{}
                                    : it->second;
  };
  const auto sim_before = histogram(db_before);
  const auto sim_after = histogram(db_after);
  const uint64_t executed = sim_after.count - sim_before.count;
  run.sim_query_ms =
      executed > 0 ? (sim_after.sum - sim_before.sum) / executed : 0;
  for (const char* name :
       {"storage.pages_pinned", "storage.page_misses", "storage.evictions",
        "storage.row_groups_skipped_zonemap",
        "storage.partitions_skipped_bloom"}) {
    run.counter_deltas[name] = CounterDelta(db_before, db_after, name);
  }
  if (http()) {
    const obs::MetricsSnapshot serve_after =
        system_->sessions->metrics().Snapshot();
    const obs::MetricsSnapshot net_after =
        system_->server->metrics().Snapshot();
    for (const char* name : {"serve.queued", "serve.rejected_total"}) {
      run.counter_deltas[name] = CounterDelta(serve_before, serve_after, name);
    }
    run.counter_deltas["net.requests"] =
        CounterDelta(net_before, net_after, "net.requests");
  }
  Verify(&run);
  return run;
}

void Bench::Verify(SubRun* run) {
  for (OpRecord& op : run->ops) {
    if (!op.ok) {
      Fail("op " + std::to_string(op.k) + " (" +
           catalog_->template_id(op.text) + "): " + op.error);
      continue;
    }
    if (!op.has_fingerprint) continue;
    Result<Fingerprint> expected = ReferenceFingerprint(op.text);
    if (!expected.ok()) {
      Fail("reference for " + catalog_->template_id(op.text) + ": " +
           expected.status().ToString());
      op.ok = false;
    } else if (!(*expected == op.fingerprint)) {
      Fail("op " + std::to_string(op.k) + " (" +
           catalog_->template_id(op.text) + "): " +
           std::to_string(op.fingerprint.rows) + " rows, reference has " +
           std::to_string(expected->rows) + " (or the rows differ)");
      op.ok = false;
    }
  }
}

// ----------------------------------------------------------- reporting

struct Tail {
  double value = 0;
  double percentile = 0;
  size_t index = 0;
};

// The highest percentile with at least kTailBeyond samples beyond it,
// moved down while it sits on a cliff: where the latencies kTailGuard
// ranks above it exceed those kTailGuard ranks below by more than
// kTailCliff, as where one template's samples end and a much faster
// template's begin. Failed ops count as infinitely slow.
Tail TailLatency(const std::vector<OpRecord>& ops) {
  std::vector<double> sorted;
  for (const OpRecord& op : ops) {
    sorted.push_back(op.ok ? op.end_ms - op.start_ms
                           : std::numeric_limits<double>::infinity());
  }
  std::sort(sorted.begin(), sorted.end());
  Tail tail;
  if (sorted.empty()) return tail;
  const size_t n = sorted.size();
  const size_t top = n > kTailBeyond ? n - 1 - kTailBeyond : 0;
  auto on_cliff = [&](size_t at) {
    if (at < kTailGuard || at + kTailGuard >= n) return true;
    return sorted[at + kTailGuard] > kTailCliff * sorted[at - kTailGuard];
  };
  size_t i = top;
  while (i > 0 && on_cliff(i)) --i;
  if (on_cliff(i)) i = top;  // too few samples to leave the cliff
  tail.index = i;
  tail.value = sorted[i];
  tail.percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  return tail;
}

double MedianLatency(const std::vector<OpRecord>& ops) {
  std::vector<double> latencies;
  for (const OpRecord& op : ops) {
    latencies.push_back(op.ok ? op.end_ms - op.start_ms
                              : std::numeric_limits<double>::infinity());
  }
  return HarrellDavisMedian(std::move(latencies));
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void Bench::PrintResult(uint64_t attempted, uint64_t failed,
                        const MetricList& metrics) {
  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " +
          std::to_string(std::max<uint64_t>(1, attempted));
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].first + "\": {\"value\": " +
            JsonNumber(metrics[i].second.first) + ", \"unit\": \"" +
            metrics[i].second.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

uint64_t FailedOps(const std::vector<OpRecord>& ops) {
  uint64_t failed = 0;
  for (const OpRecord& op : ops) failed += op.ok ? 0 : 1;
  return failed;
}

double RepeatedShare(const std::vector<OpRecord>& ops) {
  if (ops.empty()) return 0;
  std::vector<size_t> texts;
  for (const OpRecord& op : ops) texts.push_back(op.text);
  std::sort(texts.begin(), texts.end());
  const size_t distinct =
      std::unique(texts.begin(), texts.end()) - texts.begin();
  return 1.0 - static_cast<double>(distinct) / static_cast<double>(ops.size());
}

// Consecutive ops holding kMinSamples rounds each (the last block takes
// the rest), or all ops when the workload has no rounds.
std::vector<std::vector<OpRecord>> Blocks(const std::vector<OpRecord>& ops,
                                          size_t round) {
  const size_t size = round > 1 ? kMinSamples * round : ops.size();
  const size_t count =
      std::max<size_t>(1, ops.size() / std::max<size_t>(1, size));
  std::vector<std::vector<OpRecord>> blocks(count);
  for (size_t i = 0; i < ops.size(); ++i) {
    blocks[std::min(count - 1, i / size)].push_back(ops[i]);
  }
  return blocks;
}

void Bench::ReportEndToEnd(const SubRun& run) {
  const uint64_t attempted = run.ops.size();
  const uint64_t failed = FailedOps(run.ops);
  // Latencies are taken per block of rounds and reported as the
  // interquartile mean of the blocks, so a slow stretch of a run moves
  // them little.
  const auto blocks =
      Blocks(run.ops, rounds() ? catalog_->templates().size() : 1);
  std::vector<double> block_p50;
  std::vector<double> block_tail;
  Tail tail;
  for (const std::vector<OpRecord>& block : blocks) {
    block_p50.push_back(MedianLatency(block));
    tail = TailLatency(block);
    block_tail.push_back(tail.value);
  }
  const double error_rate =
      attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
  const ProstDb& db = *system_->db;
  MetricList metrics = {
      {"qps", {run.qps, "1/s"}},
      {"latency_p50_ms", {InterquartileMean(block_p50), "ms"}},
      {"latency_tail_ms", {InterquartileMean(block_tail), "ms"}},
      {"setup_s", {Median(setup_s_), "s"}},
      {"peak_rss_mb", {static_cast<double>(run.peak_rss) / 1e6, "MB"}},
      {"storage_mb",
       {static_cast<double>(db.load_report().storage_bytes) / 1e6, "MB"}},
      {"sim_query_ms", {run.sim_query_ms, "ms"}},
  };
  std::printf("workload %s  seed %llu  ops %llu  window %.1f s\n",
              KindName(flags_.workload),
              static_cast<unsigned long long>(flags_.seed),
              static_cast<unsigned long long>(attempted),
              run.window_ms / 1000.0);
  std::printf("  %-18s %14.4f %s\n", "error_rate", error_rate, "ratio");
  for (const auto& [name, value] : metrics) {
    std::printf("  %-18s %14.4f %s\n", name.c_str(), value.first,
                value.second);
  }
  const size_t block_ops = blocks.back().size();
  std::printf("  latencies: interquartile mean of %zu block(s); in the "
              "last block of %zu ops the tail is p%.2f, %zu samples beyond "
              "it\n",
              blocks.size(), block_ops, tail.percentile,
              block_ops - 1 - tail.index);
  std::printf("  sim_query_ms is the paper-reproduction cost model's "
              "simulated time, not a measurement\n");
  std::printf("  repeated-text share %.4f (%zu distinct texts)\n",
              RepeatedShare(run.ops), catalog_->size());
  std::printf("  per template: median ms (ops)\n   ");
  for (size_t t = 0; t < catalog_->templates().size(); ++t) {
    std::vector<OpRecord> of_template;
    for (const OpRecord& op : run.ops) {
      if (catalog_->text(op.text).template_index == t) {
        of_template.push_back(op);
      }
    }
    std::printf(" %s %.3f (%zu)", catalog_->templates()[t].id.c_str(),
                MedianLatency(of_template), of_template.size());
  }
  std::printf("\n");
  std::printf("  setup_s over %zu set-ups:", setup_s_.size());
  for (double s : setup_s_) std::printf(" %.3f", s);
  std::printf("\n");
  PrintResult(attempted, failed, metrics);
}

void Bench::ReportPerLayer(const SubRun& untraced, const SubRun& traced) {
  const double ops =
      static_cast<double>(std::max<size_t>(1, untraced.ops.size()));
  const double traced_ops =
      static_cast<double>(std::max<size_t>(1, traced.traced.size()));
  auto per_op = [&](const std::string& name) {
    auto it = untraced.counter_deltas.find(name);
    return it == untraced.counter_deltas.end()
               ? 0.0
               : static_cast<double>(it->second) / ops;
  };
  auto median_self = [&](const std::string& span) {
    std::vector<double> values;
    for (const TracedOp& op : traced.traced) {
      auto it = op.self_ms.find(span);
      values.push_back(it == op.self_ms.end() ? 0.0 : it->second);
    }
    return Median(std::move(values));
  };
  auto mean_of = [&](auto field) {
    double sum = 0;
    for (const TracedOp& op : traced.traced) sum += field(op);
    return sum / traced_ops;
  };

  // Coverage: each op's top-level spans against its measured time.
  double worst_uncovered = 0;
  uint64_t outside = 0;
  for (const TracedOp& op : traced.traced) {
    const double uncovered = op.op_ms - op.covered_ms;
    worst_uncovered = std::max(worst_uncovered, uncovered / op.op_ms);
    if (uncovered > std::max(kCoverShare * op.op_ms, kCoverFloorMs)) ++outside;
  }
  if (outside > 0) {
    Fail(std::to_string(outside) + " traced ops have spans covering less "
         "than their measured time by more than the bound");
  }

  std::vector<double> untraced_ms;
  for (const OpRecord& op : untraced.ops) {
    untraced_ms.push_back(op.end_ms - op.start_ms);
  }
  std::vector<double> traced_ms;
  for (const TracedOp& op : traced.traced) traced_ms.push_back(op.op_ms);

  const double pins = per_op("storage.pages_pinned");
  const double misses = per_op("storage.page_misses");
  double response_bytes = 0;
  for (const OpRecord& op : untraced.ops) response_bytes += op.response_bytes;

  MetricList metrics = {
      {"sparql.parse_ms", {median_self("sparql.parse"), "ms"}},
      {"core.translate_ms", {median_self("core.translate"), "ms"}},
      {"core.execute_ms",
       {Median([&] {
          std::vector<double> values;
          for (const TracedOp& op : traced.traced) {
            values.push_back(op.execute_ms);
          }
          return values;
        }()),
        "ms"}},
      {"core.load_ms", {Median(load_ms_), "ms"}},
      {"plan.build_ms", {median_self("plan.build"), "ms"}},
      {"plan.filter_pushdown_ms", {median_self("plan.filter_pushdown"), "ms"}},
      {"plan.join_order_ms", {median_self("plan.join_order"), "ms"}},
      {"plan.join_strategy_ms", {median_self("plan.join_strategy"), "ms"}},
      {"plan.early_projection_ms",
       {median_self("plan.early_projection"), "ms"}},
      {"analysis.check_ms", {median_self("analysis.check"), "ms"}},
      {"engine.scan_ms", {median_self("engine.scan"), "ms"}},
      {"engine.join_ms", {median_self("engine.join"), "ms"}},
      {"engine.exchange_ms", {median_self("engine.exchange"), "ms"}},
      {"engine.modifier_ms", {median_self("engine.modifier"), "ms"}},
      {"engine.rows_processed",
       {mean_of([](const TracedOp& op) {
          return static_cast<double>(op.counters.rows_processed);
        }),
        "count"}},
      {"cluster.bytes_scanned",
       {mean_of([](const TracedOp& op) {
          return static_cast<double>(op.counters.bytes_scanned);
        }),
        "B"}},
      {"cluster.bytes_shuffled",
       {mean_of([](const TracedOp& op) {
          return static_cast<double>(op.counters.bytes_shuffled);
        }),
        "B"}},
      {"cluster.bytes_broadcast",
       {mean_of([](const TracedOp& op) {
          return static_cast<double>(op.counters.bytes_broadcast);
        }),
        "B"}},
      {"storage.pages_pinned", {pins, "count"}},
      {"storage.page_misses", {misses, "count"}},
      {"storage.hit_ratio", {pins > 0 ? 1.0 - misses / pins : 0.0, "ratio"}},
      {"storage.evictions", {per_op("storage.evictions"), "count"}},
      {"storage.row_groups_skipped_zonemap",
       {per_op("storage.row_groups_skipped_zonemap"), "count"}},
      {"storage.partitions_skipped_bloom",
       {per_op("storage.partitions_skipped_bloom"), "count"}},
      {"serve.queued", {per_op("serve.queued"), "count"}},
      {"serve.rejected_total", {per_op("serve.rejected_total"), "count"}},
      {"net.serialize_ms", {median_self("net.serialize"), "ms"}},
      {"net.response_bytes", {response_bytes / ops, "B"}},
      {"net.transfer_ms",
       {[&] {
          std::vector<double> values;
          for (const TracedOp& op : traced.traced) {
            values.push_back(op.transfer_ms);
          }
          return Median(std::move(values));
        }(),
        "ms"}},
      {"net.requests", {per_op("net.requests"), "count"}},
      {"rdf.encode_ms", {Median(encode_ms_), "ms"}},
      {"trace.overhead_ms", {Mean(traced_ms) - Mean(untraced_ms), "ms"}},
      {"trace.repeat_ms",
       {mean_of([](const TracedOp& op) { return op.repeat_ms; }), "ms"}},
      {"trace.uncovered_max", {worst_uncovered, "ratio"}},
  };

  std::printf("workload %s  seed %llu  traced ops %zu  untraced ops %zu\n",
              KindName(flags_.workload),
              static_cast<unsigned long long>(flags_.seed),
              traced.traced.size(), untraced.ops.size());
  for (const auto& [name, value] : metrics) {
    std::printf("  %-36s %14.4f %s\n", name.c_str(), value.first,
                value.second);
  }
  std::printf("  timings: median self time per op (core.execute_ms: the "
              "whole root kQuery span); counts and bytes: per op; "
              "storage.hit_ratio = 1 - %.2f misses / %.2f pins per op\n",
              misses, pins);
  std::printf("  tracing overhead: %.4f ms per op traced vs %.4f untraced, "
              "of which %.4f ms is work the replay repeats\n",
              Mean(traced_ms), Mean(untraced_ms),
              mean_of([](const TracedOp& op) { return op.repeat_ms; }));

  if (!flags_.trace_out.empty()) {
    std::ofstream out(flags_.trace_out);
    for (const SpanRecord& span : traced.spans) {
      out << "{\"op\": " << span.op << ", \"name\": \"" << span.name
          << "\", \"start_ms\": "
          << JsonNumber(span.start_ms < 0 ? NAN : span.start_ms)
          << ", \"dur_ms\": " << JsonNumber(span.dur_ms)
          << ", \"parent\": " << span.parent << "}\n";
    }
    std::printf("  spans written to %s\n", flags_.trace_out.c_str());
  }
  PrintResult(untraced.ops.size() + traced.ops.size(),
              FailedOps(untraced.ops) + FailedOps(traced.ops), metrics);
}

Status Bench::Run() {
  const Clock::time_point start = Clock::now();
  PROST_RETURN_IF_ERROR(SetUp());
  const Clock::time_point set_up = Clock::now();
  PROST_RETURN_IF_ERROR(WarmUp());
  std::fprintf(stderr,
               "[perfbench] %s: data and set-up %.1f s, warm-up %.1f s\n",
               KindName(flags_.workload), MillisBetween(start, set_up) / 1000,
               MillisBetween(set_up, Clock::now()) / 1000);
  if (!flags_.trace) {
    SubRun run = Measure(/*traced=*/false, flags_.seconds);
    ReportEndToEnd(run);
  } else {
    SubRun untraced = Measure(/*traced=*/false, flags_.seconds / 2);
    SubRun traced = Measure(/*traced=*/true, flags_.seconds / 2);
    ReportPerLayer(untraced, traced);
  }
  return Status::OK();
}

// ------------------------------------------------------------ --short

// Checks that the checks catch what they exist to catch, and that the
// reference store agrees with the brute-force evaluator of the tests.
bool CheckTheChecks() {
  bool ok = true;
  auto expect = [&](bool condition, const char* what) {
    std::printf("  %-60s %s\n", what, condition ? "ok" : "FAILED");
    ok = ok && condition;
  };
  watdiv::WatDivConfig config;
  config.target_triples = kShortTriples;
  config.seed = kDatasetSeed;
  watdiv::WatDivDataset dataset = watdiv::Generate(config);
  const std::string ntriples = watdiv::ToNTriplesText(dataset);
  auto reference = ProstDb::LoadFromNTriples(ntriples, ReferenceOptions());
  core::ProstDb::Options mixed_options;
  auto mixed = ProstDb::LoadFromNTriples(ntriples, mixed_options);
  if (!reference.ok() || !mixed.ok()) {
    expect(false, "load the short dataset");
    return false;
  }
  auto graph = prost::rdf::EncodeNTriples(ntriples);
  if (!graph.ok()) return false;
  graph->SortAndDedupe();

  size_t agree = 0;
  size_t evaluated = 0;
  bool fingerprints_agree = true;
  for (const watdiv::WatDivQuery& q : watdiv::BasicQuerySet(dataset)) {
    auto query = prost::sparql::ParseQuery(q.sparql);
    if (!query.ok()) return false;
    auto ref = (*reference)->Execute(*query);
    auto got = (*mixed)->Execute(*query);
    if (!ref.ok() || !got.ok()) return false;
    fingerprints_agree = fingerprints_agree &&
                         FingerprintOf(ref->relation) ==
                             FingerprintOf(got->relation);
    // Brute force only where the backtracking evaluator stays cheap.
    if (q.query_class == 'C') continue;
    ++evaluated;
    std::vector<std::vector<prost::rdf::TermId>> expected =
        prost::testing::ReferenceEvaluate(*query, *graph);
    std::vector<std::vector<prost::rdf::TermId>> rows;
    const std::vector<std::string> projection = query->EffectiveProjection();
    std::vector<int> columns;
    for (const std::string& var : projection) {
      columns.push_back(ref->relation.ColumnIndex(var));
    }
    for (const prost::engine::Row& row : ref->relation.CollectRows()) {
      std::vector<prost::rdf::TermId> projected;
      for (int c : columns) projected.push_back(row[static_cast<size_t>(c)]);
      rows.push_back(std::move(projected));
    }
    std::sort(rows.begin(), rows.end());
    agree += rows == expected ? 1 : 0;
  }
  expect(agree == evaluated,
         "reference store matches the brute-force evaluator (F, L, S)");
  expect(fingerprints_agree,
         "mixed store fingerprints match the reference store (all 20)");

  // A result with one row fewer must not pass.
  auto c1 = prost::sparql::ParseQuery(watdiv::BasicQuerySet(dataset)[0].sparql);
  if (!c1.ok()) return false;
  auto full = (*reference)->Execute(*c1);
  if (!full.ok()) return false;
  prost::engine::Relation dropped = full->relation;
  for (prost::engine::RelationChunk& chunk : dropped.mutable_chunks()) {
    if (chunk.num_rows() == 0) continue;
    for (auto& column : chunk.columns) column.pop_back();
    break;
  }
  expect(!(FingerprintOf(dropped) == FingerprintOf(full->relation)),
         "a missing row changes the fingerprint");
  prost::engine::Relation swapped = full->relation;
  for (prost::engine::RelationChunk& chunk : swapped.mutable_chunks()) {
    if (chunk.num_rows() < 1 || chunk.columns.size() < 2) continue;
    std::swap(chunk.columns[0][0], chunk.columns[1][0]);
    break;
  }
  expect(!(FingerprintOf(swapped) == FingerprintOf(full->relation)),
         "values moved between columns change the fingerprint");

  auto body = net::SparqlResultWriter::Serialize(**reference, full->relation,
                                                 net::ResultFormat::kJson);
  if (!body.ok()) return false;
  expect(CompareJsonRows(*body, **reference, full->relation).empty(),
         "a correct JSON body matches its reference rows");
  std::string corrupt = *body;
  size_t at = corrupt.rfind("\"value\":");
  if (at != std::string::npos) {
    size_t quote = corrupt.find('"', at + 8);
    if (quote != std::string::npos && quote + 1 < corrupt.size()) {
      corrupt[quote + 1] = corrupt[quote + 1] == 'x' ? 'y' : 'x';
    }
  }
  expect(!CompareJsonRows(corrupt, **reference, full->relation).empty(),
         "a JSON body with one changed value is caught");
  expect(HashBody(corrupt) != HashBody(*body),
         "a changed byte changes the body hash");
  return ok;
}

int RunShort() {
  bool ok = CheckTheChecks();
  for (Kind kind : {Kind::kHttpMix, Kind::kVpPlan, Kind::kPagedScan}) {
    for (bool trace : {false, true}) {
      Flags flags;
      flags.workload = kind;
      flags.short_mode = true;
      flags.trace = trace;
      flags.seed = 1;
      Bench bench(flags);
      Status status = bench.Run();
      if (!status.ok()) {
        std::fprintf(stderr, "[perfbench] %s: %s\n", KindName(kind),
                     status.ToString().c_str());
      }
      const bool passed = status.ok() && bench.correct();
      std::printf("short %s trace %d: %s\n", KindName(kind), trace ? 1 : 0,
                  passed ? "ok" : "FAILED");
      ok = ok && passed;
    }
  }
  std::printf("short mode: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------- main

void Usage() {
  std::fprintf(stderr,
               "usage: prost_perfbench --workload http-mix|vp-plan|paged-scan "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       prost_perfbench --short\n");
}

int Main(int argc, char** argv) {
  Flags flags;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--short") {
      flags.short_mode = true;
    } else if (arg == "--workload" && has_value) {
      const std::string name = argv[++i];
      have_workload = true;
      if (name == "http-mix") {
        flags.workload = Kind::kHttpMix;
      } else if (name == "vp-plan") {
        flags.workload = Kind::kVpPlan;
      } else if (name == "paged-scan") {
        flags.workload = Kind::kPagedScan;
      } else {
        Usage();
        return 2;
      }
    } else if (arg == "--seed" && has_value) {
      flags.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      flags.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      flags.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      flags.trace_out = argv[++i];
    } else {
      Usage();
      return 2;
    }
  }
  if (flags.short_mode) return RunShort();
  if (!have_workload || !(flags.seconds > 0)) {
    Usage();
    return 2;
  }
  Bench bench(flags);
  Status status = bench.Run();
  if (!status.ok()) {
    std::fprintf(stderr, "[perfbench] %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
