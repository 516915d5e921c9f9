// Reproduces Figure 2 of the paper: per-query time for WatDiv with only
// Vertical Partitioning versus the mixed VP + Property Table strategy.
//
// Expected shape: the mixed strategy wins clearly on Star (S), Complex
// (C) and Snowflake (F) queries; Linear (L) queries are close to equal,
// because their patterns mostly have distinct subjects and translate to
// VP nodes either way.
//
// Two ablation runs ride along:
//   - the mixed strategy with every optimizer pass disabled, isolating
//     what the plan rewrites (early projection above all: fewer shuffled
//     bytes) contribute on top of the storage choice; and
//   - VP-only with cost-based join ordering disabled (the translator's
//     §3.3 heuristic order), isolating what DP enumeration over real
//     statistics buys. VP-only is the mode where stars open into
//     reorderable scans, so the ordering delta is measured there; the
//     per-query shuffled-bytes delta is the headline (C2's star-join
//     blowup is the worst offender the statistics exist to fix).
// Results are bit-identical across ablation pairs; only the simulated
// cost and the per-query counters differ.
//
// Pass --json <path> to additionally emit per-query machine-readable
// results including shuffled bytes (the BENCH_fig2.json trajectory
// file). Pass --smoke to enforce the cost-based ordering guards (never
// worse than the heuristic order on any query, and a >= 25% C2 shuffle
// reduction) and exit nonzero on violation — the bench_fig2.smoke ctest.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/str_util.h"

int main(int argc, char** argv) {
  using namespace prost;
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::BenchWorkload workload = bench::BuildWorkload();
  cluster::ClusterConfig cluster = bench::ScaledCluster(workload);

  auto vp_only = baselines::MakeProstVpOnly(workload.graph, cluster);
  auto mixed = baselines::MakeProst(workload.graph, cluster);
  auto no_opt = baselines::MakeProstNoOptimizer(workload.graph, cluster);
  auto vp_heuristic =
      baselines::MakeProstVpOnlyHeuristicOrder(workload.graph, cluster);
  if (!vp_only.ok() || !mixed.ok() || !no_opt.ok() || !vp_heuristic.ok()) {
    std::fprintf(stderr, "FATAL: system build failed\n");
    return 1;
  }
  // Fifth run: the mixed strategy with its buffer pool capped at a
  // quarter of the columnar footprint and 512-row groups (DESIGN.md
  // §15). Results are bit-identical; the finer zone maps skip more, which
  // the JSON's bytes_scanned column shows (bench_paged is the dedicated
  // beyond-RAM harness).
  auto paged = baselines::MakeProstPaged(
      workload.graph, cluster, (*mixed)->load_report().storage_bytes / 4,
      /*row_group_rows=*/512);
  if (!paged.ok()) {
    std::fprintf(stderr, "FATAL: paged system build failed\n");
    return 1;
  }
  bench::SystemRun vp_run = bench::RunQuerySetDetailed(**vp_only, workload);
  vp_run.system = "PRoST (VP only)";
  bench::SystemRun mixed_run = bench::RunQuerySetDetailed(**mixed, workload);
  mixed_run.system = "PRoST (VP + PT)";
  bench::SystemRun no_opt_run =
      bench::RunQuerySetDetailed(**no_opt, workload);
  no_opt_run.system = "PRoST (VP + PT, no opt passes)";
  bench::SystemRun vp_heur_run =
      bench::RunQuerySetDetailed(**vp_heuristic, workload);
  vp_heur_run.system = "PRoST (VP only, heuristic order)";
  bench::SystemRun paged_run = bench::RunQuerySetDetailed(**paged, workload);
  paged_run.system = "PRoST (VP + PT, paged 1/4 budget)";
  std::map<std::string, double> vp_ms;
  std::map<std::string, double> mixed_ms;
  std::map<std::string, const bench::QueryRun*> vp_by_id;
  std::map<std::string, const bench::QueryRun*> mixed_by_id;
  std::map<std::string, const bench::QueryRun*> no_opt_by_id;
  std::map<std::string, const bench::QueryRun*> vp_heur_by_id;
  for (const bench::QueryRun& q : vp_run.queries) {
    vp_ms[q.query_id] = q.simulated_millis;
    vp_by_id[q.query_id] = &q;
  }
  for (const bench::QueryRun& q : mixed_run.queries) {
    mixed_ms[q.query_id] = q.simulated_millis;
    mixed_by_id[q.query_id] = &q;
  }
  for (const bench::QueryRun& q : no_opt_run.queries) {
    no_opt_by_id[q.query_id] = &q;
  }
  for (const bench::QueryRun& q : vp_heur_run.queries) {
    vp_heur_by_id[q.query_id] = &q;
  }

  std::printf("\nFigure 2: query time, VP only vs mixed strategy (ms, simulated)\n");
  bench::PrintRule(74);
  std::printf("%-6s | %12s | %12s | %8s | %12s | %8s\n", "Query", "VP only",
              "VP + PT", "speedup", "no-opt", "MB saved");
  bench::PrintRule(74);
  uint64_t shuffled_saved = 0;
  for (const watdiv::WatDivQuery& q : workload.queries) {
    double vp = vp_ms.at(q.id);
    double mx = mixed_ms.at(q.id);
    const bench::QueryRun& opt = *mixed_by_id.at(q.id);
    const bench::QueryRun& raw = *no_opt_by_id.at(q.id);
    // The optimizer's contribution on the mixed plan: the shuffle bytes
    // early projection removed.
    uint64_t saved = raw.counters.bytes_shuffled - opt.counters.bytes_shuffled;
    shuffled_saved += saved;
    std::printf("%-6s | %12s | %12s | %7.2fx | %12s | %8.2f\n", q.id.c_str(),
                WithThousands(static_cast<uint64_t>(vp)).c_str(),
                WithThousands(static_cast<uint64_t>(mx)).c_str(), vp / mx,
                WithThousands(
                    static_cast<uint64_t>(raw.simulated_millis)).c_str(),
                saved / (1024.0 * 1024.0));
  }
  bench::PrintRule(74);
  std::printf("optimizer passes: %.2f MB of shuffle removed across the set\n",
              shuffled_saved / (1024.0 * 1024.0));
  std::map<char, double> vp_avg = bench::ClassAverages(vp_ms, workload.queries);
  std::map<char, double> mx_avg =
      bench::ClassAverages(mixed_ms, workload.queries);
  for (char cls : {'C', 'F', 'L', 'S'}) {
    std::printf("%-10s avg: VP %9.0fms   mixed %9.0fms   (%.2fx)\n",
                bench::ClassName(cls), vp_avg.at(cls), mx_avg.at(cls),
                vp_avg.at(cls) / mx_avg.at(cls));
  }
  std::printf(
      "\nExpected shape (paper): mixed clearly faster on S/C/F, ~equal on L.\n");

  // Cost-based join ordering vs the heuristic order, VP-only on both
  // sides. Positive shuffle delta = bytes the DP order avoided moving.
  std::printf(
      "\nJoin-ordering ablation: VP only, cost-based vs heuristic order\n");
  bench::PrintRule(74);
  std::printf("%-6s | %12s | %12s | %8s | %14s\n", "Query", "cost-based",
              "heuristic", "speedup", "shuffle saved");
  bench::PrintRule(74);
  int ordering_losses = 0;
  int64_t total_shuffle_delta = 0;
  double c2_reduction = 0.0;
  for (const watdiv::WatDivQuery& q : workload.queries) {
    const bench::QueryRun& cost_based = *vp_by_id.at(q.id);
    const bench::QueryRun& heur = *vp_heur_by_id.at(q.id);
    const int64_t delta =
        static_cast<int64_t>(heur.counters.bytes_shuffled) -
        static_cast<int64_t>(cost_based.counters.bytes_shuffled);
    total_shuffle_delta += delta;
    if (cost_based.simulated_millis > heur.simulated_millis + 1e-9) {
      ++ordering_losses;
      std::fprintf(stderr,
                   "FATAL: cost-based order loses to the heuristic on %s "
                   "(%.3f ms vs %.3f ms)\n",
                   q.id.c_str(), cost_based.simulated_millis,
                   heur.simulated_millis);
    }
    if (q.id == "C2" && heur.counters.bytes_shuffled > 0) {
      c2_reduction = static_cast<double>(delta) /
                     static_cast<double>(heur.counters.bytes_shuffled);
    }
    std::printf("%-6s | %12s | %12s | %7.2fx | %11.2f KB\n", q.id.c_str(),
                WithThousands(
                    static_cast<uint64_t>(cost_based.simulated_millis)).c_str(),
                WithThousands(
                    static_cast<uint64_t>(heur.simulated_millis)).c_str(),
                heur.simulated_millis / cost_based.simulated_millis,
                delta / 1024.0);
  }
  bench::PrintRule(74);
  std::printf(
      "cost-based ordering: %.2f MB of shuffle removed across the set, "
      "C2 shuffle down %.1f%%\n",
      total_shuffle_delta / (1024.0 * 1024.0), 100.0 * c2_reduction);

  if (!json_path.empty()) {
    bench::WriteBenchJson(json_path, "fig2_vp_vs_mixed", workload,
                          {vp_run, mixed_run, no_opt_run, vp_heur_run,
                           paged_run});
  }
  if (smoke) {
    if (ordering_losses > 0) {
      std::fprintf(stderr, "FATAL: %d ordering regression(s)\n",
                   ordering_losses);
      return 1;
    }
    if (c2_reduction < 0.25) {
      std::fprintf(stderr,
                   "FATAL: C2 shuffle reduction %.1f%% below the 25%% bar\n",
                   100.0 * c2_reduction);
      return 1;
    }
    std::printf("smoke: ordering guards hold\n");
  }
  return ordering_losses > 0 ? 1 : 0;
}
