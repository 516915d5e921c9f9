#include "obs/report.h"

#include <cstddef>
#include <cstdint>

#include "common/str_util.h"

namespace prost::obs {
namespace {

/// One EXPLAIN ANALYZE line: kind, label, variant, then measurements.
std::string SpanLine(const Span& span, const ReportOptions& options) {
  std::string line = SpanKindName(span.kind);
  if (!span.label.empty()) line += " " + span.label;
  if (!span.detail.empty()) line += " [" + span.detail + "]";
  line += StrFormat("  rows=%llu",
                    static_cast<unsigned long long>(span.rows_out));
  if (span.rows_in != 0 && span.rows_in != span.rows_out) {
    line += StrFormat(" (in=%llu)",
                      static_cast<unsigned long long>(span.rows_in));
  }
  if (span.estimated_rows >= 0) {
    line += StrFormat("  est=%.1f", span.estimated_rows);
  }
  line += StrFormat("  charge=%.3fms", span.charge_millis);
  if (!span.children.empty()) {
    line += StrFormat(" (total=%.3fms)", span.total_charge_millis);
  }
  if (span.kind == SpanKind::kScan) {
    // Planner estimate vs. bytes actually charged after zone-map / bloom
    // pruning, plus what the pruning skipped.
    line += "  bytes=" + HumanBytes(span.storage_bytes_estimated) + "/" +
            HumanBytes(span.bytes_scanned);
    line += StrFormat(
        ", skipped=%llu",
        static_cast<unsigned long long>(span.row_groups_skipped));
    if (span.partitions_skipped > 0) {
      line += StrFormat(
          " (+%llu bloom partitions)",
          static_cast<unsigned long long>(span.partitions_skipped));
    }
  } else if (span.bytes_scanned > 0) {
    line += "  scanned=" + HumanBytes(span.bytes_scanned);
  }
  if (span.bytes_shuffled > 0) {
    line += "  shuffled=" + HumanBytes(span.bytes_shuffled);
  }
  if (span.bytes_broadcast > 0) {
    line += "  broadcast=" + HumanBytes(span.bytes_broadcast);
  }
  if (options.include_wall) {
    line += StrFormat("  wall=%.3fms", span.wall_millis);
  }
  return line;
}

void RenderTree(const QueryProfile& profile, int32_t id,
                const std::string& prefix, bool last, bool is_root,
                const ReportOptions& options, std::string& out) {
  const Span& span = profile.spans()[static_cast<size_t>(id)];
  if (is_root) {
    out += SpanLine(span, options) + "\n";
  } else {
    out += prefix + (last ? "└─ " : "├─ ") + SpanLine(span, options) + "\n";
  }
  std::string child_prefix =
      is_root ? prefix : prefix + (last ? "   " : "│  ");
  for (size_t i = 0; i < span.children.size(); ++i) {
    RenderTree(profile, span.children[i], child_prefix,
               i + 1 == span.children.size(), false, options, out);
  }
}

void RenderJson(const QueryProfile& profile, int32_t id, int indent,
                std::string& out) {
  const Span& span = profile.spans()[static_cast<size_t>(id)];
  std::string pad(static_cast<size_t>(indent), ' ');
  out += pad + "{\n";
  out += pad + StrFormat("  \"kind\": \"%s\",\n", SpanKindName(span.kind));
  out += pad + StrFormat("  \"label\": \"%s\",\n", span.label.c_str());
  if (!span.detail.empty()) {
    out += pad + StrFormat("  \"detail\": \"%s\",\n", span.detail.c_str());
  }
  out += pad + StrFormat("  \"rows_in\": %llu,\n",
                         static_cast<unsigned long long>(span.rows_in));
  out += pad + StrFormat("  \"rows_out\": %llu,\n",
                         static_cast<unsigned long long>(span.rows_out));
  if (span.estimated_rows >= 0) {
    out += pad + StrFormat("  \"estimated_rows\": %.1f,\n",
                           span.estimated_rows);
  }
  out += pad + StrFormat("  \"charge_millis\": %.6f,\n", span.charge_millis);
  out += pad + StrFormat("  \"total_charge_millis\": %.6f,\n",
                         span.total_charge_millis);
  out += pad + StrFormat("  \"wall_millis\": %.3f,\n", span.wall_millis);
  out += pad + StrFormat("  \"bytes_scanned\": %llu,\n",
                         static_cast<unsigned long long>(span.bytes_scanned));
  out += pad + StrFormat("  \"bytes_shuffled\": %llu,\n",
                         static_cast<unsigned long long>(span.bytes_shuffled));
  out += pad +
         StrFormat("  \"bytes_broadcast\": %llu,\n",
                   static_cast<unsigned long long>(span.bytes_broadcast));
  if (span.kind == SpanKind::kScan) {
    out += pad + StrFormat(
                     "  \"storage_bytes_estimated\": %llu,\n",
                     static_cast<unsigned long long>(
                         span.storage_bytes_estimated));
    out += pad + StrFormat("  \"row_groups_skipped\": %llu,\n",
                           static_cast<unsigned long long>(
                               span.row_groups_skipped));
    out += pad + StrFormat("  \"partitions_skipped\": %llu,\n",
                           static_cast<unsigned long long>(
                               span.partitions_skipped));
  }
  out += pad + "  \"children\": [";
  for (size_t i = 0; i < span.children.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    RenderJson(profile, span.children[i], indent + 4, out);
  }
  out += span.children.empty() ? "]\n" : "\n" + pad + "  ]\n";
  out += pad + "}";
}

}  // namespace

std::string ExplainAnalyze(const QueryProfile& profile,
                           const ReportOptions& options) {
  std::string out = StrFormat(
      "EXPLAIN ANALYZE  (simulated %.3f ms, %llu stages, charged %.3f ms)\n",
      profile.simulated_millis(),
      static_cast<unsigned long long>(profile.counters().stages),
      profile.TotalChargedMillis());
  if (profile.root() < 0) {
    out += "(empty profile)\n";
    return out;
  }
  RenderTree(profile, profile.root(), "", true, true, options, out);
  return out;
}

std::string ProfileJson(const QueryProfile& profile) {
  const cluster::ExecutionCounters& c = profile.counters();
  std::string out = "{\n";
  out += StrFormat("  \"simulated_millis\": %.6f,\n",
                   profile.simulated_millis());
  out += StrFormat("  \"charged_millis\": %.6f,\n",
                   profile.TotalChargedMillis());
  out += StrFormat(
      "  \"counters\": {\"bytes_scanned\": %llu, \"bytes_shuffled\": %llu, "
      "\"bytes_broadcast\": %llu, \"rows_processed\": %llu, "
      "\"kv_seeks\": %llu, \"stages\": %llu},\n",
      static_cast<unsigned long long>(c.bytes_scanned),
      static_cast<unsigned long long>(c.bytes_shuffled),
      static_cast<unsigned long long>(c.bytes_broadcast),
      static_cast<unsigned long long>(c.rows_processed),
      static_cast<unsigned long long>(c.kv_seeks),
      static_cast<unsigned long long>(c.stages));
  out += "  \"trace\":";
  if (profile.root() < 0) {
    out += " null\n";
  } else {
    out += "\n";
    RenderJson(profile, profile.root(), 2, out);
    out += "\n";
  }
  out += "}\n";
  return out;
}

}  // namespace prost::obs
