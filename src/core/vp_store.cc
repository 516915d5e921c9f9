#include "core/vp_store.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "columnar/lexical_format.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/str_util.h"
#include "engine/kernels.h"

namespace prost::core {

using columnar::Column;
using columnar::ColumnKind;
using columnar::Field;
using columnar::IdVector;
using columnar::Schema;
using columnar::StoredTable;
using engine::Relation;
using engine::RelationChunk;

namespace {

/// A two-column (s, o) VP partition.
StoredTable PairTable(IdVector subjects, IdVector objects) {
  std::vector<Column> columns;
  columns.emplace_back(std::move(subjects));
  columns.emplace_back(std::move(objects));
  return StoredTable(
      Schema({Field{"s", ColumnKind::kId}, Field{"o", ColumnKind::kId}}),
      std::move(columns));
}

}  // namespace

VpStore VpStore::Build(const rdf::EncodedGraph& graph, uint32_t num_workers,
                       columnar::BufferPool& pool, uint32_t row_group_rows) {
  VpStore store;
  store.num_workers_ = num_workers;
  store.pool_ = &pool;

  // Per predicate, per worker: the (s, o) column pair.
  struct Builder {
    std::vector<IdVector> subjects;
    std::vector<IdVector> objects;
  };
  std::map<rdf::TermId, Builder> builders;
  for (const rdf::EncodedTriple& t : graph.triples()) {
    Builder& b = builders[t.predicate];
    if (b.subjects.empty()) {
      b.subjects.resize(num_workers);
      b.objects.resize(num_workers);
    }
    uint32_t w = static_cast<uint32_t>(Mix64(t.subject) % num_workers);
    b.subjects[w].push_back(t.subject);
    b.objects[w].push_back(t.object);
  }

  std::vector<uint32_t> term_lengths = graph.dictionary().TermLengths();
  for (auto& [predicate, b] : builders) {
    std::vector<StoredTable> partitions;
    partitions.reserve(num_workers);
    for (uint32_t w = 0; w < num_workers; ++w) {
      partitions.push_back(
          PairTable(std::move(b.subjects[w]), std::move(b.objects[w])));
    }
    store.tables_.emplace(
        predicate,
        PackTable(std::move(partitions), term_lengths, row_group_rows));
  }
  return store;
}

VpStore VpStore::Assemble(uint32_t num_workers,
                          std::map<rdf::TermId, PredicateTable> tables,
                          columnar::BufferPool& pool) {
  VpStore store;
  store.num_workers_ = num_workers;
  store.tables_ = std::move(tables);
  store.pool_ = &pool;
  return store;
}

VpStore::PredicateTable VpStore::PackTable(
    std::vector<StoredTable> partitions,
    const std::vector<uint32_t>& term_lengths, uint32_t row_group_rows) {
  PredicateTable table;
  table.partitions.reserve(partitions.size());
  table.partition_bytes.reserve(partitions.size());
  for (const StoredTable& part : partitions) {
    table.total_rows += part.num_rows();
    // Sizes are in the lexical (Parquet string) form — what the
    // simulated Spark scans and what its planner sees.
    table.partition_bytes.push_back(
        LexicalColumnSizeEstimate(part.column(0), term_lengths) +
        LexicalColumnSizeEstimate(part.column(1), term_lengths));
    table.partitions.push_back(
        columnar::PagedTable::FromStored(part, row_group_rows));
  }
  return table;
}

const VpStore::PredicateTable* VpStore::Find(rdf::TermId predicate) const {
  auto it = tables_.find(predicate);
  return it == tables_.end() ? nullptr : &it->second;
}

uint64_t VpStore::ScanPlannerBytes(rdf::TermId predicate) const {
  const PredicateTable* table = Find(predicate);
  return table == nullptr ? 0 : table->bytes();
}

Result<Relation> VpStore::Scan(rdf::TermId predicate,
                               const PatternTerm& subject,
                               const PatternTerm& object,
                               cluster::CostModel& cost,
                               const engine::ExecContext* exec,
                               const ScanHints* hints,
                               ScanTelemetry* telemetry) const {
  return ScanTable(Find(predicate), subject, object, num_workers_, *pool_,
                   cost, exec, hints, telemetry);
}

Result<Relation> VpStore::ScanTable(const PredicateTable* table,
                                    const PatternTerm& subject,
                                    const PatternTerm& object,
                                    uint32_t num_workers,
                                    columnar::BufferPool& pool,
                                    cluster::CostModel& cost,
                                    const engine::ExecContext* exec,
                                    const ScanHints* hints,
                                    ScanTelemetry* telemetry) {
  // Output columns: subject variable first, then object variable (when
  // distinct). `?x p ?x` yields a single column with s==o enforced.
  std::vector<std::string> names;
  if (subject.is_variable) names.push_back(subject.name);
  bool same_var = subject.is_variable && object.is_variable &&
                  subject.name == object.name;
  if (object.is_variable && !same_var) names.push_back(object.name);
  if (names.empty()) {
    return Status::Unimplemented(
        "triple patterns without variables are not supported");
  }

  Relation output(names, num_workers);
  if (table == nullptr) {
    output.set_planner_bytes(0);
    return output;  // Unknown predicate: empty relation, nothing scanned.
  }

  // Planner sees the base table's serialized size (filters do not
  // discount it — Spark 2.1 static planning).
  output.set_planner_bytes(table->bytes());

  const bool open_scan =
      subject.is_variable && object.is_variable && !same_var;
  // Every id each storage column is constrained to equal: pattern
  // constants, plus pushed-filter equality hints on the column's
  // variable (a hint of kNullTermId matches ZoneMayContain nowhere,
  // which is exactly right — the filter constant is outside the
  // dictionary, so no stored row survives it).
  std::vector<rdf::TermId> s_eq, o_eq;
  if (!subject.is_variable) s_eq.push_back(subject.id);
  if (!object.is_variable) o_eq.push_back(object.id);
  if (hints != nullptr) {
    for (const ScanEqualityHint& hint : hints->equals) {
      if (subject.is_variable && subject.name == hint.variable) {
        s_eq.push_back(hint.id);
      }
      if (object.is_variable && object.name == hint.variable) {
        o_eq.push_back(hint.id);
      }
    }
  }

  // Pruning pass, all from metadata (no decode): bloom on the
  // subject-key column kills whole partitions, zone maps kill row
  // groups. Surviving groups become scan morsels in (worker, group, row)
  // order — ascending row order within each partition. A parallel scan
  // splits each group into morsels of exec->morsel_rows() rows; a
  // serial scan takes each group whole.
  struct ScanMorsel {
    uint32_t worker;
    uint32_t group;
    size_t begin;
    size_t end;
  };
  const size_t morsel_rows = engine::IsParallel(exec)
                                 ? size_t{exec->morsel_rows()}
                                 : std::numeric_limits<size_t>::max();
  std::vector<ScanMorsel> morsels;
  std::vector<uint64_t> scanned_rows(num_workers, 0);
  std::vector<uint64_t> charged_bytes(num_workers, 0);
  ScanTelemetry local;
  for (uint32_t w = 0; w < num_workers; ++w) {
    const columnar::PagedTable& paged = table->partitions[w];
    if (paged.num_groups() == 0) {
      // Empty partition: nothing to prune, but the scan stage still
      // opens its (empty) file — charged at its lexical size, as the
      // planner assumed.
      charged_bytes[w] = table->partition_bytes[w];
      continue;
    }
    bool bloom_rejected = false;
    for (rdf::TermId id : s_eq) {
      if (!paged.key_bloom().MayContain(id)) {
        bloom_rejected = true;
        break;
      }
    }
    if (bloom_rejected) {
      ++local.partitions_skipped;
      continue;
    }
    // Scan charges stay in the lexical byte domain: apportion the
    // partition's lexical size over groups in proportion to encoded
    // payload, flooring cumulatively so per-group charges telescope
    // to exactly partition_bytes[w] when nothing is skipped.
    const uint64_t payload_total = paged.payload_bytes();
    const uint64_t lex_total = table->partition_bytes[w];
    uint64_t payload_cum = 0;
    uint64_t lex_cum = 0;
    for (size_t g = 0; g < paged.num_groups(); ++g) {
      for (const columnar::ChunkMeta& chunk : paged.group(g).chunks) {
        payload_cum += chunk.bytes;
      }
      uint64_t lex_next = payload_total == 0
                              ? lex_total
                              : lex_total * payload_cum / payload_total;
      uint64_t group_lex = lex_next - lex_cum;
      lex_cum = lex_next;
      bool keep = true;
      for (rdf::TermId id : s_eq) {
        if (!ZoneMayContain(paged.stats(g, 0), id)) {
          keep = false;
          break;
        }
      }
      if (keep) {
        for (rdf::TermId id : o_eq) {
          if (!ZoneMayContain(paged.stats(g, 1), id)) {
            keep = false;
            break;
          }
        }
      }
      if (!keep) {
        ++local.row_groups_skipped;
        continue;
      }
      const size_t rows = paged.group(g).num_rows;
      for (size_t begin = 0; begin < rows; begin += morsel_rows) {
        morsels.push_back({w, static_cast<uint32_t>(g), begin,
                           std::min(rows, begin + morsel_rows)});
      }
      scanned_rows[w] += rows;
      charged_bytes[w] += group_lex;
    }
  }

  // Emits the matching rows of one morsel into `out` and returns how
  // many. Vectorized: constant terms filter into a selection vector
  // (`sel`, caller-provided scratch), and the surviving rows materialize
  // via per-column gathers. Pins hold the group's decoded columns
  // resident for exactly the duration of the morsel's scan.
  auto scan_morsel = [&](const ScanMorsel& m, RelationChunk& out,
                         std::vector<uint32_t>& sel) -> Result<uint64_t> {
    const columnar::PagedTable& paged = table->partitions[m.worker];
    PROST_ASSIGN_OR_RETURN(columnar::PinnedPage s_page,
                           pool.Pin(paged, m.group, 0));
    PROST_ASSIGN_OR_RETURN(columnar::PinnedPage o_page,
                           pool.Pin(paged, m.group, 1));
    const IdVector& subjects = s_page.column().ids();
    const IdVector& objects = o_page.column().ids();
    if (open_scan) {
      out.columns[0].insert(out.columns[0].end(), subjects.begin() + m.begin,
                            subjects.begin() + m.end);
      out.columns[1].insert(out.columns[1].end(), objects.begin() + m.begin,
                            objects.begin() + m.end);
      return uint64_t{m.end - m.begin};
    }
    sel.clear();
    if (!subject.is_variable) {
      engine::kernels::Filter(subjects, subject.id, m.begin, m.end, sel);
      if (!object.is_variable) {
        engine::kernels::Refine(objects, object.id, sel);
      }
    } else if (!object.is_variable) {
      engine::kernels::Filter(objects, object.id, m.begin, m.end, sel);
    } else {  // same_var: ?x p ?x
      engine::kernels::FilterRowsEqual(subjects, objects, m.begin, m.end, sel);
    }
    size_t c = 0;
    if (subject.is_variable) {
      engine::kernels::Gather(subjects, sel, out.columns[c++]);
    }
    if (object.is_variable && !same_var) {
      engine::kernels::Gather(objects, sel, out.columns[c]);
    }
    return uint64_t{sel.size()};
  };

  std::vector<uint64_t> emitted(num_workers, 0);
  if (engine::IsParallel(exec) && morsels.size() > 1) {
    // Run all morsels on the pool, then merge their outputs back per
    // partition in morsel order (= row order).
    std::vector<RelationChunk> outs(morsels.size());
    std::vector<uint64_t> morsel_emitted(morsels.size(), 0);
    std::vector<Status> morsel_status(morsels.size(), Status::OK());
    exec->pool()->ParallelFor(morsels.size(), [&](size_t m) {
      outs[m].columns.resize(names.size());
      std::vector<uint32_t> sel;
      Result<uint64_t> rows = scan_morsel(morsels[m], outs[m], sel);
      if (rows.ok()) {
        morsel_emitted[m] = *rows;
      } else {
        morsel_status[m] = rows.status();
      }
    });
    for (const Status& status : morsel_status) {
      PROST_RETURN_IF_ERROR(status);
    }
    for (size_t m = 0; m < morsels.size(); ++m) {
      emitted[morsels[m].worker] += morsel_emitted[m];
      RelationChunk& out = output.mutable_chunks()[morsels[m].worker];
      for (size_t c = 0; c < out.columns.size(); ++c) {
        out.columns[c].insert(out.columns[c].end(),
                              outs[m].columns[c].begin(),
                              outs[m].columns[c].end());
      }
    }
  } else {
    std::vector<uint32_t> sel;
    for (const ScanMorsel& m : morsels) {
      PROST_ASSIGN_OR_RETURN(
          uint64_t rows,
          scan_morsel(m, output.mutable_chunks()[m.worker], sel));
      emitted[m.worker] += rows;
    }
  }
  for (uint32_t w = 0; w < num_workers; ++w) {
    cost.ChargeScan(w, charged_bytes[w]);
    cost.ChargeCpuRows(w, scanned_rows[w] + emitted[w]);
    local.bytes_scanned += charged_bytes[w];
  }
  pool.NoteScan(local.row_groups_skipped, local.partitions_skipped,
                local.bytes_scanned);
  if (telemetry != nullptr) *telemetry = local;
  if (subject.is_variable) output.set_hash_partitioned_by(0);
  return output;
}

VpStore::PredicateTable VpStore::BuildTable(
    const std::vector<std::pair<rdf::TermId, rdf::TermId>>& rows,
    uint32_t num_workers, const std::vector<uint32_t>& term_lengths,
    uint32_t row_group_rows) {
  std::vector<IdVector> subjects(num_workers);
  std::vector<IdVector> objects(num_workers);
  for (const auto& [s, o] : rows) {
    uint32_t w = static_cast<uint32_t>(Mix64(s) % num_workers);
    subjects[w].push_back(s);
    objects[w].push_back(o);
  }
  std::vector<StoredTable> partitions;
  partitions.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    partitions.push_back(
        PairTable(std::move(subjects[w]), std::move(objects[w])));
  }
  return PackTable(std::move(partitions), term_lengths, row_group_rows);
}

uint64_t VpStore::TotalBytesEstimate() const {
  uint64_t total = 0;
  for (const auto& [predicate, table] : tables_) total += table.bytes();
  return total;
}

Status VpStore::WriteTo(const std::string& dir,
                        const rdf::Dictionary& dictionary) const {
  PROST_RETURN_IF_ERROR(MakeDirectories(dir));
  // Files are numbered sequentially; the manifest maps each number to
  // its predicate's lexical form so the directory is self-describing.
  std::string manifest;
  uint64_t index = 0;
  for (const auto& [predicate, table] : tables_) {
    PROST_ASSIGN_OR_RETURN(std::string_view lexical,
                           dictionary.LookupId(predicate));
    manifest += StrFormat("%llu\t%s\n",
                          static_cast<unsigned long long>(index),
                          std::string(lexical).c_str());
    for (uint32_t w = 0; w < num_workers_; ++w) {
      std::string path = StrFormat(
          "%s/vp_%llu_p%u.tbl", dir.c_str(),
          static_cast<unsigned long long>(index), w);
      PROST_ASSIGN_OR_RETURN(StoredTable decoded,
                             table.partitions[w].ToStored());
      PROST_RETURN_IF_ERROR(
          columnar::WriteLexicalTableFile(decoded, dictionary, path));
    }
    ++index;
  }
  return WriteStringToFile(dir + "/vp_manifest.txt", manifest);
}

}  // namespace prost::core
