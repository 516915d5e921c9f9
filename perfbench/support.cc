#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <utility>

#include "bench.h"
#include "common/hash.h"
#include "common/rng.h"
#include "net/http.h"
#include "net/result_writer.h"
#include "random_workload.h"
#include "watdiv/schema.h"

namespace perfbench {

using prost::HashCombine;
using prost::Mix64;
using prost::Rng;

// -------------------------------------------------------------- queries

size_t Catalog::Intern(std::string sparql, size_t template_index) {
  auto it = index_.find(sparql);
  if (it != index_.end()) return it->second;
  QueryText text;
  text.target = "/sparql?query=" + prost::net::PercentEncode(sparql);
  text.sparql = sparql;
  text.template_index = template_index;
  texts_.push_back(std::move(text));
  index_.emplace(std::move(sparql), texts_.size() - 1);
  return texts_.size() - 1;
}

namespace {

// An Rng for one (stream, round) pair of a seeded run.
Rng StreamRng(uint64_t seed, uint64_t stream, uint64_t round) {
  return Rng(HashCombine(HashCombine(Mix64(seed), stream), round));
}

std::vector<size_t> Permutation(Rng rng, size_t n) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  rng.Shuffle(perm);
  return perm;
}

constexpr char kClasses[] = {'C', 'F', 'L', 'S'};

uint32_t ClassWeight(char query_class) {
  return prost::testing::QueryMixSampler::ClassWeight(query_class);
}

std::vector<char> ClassSlots() {
  std::vector<char> slots;
  for (char c : kClasses) slots.insert(slots.end(), ClassWeight(c), c);
  return slots;
}

std::vector<size_t> ClassMembers(const Catalog& catalog, char cls) {
  std::vector<size_t> members;
  const auto& templates = catalog.templates();
  for (size_t t = 0; t < templates.size(); ++t) {
    if (templates[t].query_class == cls) members.push_back(t);
  }
  return members;
}

}  // namespace

uint64_t ClassMixPeriod(const Catalog& catalog) {
  const uint64_t round = ClassSlots().size();
  uint64_t period = 0;
  for (char c : kClasses) {
    // A class with w slots a round cycles its m templates every m/w rounds.
    const uint64_t m = ClassMembers(catalog, c).size();
    const uint64_t w = ClassWeight(c);
    period = std::max(period, (m * round + w - 1) / w);
  }
  return period;
}

size_t ClassMixTemplate(const Catalog& catalog, uint64_t seed, uint64_t k) {
  const std::vector<char> slots = ClassSlots();
  const uint64_t round = k / slots.size();
  const size_t pos = static_cast<size_t>(k % slots.size());
  std::vector<size_t> order =
      Permutation(StreamRng(seed, 1, round), slots.size());
  const char cls = slots[order[pos]];
  // Occurrence number of this class in the whole stream.
  uint64_t occurrence = round * ClassWeight(cls);
  for (size_t i = 0; i < pos; ++i) occurrence += slots[order[i]] == cls;

  const std::vector<size_t> members = ClassMembers(catalog, cls);
  const uint64_t cycle = occurrence / members.size();
  std::vector<size_t> perm = Permutation(
      StreamRng(seed, 2 + static_cast<uint64_t>(cls), cycle), members.size());
  return members[perm[occurrence % members.size()]];
}

size_t RoundTemplate(uint64_t seed, uint64_t k, size_t num_templates) {
  std::vector<size_t> perm =
      Permutation(StreamRng(seed, 1000, k / num_templates), num_templates);
  return perm[k % num_templates];
}

std::string InstantiateTemplate(const Catalog& catalog, size_t t,
                                const prost::watdiv::WatDivSizing& sizing,
                                uint64_t seed, uint64_t k, uint64_t strata) {
  namespace wd = prost::watdiv;
  struct EntityKind {
    const char* name;
    std::string (*iri)(uint64_t);
    uint64_t count;
  };
  // Longer names first, so "ProductCategory7" never reads as "Product".
  const EntityKind kinds[] = {
      {"ProductCategory", wd::ProductCategoryIri, sizing.product_categories},
      {"AgeGroup", wd::AgeGroupIri, sizing.age_groups},
      {"SubGenre", wd::SubGenreIri, sizing.sub_genres},
      {"Retailer", wd::RetailerIri, sizing.retailers},
      {"Language", wd::LanguageIri, sizing.languages},
      {"Country", wd::CountryIri, sizing.countries},
      {"Website", wd::WebsiteIri, sizing.websites},
      {"Product", wd::ProductIri, sizing.products},
      {"Topic", wd::TopicIri, sizing.topics},
      {"City", wd::CityIri, sizing.cities},
      {"Role", wd::RoleIri, sizing.roles},
      {"User", wd::UserIri, sizing.users},
  };
  static constexpr std::string_view kPrefix = "wsdbm:";
  const std::string& source = catalog.templates()[t].sparql;
  const uint64_t round = k / catalog.templates().size();
  const double stratum = static_cast<double>(Permutation(
      StreamRng(seed, 3000, round / strata), strata)[round % strata]);
  Rng rng = StreamRng(seed, 2000, k);
  auto draw_rank = [&](uint64_t count) {
    const double x = (stratum + rng.NextDouble()) / static_cast<double>(strata);
    const double rank =
        std::floor(std::pow(static_cast<double>(count) + 1, x)) - 1;
    return std::min(count - 1, static_cast<uint64_t>(std::max(0.0, rank)));
  };
  std::string out;
  size_t pos = 0;
  while (true) {
    size_t at = source.find(kPrefix, pos);
    if (at == std::string::npos) break;
    size_t name_begin = at + kPrefix.size();
    size_t digits = name_begin;
    while (digits < source.size() && std::isalpha(static_cast<unsigned char>(
                                         source[digits]))) {
      ++digits;
    }
    size_t end = digits;
    while (end < source.size() &&
           std::isdigit(static_cast<unsigned char>(source[end]))) {
      ++end;
    }
    const std::string_view name(source.data() + name_begin,
                                digits - name_begin);
    const EntityKind* kind = nullptr;
    for (const EntityKind& candidate : kinds) {
      if (name == candidate.name && end > digits && candidate.count > 0) {
        kind = &candidate;
        break;
      }
    }
    if (kind == nullptr) {  // a predicate such as wsdbm:likes
      out.append(source, pos, end - pos);
      pos = end;
      continue;
    }
    out.append(source, pos, at - pos);
    out += "<" + kind->iri(draw_rank(kind->count)) + ">";
    pos = end;
  }
  out.append(source, pos, std::string::npos);
  return out;
}

// --------------------------------------------------------------- checks

Fingerprint FingerprintOf(const prost::engine::Relation& relation) {
  const std::vector<std::string>& names = relation.column_names();
  std::vector<size_t> order(names.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return names[a] < names[b]; });
  uint64_t schema = 0;
  for (size_t c : order) {
    schema = HashCombine(schema, prost::HashBytes(names[c]));
  }

  Fingerprint fp;
  fp.hash = schema;
  for (const prost::engine::RelationChunk& chunk : relation.chunks()) {
    const size_t rows = chunk.num_rows();
    for (size_t r = 0; r < rows; ++r) {
      uint64_t row = schema;
      for (size_t c : order) row = HashCombine(row, chunk.columns[c][r]);
      fp.hash += Mix64(row);
    }
    fp.rows += rows;
  }
  return fp;
}

uint64_t HashBody(std::string_view body) {
  uint64_t hash = Mix64(body.size());
  size_t i = 0;
  for (; i + 8 <= body.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, body.data() + i, 8);
    hash = Mix64(hash ^ word);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, body.data() + i, body.size() - i);
  return Mix64(hash ^ tail);
}

std::string CompareJsonRows(std::string_view body, const ProstDb& db,
                            const prost::engine::Relation& relation) {
  auto parsed = prost::net::SparqlResultWriter::ParseJson(body);
  if (!parsed.ok()) return "unparseable JSON: " + parsed.status().ToString();
  auto decoded = db.DecodeRows(relation);
  if (!decoded.ok()) return "decode: " + decoded.status().ToString();
  if (parsed->vars != relation.column_names()) return "variables differ";
  if (parsed->rows.size() != decoded->size()) {
    return "row count " + std::to_string(parsed->rows.size()) + " != " +
           std::to_string(decoded->size());
  }
  for (size_t i = 0; i < decoded->size(); ++i) {
    if (parsed->rows[i] != (*decoded)[i]) {
      return "row " + std::to_string(i) + " differs";
    }
  }
  return "";
}

// -------------------------------------------------------------- tracing

namespace {

// The layer name a profile span kind is reported under.
const char* LayerOfSpanKind(prost::obs::SpanKind kind) {
  using prost::obs::SpanKind;
  switch (kind) {
    case SpanKind::kQuery:
      return "core.execute";
    case SpanKind::kScan:
      return "engine.scan";
    case SpanKind::kJoin:
      return "engine.join";
    case SpanKind::kExchange:
      return "engine.exchange";
    default:
      return "engine.modifier";
  }
}

}  // namespace

int32_t OpSpans::Open(std::string name, int32_t parent) {
  spans_.push_back(SpanRecord{std::move(name), Now(), 0, parent, op_});
  return static_cast<int32_t>(spans_.size() - 1);
}

void OpSpans::Close(int32_t id) {
  SpanRecord& span = spans_[static_cast<size_t>(id)];
  span.dur_ms = Now() - span.start_ms;
}

int32_t OpSpans::AddDuration(std::string name, double millis,
                             int32_t parent) {
  spans_.push_back(SpanRecord{std::move(name), -1, millis, parent, op_});
  return static_cast<int32_t>(spans_.size() - 1);
}

void OpSpans::AddProfile(const prost::obs::QueryProfile& profile,
                         int32_t parent) {
  // Profile spans are appended as they open, so parents precede children.
  std::vector<int32_t> mapped(profile.spans().size(), -1);
  for (size_t i = 0; i < profile.spans().size(); ++i) {
    const prost::obs::Span& span = profile.spans()[i];
    const int32_t into =
        span.parent < 0 ? parent : mapped[static_cast<size_t>(span.parent)];
    mapped[i] = AddDuration(LayerOfSpanKind(span.kind), span.wall_millis, into);
  }
}

std::map<std::string, double> OpSpans::SelfTimes() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<size_t>(span.parent)] += span.dur_ms;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].dur_ms - covered[i];
  }
  return self;
}

}  // namespace perfbench
