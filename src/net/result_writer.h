#ifndef PROST_NET_RESULT_WRITER_H_
#define PROST_NET_RESULT_WRITER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/prost_db.h"
#include "engine/relation.h"

/// Result serialization for the SPARQL protocol endpoint: a Relation
/// (projected variables as columns, dictionary-encoded ids as values)
/// becomes SPARQL 1.1 Query Results JSON or TSV, chosen by the request's
/// Accept header. The writer streams: it renders rows straight from the
/// relation's id columns and the dictionary's lexical forms into one
/// reused buffer, handed to a sink whenever it reaches kStreamFlushBytes,
/// so a response never exists whole in memory. The inverse parser exists
/// so tests and the bench can deserialize a response back into lexical
/// rows and compare them row-identically against in-process execution.

namespace prost::net {

enum class ResultFormat {
  kJson,  // application/sparql-results+json (the default).
  kTsv,   // text/tab-separated-values.
};

/// A deserialized result set: variable names plus rows of N-Triples
/// lexical terms ("<iri>", "\"lit\"^^<dt>", "_:b0"), in response order.
struct SparqlResultSet {
  std::vector<std::string> vars;
  std::vector<std::vector<std::string>> rows;
};

/// SerializeTo hands its buffer to the sink once a row takes it to at
/// least this many bytes, so every piece but the last is between this
/// and this plus one row.
inline constexpr size_t kStreamFlushBytes = 64 * 1024;

/// Receives consecutive pieces of a serialized result. The view is valid
/// only during the call. A non-OK status stops serialization.
using ResultSink = std::function<Status(std::string_view piece)>;

class SparqlResultWriter {
 public:
  /// Content negotiation over the Accept header: the first recognized
  /// media type wins ("application/sparql-results+json" or
  /// "application/json" → JSON; "text/tab-separated-values" → TSV);
  /// anything else — including an absent or wildcard Accept — falls back
  /// to JSON, the format every SPARQL client speaks.
  static ResultFormat Negotiate(std::string_view accept_header);

  static const char* ContentType(ResultFormat format);

  /// Streams `relation` in `format` to `sink`, decoding ids through
  /// `db`'s dictionary, in pieces of `flush_bytes` plus at most one row
  /// (the last piece may be shorter). Row order is the relation's
  /// CollectRows order (chunk, then row) — the same order
  /// ProstDb::DecodeRows yields — so a network client and an in-process
  /// caller see identical row sequences. Returns the first sink error,
  /// or the decode error of an id the dictionary does not hold; pieces
  /// already handed over stay handed over.
  static Status SerializeTo(const core::ProstDb& db,
                            const engine::Relation& relation,
                            ResultFormat format, const ResultSink& sink,
                            size_t flush_bytes = kStreamFlushBytes);

  /// The whole SerializeTo output as one string.
  static Result<std::string> Serialize(const core::ProstDb& db,
                                       const engine::Relation& relation,
                                       ResultFormat format);

  /// Parses a SPARQL 1.1 JSON results document (the writer's own output
  /// shape) back into lexical rows. Binding terms are reassembled into
  /// canonical N-Triples.
  static Result<SparqlResultSet> ParseJson(std::string_view json);

  /// Parses the TSV serialization back into lexical rows.
  static Result<SparqlResultSet> ParseTsv(std::string_view tsv);
};

/// Appends `text` to `out`, escaped for embedding inside a JSON string
/// literal (quotes, backslash, control characters). UTF-8 passes through
/// untouched.
void AppendJsonEscaped(std::string_view text, std::string* out);

}  // namespace prost::net

#endif  // PROST_NET_RESULT_WRITER_H_
