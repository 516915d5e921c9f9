#include "net/result_writer.h"

#include <cctype>
#include <charconv>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "rdf/term.h"

namespace prost::net {

namespace {

/// A deliberately small JSON reader: just enough grammar to parse the
/// SPARQL results documents this layer itself writes (objects, arrays,
/// strings with escapes, numbers, true/false/null). Not a general JSON
/// library — unknown constructs fail with kParseError rather than being
/// guessed at.
struct JsonValue {
  enum class Kind { kObject, kArray, kString, kNumber, kBool, kNull };
  Kind kind = Kind::kNull;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;
  std::string string;
  double number = 0;
  bool boolean = false;

  const JsonValue* Find(std::string_view key) const {
    for (const auto& [name, value] : object) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    PROST_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (position_ != text_.size()) {
      return Status::ParseError("trailing bytes after JSON document");
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (position_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[position_]))) {
      ++position_;
    }
  }

  bool Consume(char expected) {
    SkipWhitespace();
    if (position_ < text_.size() && text_[position_] == expected) {
      ++position_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (position_ >= text_.size()) {
      return Status::ParseError("unexpected end of JSON");
    }
    char c = text_[position_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseLiteral(c == 't');
    if (c == 'n') {
      PROST_RETURN_IF_ERROR(Expect("null"));
      return JsonValue{};
    }
    return ParseNumber();
  }

  Status Expect(std::string_view word) {
    if (text_.substr(position_, word.size()) != word) {
      return Status::ParseError("malformed JSON literal");
    }
    position_ += word.size();
    return Status::OK();
  }

  Result<JsonValue> ParseLiteral(bool value) {
    PROST_RETURN_IF_ERROR(Expect(value ? "true" : "false"));
    JsonValue out;
    out.kind = JsonValue::Kind::kBool;
    out.boolean = value;
    return out;
  }

  Result<JsonValue> ParseNumber() {
    size_t start = position_;
    while (position_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[position_])) ||
            std::string_view("+-.eE").find(text_[position_]) !=
                std::string_view::npos)) {
      ++position_;
    }
    if (start == position_) return Status::ParseError("malformed JSON value");
    JsonValue out;
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::strtod(std::string(text_.substr(start,
                                                      position_ - start))
                                 .c_str(),
                             nullptr);
    return out;
  }

  Result<JsonValue> ParseString() {
    ++position_;  // Opening quote.
    std::string out;
    while (position_ < text_.size()) {
      char c = text_[position_++];
      if (c == '"') {
        JsonValue value;
        value.kind = JsonValue::Kind::kString;
        value.string = std::move(out);
        return value;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (position_ >= text_.size()) break;
      char escape = text_[position_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out.push_back(escape);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (position_ + 4 > text_.size()) {
            return Status::ParseError("truncated \\u escape");
          }
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[position_++];
            if (!std::isxdigit(static_cast<unsigned char>(h))) {
              return Status::ParseError("malformed \\u escape");
            }
            code = code * 16 +
                   static_cast<unsigned int>(
                       h <= '9' ? h - '0'
                                : std::tolower(h) - 'a' + 10);
          }
          // The writer only emits \u00XX for control bytes; decoding
          // the Basic Latin range is all the round trip needs.
          if (code > 0x7F) {
            return Status::ParseError("non-ASCII \\u escape unsupported");
          }
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          return Status::ParseError("unknown JSON escape");
      }
    }
    return Status::ParseError("unterminated JSON string");
  }

  Result<JsonValue> ParseObject() {
    ++position_;  // '{'
    JsonValue out;
    out.kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return out;
    while (true) {
      SkipWhitespace();
      if (position_ >= text_.size() || text_[position_] != '"') {
        return Status::ParseError("expected JSON object key");
      }
      PROST_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      if (!Consume(':')) return Status::ParseError("expected ':'");
      PROST_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      out.object.emplace_back(std::move(key.string), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return out;
      return Status::ParseError("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray() {
    ++position_;  // '['
    JsonValue out;
    out.kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return out;
    while (true) {
      PROST_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      out.array.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return out;
      return Status::ParseError("expected ',' or ']'");
    }
  }

  std::string_view text_;
  size_t position_ = 0;
};

constexpr std::string_view kXsdInteger =
    "http://www.w3.org/2001/XMLSchema#integer";

/// One typed binding object: {"type":…,"value":…} plus, when
/// `attribute` is set, one more string member ("xml:lang" or
/// "datatype").
void AppendBinding(std::string_view type, std::string_view value,
                   std::string_view attribute,
                   std::string_view attribute_value, std::string* out) {
  out->append("{\"type\":\"");
  out->append(type);
  out->append("\",\"value\":\"");
  AppendJsonEscaped(value, out);
  if (!attribute.empty()) {
    out->append("\",\"");
    out->append(attribute);
    out->append("\":\"");
    AppendJsonEscaped(attribute_value, out);
  }
  out->append("\"}");
}

void AppendBindingJson(const rdf::Term& term, std::string* out) {
  switch (term.kind) {
    case rdf::TermKind::kIri:
      return AppendBinding("uri", term.value, "", "", out);
    case rdf::TermKind::kBlank:
      return AppendBinding("bnode", term.value, "", "", out);
    case rdf::TermKind::kLiteral:
      if (!term.language.empty()) {
        return AppendBinding("literal", term.value, "xml:lang",
                             term.language, out);
      }
      if (!term.datatype.empty()) {
        return AppendBinding("literal", term.value, "datatype",
                             term.datatype, out);
      }
      return AppendBinding("literal", term.value, "", "", out);
    case rdf::TermKind::kVariable:
      break;  // Variables never appear in data.
  }
  AppendBinding("literal", "", "", "", out);
}

/// The binding object of one canonical N-Triples term, transcoded in
/// place for IRIs, blank nodes and plain or typed literals without
/// backslash escapes (their lexical bytes are their values). Escaped and
/// language-tagged literals, and anything malformed, go through
/// rdf::ParseTerm, which also supplies the error.
Status AppendLexicalBindingJson(std::string_view lexical, std::string* out) {
  if (lexical.size() >= 2 && lexical.front() == '<' &&
      lexical.back() == '>') {
    AppendBinding("uri", lexical.substr(1, lexical.size() - 2), "", "", out);
    return Status::OK();
  }
  if (lexical.size() >= 3 && lexical[0] == '_' && lexical[1] == ':') {
    AppendBinding("bnode", lexical.substr(2), "", "", out);
    return Status::OK();
  }
  if (!lexical.empty() && lexical.front() == '"' &&
      lexical.find('\\') == std::string_view::npos) {
    const size_t close = lexical.find('"', 1);
    if (close != std::string_view::npos) {
      const std::string_view value = lexical.substr(1, close - 1);
      const std::string_view suffix = lexical.substr(close + 1);
      if (suffix.empty()) {
        AppendBinding("literal", value, "", "", out);
        return Status::OK();
      }
      if (suffix.size() >= 4 && suffix.substr(0, 3) == "^^<" &&
          suffix.back() == '>') {
        AppendBinding("literal", value, "datatype",
                      suffix.substr(3, suffix.size() - 4), out);
        return Status::OK();
      }
    }
  }
  PROST_ASSIGN_OR_RETURN(rdf::Term term, rdf::ParseTerm(lexical));
  AppendBindingJson(term, out);
  return Status::OK();
}

/// Appends one result cell: the N-Triples term for TSV, its binding
/// object for JSON. Virtual integer ids render as DecodeRows renders
/// them, an xsd:integer typed literal.
Status AppendCell(const rdf::Dictionary& dictionary, rdf::TermId id,
                  ResultFormat format, std::string* out) {
  if (rdf::IsVirtualIntegerId(id)) {
    char digits[24];
    const std::to_chars_result end = std::to_chars(
        digits, digits + sizeof(digits), rdf::VirtualIntegerValue(id));
    const std::string_view value(digits,
                                 static_cast<size_t>(end.ptr - digits));
    if (format == ResultFormat::kJson) {
      AppendBinding("literal", value, "datatype", kXsdInteger, out);
      return Status::OK();
    }
    out->push_back('"');
    out->append(value);
    out->append("\"^^<");
    out->append(kXsdInteger);
    out->push_back('>');
    return Status::OK();
  }
  PROST_ASSIGN_OR_RETURN(std::string_view lexical, dictionary.LookupId(id));
  if (format == ResultFormat::kJson) {
    return AppendLexicalBindingJson(lexical, out);
  }
  out->append(lexical);
  return Status::OK();
}

Result<rdf::Term> TermFromBinding(const JsonValue& binding) {
  const JsonValue* type = binding.Find("type");
  const JsonValue* value = binding.Find("value");
  if (type == nullptr || value == nullptr ||
      type->kind != JsonValue::Kind::kString ||
      value->kind != JsonValue::Kind::kString) {
    return Status::ParseError("binding missing type/value");
  }
  if (type->string == "uri") return rdf::Term::Iri(value->string);
  if (type->string == "bnode") return rdf::Term::Blank(value->string);
  if (type->string == "literal") {
    const JsonValue* lang = binding.Find("xml:lang");
    if (lang != nullptr && lang->kind == JsonValue::Kind::kString) {
      return rdf::Term::LangLiteral(value->string, lang->string);
    }
    const JsonValue* datatype = binding.Find("datatype");
    if (datatype != nullptr &&
        datatype->kind == JsonValue::Kind::kString) {
      return rdf::Term::TypedLiteral(value->string, datatype->string);
    }
    return rdf::Term::Literal(value->string);
  }
  return Status::ParseError("unknown binding type: " + type->string);
}

}  // namespace

ResultFormat SparqlResultWriter::Negotiate(std::string_view accept_header) {
  for (const std::string& entry : StrSplit(accept_header, ',')) {
    // Strip q-factor and other media-type parameters.
    std::string_view media(entry);
    size_t semicolon = media.find(';');
    if (semicolon != std::string_view::npos) {
      media = media.substr(0, semicolon);
    }
    media = StrTrim(media);
    if (media == "application/sparql-results+json" ||
        media == "application/json") {
      return ResultFormat::kJson;
    }
    if (media == "text/tab-separated-values") return ResultFormat::kTsv;
  }
  // Unknown, wildcard, or absent: JSON is the SPARQL protocol default.
  return ResultFormat::kJson;
}

const char* SparqlResultWriter::ContentType(ResultFormat format) {
  switch (format) {
    case ResultFormat::kJson:
      return "application/sparql-results+json";
    case ResultFormat::kTsv:
      return "text/tab-separated-values";
  }
  return "application/sparql-results+json";
}

Status SparqlResultWriter::SerializeTo(const core::ProstDb& db,
                                       const engine::Relation& relation,
                                       ResultFormat format,
                                       const ResultSink& sink,
                                       size_t flush_bytes) {
  const rdf::Dictionary& dictionary = db.dictionary();
  const std::vector<std::string>& vars = relation.column_names();
  const bool json = format == ResultFormat::kJson;
  std::string buffer;
  buffer.reserve(flush_bytes + 4096);

  // SPARQL 1.1 TSV: "?var" header row, then one N-Triples-encoded term per
  // cell (tabs/newlines inside literals are backslash-escaped by the
  // N-Triples serialization, so cells never contain separators). JSON:
  // the head, then one object per row keyed by the escaped variable names.
  std::vector<std::string> keys;
  if (json) {
    buffer.append("{\"head\":{\"vars\":[");
    keys.reserve(vars.size());
    for (size_t c = 0; c < vars.size(); ++c) {
      std::string key = "\"";
      AppendJsonEscaped(vars[c], &key);
      key.push_back('"');
      if (c > 0) buffer.push_back(',');
      buffer.append(key);
      key.push_back(':');
      keys.push_back(std::move(key));
    }
    buffer.append("]},\"results\":{\"bindings\":[");
  } else {
    for (size_t c = 0; c < vars.size(); ++c) {
      buffer.append(c == 0 ? "?" : "\t?");
      buffer.append(vars[c]);
    }
    buffer.push_back('\n');
  }

  bool first_row = true;
  for (const engine::RelationChunk& chunk : relation.chunks()) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      if (json) buffer.append(first_row ? "{" : ",{");
      first_row = false;
      for (size_t c = 0; c < vars.size(); ++c) {
        // A chunk short of columns reads as null ids, as CollectRows does.
        const rdf::TermId id =
            c < chunk.columns.size() ? chunk.columns[c][r] : rdf::kNullTermId;
        if (json) {
          if (c > 0) buffer.push_back(',');
          buffer.append(keys[c]);
        } else if (c > 0) {
          buffer.push_back('\t');
        }
        PROST_RETURN_IF_ERROR(AppendCell(dictionary, id, format, &buffer));
      }
      buffer.push_back(json ? '}' : '\n');
      if (buffer.size() >= flush_bytes) {
        PROST_RETURN_IF_ERROR(sink(buffer));
        buffer.clear();
      }
    }
  }
  if (json) buffer.append("]}}");
  if (buffer.empty()) return Status::OK();
  return sink(buffer);
}

Result<std::string> SparqlResultWriter::Serialize(
    const core::ProstDb& db, const engine::Relation& relation,
    ResultFormat format) {
  std::string out;
  PROST_RETURN_IF_ERROR(
      SerializeTo(db, relation, format, [&out](std::string_view piece) {
        out.append(piece);
        return Status::OK();
      }));
  return out;
}

Result<SparqlResultSet> SparqlResultWriter::ParseJson(
    std::string_view json) {
  PROST_ASSIGN_OR_RETURN(JsonValue document, JsonReader(json).Parse());
  if (document.kind != JsonValue::Kind::kObject) {
    return Status::ParseError("results document is not a JSON object");
  }
  const JsonValue* head = document.Find("head");
  const JsonValue* results = document.Find("results");
  if (head == nullptr || results == nullptr) {
    return Status::ParseError("missing head/results");
  }
  const JsonValue* vars = head->Find("vars");
  const JsonValue* bindings = results->Find("bindings");
  if (vars == nullptr || vars->kind != JsonValue::Kind::kArray ||
      bindings == nullptr ||
      bindings->kind != JsonValue::Kind::kArray) {
    return Status::ParseError("missing head.vars/results.bindings");
  }

  SparqlResultSet out;
  for (const JsonValue& var : vars->array) {
    if (var.kind != JsonValue::Kind::kString) {
      return Status::ParseError("head.vars entry is not a string");
    }
    out.vars.push_back(var.string);
  }
  for (const JsonValue& row : bindings->array) {
    if (row.kind != JsonValue::Kind::kObject) {
      return Status::ParseError("binding row is not an object");
    }
    std::vector<std::string> decoded;
    decoded.reserve(out.vars.size());
    for (const std::string& var : out.vars) {
      const JsonValue* binding = row.Find(var);
      if (binding == nullptr) {
        return Status::ParseError("row missing binding for ?" + var);
      }
      PROST_ASSIGN_OR_RETURN(rdf::Term term, TermFromBinding(*binding));
      decoded.push_back(term.ToNTriples());
    }
    out.rows.push_back(std::move(decoded));
  }
  return out;
}

Result<SparqlResultSet> SparqlResultWriter::ParseTsv(std::string_view tsv) {
  SparqlResultSet out;
  bool header = true;
  for (const std::string& line : StrSplit(tsv, '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> cells = StrSplit(line, '\t');
    if (header) {
      for (std::string& cell : cells) {
        if (cell.empty() || cell[0] != '?') {
          return Status::ParseError("TSV header cell is not a ?var");
        }
        out.vars.push_back(cell.substr(1));
      }
      header = false;
      continue;
    }
    if (cells.size() != out.vars.size()) {
      return Status::ParseError("TSV row width does not match header");
    }
    out.rows.push_back(std::move(cells));
  }
  if (header) return Status::ParseError("empty TSV document");
  return out;
}

void AppendJsonEscaped(std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  // Copies runs of bytes that need no escape in one append each.
  size_t run_begin = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(text.data() + run_begin, i - run_begin);
    run_begin = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(text.data() + run_begin, text.size() - run_begin);
}

}  // namespace prost::net
