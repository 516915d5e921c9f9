#ifndef PROST_NET_HTTP_H_
#define PROST_NET_HTTP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

/// A minimal-but-correct HTTP/1.1 layer: exactly the surface the SPARQL
/// protocol endpoint needs (request line + headers + Content-Length
/// request bodies + keep-alive; Content-Length, chunked or
/// close-delimited response bodies), none it does not (no chunked
/// request bodies, no HTTP/2). Both parsers are incremental and
/// byte-stream agnostic — the server feeds them recv(2) fragments, the
/// parser-tier tests feed them hand-torn byte slices with no socket in
/// sight — and every request size limit maps to the HTTP status the RFC
/// assigns (431 for request-line/header overflow, 413 for body overflow).

namespace prost::net {

/// One parsed request. Header names are lowercased at parse time
/// (HTTP/1.1 header names are case-insensitive); values keep their bytes
/// minus surrounding whitespace.
struct HttpRequest {
  std::string method;        // Uppercase verbs as sent: "GET", "POST".
  std::string target;        // Raw request target, e.g. "/sparql?query=…".
  std::string path;          // Target up to '?', percent-decoded.
  std::string query_string;  // Raw bytes after '?' (still encoded).
  std::string version;       // "HTTP/1.1" or "HTTP/1.0".
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// Connection semantics after this request: HTTP/1.1 defaults to
  /// keep-alive unless "Connection: close"; HTTP/1.0 the reverse.
  bool keep_alive = true;

  /// First header with this name (lowercase), or nullptr.
  const std::string* FindHeader(std::string_view name) const;
};

/// Parser size limits, each with its own HTTP rejection status.
struct HttpLimits {
  /// Request line (431 when exceeded before the line terminates).
  size_t max_request_line_bytes = 8 * 1024;
  /// Everything up to the blank line (431).
  size_t max_header_bytes = 32 * 1024;
  /// Declared Content-Length (413).
  size_t max_body_bytes = 1024 * 1024;
};

/// A malformed or over-limit request, already classified as the HTTP
/// response it deserves (400 / 411 / 413 / 431 / 501).
struct HttpParseError {
  int http_status = 400;
  std::string message;
};

/// Incremental HTTP/1.1 request parser over a byte stream.
///
///   HttpParser parser;
///   parser.Feed(bytes_from_recv);
///   HttpRequest request;
///   switch (parser.Next(&request)) { ... }
///
/// Feed appends arbitrary fragments (torn anywhere, including mid-token);
/// Next consumes at most one complete request from the buffer per call,
/// leaving pipelined followers buffered for the next call. After kError
/// the stream position is undefined and the connection must be closed
/// (which is what every error here requires anyway).
///
/// NOT thread-safe: one parser per connection, owned by its handler.
class HttpParser {
 public:
  enum class Outcome {
    kRequest,   // *request is complete and consumed from the buffer.
    kNeedMore,  // The buffer holds only a request prefix; Feed more.
    kError,     // Malformed/over-limit; see error().
  };

  HttpParser() = default;
  explicit HttpParser(HttpLimits limits) : limits_(limits) {}

  void Feed(std::string_view bytes) { buffer_.append(bytes); }

  Outcome Next(HttpRequest* request);

  /// Valid after Next returned kError.
  const HttpParseError& error() const { return error_; }

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  Outcome Fail(int http_status, std::string message);

  HttpLimits limits_;
  std::string buffer_;
  HttpParseError error_;
};

/// One response to serialize. `Serialize` renders status line, the
/// explicit headers, a computed Content-Length, the standard Connection
/// header for `keep_alive`, and the body.
struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool keep_alive = true;

  void AddHeader(std::string name, std::string value) {
    headers.emplace_back(std::move(name), std::move(value));
  }
  std::string Serialize() const;
  /// The head alone, for a body of unknown length streamed after it
  /// (`body` is ignored): `Transfer-Encoding: chunked` when `chunked`;
  /// otherwise no length at all, which HTTP/1.0 peers read as "the body
  /// ends when the connection closes", so `Connection: close` regardless
  /// of `keep_alive`.
  std::string SerializeStreamHead(bool chunked) const;
};

/// Appends one chunked-transfer chunk (hex size line, `data`, CRLF) to
/// `out`. Empty `data` would be the terminal chunk; callers write that as
/// the literal "0\r\n\r\n" instead.
void AppendHttpChunk(std::string_view data, std::string* out);

/// The canonical reason phrase for the status codes this server emits
/// ("OK", "Bad Request", ...); "Unknown" otherwise.
const char* HttpReasonPhrase(int status);

/// The typed Status→HTTP mapping for execution-layer errors (everything
/// the parse/translate/admit/execute pipeline can return):
///
///   kInvalidArgument, kParseError  → 400  (translator message carried)
///   kNotFound                      → 404
///   kDeadlineExceeded              → 408
///   kResourceExhausted             → 429  (per-query budget exhausted)
///   kUnavailable                   → 503  (admission shed / draining;
///                                          callers add Retry-After)
///   anything else                  → 500
int HttpStatusForStatus(const Status& status);

/// Percent-decodes `text` (+ optionally as space, the form-encoding
/// convention). kInvalidArgument on truncated or non-hex escapes.
Result<std::string> PercentDecode(std::string_view text,
                                  bool plus_as_space);

/// Percent-encodes `text` for use as a URI query value (unreserved
/// characters pass through, everything else becomes %XX).
std::string PercentEncode(std::string_view text);

/// Splits an application/x-www-form-urlencoded payload (also the format
/// of a URI query string) into decoded name/value pairs.
Result<std::vector<std::pair<std::string, std::string>>> ParseFormEncoded(
    std::string_view text);

/// Incremental HTTP/1.1 *response* parser (the client side). Same
/// feeding contract as HttpParser. Feed parses as it goes: the head is
/// parsed once, body bytes are appended straight into Response::body
/// (reserved to Content-Length when there is one), and chunked framing
/// is decoded incrementally, so the parser itself buffers at most a
/// partial head, chunk-size line or bytes that arrived after a complete
/// response. A response with neither Content-Length nor chunked framing
/// has an empty body: this client speaks HTTP/1.1, which our server
/// never answers with a close-delimited body.
///
/// Rejected (kError): malformed status line or headers, a head over
/// 64 KiB, a non-numeric or over-long Content-Length, a
/// Transfer-Encoding other than `chunked`, a chunk size that is not 1-15
/// hex digits, a chunk-size or trailer line over 1 KiB, and chunk data
/// not followed by CRLF.
class HttpResponseParser {
 public:
  struct Response {
    int status = 0;
    std::string version;
    std::vector<std::pair<std::string, std::string>> headers;  // lowercased
    std::string body;

    const std::string* FindHeader(std::string_view name) const;
  };

  void Feed(std::string_view bytes);

  /// kRequest is reused to mean "one complete response parsed".
  HttpParser::Outcome Next(Response* response);

  const HttpParseError& error() const { return error_; }

 private:
  enum class State {
    kHead,          // Waiting for the blank line that ends the head.
    kFixedBody,     // Content-Length bytes outstanding.
    kChunkSize,     // Waiting for a chunk-size line.
    kChunkData,     // Chunk bytes outstanding.
    kChunkDataEnd,  // Waiting for the CRLF after a chunk's data.
    kTrailer,       // After the last chunk: trailer lines up to a blank.
    kComplete,      // current_ is done; Next hands it out.
    kError,
  };

  /// Advances the state machine over `input`; returns the bytes consumed.
  /// Stops early at kComplete/kError or when a line is incomplete.
  size_t Consume(std::string_view input);
  size_t ParseHead(std::string_view input);
  size_t Fail(std::string message);

  State state_ = State::kHead;
  Response current_;
  /// Body or chunk bytes still expected in kFixedBody / kChunkData.
  size_t remaining_ = 0;
  /// Unconsumed input: a partial line, or bytes after a complete response.
  std::string buffer_;
  HttpParseError error_;
};

}  // namespace prost::net

#endif  // PROST_NET_HTTP_H_
