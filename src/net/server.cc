#include "net/server.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <string_view>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "net/result_writer.h"

namespace prost::net {

namespace {

/// Monotonic wall time in seconds; only differences are meaningful.
double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Stable machine-readable code names for parser-layer rejections (the
/// execution layer's codes come from StatusCodeToString instead).
const char* HttpErrorCodeName(int http_status) {
  switch (http_status) {
    case 400:
      return "bad_request";
    case 404:
      return "not_found";
    case 405:
      return "method_not_allowed";
    case 408:
      return "deadline_exceeded";
    case 411:
      return "length_required";
    case 413:
      return "payload_too_large";
    case 415:
      return "unsupported_media_type";
    case 431:
      return "header_too_large";
    case 501:
      return "not_implemented";
    case 503:
      return "unavailable";
    case 505:
      return "version_not_supported";
    default:
      return "error";
  }
}

std::string LowercaseMediaType(const std::string& content_type) {
  std::string_view media(content_type);
  size_t semicolon = media.find(';');
  if (semicolon != std::string_view::npos) media = media.substr(0, semicolon);
  media = StrTrim(media);
  std::string out(media);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

}  // namespace

Server::Server(serve::SessionManager& sessions, ServerOptions options)
    : sessions_(sessions), options_(std::move(options)) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  {
    MutexLock lock(mu_);
    if (state_ != State::kIdle) {
      return Status::Internal("net::Server started twice");
    }
  }
  PROST_ASSIGN_OR_RETURN(
      listener_, ListenSocket::BindAndListen(options_.host, options_.port));
  port_ = listener_.port();
  {
    MutexLock lock(mu_);
    state_ = State::kRunning;
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  const int handler_count = std::max(1, options_.handler_threads);
  handlers_.reserve(static_cast<size_t>(handler_count));
  for (int i = 0; i < handler_count; ++i) {
    handlers_.emplace_back([this] { HandlerLoop(); });
  }
  return Status::OK();
}

void Server::Shutdown() {
  {
    MutexLock lock(mu_);
    if (state_ == State::kIdle) {
      // Never started: nothing to drain or join.
      state_ = State::kStopped;
      shutdown_complete_ = true;
      return;
    }
    if (state_ != State::kRunning) {
      // Another caller is (or was) draining; block until it finishes so
      // every Shutdown return means "all threads joined".
      while (!shutdown_complete_) pending_cv_.Wait(mu_);
      return;
    }
    state_ = State::kDraining;
    drain_started_seconds_ = NowSeconds();
    pending_cv_.NotifyAll();
  }
  // Joining IS the drain: the acceptor exits at its next poll tick, idle
  // handlers exit immediately, and busy handlers finish their connection
  // — answering late requests with 503 inside the grace window, never
  // truncating an in-flight response.
  acceptor_.join();
  for (std::thread& handler : handlers_) handler.join();
  handlers_.clear();
  listener_.Close();
  MutexLock lock(mu_);
  state_ = State::kStopped;
  pending_.clear();
  metrics_.gauge("net.pending_connections").Set(0);
  shutdown_complete_ = true;
  pending_cv_.NotifyAll();
}

bool Server::draining() const {
  MutexLock lock(mu_);
  return state_ == State::kDraining || state_ == State::kStopped;
}

double Server::SecondsSinceDrainStarted() const {
  MutexLock lock(mu_);
  if (state_ != State::kDraining && state_ != State::kStopped) return 0;
  return NowSeconds() - drain_started_seconds_;
}

void Server::AcceptLoop() {
  while (true) {
    {
      MutexLock lock(mu_);
      if (state_ != State::kRunning) return;
    }
    // Short poll ticks so shutdown is noticed promptly without signals.
    Result<bool> ready = listener_.WaitPending(/*timeout_millis=*/200);
    if (!ready.ok()) return;  // Listener broken beyond repair.
    if (!*ready) continue;
    Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) continue;  // Peer vanished between poll and accept.
    metrics_.counter("net.connections_accepted").Increment();
    bool enqueued = false;
    {
      MutexLock lock(mu_);
      if (state_ != State::kRunning) return;  // Socket closes on scope exit.
      if (pending_.size() < options_.max_pending_connections) {
        pending_.push_back(std::move(*accepted));
        metrics_.gauge("net.pending_connections")
            .Set(static_cast<double>(pending_.size()));
        pending_cv_.NotifyAll();
        enqueued = true;
      }
    }
    if (!enqueued) {
      // Bounded backlog: shed the connection with an immediate 503 (best
      // effort — the write happens outside mu_ and may itself fail).
      metrics_.counter("net.connections_rejected_pending_full").Increment();
      HttpResponse response =
          ErrorResponse(503, "unavailable", "connection backlog full");
      response.keep_alive = false;
      response.AddHeader("Retry-After", "1");
      PROST_IGNORE_ERROR(accepted->SetDeadline(1.0));
      PROST_IGNORE_ERROR(accepted->WriteAll(response.Serialize()));
    }
  }
}

void Server::HandlerLoop() {
  while (true) {
    Socket socket;
    {
      MutexLock lock(mu_);
      while (state_ == State::kRunning && pending_.empty()) {
        pending_cv_.Wait(mu_);
      }
      // Draining with connections still pending: serve them (they get
      // their 503s inside the grace window). Empty + not running: done.
      if (pending_.empty()) return;
      socket = std::move(pending_.front());
      pending_.pop_front();
      metrics_.gauge("net.pending_connections")
          .Set(static_cast<double>(pending_.size()));
      ++active_connections_;
      metrics_.gauge("net.active_connections").Set(active_connections_);
    }
    ServeConnection(std::move(socket));
    metrics_.counter("net.connections_handled").Increment();
    MutexLock lock(mu_);
    --active_connections_;
    metrics_.gauge("net.active_connections").Set(active_connections_);
  }
}

void Server::ServeConnection(Socket socket) {
  // SO_RCVTIMEO/SO_SNDTIMEO bound every blocking transfer; the read loop
  // below additionally enforces the deadline across torn reads.
  PROST_IGNORE_ERROR(socket.SetDeadline(options_.request_deadline_seconds));
  PROST_IGNORE_ERROR(socket.SetNoDelay());
  HttpParser parser(options_.http_limits);
  char buffer[8192];
  double request_started = NowSeconds();
  double idle_since = NowSeconds();

  while (true) {
    HttpRequest request;
    switch (parser.Next(&request)) {
      case HttpParser::Outcome::kError: {
        const HttpParseError& error = parser.error();
        HttpResponse response = ErrorResponse(
            error.http_status, HttpErrorCodeName(error.http_status),
            error.message);
        response.keep_alive = false;
        Send(socket, response);
        return;
      }
      case HttpParser::Outcome::kRequest: {
        metrics_.counter("net.requests").Increment();
        bool keep_open = false;
        if (draining()) {
          // A request that completed after drain started: answered, not
          // slammed — but told to go elsewhere.
          metrics_.counter("net.drain_rejected").Increment();
          HttpResponse response = ErrorResponse(
              503, "unavailable", "server is draining; retry elsewhere");
          response.AddHeader("Retry-After", "1");
          response.keep_alive = false;
          Send(socket, response);
        } else {
          keep_open = Respond(request, socket);
        }
        if (!keep_open) return;
        request_started = NowSeconds();
        idle_since = NowSeconds();
        continue;  // A pipelined follower may already be buffered.
      }
      case HttpParser::Outcome::kNeedMore:
        break;
    }

    const bool mid_request = parser.buffered_bytes() > 0;
    const double now = NowSeconds();
    if (mid_request &&
        now - request_started > options_.request_deadline_seconds) {
      const Status timeout =
          Status::DeadlineExceeded("request read deadline exceeded");
      HttpResponse response =
          ErrorResponse(HttpStatusForStatus(timeout),
                        StatusCodeToString(timeout.code()), timeout.message());
      response.keep_alive = false;
      Send(socket, response);
      return;
    }
    if (!mid_request && now - idle_since > options_.idle_timeout_seconds) {
      return;  // Idle keep-alive expiry: close quietly.
    }
    if (SecondsSinceDrainStarted() > options_.drain_grace_seconds) {
      return;  // Grace window over; stragglers get a closed connection.
    }
    Result<bool> readable = socket.WaitReadable(/*timeout_millis=*/100);
    if (!readable.ok()) return;
    if (!*readable) continue;
    if (parser.buffered_bytes() == 0) request_started = NowSeconds();
    Result<size_t> n = socket.Read(buffer, sizeof(buffer));
    if (!n.ok() || *n == 0) return;  // Error, timeout, or EOF.
    parser.Feed(std::string_view(buffer, *n));
  }
}

bool Server::Respond(const HttpRequest& request, Socket& socket) {
  if (request.path == "/sparql" &&
      (request.method == "GET" || request.method == "POST")) {
    return HandleSparql(request, socket);
  }
  HttpResponse response;
  if (request.path == "/healthz" || request.path == "/metrics") {
    if (request.method != "GET") {
      response = ErrorResponse(405, HttpErrorCodeName(405), "use GET");
      response.AddHeader("Allow", "GET");
    } else if (request.path == "/healthz") {
      response.AddHeader("Content-Type", "text/plain; charset=utf-8");
      response.body = "ok\n";
    } else {
      response = HandleMetrics();
    }
  } else if (request.path == "/sparql") {
    response = ErrorResponse(405, HttpErrorCodeName(405), "use GET or POST");
    response.AddHeader("Allow", "GET, POST");
  } else {
    response = ErrorResponse(404, HttpErrorCodeName(404),
                             "no route for " + request.path);
  }
  response.keep_alive = request.keep_alive;
  return Send(socket, response);
}

bool Server::Send(Socket& socket, const HttpResponse& response) {
  metrics_.counter(StrFormat("net.responses.%dxx", response.status / 100))
      .Increment();
  return socket.WriteAll(response.Serialize()).ok() && response.keep_alive;
}

namespace {

/// The sink side of a streamed SPARQL response (DESIGN.md §13). The
/// first piece is held back: if the writer finishes without a second,
/// the body fits one flush buffer and goes out with Content-Length, as a
/// small response always did. Otherwise the head goes out with the
/// second piece, chunked for HTTP/1.1 and close-delimited for HTTP/1.0,
/// and each later piece is written as it arrives. `sent` is counted
/// before the head's first byte is written, as Server::Send counts, so a
/// client that has read its response never sees the counter lag behind.
class ResponseStream {
 public:
  ResponseStream(Socket& socket, HttpResponse head, bool chunked,
                 obs::Counter& sent)
      : socket_(socket),
        head_(std::move(head)),
        chunked_(chunked),
        sent_(sent) {}

  /// True once any byte of the response may have been written.
  bool head_sent() const { return head_sent_; }
  /// True when the head went out ahead of the body's end.
  bool streaming() const { return streaming_; }

  Status Write(std::string_view piece) {
    if (!holding_first_) {
      holding_first_ = true;
      head_.body.assign(piece);
      return Status::OK();
    }
    if (!streaming_) {
      head_sent_ = streaming_ = true;
      sent_.Increment();
      frame_ = head_.SerializeStreamHead(chunked_);
      AppendBody(head_.body);
      std::string().swap(head_.body);
    }
    AppendBody(piece);
    Status written = socket_.WriteAll(frame_);
    frame_.clear();
    return written;
  }

  /// Ends the body: the whole response when it fit the held piece, else
  /// the terminal chunk (nothing when close-delimited).
  Status Finish() {
    if (!streaming_) {
      head_sent_ = true;
      sent_.Increment();
      return socket_.WriteAll(head_.Serialize());
    }
    return chunked_ ? socket_.WriteAll("0\r\n\r\n") : Status::OK();
  }

 private:
  void AppendBody(std::string_view piece) {
    if (chunked_) {
      AppendHttpChunk(piece, &frame_);
    } else {
      frame_.append(piece);
    }
  }

  Socket& socket_;
  HttpResponse head_;
  const bool chunked_;
  obs::Counter& sent_;
  bool holding_first_ = false;
  bool head_sent_ = false;
  bool streaming_ = false;
  /// Reused framing buffer: one chunk (the first time, the head and two
  /// chunks) per write.
  std::string frame_;
};

}  // namespace

bool Server::HandleSparql(const HttpRequest& request, Socket& socket) {
  auto reject = [&](int http_status, std::string_view code,
                    std::string_view message) {
    HttpResponse response = ErrorResponse(http_status, code, message);
    response.keep_alive = request.keep_alive;
    return Send(socket, response);
  };
  std::string query_text;
  if (request.method == "GET") {
    Result<std::vector<std::pair<std::string, std::string>>> params =
        ParseFormEncoded(request.query_string);
    if (!params.ok()) {
      return reject(400, HttpErrorCodeName(400), params.status().message());
    }
    bool found = false;
    for (const auto& [name, value] : *params) {
      if (name == "query") {
        query_text = value;
        found = true;
        break;
      }
    }
    if (!found) {
      return reject(400, HttpErrorCodeName(400), "missing query parameter");
    }
  } else {
    const std::string* content_type = request.FindHeader("content-type");
    const std::string media =
        content_type == nullptr ? "" : LowercaseMediaType(*content_type);
    if (media == "application/sparql-query") {
      query_text = request.body;
    } else if (media == "application/x-www-form-urlencoded") {
      Result<std::vector<std::pair<std::string, std::string>>> params =
          ParseFormEncoded(request.body);
      if (!params.ok()) {
        return reject(400, HttpErrorCodeName(400), params.status().message());
      }
      bool found = false;
      for (const auto& [name, value] : *params) {
        if (name == "query") {
          query_text = value;
          found = true;
          break;
        }
      }
      if (!found) {
        return reject(400, HttpErrorCodeName(400),
                      "missing query form parameter");
      }
    } else {
      return reject(
          415, HttpErrorCodeName(415),
          "POST /sparql accepts application/sparql-query or "
          "application/x-www-form-urlencoded, got \"" +
              media + "\"");
    }
  }

  // Admission, budget, and execution all live in the serve layer; the
  // translator's message (e.g. an unparseable query) rides back on 400s.
  // The admission slot is released when ExecuteSparql returns, so
  // serialization and socket writes never hold it.
  Result<core::QueryResult> result = sessions_.ExecuteSparql(query_text);
  if (!result.ok()) {
    const Status& status = result.status();
    HttpResponse response =
        ErrorResponse(HttpStatusForStatus(status),
                      StatusCodeToString(status.code()), status.message());
    if (status.code() == StatusCode::kUnavailable) {
      response.AddHeader("Retry-After", "1");
    }
    response.keep_alive = request.keep_alive;
    return Send(socket, response);
  }

  const std::string* accept = request.FindHeader("accept");
  const ResultFormat format =
      SparqlResultWriter::Negotiate(accept == nullptr ? "" : *accept);
  // HTTP/1.0 has no chunked encoding: there, a body longer than one flush
  // buffer is close-delimited.
  const bool chunked = request.version != "HTTP/1.0";
  HttpResponse head;
  head.AddHeader("Content-Type", SparqlResultWriter::ContentType(format));
  head.keep_alive = request.keep_alive;
  ResponseStream stream(socket, std::move(head), chunked,
                        metrics_.counter("net.responses.2xx"));
  Status streamed = SparqlResultWriter::SerializeTo(
      sessions_.db(), result->relation, format,
      [&stream](std::string_view piece) { return stream.Write(piece); });
  if (streamed.ok()) streamed = stream.Finish();
  if (!stream.head_sent()) {
    // Nothing went out yet: the failure still gets a proper answer.
    return reject(500, "internal", streamed.message());
  }
  if (streamed.ok()) {
    return request.keep_alive && (chunked || !stream.streaming());
  }
  if (stream.streaming()) {
    // The 200 head is already on the wire: closing without the terminal
    // chunk is the only way left to tell the client the body is cut
    // short.
    metrics_.counter("net.responses_aborted").Increment();
  }
  return false;
}

HttpResponse Server::HandleMetrics() {
  std::string body = "{\"db\":" + sessions_.db().metrics().Snapshot().ToJson() +
                     ",\"serve\":" + sessions_.metrics().Snapshot().ToJson() +
                     ",\"net\":" + metrics_.Snapshot().ToJson() + "}";
  HttpResponse response;
  response.AddHeader("Content-Type", "application/json");
  response.body = std::move(body);
  return response;
}

HttpResponse Server::ErrorResponse(int http_status, std::string_view code,
                                   std::string_view message) {
  HttpResponse response;
  response.status = http_status;
  response.AddHeader("Content-Type", "application/json");
  response.body = "{\"error\":{\"code\":\"";
  AppendJsonEscaped(code, &response.body);
  response.body += "\",\"message\":\"";
  AppendJsonEscaped(message, &response.body);
  response.body += "\"}}";
  return response;
}

}  // namespace prost::net
