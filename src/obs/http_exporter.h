#ifndef LBTRUST_OBS_HTTP_EXPORTER_H_
#define LBTRUST_OBS_HTTP_EXPORTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/event_loop.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace lbtrust::obs {

/// Minimal non-blocking HTTP/1.1 server for live introspection: GET-only,
/// one response per connection (`Connection: close`), handlers render the
/// whole body up front. Built on net::EventLoop with the same hardening
/// discipline as the transport: the request buffer is capped (oversized
/// headers are rejected with 431 before further buffering) and a client
/// stalled mid-request past the read deadline is closed (slow-loris).
///
/// Threading matches the rest of src/net: everything — accepts, parsing,
/// handler calls, writes — runs on the thread driving the loop. In the
/// distributed runtime that is the fixpoint thread itself, so a handler
/// like `/metrics` reads engine state between waves with no locks; slow
/// scrapers only delay their own response (the kernel buffers the request
/// until the next poll).
///
/// It counts into the registry it is constructed with, which must
/// outlive it.
///
/// Construction picks the loop mode:
///  - external loop (`loop != nullptr`): fds register on the caller's loop
///    and the caller's own poll drives this server; call Housekeep()
///    periodically for deadline enforcement. Used by DistributedCluster,
///    which passes its transport's loop.
///  - owned loop (`loop == nullptr`): the exporter makes its own loop and
///    the owner drives it with Poll(). Used by standalone tools and tests.
class HttpExporter {
 public:
  struct Options {
    /// Cap on buffered request bytes (request line + headers). A request
    /// exceeding it gets `431 Request Header Fields Too Large` and the
    /// connection is closed without buffering the rest.
    size_t max_request_bytes = 8 << 10;
    /// A connection with an incomplete request older than this is closed
    /// by the next Housekeep()/Poll().
    int read_deadline_ms = 5000;
  };

  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  /// Renders the response for one GET. Runs on the loop thread; keep it
  /// bounded — the server is unavailable while a handler runs.
  using Handler = std::function<Response()>;

  HttpExporter(net::EventLoop* loop, MetricsRegistry* metrics);
  HttpExporter(net::EventLoop* loop, MetricsRegistry* metrics,
               Options options);
  ~HttpExporter();

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Registers `handler` for exact-match `path` (query strings are
  /// stripped before matching). Unknown paths get 404.
  void Handle(std::string path, Handler handler);

  /// Binds and listens (port 0 picks an ephemeral port; see listen_port()).
  util::Status Listen(const std::string& host, uint16_t port);
  uint16_t listen_port() const { return listen_port_; }

  /// Owned-loop mode: housekeeping + one loop poll of up to `timeout_ms`.
  /// (External-loop mode: the owner's poll already dispatches this
  /// server's fds — call Housekeep() instead.)
  util::Status Poll(int timeout_ms);

  /// Closes connections stalled past the read deadline. Cheap; call once
  /// per owner loop iteration.
  void Housekeep();

  /// Open request/response connections (tests).
  size_t open_connections() const { return conns_.size(); }

  /// Closes every connection and the listener (idempotent).
  void Shutdown();

 private:
  struct Conn {
    int fd = -1;
    std::string in;          ///< buffered request bytes
    std::string out;         ///< encoded response; close when drained
    size_t out_off = 0;      ///< bytes of `out` already written
    bool responding = false; ///< request parsed, response staged
    int64_t opened_ms = 0;   ///< accept time (read-deadline base)
  };

  void OnListenerReadable();
  void OnConnReadable(int fd);
  void OnConnWritable(int fd);
  /// Parses the buffered request once complete; stages the response.
  void MaybeRespond(int fd, Conn* conn);
  void StageResponse(int fd, Conn* conn, const Response& response);
  void CloseConn(int fd);

  net::EventLoop* loop_;  ///< the loop fds register on (owned or external)
  std::unique_ptr<net::EventLoop> owned_loop_;
  Options options_;
  std::map<std::string, Handler> handlers_;
  int listen_fd_ = -1;
  uint16_t listen_port_ = 0;
  std::map<int, Conn> conns_;
  Counter* requests_;          ///< complete requests parsed
  Counter* responses_ok_;      ///< 200s served
  Counter* responses_error_;   ///< 4xx/5xx served
  Counter* deadline_closes_;   ///< slow-loris closes
  Counter* oversize_rejects_;
};

}  // namespace lbtrust::obs

#endif  // LBTRUST_OBS_HTTP_EXPORTER_H_
