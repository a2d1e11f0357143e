#include "obs/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "util/log.h"
#include "util/strings.h"

namespace lbtrust::obs {

using util::LogLevel;
using util::Status;

namespace {

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    default: return "Error";
  }
}

}  // namespace

HttpExporter::HttpExporter(net::EventLoop* loop, MetricsRegistry* metrics)
    : HttpExporter(loop, metrics, Options()) {}

HttpExporter::HttpExporter(net::EventLoop* loop, MetricsRegistry* metrics,
                           Options options)
    : loop_(loop), options_(options) {
  const char* responses = "lbtrust_http_responses_total";
  requests_ = metrics->GetCounter("lbtrust_http_requests_total");
  responses_ok_ = metrics->GetCounter(responses, "code=\"200\"");
  responses_error_ = metrics->GetCounter(responses, "code=\"error\"");
  deadline_closes_ = metrics->GetCounter("lbtrust_http_deadline_closes_total");
  oversize_rejects_ =
      metrics->GetCounter("lbtrust_http_oversize_rejects_total");
  if (loop_ == nullptr) {
    owned_loop_ = std::make_unique<net::EventLoop>();
    loop_ = owned_loop_.get();
  }
}

HttpExporter::~HttpExporter() { Shutdown(); }

void HttpExporter::Shutdown() {
  while (!conns_.empty()) CloseConn(conns_.begin()->first);
  if (listen_fd_ >= 0) {
    loop_->Remove(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpExporter::Handle(std::string path, Handler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

Status HttpExporter::Listen(const std::string& host, uint16_t port) {
  if (listen_fd_ >= 0) return util::FailedPrecondition("already listening");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return util::InvalidArgument(util::StrCat("bad listen host '", host, "'"));
  }
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return util::Internal(util::StrCat("socket: ", std::strerror(errno)));
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return util::Internal(util::StrCat("bind: ", std::strerror(errno)));
  }
  if (listen(fd, 16) != 0) {
    close(fd);
    return util::Internal(util::StrCat("listen: ", std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  listen_port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  Status status = loop_->Add(fd, EPOLLIN, [this](uint32_t) {
    OnListenerReadable();
  });
  if (!status.ok()) {
    close(fd);
    listen_fd_ = -1;
    return status;
  }
  return util::OkStatus();
}

Status HttpExporter::Poll(int timeout_ms) {
  Housekeep();
  util::Result<int> polled = loop_->PollOnce(timeout_ms);
  if (!polled.ok()) return polled.status();
  return util::OkStatus();
}

void HttpExporter::Housekeep() {
  const int64_t now = net::EventLoop::NowMs();
  std::vector<int> stalled;
  for (const auto& [fd, conn] : conns_) {
    if (!conn.responding &&
        now - conn.opened_ms >= options_.read_deadline_ms) {
      stalled.push_back(fd);
    }
  }
  for (int fd : stalled) {
    deadline_closes_->Add();
    LBTRUST_LOG(LogLevel::kDebug, "http: closing stalled connection fd=%d",
                fd);
    CloseConn(fd);
  }
}

void HttpExporter::OnListenerReadable() {
  while (true) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient accept error: try next poll
    Conn conn;
    conn.fd = fd;
    conn.opened_ms = net::EventLoop::NowMs();
    Status status = loop_->Add(fd, EPOLLIN, [this, fd](uint32_t events) {
      if ((events & EPOLLOUT) != 0) {
        OnConnWritable(fd);
        return;
      }
      OnConnReadable(fd);
    });
    if (!status.ok()) {
      close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
  }
}

void HttpExporter::OnConnReadable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn* conn = &it->second;
  char buf[4096];
  while (true) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      if (conn->responding) continue;  // drain and ignore pipelined extras
      // Reject before buffering past the cap: a header-flooding client
      // costs at most max_request_bytes + one read() chunk of memory.
      if (conn->in.size() + static_cast<size_t>(n) >
          options_.max_request_bytes) {
        oversize_rejects_->Add();
        StageResponse(fd, conn, Response{431, "text/plain; charset=utf-8",
                                         "request headers too large\n"});
        return;
      }
      conn->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(fd);  // EOF or hard error before a response was sent
    return;
  }
  MaybeRespond(fd, conn);
}

void HttpExporter::MaybeRespond(int fd, Conn* conn) {
  if (conn->responding) return;
  // Wait for the end of the header block; tolerate bare-LF clients.
  size_t end = conn->in.find("\r\n\r\n");
  if (end == std::string::npos) end = conn->in.find("\n\n");
  if (end == std::string::npos) return;
  requests_->Add();
  std::string_view head(conn->in.data(), end);
  size_t eol = head.find('\n');
  std::string_view request_line =
      eol == std::string_view::npos ? head : head.substr(0, eol);
  while (!request_line.empty() && request_line.back() == '\r') {
    request_line.remove_suffix(1);
  }
  // METHOD SP TARGET SP HTTP/1.x — anything else is a 400.
  size_t sp1 = request_line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos
                   ? std::string_view::npos
                   : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos ||
      request_line.substr(sp2 + 1).rfind("HTTP/1.", 0) != 0) {
    StageResponse(fd, conn, Response{400, "text/plain; charset=utf-8",
                                     "malformed request line\n"});
    return;
  }
  std::string_view method = request_line.substr(0, sp1);
  std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    StageResponse(fd, conn, Response{405, "text/plain; charset=utf-8",
                                     "only GET is supported\n"});
    return;
  }
  std::string path(target.substr(0, target.find('?')));
  auto handler = handlers_.find(path);
  if (handler == handlers_.end()) {
    StageResponse(fd, conn, Response{404, "text/plain; charset=utf-8",
                                     "unknown path\n"});
    return;
  }
  StageResponse(fd, conn, handler->second());
}

void HttpExporter::StageResponse(int fd, Conn* conn,
                                 const Response& response) {
  conn->responding = true;
  (response.status == 200 ? responses_ok_ : responses_error_)->Add();
  std::string out = util::StrCat("HTTP/1.1 ", response.status, " ",
                                 ReasonPhrase(response.status), "\r\n");
  out += util::StrCat("Content-Type: ", response.content_type, "\r\n");
  out += util::StrCat("Content-Length: ", response.body.size(), "\r\n");
  out += "Connection: close\r\n\r\n";
  out += response.body;
  conn->out = std::move(out);
  conn->out_off = 0;
  loop_->Modify(fd, EPOLLIN | EPOLLOUT);
  OnConnWritable(fd);  // common case: the whole response fits the buffer
}

void HttpExporter::OnConnWritable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn* conn = &it->second;
  while (conn->out_off < conn->out.size()) {
    ssize_t n = write(fd, conn->out.data() + conn->out_off,
                      conn->out.size() - conn->out_off);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    CloseConn(fd);
    return;
  }
  CloseConn(fd);  // response fully flushed: Connection: close
}

void HttpExporter::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  loop_->Remove(fd);
  // Drain unread request bytes (e.g. the tail of an oversized request)
  // so close() sends FIN rather than RST — an RST could destroy the error
  // response before the client reads it.
  char buf[4096];
  while (read(fd, buf, sizeof(buf)) > 0) {
  }
  close(fd);
  conns_.erase(it);
}

}  // namespace lbtrust::obs
