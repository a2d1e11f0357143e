// HTTP introspection server hardening + liveness: malformed request lines,
// unknown paths, method filtering, the oversize-header cap, the slow-loris
// read deadline, and a scraper hammering /metrics while the workspace runs
// real fixpoints on the serving thread.
#include "obs/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/workspace.h"
#include "util/strings.h"

namespace lbtrust::obs {
namespace {

int DialLocal(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    ASSERT_GT(n, 0) << "send: " << std::strerror(errno);
    off += static_cast<size_t>(n);
  }
}

/// Sends `request` and polls the owned-loop exporter until the server
/// closes the connection, returning everything it wrote. The client socket
/// is read non-blocking so one thread can play both sides.
std::string RoundTrip(HttpExporter* exporter, const std::string& request) {
  int fd = DialLocal(exporter->listen_port());
  EXPECT_GE(fd, 0);
  if (fd < 0) return "";
  SendAll(fd, request);
  std::string response;
  for (int i = 0; i < 1000; ++i) {
    exporter->Poll(5);
    char buf[4096];
    ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      response.append(buf, static_cast<size_t>(n));
    } else if (n == 0) {
      break;  // server finished and closed
    }
  }
  ::close(fd);
  return response;
}

std::string StatusLine(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

/// Splits a full response into (headers, body) and checks Content-Length
/// agrees with the body actually received.
std::string BodyOf(const std::string& response) {
  size_t split = response.find("\r\n\r\n");
  EXPECT_NE(split, std::string::npos) << response;
  if (split == std::string::npos) return "";
  std::string headers = response.substr(0, split);
  std::string body = response.substr(split + 4);
  size_t cl = headers.find("Content-Length: ");
  EXPECT_NE(cl, std::string::npos) << headers;
  if (cl != std::string::npos) {
    EXPECT_EQ(static_cast<size_t>(std::atoll(headers.c_str() + cl + 16)),
              body.size())
        << headers;
  }
  return body;
}

class HttpExporterTest : public testing::Test {
 protected:
  void Start(HttpExporter::Options options = HttpExporter::Options()) {
    exporter_ = std::make_unique<HttpExporter>(nullptr, &registry_, options);
    exporter_->Handle("/metrics", [] {
      HttpExporter::Response r;
      r.body = "lbtrust_up 1\n";
      return r;
    });
    ASSERT_TRUE(exporter_->Listen("127.0.0.1", 0).ok());
    ASSERT_NE(exporter_->listen_port(), 0);
  }

  /// A series of the registry the exporter counts into.
  uint64_t Count(const char* name, const char* labels = "") {
    return registry_.GetCounter(name, labels)->value();
  }

  MetricsRegistry registry_;  ///< declared first: outlives the exporter
  std::unique_ptr<HttpExporter> exporter_;
};

TEST_F(HttpExporterTest, ServesRegisteredHandler) {
  Start();
  std::string response =
      RoundTrip(exporter_.get(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 200 OK");
  EXPECT_EQ(BodyOf(response), "lbtrust_up 1\n");
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(Count("lbtrust_http_requests_total"), 1u);
  EXPECT_EQ(Count("lbtrust_http_responses_total", "code=\"200\""), 1u);
}

TEST_F(HttpExporterTest, QueryStringIsStrippedBeforeMatching) {
  Start();
  std::string response = RoundTrip(
      exporter_.get(), "GET /metrics?format=prometheus HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 200 OK");
}

TEST_F(HttpExporterTest, MalformedRequestLinesGet400) {
  Start();
  const char* kMalformed[] = {
      "garbage\r\n\r\n",                  // no method/target/version split
      "GET /metrics\r\n\r\n",             // missing version
      "GET /metrics SMTP/1.0\r\n\r\n",    // wrong protocol
      " GET /metrics HTTP/1.1\r\n\r\n",   // leading space shifts the split
  };
  for (const char* request : kMalformed) {
    std::string response = RoundTrip(exporter_.get(), request);
    EXPECT_EQ(StatusLine(response), "HTTP/1.1 400 Bad Request") << request;
  }
  EXPECT_EQ(Count("lbtrust_http_responses_total", "code=\"error\""), 4u);
}

TEST_F(HttpExporterTest, UnknownPathGets404) {
  Start();
  std::string response =
      RoundTrip(exporter_.get(), "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 404 Not Found");
}

TEST_F(HttpExporterTest, NonGetMethodsGet405) {
  Start();
  std::string response =
      RoundTrip(exporter_.get(), "POST /metrics HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 405 Method Not Allowed");
}

TEST_F(HttpExporterTest, OversizedHeadersRejectedAtTheCap) {
  HttpExporter::Options options;
  options.max_request_bytes = 256;
  Start(options);
  // Never completes a request: header bytes keep coming. The server must
  // answer 431 as soon as the buffered request would pass the cap, not
  // keep buffering until a terminator shows up.
  std::string request = "GET /metrics HTTP/1.1\r\nX-Filler: ";
  request.append(4096, 'a');
  std::string response = RoundTrip(exporter_.get(), request);
  EXPECT_EQ(StatusLine(response),
            "HTTP/1.1 431 Request Header Fields Too Large");
  EXPECT_EQ(Count("lbtrust_http_oversize_rejects_total"), 1u);
  EXPECT_EQ(exporter_->open_connections(), 0u);
}

TEST_F(HttpExporterTest, SlowLorisClosedByReadDeadline) {
  HttpExporter::Options options;
  options.read_deadline_ms = 50;
  Start(options);
  int fd = DialLocal(exporter_->listen_port());
  ASSERT_GE(fd, 0);
  SendAll(fd, "GET /metr");  // stalls mid-request, forever
  for (int i = 0;
       i < 100 && Count("lbtrust_http_deadline_closes_total") == 0; ++i) {
    exporter_->Poll(5);
  }
  EXPECT_EQ(Count("lbtrust_http_deadline_closes_total"), 1u);
  EXPECT_EQ(exporter_->open_connections(), 0u);
  // The server hung up without writing anything.
  char buf[64];
  ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
  EXPECT_EQ(n, 0);
  ::close(fd);
}

TEST_F(HttpExporterTest, ScrapeDuringActiveFixpointStaysParseable) {
  // The deployment shape: the exporter serves from the engine thread, so a
  // scrape can only ever observe the store between fixpoints — but nothing
  // stops a client from *sending* while one runs. A client thread fires
  // blocking GETs as fast as the server answers them while this thread
  // alternates real fixpoint work with polls; every response must be a
  // complete, parseable metrics page.
  datalog::Workspace ws;
  ASSERT_TRUE(ws.Load("path(X,Y) <- edge(X,Y).\n"
                      "path(X,Z) <- path(X,Y), edge(Y,Z).\n")
                  .ok());
  exporter_ = std::make_unique<HttpExporter>(nullptr, &registry_);
  exporter_->Handle("/metrics", [&ws] {
    HttpExporter::Response r;
    r.body = ws.DumpMetrics();
    return r;
  });
  ASSERT_TRUE(exporter_->Listen("127.0.0.1", 0).ok());
  uint16_t port = exporter_->listen_port();

  constexpr int kScrapes = 8;
  std::vector<std::string> responses(kScrapes);
  std::thread scraper([port, &responses] {
    for (int i = 0; i < kScrapes; ++i) {
      int fd = DialLocal(port);
      ASSERT_GE(fd, 0);
      SendAll(fd, "GET /metrics HTTP/1.1\r\n\r\n");
      char buf[4096];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        responses[i].append(buf, static_cast<size_t>(n));
      }
      ::close(fd);
    }
  });

  int next_node = 0;
  while (Count("lbtrust_http_responses_total", "code=\"200\"") < kScrapes) {
    // Grow the edge chain and re-run the fixpoint: the handler renders a
    // different (larger) page on every scrape.
    auto txn = ws.Begin();
    txn.AddFactText(util::StrCat("edge(", next_node, ",", next_node + 1,
                                 ")."));
    ASSERT_TRUE(txn.Commit().ok());
    ++next_node;
    exporter_->Poll(5);
  }
  scraper.join();

  for (const std::string& response : responses) {
    EXPECT_EQ(StatusLine(response), "HTTP/1.1 200 OK");
    std::string body = BodyOf(response);
    EXPECT_NE(body.find("# TYPE lbtrust_relation_rows gauge"),
              std::string::npos);
    EXPECT_NE(body.find("lbtrust_relation_rows{relation=\"path\"}"),
              std::string::npos);
    // A torn page would end mid-line; Content-Length is already checked by
    // BodyOf, so just confirm the page ends on a line boundary.
    ASSERT_FALSE(body.empty());
    EXPECT_EQ(body.back(), '\n');
  }
}

TEST_F(HttpExporterTest, CountsIntoItsRegistry) {
  Start();
  RoundTrip(exporter_.get(), "GET /metrics HTTP/1.1\r\n\r\n");
  RoundTrip(exporter_.get(), "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_EQ(Count("lbtrust_http_requests_total"), 2u);
  EXPECT_EQ(Count("lbtrust_http_responses_total", "code=\"200\""), 1u);
  EXPECT_EQ(Count("lbtrust_http_responses_total", "code=\"error\""), 1u);
  std::string text = registry_.RenderText();
  EXPECT_NE(text.find("lbtrust_http_requests_total 2\n"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace lbtrust::obs
