#include "obs/http_server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <sstream>

#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace ojv {
namespace obs {

namespace {

void SendResponse(int fd, const char* status, const char* content_type,
                  const std::string& body) {
  std::ostringstream head;
  head << "HTTP/1.0 " << status << "\r\n"
       << "Content-Type: " << content_type << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n";
  std::string header = head.str();
  // Best-effort sends; MSG_NOSIGNAL so a scraper hanging up mid-response
  // yields EPIPE instead of a process-killing SIGPIPE.
  (void)!send(fd, header.data(), header.size(), MSG_NOSIGNAL);
  (void)!send(fd, body.data(), body.size(), MSG_NOSIGNAL);
}

}  // namespace

bool HttpExportServer::Start(int port) {
  if (running()) return false;
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 8) != 0) {
    close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  listen_fd_.store(fd);
  thread_ = std::thread([this] { Serve(); });
  return true;
}

void HttpExportServer::Stop() {
  int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() wakes the blocked accept() so the serve thread exits.
    shutdown(fd, SHUT_RDWR);
    close(fd);
  }
  if (thread_.joinable()) thread_.join();
  port_ = 0;
}

void HttpExportServer::Serve() {
  for (;;) {
    int fd = listen_fd_.load();
    if (fd < 0) return;
    int client = accept(fd, nullptr, nullptr);
    if (client < 0) {
      // Stop() closed the socket (or a transient accept error): check
      // the fd again rather than spinning on a dead descriptor.
      if (listen_fd_.load() < 0) return;
      continue;
    }
    Handle(client);
    close(client);
  }
}

void HttpExportServer::Handle(int client_fd) {
  // Read the request line; headers past the first 4 KiB are irrelevant
  // to a GET router.
  char buf[4096];
  ssize_t n = read(client_fd, buf, sizeof(buf) - 1);
  if (n <= 0) return;
  buf[n] = '\0';
  const char* line_end = std::strstr(buf, "\r\n");
  std::string request_line(buf, line_end != nullptr
                                    ? static_cast<size_t>(line_end - buf)
                                    : static_cast<size_t>(n));
  std::istringstream parse(request_line);
  std::string method, path;
  parse >> method >> path;
  if (method != "GET") {
    SendResponse(client_fd, "405 Method Not Allowed", "text/plain",
                 "only GET here\n");
    return;
  }
  std::ostringstream body;
  if (path == "/metrics") {
    WritePrometheus(Registry::Global(), body);
    SendResponse(client_fd, "200 OK", "text/plain; version=0.0.4", body.str());
  } else if (path == "/snapshot.json") {
    WriteSnapshotJson(Registry::Global(), body);
    SendResponse(client_fd, "200 OK", "application/json", body.str());
  } else if (path == "/flight.json") {
    FlightRecorder::Global().WriteChromeTrace(body);
    SendResponse(client_fd, "200 OK", "application/json", body.str());
  } else if (path == "/") {
    SendResponse(client_fd, "200 OK", "text/plain",
                 "ojv telemetry: /metrics /snapshot.json /flight.json\n");
  } else {
    SendResponse(client_fd, "404 Not Found", "text/plain", "not found\n");
  }
}

}  // namespace obs
}  // namespace ojv
