#ifndef OJV_OBS_HTTP_SERVER_H_
#define OJV_OBS_HTTP_SERVER_H_

#include <atomic>
#include <string>
#include <thread>

namespace ojv {
namespace obs {

/// Tiny embedded HTTP/1.0 endpoint for scraping live telemetry:
///
///   GET /metrics        Prometheus text exposition (WritePrometheus)
///   GET /snapshot.json  registry JSON snapshot (WriteSnapshotJson)
///   GET /flight.json    flight-recorder Chrome trace (WriteChromeTrace)
///
/// One blocking accept loop on a background thread, one request per
/// connection, no keep-alive, no TLS — it serves a scraper on
/// localhost, not the internet. Start it from tools and benches that
/// want live observation (`bench_deferred --metrics-port=9464`); the
/// library never starts it on its own.
class HttpExportServer {
 public:
  HttpExportServer() = default;
  ~HttpExportServer() { Stop(); }

  HttpExportServer(const HttpExportServer&) = delete;
  HttpExportServer& operator=(const HttpExportServer&) = delete;

  /// Binds 127.0.0.1:<port> (0 = kernel-assigned ephemeral port, read
  /// it back from port()) and starts the accept thread. Returns false
  /// if the bind fails.
  bool Start(int port);

  /// Closes the listening socket (unblocking accept) and joins the
  /// thread. Idempotent.
  void Stop();

  bool running() const { return listen_fd_.load() >= 0; }
  /// The bound port, 0 when not running.
  int port() const { return port_; }

 private:
  void Serve();
  void Handle(int client_fd);

  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::thread thread_;
};

}  // namespace obs
}  // namespace ojv

#endif  // OJV_OBS_HTTP_SERVER_H_
