// ojv_top: terminal dashboard over the live telemetry snapshot.
//
//   ojv_top --port=9464 [--interval-ms=1000] [--iterations=N] [--once]
//   ojv_top --file=build/snapshot.json --once
//
// Polls GET /snapshot.json from an embedded HttpExportServer (--port,
// localhost) or re-reads an exporter snapshot file (--file, written
// atomically by obs::WriteSnapshotFiles) and renders:
//
//   - delta-log depth
//   - refresh latency p50/p99 (ojv.deferred.refresh_micros)
//   - a per-view table: staleness, pending rows, refreshes, last
//     refresh duration
//
// --once renders a single frame without clearing the screen (also what
// the ctest integration runs); otherwise the screen redraws every
// interval until --iterations frames (0 = forever) or SIGINT.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "io/json.h"

namespace ojv {
namespace {

struct Options {
  int port = 0;              // 0 = file mode
  std::string file;
  int interval_ms = 1000;
  int iterations = 0;        // 0 = forever
  bool once = false;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--port=", 7) == 0) {
      options.port = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--file=", 7) == 0) {
      options.file = arg + 7;
    } else if (std::strncmp(arg, "--interval-ms=", 14) == 0) {
      options.interval_ms = std::atoi(arg + 14);
    } else if (std::strncmp(arg, "--iterations=", 13) == 0) {
      options.iterations = std::atoi(arg + 13);
    } else if (std::strcmp(arg, "--once") == 0) {
      options.once = true;
      options.iterations = 1;
    } else {
      std::fprintf(stderr,
                   "usage: ojv_top (--port=N | --file=PATH)"
                   " [--interval-ms=MS] [--iterations=N] [--once]\n");
      std::exit(2);
    }
  }
  if ((options.port == 0) == options.file.empty()) {
    std::fprintf(stderr, "ojv_top: exactly one of --port / --file\n");
    std::exit(2);
  }
  return options;
}

/// GET `path` from 127.0.0.1:port; returns false on connect/read error.
bool HttpGet(int port, const char* path, std::string* body) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return false;
  }
  std::string request = std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
  if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) < 0) {
    close(fd);
    return false;
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  *body = response.substr(header_end + 4);
  return true;
}

/// Splits a labeled metric key: `base{key="value"}` -> (base, value).
/// Unlabeled keys return (name, "").
std::pair<std::string, std::string> SplitLabel(const std::string& name) {
  size_t brace = name.find('{');
  if (brace == std::string::npos) return {name, ""};
  size_t open = name.find('"', brace);
  size_t close = name.rfind('"');
  if (open == std::string::npos || close <= open) {
    return {name.substr(0, brace), ""};
  }
  return {name.substr(0, brace), name.substr(open + 1, close - open - 1)};
}

struct ViewRow {
  int64_t staleness_micros = 0;
  int64_t pending_rows = 0;
  int64_t refreshes = 0;
  int64_t refresh_micros = 0;
};

int64_t IntAt(const io::JsonValue* obj, const std::string& key) {
  if (obj == nullptr) return 0;
  const io::JsonValue* v = obj->Find(key);
  return v != nullptr && v->is_number() ? v->AsInt() : 0;
}

void Render(const io::JsonValue& snapshot, bool clear) {
  const io::JsonValue* counters = snapshot.Find("counters");
  const io::JsonValue* gauges = snapshot.Find("gauges");
  const io::JsonValue* histograms = snapshot.Find("histograms");

  std::map<std::string, ViewRow> views;
  auto collect = [&views](const io::JsonValue* section, const char* base,
                          int64_t ViewRow::*field) {
    if (section == nullptr || !section->is_object()) return;
    for (const auto& [name, value] : section->AsObject()) {
      auto [metric, label] = SplitLabel(name);
      if (metric == base && !label.empty() && value.is_number()) {
        views[label].*field = value.AsInt();
      }
    }
  };
  collect(gauges, "ojv.deferred.view.staleness_micros",
          &ViewRow::staleness_micros);
  collect(gauges, "ojv.deferred.view.pending_rows", &ViewRow::pending_rows);
  collect(gauges, "ojv.deferred.view.refresh_micros",
          &ViewRow::refresh_micros);
  collect(counters, "ojv.deferred.view.refreshes", &ViewRow::refreshes);

  if (clear) std::printf("\x1b[2J\x1b[H");
  std::printf("ojv_top — materialized-view maintenance telemetry\n\n");
  std::printf("delta log: %lld rows pending\n",
              static_cast<long long>(
                  IntAt(gauges, "ojv.deferred.log_depth_rows")));
  const io::JsonValue* refresh_hist =
      histograms != nullptr
          ? histograms->Find("ojv.deferred.refresh_micros")
          : nullptr;
  if (refresh_hist != nullptr) {
    std::printf("refresh latency: p50<=%.1fms  p99<=%.1fms  (%lld refreshes)\n",
                refresh_hist->NumberOr("p50", 0) / 1000.0,
                refresh_hist->NumberOr("p99", 0) / 1000.0,
                static_cast<long long>(refresh_hist->NumberOr("count", 0)));
  }
  std::printf("\n%-24s %12s %10s %10s %12s\n", "view", "stale(ms)",
              "pending", "refreshes", "refresh(ms)");
  if (views.empty()) {
    std::printf("  (no per-view telemetry — no deferred views)\n");
  }
  for (const auto& [name, row] : views) {
    std::printf("%-24s %12.1f %10lld %10lld %12.1f\n", name.c_str(),
                static_cast<double>(row.staleness_micros) / 1000.0,
                static_cast<long long>(row.pending_rows),
                static_cast<long long>(row.refreshes),
                static_cast<double>(row.refresh_micros) / 1000.0);
  }
  std::fflush(stdout);
}

int Run(int argc, char** argv) {
  Options options = ParseArgs(argc, argv);
  int frames = 0;
  int consecutive_failures = 0;
  for (;;) {
    std::string text;
    bool ok;
    std::string error;
    if (options.port != 0) {
      ok = HttpGet(options.port, "/snapshot.json", &text);
      if (!ok) error = "cannot reach 127.0.0.1:" + std::to_string(options.port);
    } else {
      io::JsonValue ignored;
      (void)ignored;
      std::FILE* f = std::fopen(options.file.c_str(), "rb");
      ok = f != nullptr;
      if (ok) {
        char buf[8192];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
          text.append(buf, n);
        }
        std::fclose(f);
      } else {
        error = "cannot read " + options.file;
      }
    }
    io::JsonValue snapshot;
    if (ok && !io::ParseJson(text, &snapshot, &error)) ok = false;
    if (ok) {
      consecutive_failures = 0;
      Render(snapshot, !options.once);
    } else {
      // Transient failures (server mid-restart, file mid-rotation) are
      // tolerated while polling; in --once mode or after a streak they
      // are fatal so CI sees them.
      if (++consecutive_failures >= 5 || options.once) {
        std::fprintf(stderr, "ojv_top: %s\n", error.c_str());
        return 1;
      }
    }
    if (options.iterations > 0 && ++frames >= options.iterations) return 0;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options.interval_ms));
  }
}

}  // namespace
}  // namespace ojv

int main(int argc, char** argv) { return ojv::Run(argc, argv); }
