// Tests for the metric exporters (Prometheus text + JSON snapshot +
// atomic snapshot files) and the embedded HTTP endpoint. The Prometheus
// output is parsed line by line against the exposition-format grammar —
// a scraper rejects the whole page on one malformed line, so "mostly
// right" is not a pass. The record-vs-serialize hammer runs under every
// sanitizer configuration of tools/check.sh including
// OJV_SANITIZE=thread.

#include "obs/export.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "io/json.h"
#include "obs/http_server.h"
#include "obs/metrics.h"

namespace ojv {
namespace obs {
namespace {

TEST(PrometheusNameTest, SanitizesBaseAndKeepsLabels) {
  EXPECT_EQ(PrometheusName("ojv.deferred.refreshes"), "ojv_deferred_refreshes");
  EXPECT_EQ(PrometheusName("ojv.deferred.view.staleness_micros{view=\"a.b\"}"),
            "ojv_deferred_view_staleness_micros{view=\"a.b\"}");
  // Leading digits are not legal metric-name starts.
  EXPECT_EQ(PrometheusName("9lives"), "_9lives");
  // Every disallowed character becomes an underscore.
  EXPECT_EQ(PrometheusName("a-b c/d"), "a_b_c_d");
}

TEST(LabeledMetricTest, BuildsAndEscapes) {
  EXPECT_EQ(LabeledMetric("ojv.m", "view", "v3"), "ojv.m{view=\"v3\"}");
  // Backslash, quote, and newline per the exposition format.
  EXPECT_EQ(LabeledMetric("ojv.m", "k", "a\"b\\c\nd"),
            "ojv.m{k=\"a\\\"b\\\\c\\nd\"}");
}

// One data line of the exposition format: name, optional {labels},
// whitespace, then a number. Returns false on anything else.
bool ParsePromLine(const std::string& line, std::string* name) {
  size_t i = 0;
  if (i >= line.size() ||
      !(std::isalpha(line[i]) || line[i] == '_' || line[i] == ':')) {
    return false;
  }
  while (i < line.size() &&
         (std::isalnum(line[i]) || line[i] == '_' || line[i] == ':')) {
    ++i;
  }
  *name = line.substr(0, i);
  if (i < line.size() && line[i] == '{') {
    size_t close = line.find('}', i);
    if (close == std::string::npos) return false;
    i = close + 1;
  }
  if (i >= line.size() || line[i] != ' ') return false;
  ++i;
  char* end = nullptr;
  std::strtod(line.c_str() + i, &end);
  return end == line.c_str() + line.size();
}

TEST(WritePrometheusTest, EveryLineParsesAndGoldenNamesPresent) {
  Registry registry;
  registry.GetCounter("ojv.test.requests").Add(3);
  registry.GetCounter(LabeledMetric("ojv.test.per_view", "view", "a")).Add(1);
  registry.GetCounter(LabeledMetric("ojv.test.per_view", "view", "b")).Add(2);
  registry.GetGauge("ojv.test.depth").Set(17);
  registry.GetHistogram("ojv.test.lat").Record(100);
  registry.GetHistogram("ojv.test.lat").Record(5000);

  std::ostringstream out;
  WritePrometheus(registry, out);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> names;
  int type_lines = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      ++type_lines;
      continue;
    }
    std::string name;
    EXPECT_TRUE(ParsePromLine(line, &name)) << "malformed line: " << line;
    names.push_back(name);
  }

  auto has = [&names](const char* n) {
    return std::count(names.begin(), names.end(), std::string(n));
  };
  EXPECT_EQ(has("ojv_test_requests_total"), 1);   // counters get _total
  EXPECT_EQ(has("ojv_test_per_view_total"), 2);   // one line per label value
  EXPECT_EQ(has("ojv_test_depth"), 1);            // gauges as-is
  EXPECT_EQ(has("ojv_test_lat_count"), 1);        // histogram summary
  EXPECT_EQ(has("ojv_test_lat_sum"), 1);
  EXPECT_EQ(has("ojv_test_lat"), 2);              // quantile 0.5 and 0.99
  // # TYPE once per family: requests, per_view, depth, lat = 4.
  EXPECT_EQ(type_lines, 4);
  // The labeled family keeps its labels in the output.
  EXPECT_NE(out.str().find("ojv_test_per_view_total{view=\"a\"} 1"),
            std::string::npos);
}

TEST(WritePrometheusTest, QuantileLabelMergesIntoExistingBlock) {
  Registry registry;
  registry.GetHistogram(LabeledMetric("ojv.test.h", "view", "v")).Record(8);
  std::ostringstream out;
  WritePrometheus(registry, out);
  // The quantile label lands inside the existing {view=...} block, not
  // in a second block (which scrapers reject).
  EXPECT_NE(out.str().find("ojv_test_h{view=\"v\",quantile=\"0.5\"}"),
            std::string::npos)
      << out.str();
}

TEST(WriteSnapshotJsonTest, RoundTripsThroughParser) {
  Registry registry;
  registry.GetCounter("ojv.test.c").Add(7);
  registry.GetGauge("ojv.test.g").Set(-4);  // gauges can be negative
  registry.GetHistogram("ojv.test.h").Record(32);

  std::ostringstream out;
  WriteSnapshotJson(registry, out);
  io::JsonValue doc;
  std::string error;
  ASSERT_TRUE(io::ParseJson(out.str(), &doc, &error)) << error;
  EXPECT_EQ(doc.FindPath({"counters", "ojv.test.c"})->AsInt(), 7);
  EXPECT_EQ(doc.FindPath({"gauges", "ojv.test.g"})->AsInt(), -4);
  EXPECT_EQ(doc.FindPath({"histograms", "ojv.test.h", "count"})->AsInt(), 1);
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/ojv_export_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

TEST(WriteSnapshotFilesTest, WritesBothFilesAtomically) {
  Registry registry;
  registry.GetCounter("ojv.test.c").Add(1);
  const std::string dir = MakeTempDir();
  std::string error;
  ASSERT_TRUE(WriteSnapshotFiles(registry, dir, &error)) << error;

  std::ifstream prom(dir + "/metrics.prom");
  ASSERT_TRUE(prom.good());
  std::stringstream prom_body;
  prom_body << prom.rdbuf();
  EXPECT_NE(prom_body.str().find("ojv_test_c_total 1"), std::string::npos);

  io::JsonValue doc;
  ASSERT_TRUE(io::ParseJsonFile(dir + "/snapshot.json", &doc, &error)) << error;
  EXPECT_EQ(doc.FindPath({"counters", "ojv.test.c"})->AsInt(), 1);
  // No leftover temporaries.
  EXPECT_NE(access((dir + "/metrics.prom.tmp").c_str(), F_OK), 0);
}

TEST(WriteSnapshotFilesTest, UnwritableDirReportsError) {
  Registry registry;
  std::string error;
  EXPECT_FALSE(
      WriteSnapshotFiles(registry, "/nonexistent/ojv/export/dir", &error));
  EXPECT_FALSE(error.empty());
}

/// Minimal HTTP/1.0 GET against 127.0.0.1:port; returns body and
/// stores the status line.
bool HttpGet(int port, const char* path, std::string* status,
             std::string* body) {
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
  size_t eol = response.find("\r\n");
  size_t header_end = response.find("\r\n\r\n");
  if (eol == std::string::npos || header_end == std::string::npos) return false;
  *status = response.substr(0, eol);
  *body = response.substr(header_end + 4);
  return true;
}

TEST(HttpExportServerTest, ServesAllRoutesOnEphemeralPort) {
  HttpExportServer server;
  Registry::Global().GetCounter("ojv.test.http").Add(5);
  ASSERT_TRUE(server.Start(0));  // 0 = kernel-assigned port
  EXPECT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  std::string status, body;
  ASSERT_TRUE(HttpGet(server.port(), "/metrics", &status, &body));
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_NE(body.find("ojv_test_http_total"), std::string::npos);

  ASSERT_TRUE(HttpGet(server.port(), "/snapshot.json", &status, &body));
  EXPECT_NE(status.find("200"), std::string::npos);
  io::JsonValue doc;
  std::string error;
  ASSERT_TRUE(io::ParseJson(body, &doc, &error)) << error;
  EXPECT_NE(doc.FindPath({"counters", "ojv.test.http"}), nullptr);

  ASSERT_TRUE(HttpGet(server.port(), "/flight.json", &status, &body));
  EXPECT_NE(status.find("200"), std::string::npos);
  ASSERT_TRUE(io::ParseJson(body, &doc, &error)) << error;
  EXPECT_NE(doc.Find("traceEvents"), nullptr);

  ASSERT_TRUE(HttpGet(server.port(), "/no-such-route", &status, &body));
  EXPECT_NE(status.find("404"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(HttpExportServerTest, PortInUseFailsCleanly) {
  HttpExportServer first;
  ASSERT_TRUE(first.Start(0));
  HttpExportServer second;
  EXPECT_FALSE(second.Start(first.port()));
  EXPECT_FALSE(second.running());
}

TEST(ExportHammerTest, ConcurrentRecordVsSerialize) {
  // Writers bump counters/gauges/histograms (including a labeled family
  // that forces registry inserts mid-serialization) while readers
  // serialize both formats. TSAN-clean is the point; the value check at
  // the end proves no update was lost.
  Registry registry;
  constexpr int kWriters = 4;
  constexpr int kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.GetCounter("ojv.hammer.c").Add(1);
        registry.GetGauge("ojv.hammer.g").Set(i);
        registry.GetHistogram("ojv.hammer.h").Record(i);
        registry
            .GetCounter(LabeledMetric("ojv.hammer.per_view", "view",
                                      "v" + std::to_string(t * kPerThread + i)))
            .Add(1);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&registry, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::ostringstream prom;
        WritePrometheus(registry, prom);
        std::ostringstream json;
        WriteSnapshotJson(registry, json);
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[static_cast<size_t>(t)].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(registry.GetCounter("ojv.hammer.c").value(),
            int64_t{kWriters} * kPerThread);
  EXPECT_EQ(registry.GetHistogram("ojv.hammer.h").count(),
            int64_t{kWriters} * kPerThread);
}

}  // namespace
}  // namespace obs
}  // namespace ojv
