#ifndef OJV_OBS_EXPORT_H_
#define OJV_OBS_EXPORT_H_

#include <ostream>
#include <string>

#include "obs/metrics.h"

namespace ojv {
namespace obs {

/// Serializes Registry snapshots for external consumption: Prometheus
/// text exposition format for scrapers, JSON for tools (ojv_top), and
/// atomically-renamed snapshot files for scrape-less environments.

/// Prometheus metric name for a registry key: the label block (from the
/// first '{', if any — see LabeledMetric) is preserved verbatim and the
/// base name is sanitized to [a-zA-Z0-9_:] (dots become underscores).
/// Exposed for tests.
std::string PrometheusName(const std::string& name);

/// Prometheus text exposition format, version 0.0.4. Counters are
/// suffixed `_total`, gauges exported as-is, histograms as summaries
/// (`_count`, `_sum`, quantile 0.5 / 0.99 series). `# TYPE` comment
/// lines are emitted once per metric family.
void WritePrometheus(const Registry& registry, std::ostream& out);

/// The registry's JSON snapshot:
/// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
/// Same schema as tools/ojv_trace --stats "metrics", so every consumer
/// parses one shape.
void WriteSnapshotJson(const Registry& registry, std::ostream& out);

/// Writes `metrics.prom` and `snapshot.json` under `dir`, each via a
/// temporary file renamed into place so a concurrent reader never sees
/// a torn write. Returns false (with *error set) on I/O failure.
bool WriteSnapshotFiles(const Registry& registry, const std::string& dir,
                        std::string* error = nullptr);

/// Writes `body` to `path` via `path + ".tmp"` + rename(2), which is
/// atomic within a filesystem: a concurrent reader sees the old file
/// or the new one, never a prefix. Shared by the snapshot writer and
/// the flight-recorder dumper.
bool WriteFileAtomic(const std::string& path, const std::string& body,
                     std::string* error = nullptr);

}  // namespace obs
}  // namespace ojv

#endif  // OJV_OBS_EXPORT_H_
