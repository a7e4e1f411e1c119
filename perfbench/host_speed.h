#ifndef OJV_PERFBENCH_HOST_SPEED_H_
#define OJV_PERFBENCH_HOST_SPEED_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace perfbench {

/// Tracks how fast the host runs memory-bound code right now.
///
/// On a shared host the facade's latencies drift by 10-50% over seconds
/// to minutes with what other tenants do to the shared cache and memory
/// bus, and every phase of a run (set-up, inserts, deletes, updates)
/// drifts by about the same factor. This class times a fixed kernel of
/// the same kind as the facade's work (a deep copy of rows of variant
/// cells with shared strings, then a hash build and probe over the copy)
/// between ops, outside every op timer. The kernel is the benchmark's
/// own code on the standard library alone, so no change to the library
/// changes it. The gated times are divided by a factor from samples
/// taken in the same phase of the run: measured on a 4-vCPU VM, that cut
/// the run-to-run spread of the op medians from 0.15-0.45 to 0.04-0.12
/// of the median, and that of setup_s from 0.13 to 0.06.
class HostSpeed {
 public:
  HostSpeed();

  /// Runs and times the kernel once (about 2 ms).
  void Sample();
  /// Samples when at least 100 ms passed since the last sample.
  void MaybeSample();

  /// The median time of the samples since the last call, relative to the
  /// kernel's median on a quiet host (above 1 when the host runs slower;
  /// 1 when there are none), and forgets them. `*count` gets their count.
  double TakeFactor(size_t* count);
  /// Bytes the kernel's reference table keeps resident.
  int64_t resident_bytes() const { return resident_bytes_; }

 private:
  using Cell = std::variant<int64_t, double, std::shared_ptr<const std::string>>;
  using Row = std::vector<Cell>;

  std::vector<Row> table_;
  size_t next_ = 0;  // first row of the next sample's slice
  int64_t resident_bytes_ = 0;
  std::vector<double> ms_;
  std::chrono::steady_clock::time_point last_;
  uint64_t checksum_ = 0;  // keeps the kernel's work observable
};

}  // namespace perfbench

#endif  // OJV_PERFBENCH_HOST_SPEED_H_
