#include "host_speed.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <unordered_map>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// The reference table has lineitem's shape: 16 cells, 4 of them shared
// strings allocated in row order, as Dbgen::Populate allocates them. A
// sample copies the next slice of rows, so between two visits to a row
// the facade's work has evicted it from the caches, as it does the base
// tables. (Strings allocated in shuffled order made the kernel slow down
// about twice as much as the facade under contention.)
constexpr size_t kRows = 1 << 17;
constexpr size_t kCols = 16;
constexpr size_t kStringsPerRow = 4;  // cells 3, 7, 11 and 15
constexpr size_t kSliceRows = 5000;
constexpr double kIntervalMs = 100;
// A run median of the kernel on a 4-vCPU x86-64 VM (Release build) in a
// quiet period; on a host that fast the scaled times equal the measured.
constexpr double kQuietMs = 1.6;

int64_t ResidentBytes() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

}  // namespace

HostSpeed::HostSpeed() {
  const int64_t before = ResidentBytes();
  std::mt19937_64 rng(20070415);
  std::vector<std::shared_ptr<const std::string>> strings;
  strings.reserve(kRows * kStringsPerRow);
  for (size_t i = 0; i < kRows * kStringsPerRow; ++i) {
    strings.push_back(std::make_shared<const std::string>(
        24 + rng() % 24, static_cast<char>('a' + i % 26)));
  }
  std::vector<int64_t> keys(kRows);
  for (size_t i = 0; i < kRows; ++i) keys[i] = static_cast<int64_t>(i);
  std::shuffle(keys.begin(), keys.end(), rng);
  table_.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    Row row;
    row.reserve(kCols);
    row.emplace_back(keys[i]);
    row.emplace_back(static_cast<int64_t>(rng() % (2 * kRows)));
    for (size_t c = 2; c < kCols; ++c) {
      if (c % 4 == 3) {
        row.emplace_back(strings[i * kStringsPerRow + c / 4]);
      } else if (c % 2 == 0) {
        row.emplace_back(static_cast<double>(rng() % 100000) / 100.0);
      } else {
        row.emplace_back(static_cast<int64_t>(rng() % 1000000));
      }
    }
    table_.push_back(std::move(row));
  }
  resident_bytes_ = std::max<int64_t>(0, ResidentBytes() - before);
  last_ = Clock::now();
}

void HostSpeed::Sample() {
  const auto start = Clock::now();
  {
    const auto first = table_.begin() + static_cast<std::ptrdiff_t>(next_);
    std::vector<Row> copy(first, first + kSliceRows);
    std::unordered_map<int64_t, uint32_t> index;
    index.reserve(copy.size());
    for (uint32_t i = 0; i < copy.size(); ++i) {
      index.emplace(std::get<int64_t>(copy[i][0]), i);
    }
    for (const Row& row : copy) {
      auto it = index.find(std::get<int64_t>(row[1]));
      if (it != index.end()) checksum_ += it->second;
    }
    checksum_ += copy.size();
  }
  last_ = Clock::now();
  ms_.push_back(std::chrono::duration<double, std::milli>(last_ - start)
                    .count());
  next_ = (next_ + kSliceRows) % (table_.size() - kSliceRows);
}

void HostSpeed::MaybeSample() {
  if (std::chrono::duration<double, std::milli>(Clock::now() - last_)
          .count() >= kIntervalMs) {
    Sample();
  }
}

double HostSpeed::TakeFactor(size_t* count) {
  *count = ms_.size();
  if (ms_.empty()) return 1.0;
  auto mid = ms_.begin() + static_cast<std::ptrdiff_t>(ms_.size() / 2);
  std::nth_element(ms_.begin(), mid, ms_.end());
  const double factor = *mid / kQuietMs;
  ms_.clear();
  return factor;
}

}  // namespace perfbench
