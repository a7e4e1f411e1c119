#include "exec/thread_pool.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"

namespace ojv {
namespace {

/// True while the current thread is executing chunks of some pool's
/// loop; a ParallelFor issued in that state runs inline (see header).
thread_local bool t_in_parallel_region = false;

// Pool-wide morsel accounting (cheap: bumped per ParallelFor, not per
// chunk). The per-thread distribution lives on the pool itself
// (chunks_executed) since registry counters are process-global and
// pools come and go.
void CountLoop(int64_t chunks, bool serial) {
  static obs::Counter& morsels =
      obs::Registry::Global().GetCounter("ojv.exec.pool.morsels");
  static obs::Counter& loops =
      obs::Registry::Global().GetCounter("ojv.exec.pool.parallel_loops");
  static obs::Counter& serial_loops =
      obs::Registry::Global().GetCounter("ojv.exec.pool.serial_loops");
  morsels.Add(chunks);
  (serial ? serial_loops : loops).Add(1);
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)),
      slot_chunks_(static_cast<size_t>(std::max(1, num_threads))) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i - 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunChunks(int slot) {
  t_in_parallel_region = true;
  int64_t executed = 0;
  for (;;) {
    int64_t chunk = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= num_chunks_) break;
    int64_t begin = chunk * grain_;
    int64_t end = std::min(count_, begin + grain_);
    (*body_)(chunk, begin, end);
    ++executed;
  }
  t_in_parallel_region = false;
  if (executed > 0) {
    slot_chunks_[static_cast<size_t>(slot)].fetch_add(
        executed, std::memory_order_relaxed);
  }
}

void ThreadPool::ParallelFor(
    int64_t count, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& body,
    int max_workers) {
  if (count <= 0) return;
  OJV_CHECK(grain > 0, "morsel grain must be positive");
  const int64_t num_chunks = (count + grain - 1) / grain;
  if (workers_.empty() || num_chunks == 1 || max_workers <= 1 ||
      t_in_parallel_region) {
    // Serial fallback: same chunking so bodies see identical
    // (chunk, begin, end) triples as the parallel schedule.
    for (int64_t c = 0; c < num_chunks; ++c) {
      body(c, c * grain, std::min(count, (c + 1) * grain));
    }
    slot_chunks_[0].fetch_add(num_chunks, std::memory_order_relaxed);
    CountLoop(num_chunks, /*serial=*/true);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    count_ = count;
    grain_ = grain;
    num_chunks_ = num_chunks;
    active_limit_ = std::min(max_workers - 1,
                             static_cast<int>(workers_.size()));
    cursor_.store(0, std::memory_order_relaxed);
    busy_ = static_cast<int>(workers_.size());
    ++epoch_;
  }
  work_cv_.notify_all();
  RunChunks(/*slot=*/0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return busy_ == 0; });
  body_ = nullptr;
  CountLoop(num_chunks, /*serial=*/false);
}

void ThreadPool::WorkerLoop(int worker_index) {
  uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock,
                  [&] { return shutdown_ || epoch_ != seen_epoch; });
    if (shutdown_) return;
    seen_epoch = epoch_;
    const bool participate = worker_index < active_limit_;
    lock.unlock();
    if (participate) RunChunks(worker_index + 1);
    lock.lock();
    if (--busy_ == 0) done_cv_.notify_all();
  }
}

std::shared_ptr<ThreadPool> ThreadPool::Shared(int num_threads) {
  static std::mutex registry_mu;
  static std::shared_ptr<ThreadPool>* pool = new std::shared_ptr<ThreadPool>;
  std::lock_guard<std::mutex> lock(registry_mu);
  const int want = std::max(2, num_threads);
  if (*pool == nullptr || (*pool)->num_threads() < want) {
    *pool = std::make_shared<ThreadPool>(want);
  }
  return *pool;
}

}  // namespace ojv
