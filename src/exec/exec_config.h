#ifndef OJV_EXEC_EXEC_CONFIG_H_
#define OJV_EXEC_EXEC_CONFIG_H_

#include <cstdint>

namespace ojv {

/// Parallelism knobs of the morsel-driven executor. The default runs
/// everything on the calling thread; num_threads > 1 turns on the
/// parallel operator variants (join build/probe, scans, dedup,
/// subsumption removal) for inputs large enough to amortize the fan-out.
///
/// Determinism: for a fixed config the parallel operators produce rows
/// in exactly the serial order — inputs are split into fixed-size
/// morsels, each morsel's output is buffered separately, and buffers are
/// concatenated in morsel index order. The only thing a thread count
/// changes is wall-clock time.
struct ExecConfig {
  /// Total worker count including the calling thread; 1 = serial.
  int num_threads = 1;
  /// Rows per morsel (scheduling granule of the parallel loops).
  int64_t morsel_rows = 2048;
  /// Inputs smaller than this stay on the serial path: fan-out overhead
  /// beats the win on tiny deltas, which are the common case for
  /// immediate maintenance.
  int64_t parallel_min_rows = 4096;
};

}  // namespace ojv

#endif  // OJV_EXEC_EXEC_CONFIG_H_
