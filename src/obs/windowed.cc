#include "obs/windowed.h"

#include <chrono>

namespace ojv {
namespace obs {

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace obs
}  // namespace ojv
