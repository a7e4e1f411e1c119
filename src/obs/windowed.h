#ifndef OJV_OBS_WINDOWED_H_
#define OJV_OBS_WINDOWED_H_

#include <cstdint>

namespace ojv {
namespace obs {

/// Microseconds on the steady clock: the time base of snapshot
/// generations' publish and staleness stamps.
int64_t SteadyNowMicros();

}  // namespace obs
}  // namespace ojv

#endif  // OJV_OBS_WINDOWED_H_
