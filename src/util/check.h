// Always-on invariant checks for the goodenough library.
//
// GE_CHECK is used for conditions that indicate a programming error or a
// violated model invariant (e.g. a negative speed, a power cap overrun).
// The checks stay enabled in release builds: the simulation is cheap enough
// that correctness beats the last few percent of throughput, and a silently
// wrong energy figure is worse than an abort.
#pragma once

#include <string_view>

namespace ge::util {

// Aborts with a diagnostic message.  Marked noreturn so GE_CHECK can be used
// in value-returning code paths without spurious warnings.
[[noreturn]] void check_failed(std::string_view condition, std::string_view file,
                               int line, std::string_view message);

}  // namespace ge::util

#define GE_CHECK(cond, msg)                                          \
  do {                                                               \
    if (!(cond)) {                                                   \
      ::ge::util::check_failed(#cond, __FILE__, __LINE__, (msg));    \
    }                                                                \
  } while (false)

// Unconditional failure.  Unlike GE_CHECK(false, ...), the compiler sees
// it as noreturn at every optimisation level, so it can end a
// value-returning function.
#define GE_FAIL(msg) ::ge::util::check_failed("false", __FILE__, __LINE__, (msg))

#define GE_DCHECK(cond, msg) GE_CHECK(cond, msg)
