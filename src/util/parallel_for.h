// One-shot fan-out for CPU-bound loops.
//
// parallel_for runs body(0) .. body(n-1) on max(1, min(threads, n)) lanes:
// the calling thread is one lane and the others are threads started for
// this call alone.  Lanes claim indices dynamically, one at a time, so
// ragged iteration durations still load-balance.  The call returns once
// every lane has joined; if an iteration throws, its lane stops and the
// first exception is rethrown after the join.  With one lane the body runs
// in index order on the calling thread and no thread is started.
//
// This is the execution substrate of exp::ExperimentEngine: simulation runs
// are pure functions of their inputs, so running them on any number of
// lanes must not change results -- callers index results by iteration,
// never by completion order.
#pragma once

#include <cstddef>
#include <functional>

namespace ge::util {

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

// hardware_concurrency(), with the mandated fallback to 1 when unknown.
std::size_t default_concurrency() noexcept;

}  // namespace ge::util
