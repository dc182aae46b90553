#include "util/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ge::util {

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  const std::size_t lanes = std::max<std::size_t>(1, std::min(threads, n));
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  const auto lane = [&] {
    try {
      for (std::size_t i = next++; i < n; i = next++) {
        body(i);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (first_error == nullptr) {
        first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(lanes - 1);
  for (std::size_t k = 1; k < lanes; ++k) {
    workers.emplace_back(lane);
  }
  lane();
  for (std::thread& worker : workers) {
    worker.join();
  }
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
}

std::size_t default_concurrency() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

}  // namespace ge::util
