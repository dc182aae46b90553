// Tests for util::parallel_for, the fan-out underlying the experiment engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel_for.h"

namespace ge::util {
namespace {

TEST(ParallelFor, DefaultConcurrencyIsAtLeastOne) {
  EXPECT_GE(default_concurrency(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<std::uint32_t>> hits(kN);
  parallel_for(4, kN, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(ParallelFor, RunsEveryIteration) {
  std::atomic<int> counter{0};
  parallel_for(4, 100, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, ZeroItemsIsANoOp) {
  parallel_for(2, 0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelFor, MoreThreadsThanItems) {
  std::atomic<int> counter{0};
  parallel_for(8, 3, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ParallelFor, ZeroThreadsClampsToOneLane) {
  std::vector<std::size_t> order;
  parallel_for(0, 5, [&order](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, OneThreadRunsInIndexOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(1, 6, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ParallelFor, FirstExceptionIsRethrownAfterEveryLaneJoins) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    std::atomic<int> finished{0};
    EXPECT_THROW(parallel_for(threads, 100,
                              [&finished](std::size_t i) {
                                if (i == 7) {
                                  throw std::runtime_error("boom");
                                }
                                finished.fetch_add(1);
                              }),
                 std::runtime_error);
    // Every index but the throwing one ran before the rethrow on the
    // multi-lane path; the single lane stops at the throw.
    EXPECT_EQ(finished.load(), threads == 1 ? 7 : 99);
  }
}

}  // namespace
}  // namespace ge::util
