// Exact quantile collector.
//
// Interactive services care about tail latency; the runner records one
// response time per request and reports p50/p95/p99.  Those three numbers
// are pinned to the bit (tests/goldens.txt, perfbench/pins.txt), so the
// collector is exact rather than a sketch: a sketch's rank error would move
// every pinned tail.  Exactness costs 8 bytes per sample, and nothing else:
//
//   * Samples live in fixed blocks of kBlockSize doubles (32 KiB) that are
//     never moved or copied.  A growing vector would double into a new
//     buffer each time, and in a long-lived process the freed predecessors
//     of a 10^6-sample run stay resident on the heap; blocks hold exactly
//     what was added, rounded up to one block.
//   * quantile() selects its two order statistics in place
//     (std::nth_element over a random-access view of the blocks) instead
//     of sorting, with the same interpolation arithmetic as a sorted array,
//     so results are bit-identical to sorting and indexing.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace ge::util {

class QuantileCollector {
 public:
  // Samples per block: 4096 doubles, 32 KiB.  A 10^6-sample run makes 245
  // allocations, and a small collector (a report task keeps five of about
  // 3.6k samples) holds at most one block of slack.
  static constexpr std::size_t kBlockShift = 12;
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;
  static constexpr std::size_t kBlockMask = kBlockSize - 1;

  void add(double sample) {
    if ((count_ & kBlockMask) == 0) {
      blocks_.push_back(std::make_unique_for_overwrite<double[]>(kBlockSize));
    }
    blocks_.back()[count_ & kBlockMask] = sample;
    ++count_;
    sum_ += sample;
  }

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept;
  double min() const;
  double max() const;

  // Quantile q in [0, 1] with linear interpolation between order statistics;
  // requires at least one sample.  Reorders the stored samples (they are a
  // multiset; mean() keeps its addition order in sum_).
  double quantile(double q) const;

 private:
  // Blocks are filled in order; only the last may be partial.  The samples
  // are a multiset, so quantile() may reorder them through the pointers.
  std::vector<std::unique_ptr<double[]>> blocks_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
};

}  // namespace ge::util
