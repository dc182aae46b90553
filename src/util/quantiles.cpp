#include "util/quantiles.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <iterator>

#include "util/check.h"

namespace ge::util {
namespace {

// Random-access view of a collector's samples: sample i is
// blocks[i >> kBlockShift][i & kBlockMask].
class BlockIter {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = double;
  using difference_type = std::ptrdiff_t;
  using pointer = double*;
  using reference = double&;

  BlockIter() = default;
  BlockIter(const std::unique_ptr<double[]>* blocks, difference_type i)
      : blocks_(blocks), i_(i) {}

  reference operator*() const {
    const auto i = static_cast<std::size_t>(i_);
    return blocks_[i >> QuantileCollector::kBlockShift]
                  [i & QuantileCollector::kBlockMask];
  }
  reference operator[](difference_type n) const { return *(*this + n); }
  BlockIter& operator++() { ++i_; return *this; }
  BlockIter& operator--() { --i_; return *this; }
  BlockIter operator++(int) { BlockIter old = *this; ++i_; return old; }
  BlockIter operator--(int) { BlockIter old = *this; --i_; return old; }
  BlockIter& operator+=(difference_type n) { i_ += n; return *this; }
  BlockIter& operator-=(difference_type n) { i_ -= n; return *this; }
  friend BlockIter operator+(BlockIter it, difference_type n) { return it += n; }
  friend BlockIter operator+(difference_type n, BlockIter it) { return it += n; }
  friend BlockIter operator-(BlockIter it, difference_type n) { return it -= n; }
  friend difference_type operator-(BlockIter a, BlockIter b) { return a.i_ - b.i_; }
  friend bool operator==(BlockIter a, BlockIter b) { return a.i_ == b.i_; }
  friend std::strong_ordering operator<=>(BlockIter a, BlockIter b) {
    return a.i_ <=> b.i_;
  }

 private:
  const std::unique_ptr<double[]>* blocks_ = nullptr;
  difference_type i_ = 0;
};

}  // namespace

void QuantileCollector::merge(const QuantileCollector& other) {
  GE_CHECK(&other != this, "a collector cannot merge itself");
  for (std::size_t i = 0; i < other.count_; ++i) {
    append(other.blocks_[i >> kBlockShift][i & kBlockMask]);
  }
  sum_ += other.sum_;
}

double QuantileCollector::mean() const noexcept {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double QuantileCollector::min() const {
  GE_CHECK(count_ > 0, "quantile of an empty collector");
  const BlockIter first(blocks_.data(), 0);
  return *std::min_element(first, first + static_cast<std::ptrdiff_t>(count_));
}

double QuantileCollector::max() const {
  GE_CHECK(count_ > 0, "quantile of an empty collector");
  const BlockIter first(blocks_.data(), 0);
  return *std::max_element(first, first + static_cast<std::ptrdiff_t>(count_));
}

double QuantileCollector::quantile(double q) const {
  GE_CHECK(count_ > 0, "quantile of an empty collector");
  GE_CHECK(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  const double pos = q * static_cast<double>(count_ - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  const BlockIter first(blocks_.data(), 0);
  const BlockIter last = first + static_cast<std::ptrdiff_t>(count_);
  const BlockIter nth = first + static_cast<std::ptrdiff_t>(lo);
  // With rank lo in place, rank lo + 1 is the smallest sample behind it.
  std::nth_element(first, nth, last);
  const double x_lo = *nth;
  const double x_hi = hi == lo ? x_lo : *std::min_element(nth + 1, last);
  return x_lo * (1.0 - frac) + x_hi * frac;
}

}  // namespace ge::util
