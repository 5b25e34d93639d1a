#include "common/geometric.hpp"

namespace unsync {

GeometricTable::GeometricTable(double p)
    : log_q_(std::log1p(-p)), certain_(p >= 1.0) {
  assert(p > 0.0 && p <= 1.0);
  if (certain_) {  // every bucket holds 0
    covered_ = kBuckets;
    return;
  }
  constexpr double kWidth = 1.0 / static_cast<double>(kBuckets);
  // One pass over the thresholds in increasing order, filling the buckets
  // that lie wholly below each: bucket b holds k - 1 when its guarded span
  // [b*w - g, (b+1)*w + g] sits strictly between T_{k-1} and T_k. T_0 = 0
  // bounds nothing, since u >= 0.
  double prev = 0.0;
  std::size_t b = 0;
  for (std::uint64_t k = 1;; ++k) {
    assert(k - 1 < kUnknown);
    const double t = threshold(k);
    for (; static_cast<double>(b + 1) * kWidth + kGuard < t; ++b) {
      const bool clear =
          k == 1 || static_cast<double>(b) * kWidth - kGuard > prev;
      bucket_[b] = clear ? static_cast<std::uint16_t>(k - 1) : kUnknown;
    }
    thresholds_ = k;
    // Past here thresholds are closer together than one bucket, so
    // buckets would mostly straddle one: leave the rest to the fallback.
    // The gap p(1-p)^(k-1) shrinks to 0 (and t reaches 1), so this ends.
    if (t - prev < kWidth) break;
    prev = t;
  }
  covered_ = b;
}

}  // namespace unsync
