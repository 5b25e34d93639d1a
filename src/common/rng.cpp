#include "common/rng.hpp"

#include <cassert>
#include <cmath>

namespace unsync {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // A theoretically possible all-zero state would lock the generator at 0.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::exponential(double rate) {
  assert(rate > 0.0);
  // -log(1-u) avoids log(0) since uniform() < 1.
  return -std::log1p(-uniform()) / rate;
}

std::uint64_t Rng::geometric(double p) {
  assert(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  return static_cast<std::uint64_t>(std::floor(std::log1p(-uniform()) /
                                               std::log1p(-p)));
}

std::uint64_t derive_seed(std::uint64_t campaign_seed, std::uint64_t index) {
  // Two SplitMix64 steps over a mix of both inputs: consecutive indices
  // under the same campaign seed land in well-separated streams.
  std::uint64_t x = campaign_seed ^ (index * 0xd1342543de82ef95ULL + 1);
  (void)splitmix64(x);
  return splitmix64(x);
}

}  // namespace unsync
