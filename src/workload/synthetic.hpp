// Statistical dynamic-instruction-stream generator.
//
// Draws an instruction stream whose aggregate properties match a
// BenchmarkProfile: instruction mix, register dependency distances
// (geometric around the profile mean), branch misprediction rate, and a
// three-tier memory locality model (hot set that fits in L1, warm set that
// fits in L2, cold set that misses everywhere) tuned so the L1/L2 miss
// rates land on the profile's targets.
//
// Generation is a pure function of (profile, seed, length): two clones with
// the same parameters yield bit-identical streams, which is what redundant
// core pairs require.
#pragma once

#include <cstdint>
#include <memory>

#include "common/geometric.hpp"
#include "common/rng.hpp"
#include "workload/dyn_op.hpp"
#include "workload/profile.hpp"

namespace unsync::workload {

class SyntheticStream final : public InstStream {
 public:
  SyntheticStream(const BenchmarkProfile& profile, std::uint64_t seed,
                  std::uint64_t length);

  bool next(DynOp* out) override;
  std::unique_ptr<InstStream> clone() const override;
  void reset() override;
  std::uint64_t length() const override { return length_; }
  std::optional<WarmRegion> warm_region() const override {
    return WarmRegion{aspace_base_ + kWarmBase, kWarmPoolLines * 64};
  }
  std::optional<WarmRegion> code_region() const override {
    // Branch pool at 0x1000 plus the 16 KiB straight-line region at 0x4000.
    return WarmRegion{0x1000, 0x4000 + 4096 * 4 - 0x1000};
  }

  const BenchmarkProfile& profile() const { return profile_; }

  /// Checkpoint hooks: RNG state + generation cursor. The restored stream
  /// must be constructed with the same (profile, seed, length).
  void save_state(ckpt::Serializer& s) const override;
  void load_state(ckpt::Deserializer& d) override;

 private:
  Addr draw_address(bool is_store);

  BenchmarkProfile profile_;
  std::uint64_t seed_;
  std::uint64_t length_;

  Rng rng_;
  SeqNum next_seq_ = 0;
  /// Streaming cursor for the cold tier: every cold draw is a fresh line,
  /// guaranteeing an L2 miss (no accidental reuse).
  Addr cold_cursor_ = 0;
  /// Address-space base derived from (profile, seed): distinct workloads
  /// live in disjoint regions so multiprogrammed co-runners do not
  /// accidentally share (and mutually prefetch) each other's data. Clones
  /// share the same offset, which redundant execution requires.
  Addr aspace_base_ = 0;
  /// Cumulative weights over the nine non-store classes (stores are drawn
  /// by the Markov burst model first).
  double nonstore_cumulative_[9] = {};
  bool last_was_store_ = false;
  double p_store_after_store_ = 0;     // profile burstiness
  double p_store_after_nonstore_ = 0;  // derived for the stationary rate
  // Hoisted per-op constants (next() is the simulator's hottest producer):
  /// Dependency-distance draw, p = 1 / mean_dep_distance: built once per
  /// constructed stream and shared by its clones (it is derived from the
  /// profile alone, so checkpoints do not carry it).
  std::shared_ptr<const GeometricTable> dep_;
  double miss1_load_ = 0;       // L1-miss prob for loads
  double miss1_store_ = 0;      // L1-miss prob for stores (0.7x, hotter)

  // Locality model: region base addresses (8-byte aligned draws inside).
  static constexpr Addr kHotBase = 0x0100'0000;
  static constexpr Addr kHotBytes = 16 * 1024;  // < 32 KiB L1
  static constexpr Addr kWarmBase = 0x0200'0000;
  static constexpr Addr kColdBase = 0x1000'0000;
  static constexpr std::size_t kWarmPoolLines = 2048;  // 128 KiB, fits L2
};

}  // namespace unsync::workload
