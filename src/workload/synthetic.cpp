#include "workload/synthetic.hpp"

#include <algorithm>
#include <cassert>

namespace unsync::workload {

namespace {
constexpr isa::InstClass kNonStoreClasses[9] = {
    isa::InstClass::kIntAlu, isa::InstClass::kIntMul, isa::InstClass::kIntDiv,
    isa::InstClass::kFpAlu,  isa::InstClass::kFpMul,  isa::InstClass::kFpDiv,
    isa::InstClass::kLoad,   isa::InstClass::kBranch,
    isa::InstClass::kSerializing,
};
}  // namespace

SyntheticStream::SyntheticStream(const BenchmarkProfile& profile,
                                 std::uint64_t seed, std::uint64_t length)
    : profile_(profile), seed_(seed), length_(length), rng_(seed) {
  assert(!profile.validate().has_value());

  // Disjoint address space per (profile, seed): a deterministic hash picks
  // one of 256 4 GiB slots above the shared low region.
  std::uint64_t h = seed * 0x9e3779b97f4a7c15ULL;
  for (const char c : profile_.name) h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
  aspace_base_ = (h & 0xFF) << 32;
  const double w[9] = {
      profile_.mix.int_alu, profile_.mix.int_mul, profile_.mix.int_div,
      profile_.mix.fp_alu,  profile_.mix.fp_mul,  profile_.mix.fp_div,
      profile_.mix.load,    profile_.mix.branch,  profile_.mix.serializing,
  };
  double cum = 0;
  for (int i = 0; i < 9; ++i) {
    cum += w[i];
    nonstore_cumulative_[i] = cum;
  }

  // Two-state Markov store emission. With q = P(store|store) from the
  // profile and target stationary store fraction p, the complement rate is
  // r = P(store|non-store) = p(1-q)/(1-p), which preserves the mix while
  // clustering stores into runs of mean length 1/(1-q).
  const double p = profile_.mix.store;
  double q = std::max(profile_.store_burstiness, p);
  q = std::min(q, 0.95);
  p_store_after_store_ = q;
  p_store_after_nonstore_ = p < 1.0 ? p * (1.0 - q) / (1.0 - p) : 1.0;

  dep_ = std::make_shared<const GeometricTable>(1.0 /
                                                profile_.mean_dep_distance);
  miss1_load_ = profile_.l1_miss_rate;
  miss1_store_ = profile_.l1_miss_rate * 0.7;
}

void SyntheticStream::reset() {
  rng_.reseed(seed_);
  next_seq_ = 0;
  last_was_store_ = false;
  cold_cursor_ = 0;
}

std::unique_ptr<InstStream> SyntheticStream::clone() const {
  // A copy shares the dependency table; reset() rewinds every cursor.
  auto copy = std::make_unique<SyntheticStream>(*this);
  copy->reset();
  return copy;
}

Addr SyntheticStream::draw_address(bool is_store) {
  // Three-tier locality model tuned so simulated caches see the profile's
  // miss rates. Stores are slightly hotter than loads in real programs
  // (write buffers absorb them), so the store L1-miss probability shrinks.
  const double miss1 = is_store ? miss1_store_ : miss1_load_;
  const double u = rng_.uniform();
  if (u >= miss1) {
    // Hot tier: a small set that is L1-resident after warmup.
    return aspace_base_ + kHotBase + rng_.below(kHotBytes / 8) * 8;
  }
  if (rng_.uniform() < profile_.l2_miss_rate) {
    // Cold tier: a fresh streaming line — guaranteed to miss everywhere.
    const Addr line = aspace_base_ + kColdBase + cold_cursor_;
    cold_cursor_ += 64;
    return line + rng_.below(8) * 8;
  }
  // Warm tier: a 128 KiB region (warm_region()) the systems pre-load into
  // the shared L2. Its footprint exceeds the L1, so these draws miss the
  // L1 but hit the L2 — the profile's local L2 hit behaviour.
  return aspace_base_ + kWarmBase + rng_.below(kWarmPoolLines * 64 / 8) * 8;
}

bool SyntheticStream::next(DynOp* out) {
  if (next_seq_ >= length_) return false;

  DynOp op;
  op.seq = next_seq_++;

  const bool is_store = profile_.mix.store > 0.0 &&
                        rng_.chance(last_was_store_ ? p_store_after_store_
                                                    : p_store_after_nonstore_);
  last_was_store_ = is_store;
  op.cls = is_store
               ? isa::InstClass::kStore
               : kNonStoreClasses[rng_.pick_cumulative(nonstore_cumulative_, 9)];

  // Synthetic PCs: branches draw from a small static-branch pool so a real
  // predictor would see recurring PCs; other classes walk a code region.
  op.pc = op.is_branch() ? 0x1000 + (rng_.below(256) * 4)
                         : 0x4000 + ((op.seq % 4096) * 4);

  // Register dataflow: each source points a geometric distance back
  // (p = 1/mean gives the profile's mean distance). Not every operand is a
  // live register value — immediates, constants and loop-invariant inputs
  // make real instruction streams much sparser than two-live-sources-per-
  // instruction, which is what lets a 4-wide core sustain IPC > 1. The
  // table draw equals Rng::geometric(p) for every uniform (geometric.hpp).
  const int nsrc = op.cls == isa::InstClass::kSerializing ? 0
                   : op.is_load()                         ? 1
                                                          : 2;
  constexpr double kSrcPresent[2] = {0.85, 0.45};
  for (int i = 0; i < nsrc; ++i) {
    if (!rng_.chance(kSrcPresent[i])) continue;
    const std::uint64_t dist = 1 + dep_->draw(rng_);
    op.src[i] = dist <= op.seq ? op.seq - dist : kNoSeq;
  }
  op.writes_reg = !(op.is_store() || op.is_branch() || op.is_serializing());

  if (op.is_load() || op.is_store()) {
    op.mem_addr = draw_address(op.is_store());
  }
  if (op.is_branch()) {
    op.taken = rng_.chance(0.6);
    op.has_mispredict_hint = true;
    op.mispredict_hint = rng_.chance(profile_.branch_mispredict_rate);
  }

  *out = op;
  return true;
}

}  // namespace unsync::workload
