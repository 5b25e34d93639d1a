// Baseline CMP: one core per thread, write-back L1, no redundancy.
//
// This is the reference every figure normalises against ("baseline CMP
// architecture", Table I) — and it is also the performance a soft error
// silently corrupts.
#pragma once

#include <memory>
#include <vector>

#include "core/system.hpp"
#include "mem/hierarchy.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::core {

class BaselineSystem final : public System {
 public:
  /// Homogeneous: `stream` is cloned once per thread.
  BaselineSystem(const SystemConfig& config,
                 const workload::InstStream& stream);

  /// Heterogeneous multiprogramming: one stream per thread
  /// (`streams.size()` must equal `config.num_threads`).
  BaselineSystem(const SystemConfig& config,
                 const std::vector<const workload::InstStream*>& streams);

  const std::string& name() const override { return name_; }
  mem::MemoryHierarchy& memory() override { return memory_; }

  // SystemPolicy phases: one group per thread, one core per group — all
  // System's defaults. No error process: the fault channel stays empty and
  // the fingerprint is the full policy state.
  const char* ckpt_tag() const override { return "BASE"; }
  void save_policy_state(ckpt::Serializer& s) const override;
  void load_policy_state(ckpt::Deserializer& d) override;

 private:
  /// Commit environment: a small post-commit store buffer in front of the
  /// write-back L1; commit stalls when it fills.
  class StoreBufferEnv final : public cpu::CommitEnv {
   public:
    explicit StoreBufferEnv(mem::MemoryHierarchy* memory)
        : memory_(memory) {}

    bool on_store_commit(CoreId core, const workload::DynOp& op,
                         Cycle now) override;

    void save_state(ckpt::Serializer& s) const;
    void load_state(ckpt::Deserializer& d);

   private:
    mem::MemoryHierarchy* memory_;
    std::vector<std::vector<Cycle>> in_flight_;  // per core: completion times
  };

  std::string name_ = "baseline";
  mem::MemoryHierarchy memory_;
  StoreBufferEnv env_;
  std::vector<std::unique_ptr<cpu::OooCore>> cores_;
};

/// Size of the post-commit store buffer used by write-back configurations.
inline constexpr std::size_t kStoreBufferEntries = 8;

/// Commits one store through a write-back post-commit store buffer holding
/// the completion cycles of its in-flight writebacks: retires the finished
/// ones, then rejects the store (stalling commit) when kStoreBufferEntries
/// are still in flight.
bool store_buffer_commit(mem::MemoryHierarchy& memory,
                         std::vector<Cycle>& buffer, CoreId core, Addr addr,
                         Cycle now);

}  // namespace unsync::core
