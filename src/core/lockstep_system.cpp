#include "core/lockstep_system.hpp"

#include "ckpt/serializer.hpp"
#include "core/baseline.hpp"

namespace unsync::core {

bool LockstepSystem::LockstepEnv::can_commit(CoreId core,
                                             const workload::DynOp& op,
                                             Cycle now) {
  (void)core;
  (void)now;
  // Tight coupling: neither core may retire past its partner by more than
  // one commit group.
  const auto& other = *pair_->core[1 - side_];
  if (op.seq >= other.retired() + sys_->params_.max_skew) {
    ++pair_->lockstep_stalls;
    return false;
  }
  return true;
}

bool LockstepSystem::LockstepEnv::on_store_commit(CoreId core,
                                                  const workload::DynOp& op,
                                                  Cycle now) {
  return store_buffer_commit(sys_->memory_, pair_->store_buffer[side_], core,
                             op.mem_addr, now);
}

LockstepSystem::LockstepSystem(const SystemConfig& config,
                               const LockstepParams& params,
                               const workload::InstStream& stream)
    : LockstepSystem(config, params,
                     engine::replicate(stream, config.num_threads)) {}

LockstepSystem::LockstepSystem(
    const SystemConfig& config, const LockstepParams& params,
    const std::vector<const workload::InstStream*>& streams)
    : System(config),
      params_(params),
      memory_(config.mem, config.num_threads * 2) {
  init_groups(streams, config.seed, config.ser_per_inst);
  cpu::CoreConfig core_cfg = config.core;
  core_cfg.extra_load_latency = params_.load_check_latency;
  for (unsigned t = 0; t < config.num_threads; ++t) {
    auto pair = std::make_unique<Pair>();
    for (unsigned side = 0; side < 2; ++side) {
      pair->env[side] = std::make_unique<LockstepEnv>(this, pair.get(), side);
      pair->core[side] = std::make_unique<cpu::OooCore>(
          t * 2 + side, core_cfg, &memory_, streams[t]->clone(),
          pair->env[side].get());
      register_core(*pair->core[side]);
    }
    pairs_.push_back(std::move(pair));
  }
}

void LockstepSystem::on_error(std::size_t g, Cycle now, RunResult& acc) {
  const auto position = take_arrival(g);
  if (!position) return;
  Pair& pair = *pairs_[g];
  // Lock-step sees the divergence the cycle it occurs; recovery is a
  // flush + instruction retry on both cores.
  const Cycle resume_at = now + params_.resync_penalty;
  const auto struck = static_cast<unsigned>(channel_.rng.below(2));
  engine::record_error(acc, tracer_,
                       {.cycle = now, .position = *position,
                        .thread = static_cast<unsigned>(g),
                        .struck_core = struck, .cost = params_.resync_penalty,
                        .rollback = false},
                       *position);
  for (unsigned side = 0; side < 2; ++side) {
    pair.core[side]->stall_until(resume_at);
  }
}

void LockstepSystem::finish(RunResult& r) const {
  System::finish(r);
  for (const auto& pair : pairs_) {
    r.fingerprint_syncs += pair->lockstep_stalls;  // repurposed: sync stalls
  }
}

void LockstepSystem::save_policy_state(ckpt::Serializer& s) const {
  save_fault_rng(s);
  memory_.save_state(s);
  s.u64(pairs_.size());
  for (std::size_t g = 0; g < pairs_.size(); ++g) {
    const Pair& pair = *pairs_[g];
    for (unsigned side = 0; side < 2; ++side) {
      pair.core[side]->save_state(s);
      ckpt::save_u64_vec(s, pair.store_buffer[side]);
    }
    save_arrivals(s, g);
    s.u64(pair.lockstep_stalls);
  }
}

void LockstepSystem::load_policy_state(ckpt::Deserializer& d) {
  load_fault_rng(d);
  memory_.load_state(d);
  if (d.u64() != pairs_.size()) {
    throw ckpt::CkptError("lockstep pair-count mismatch");
  }
  for (std::size_t g = 0; g < pairs_.size(); ++g) {
    Pair& pair = *pairs_[g];
    for (unsigned side = 0; side < 2; ++side) {
      pair.core[side]->load_state(d);
      ckpt::load_u64_vec(d, pair.store_buffer[side]);
    }
    load_arrivals(d, g);
    pair.lockstep_stalls = d.u64();
  }
}

}  // namespace unsync::core
