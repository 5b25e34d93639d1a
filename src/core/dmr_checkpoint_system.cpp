#include "core/dmr_checkpoint_system.hpp"

#include <algorithm>
#include <cassert>

#include "ckpt/serializer.hpp"
#include "core/baseline.hpp"

namespace unsync::core {

bool DmrCheckpointSystem::CheckpointEnv::can_commit(CoreId core,
                                                    const workload::DynOp& op,
                                                    Cycle now) {
  (void)core;
  Pair& p = *pair_;
  if (op.seq < p.next_boundary) return true;

  // This core reached the checkpoint boundary: wait for the partner, then
  // the (heavyweight) capture + hash comparison.
  if (!p.reached[side_]) {
    p.reached[side_] = true;
    p.reached_at[side_] = now;
  }
  if (!(p.reached[0] && p.reached[1])) return false;
  if (p.checkpoint_done == 0) {
    p.checkpoint_done = std::max(p.reached_at[0], p.reached_at[1]) +
                        sys_->params_.checkpoint_cost +
                        sys_->params_.compare_latency;
    ++sys_->checkpoints_taken_;
    if (sys_->tracer_.enabled()) {
      sys_->tracer_.emit({.kind = obs::TraceKind::kCheckpoint,
                          .cycle = now,
                          .thread = static_cast<std::uint32_t>(core / 2),
                          .core = static_cast<std::uint32_t>(core),
                          .seq = p.next_boundary,
                          .addr = 0,
                          .value = p.checkpoint_done - now});
    }
  }
  if (now < p.checkpoint_done) return false;

  // Checkpoint committed: open the next epoch.
  p.last_committed_boundary = p.next_boundary;
  p.next_boundary += sys_->params_.checkpoint_interval;
  p.reached[0] = p.reached[1] = false;
  p.checkpoint_done = 0;
  return true;
}

bool DmrCheckpointSystem::CheckpointEnv::on_store_commit(
    CoreId core, const workload::DynOp& op, Cycle now) {
  return store_buffer_commit(sys_->memory_, pair_->store_buffer[side_], core,
                             op.mem_addr, now);
}

DmrCheckpointSystem::DmrCheckpointSystem(const SystemConfig& config,
                                         const CheckpointParams& params,
                                         const workload::InstStream& stream)
    : DmrCheckpointSystem(config, params,
                          engine::replicate(stream, config.num_threads)) {}

DmrCheckpointSystem::DmrCheckpointSystem(
    const SystemConfig& config, const CheckpointParams& params,
    const std::vector<const workload::InstStream*>& streams)
    : System(config),
      params_(params),
      memory_(config.mem, config.num_threads * 2) {
  assert(params_.checkpoint_interval > 0);
  init_groups(streams, config.seed, config.ser_per_inst);
  for (unsigned t = 0; t < config.num_threads; ++t) {
    auto pair = std::make_unique<Pair>();
    pair->next_boundary = params_.checkpoint_interval;
    for (unsigned side = 0; side < 2; ++side) {
      pair->env[side] =
          std::make_unique<CheckpointEnv>(this, pair.get(), side);
      pair->core[side] = std::make_unique<cpu::OooCore>(
          t * 2 + side, config.core, &memory_, streams[t]->clone(),
          pair->env[side].get());
      register_core(*pair->core[side]);
    }
    pairs_.push_back(std::move(pair));
  }
}

void DmrCheckpointSystem::on_error(std::size_t g, Cycle now, RunResult& acc) {
  const auto position = take_arrival(g);
  if (!position) return;
  Pair& pair = *pairs_[g];
  // The mismatch surfaces at the next checkpoint hash; both cores restore
  // the previous checkpoint (heavyweight) and re-execute the whole epoch.
  const Cycle resume_at = now + params_.restore_cost;
  const auto struck = static_cast<unsigned>(channel_.rng.below(2));
  engine::record_error(acc, tracer_,
                       {.cycle = now, .position = *position,
                        .thread = static_cast<unsigned>(g),
                        .struck_core = struck, .cost = params_.restore_cost,
                        .rollback = true},
                       pair.last_committed_boundary);
  for (unsigned side = 0; side < 2; ++side) {
    pair.core[side]->set_position(pair.last_committed_boundary);
    pair.core[side]->stall_until(resume_at);
  }
  pair.next_boundary =
      pair.last_committed_boundary + params_.checkpoint_interval;
  pair.reached[0] = pair.reached[1] = false;
  pair.checkpoint_done = 0;
}

void DmrCheckpointSystem::publish_extra_metrics() {
  if (!metrics_) return;
  metrics_->set_counter(name_ + ".checkpoints_taken", checkpoints_taken_);
}

void DmrCheckpointSystem::save_policy_state(ckpt::Serializer& s) const {
  save_fault_rng(s);
  memory_.save_state(s);
  s.u64(checkpoints_taken_);
  s.u64(pairs_.size());
  for (std::size_t g = 0; g < pairs_.size(); ++g) {
    const Pair& pair = *pairs_[g];
    for (unsigned side = 0; side < 2; ++side) {
      pair.core[side]->save_state(s);
      ckpt::save_u64_vec(s, pair.store_buffer[side]);
    }
    s.u64(pair.next_boundary);
    s.b(pair.reached[0]);
    s.b(pair.reached[1]);
    s.u64(pair.reached_at[0]);
    s.u64(pair.reached_at[1]);
    s.u64(pair.checkpoint_done);
    s.u64(pair.last_committed_boundary);
    save_arrivals(s, g);
  }
}

void DmrCheckpointSystem::load_policy_state(ckpt::Deserializer& d) {
  load_fault_rng(d);
  memory_.load_state(d);
  checkpoints_taken_ = d.u64();
  if (d.u64() != pairs_.size()) {
    throw ckpt::CkptError("dmr-checkpoint pair-count mismatch");
  }
  for (std::size_t g = 0; g < pairs_.size(); ++g) {
    Pair& pair = *pairs_[g];
    for (unsigned side = 0; side < 2; ++side) {
      pair.core[side]->load_state(d);
      ckpt::load_u64_vec(d, pair.store_buffer[side]);
    }
    pair.next_boundary = d.u64();
    pair.reached[0] = d.b();
    pair.reached[1] = d.b();
    pair.reached_at[0] = d.u64();
    pair.reached_at[1] = d.u64();
    pair.checkpoint_done = d.u64();
    pair.last_committed_boundary = d.u64();
    load_arrivals(d, g);
  }
}

}  // namespace unsync::core
