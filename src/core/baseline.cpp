#include "core/baseline.hpp"

#include "ckpt/serializer.hpp"

namespace unsync::core {

bool store_buffer_commit(mem::MemoryHierarchy& memory,
                         std::vector<Cycle>& buffer, CoreId core, Addr addr,
                         Cycle now) {
  std::erase_if(buffer, [now](Cycle done) { return done <= now; });
  if (buffer.size() >= kStoreBufferEntries) return false;
  buffer.push_back(memory.store_writeback(core, addr, now).done);
  return true;
}

bool BaselineSystem::StoreBufferEnv::on_store_commit(CoreId core,
                                                     const workload::DynOp& op,
                                                     Cycle now) {
  if (in_flight_.size() <= core) in_flight_.resize(core + 1);
  return store_buffer_commit(*memory_, in_flight_[core], core, op.mem_addr,
                             now);
}

BaselineSystem::BaselineSystem(const SystemConfig& config,
                               const workload::InstStream& stream)
    : BaselineSystem(config, engine::replicate(stream, config.num_threads)) {}

BaselineSystem::BaselineSystem(
    const SystemConfig& config,
    const std::vector<const workload::InstStream*>& streams)
    : System(config),
      memory_(config.mem, config.num_threads),
      env_(&memory_) {
  init_groups(streams, config.seed, 0.0);
  for (unsigned t = 0; t < config.num_threads; ++t) {
    cores_.push_back(std::make_unique<cpu::OooCore>(
        t, config.core, &memory_, streams[t]->clone(), &env_));
    register_core(*cores_.back());
  }
}

void BaselineSystem::StoreBufferEnv::save_state(ckpt::Serializer& s) const {
  s.begin_chunk("SBUF");
  s.u64(in_flight_.size());
  for (const auto& buf : in_flight_) ckpt::save_u64_vec(s, buf);
  s.end_chunk();
}

void BaselineSystem::StoreBufferEnv::load_state(ckpt::Deserializer& d) {
  d.begin_chunk("SBUF");
  in_flight_.resize(d.u64());
  for (auto& buf : in_flight_) ckpt::load_u64_vec(d, buf);
  d.end_chunk();
}

void BaselineSystem::save_policy_state(ckpt::Serializer& s) const {
  memory_.save_state(s);
  env_.save_state(s);
  s.u64(cores_.size());
  for (const auto& core : cores_) core->save_state(s);
}

void BaselineSystem::load_policy_state(ckpt::Deserializer& d) {
  memory_.load_state(d);
  env_.load_state(d);
  if (d.u64() != cores_.size()) {
    throw ckpt::CkptError("baseline core-count mismatch");
  }
  for (const auto& core : cores_) core->load_state(d);
}

}  // namespace unsync::core
