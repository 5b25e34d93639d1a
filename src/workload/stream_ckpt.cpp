// Checkpoint hooks for the workload layer: DynOp records and the two
// stream cursor types. Kept in one translation unit so the wire layout of
// a stream's state is reviewable in a single place.
#include "ckpt/serializer.hpp"
#include "workload/dyn_op.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace unsync::workload {

void save_op(ckpt::Serializer& s, const DynOp& op) {
  s.u64(op.seq);
  s.u8(static_cast<std::uint8_t>(op.cls));
  s.u64(op.pc);
  s.u64(op.src[0]);
  s.u64(op.src[1]);
  s.b(op.writes_reg);
  s.u64(op.mem_addr);
  s.b(op.taken);
  s.b(op.has_mispredict_hint);
  s.b(op.mispredict_hint);
}

void load_op(ckpt::Deserializer& d, DynOp& op) {
  op.seq = d.u64();
  const std::uint8_t cls = d.u8();
  if (!is_stream_class(cls)) {
    throw ckpt::CkptError("instruction class out of range");
  }
  op.cls = static_cast<isa::InstClass>(cls);
  op.pc = d.u64();
  op.src[0] = d.u64();
  op.src[1] = d.u64();
  op.writes_reg = d.b();
  op.mem_addr = d.u64();
  op.taken = d.b();
  op.has_mispredict_hint = d.b();
  op.mispredict_hint = d.b();
}

void InstStream::save_state(ckpt::Serializer&) const {
  throw ckpt::CkptError("this stream type does not support checkpointing");
}

void InstStream::load_state(ckpt::Deserializer&) {
  throw ckpt::CkptError("this stream type does not support checkpointing");
}

void SyntheticStream::save_state(ckpt::Serializer& s) const {
  s.begin_chunk("SYNS");
  // Identity of the generation function — everything else (locality model,
  // cumulative mix weights, address-space base) is re-derived from it at
  // construction, so only the mutable cursor needs saving.
  s.str(profile_.name);
  s.u64(seed_);
  s.u64(length_);
  for (std::uint64_t word : rng_.state()) s.u64(word);
  s.u64(next_seq_);
  s.u64(cold_cursor_);
  s.b(last_was_store_);
  s.end_chunk();
}

void SyntheticStream::load_state(ckpt::Deserializer& d) {
  d.begin_chunk("SYNS");
  const std::string name = d.str();
  const std::uint64_t seed = d.u64();
  const std::uint64_t length = d.u64();
  if (name != profile_.name || seed != seed_ || length != length_) {
    throw ckpt::CkptError("synthetic stream identity mismatch: checkpoint " +
                          name + "/" + std::to_string(seed) + "/" +
                          std::to_string(length) + ", stream " +
                          profile_.name + "/" + std::to_string(seed_) + "/" +
                          std::to_string(length_));
  }
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = d.u64();
  rng_.set_state(state);
  next_seq_ = d.u64();
  cold_cursor_ = d.u64();
  last_was_store_ = d.b();
  d.end_chunk();
}

void TraceStream::save_state(ckpt::Serializer& s) const {
  s.begin_chunk("TRCS");
  s.u64(ops_->size());
  s.u64(cursor_);
  s.end_chunk();
}

void TraceStream::load_state(ckpt::Deserializer& d) {
  d.begin_chunk("TRCS");
  if (d.u64() != ops_->size()) {
    throw ckpt::CkptError("trace stream length mismatch");
  }
  cursor_ = d.u64();
  d.end_chunk();
}

}  // namespace unsync::workload
