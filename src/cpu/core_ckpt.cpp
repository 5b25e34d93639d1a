// Checkpoint hooks for the CPU layer: branch predictor, CoreStats blocks,
// and the full out-of-order core. One translation unit so the core's wire
// layout is reviewable in a single place.
#include "ckpt/serializer.hpp"
#include "cpu/bpred.hpp"
#include "cpu/check_log.hpp"
#include "cpu/in_order_core.hpp"
#include "cpu/ooo_core.hpp"

namespace unsync::cpu {

void GsharePredictor::save_state(ckpt::Serializer& s) const {
  s.begin_chunk("BPRD");
  s.u64(counters_.size());
  for (const std::uint8_t c : counters_) s.u8(c);
  s.u64(history_);
  s.u64(lookups_);
  s.u64(wrong_);
  s.end_chunk();
}

void GsharePredictor::load_state(ckpt::Deserializer& d) {
  d.begin_chunk("BPRD");
  if (d.u64() != counters_.size()) {
    throw ckpt::CkptError("branch predictor table-size mismatch");
  }
  for (std::uint8_t& c : counters_) c = d.u8();
  history_ = d.u64();
  lookups_ = d.u64();
  wrong_ = d.u64();
  d.end_chunk();
}

void save_stats(ckpt::Serializer& s, const CoreStats& stats) {
  s.begin_chunk("CSTA");
  s.u64(stats.cycles);
  s.u64(stats.committed);
  s.u64(stats.loads);
  s.u64(stats.stores);
  s.u64(stats.branches);
  s.u64(stats.mispredicts);
  s.u64(stats.serializing);
  s.u64(stats.commit_stall_store);
  s.u64(stats.commit_stall_gate);
  s.u64(stats.dispatch_stall_rob);
  s.u64(stats.dispatch_stall_iq);
  s.u64(stats.dispatch_stall_lsq);
  s.u64(stats.fetch_blocked_branch);
  s.u64(stats.fetch_blocked_serialize);
  s.u64(stats.fetch_blocked_icache);
  s.u64(stats.itlb_misses);
  s.u64(stats.dtlb_misses);
  s.u64(stats.recovery_stall_cycles);
  s.u64(stats.rob_occupancy_accum);
  ckpt::save_u64_vec(s, stats.interval_committed);
  s.end_chunk();
}

void load_stats(ckpt::Deserializer& d, CoreStats& stats) {
  d.begin_chunk("CSTA");
  stats.cycles = d.u64();
  stats.committed = d.u64();
  stats.loads = d.u64();
  stats.stores = d.u64();
  stats.branches = d.u64();
  stats.mispredicts = d.u64();
  stats.serializing = d.u64();
  stats.commit_stall_store = d.u64();
  stats.commit_stall_gate = d.u64();
  stats.dispatch_stall_rob = d.u64();
  stats.dispatch_stall_iq = d.u64();
  stats.dispatch_stall_lsq = d.u64();
  stats.fetch_blocked_branch = d.u64();
  stats.fetch_blocked_serialize = d.u64();
  stats.fetch_blocked_icache = d.u64();
  stats.itlb_misses = d.u64();
  stats.dtlb_misses = d.u64();
  stats.recovery_stall_cycles = d.u64();
  stats.rob_occupancy_accum = d.u64();
  ckpt::load_u64_vec(d, stats.interval_committed);
  d.end_chunk();
}

namespace {

void save_pool(ckpt::Serializer& s, const std::vector<Cycle>& next_free) {
  s.u64(next_free.size());
  for (const Cycle c : next_free) s.u64(c);
}

void load_pool(ckpt::Deserializer& d, std::vector<Cycle>& next_free) {
  if (d.u64() != next_free.size()) {
    throw ckpt::CkptError("functional-unit pool width mismatch");
  }
  for (Cycle& c : next_free) c = d.u64();
}

}  // namespace

void OooCore::save_state(ckpt::Serializer& s) const {
  s.begin_chunk("CPU0");
  s.u32(id_);
  save_stats(s, stats_);
  s.u64(next_sample_);
  s.u64(frozen_until_);

  s.u64(fetch_queue_.size());
  for (const workload::DynOp& op : fetch_queue_) workload::save_op(s, op);

  s.u64(rob_count_);
  for (SeqNum seq = rob_head_seq_; in_rob(seq); ++seq) {
    const RobEntry& e = rob_[slot_of(seq)];
    workload::save_op(s, e.op);
    s.b(e.in_iq);
    s.b(e.issued);
    s.u64(e.complete_at);
    s.b(e.mispredicted);
  }

  // The in-flight completion list, sorted by seq: each ROB entry's
  // (seq, complete_at), kNever while unissued. Derived from the ROB, but
  // kept on the wire so the format stays unchanged.
  s.u64(rob_count_);
  for (SeqNum seq = rob_head_seq_; in_rob(seq); ++seq) {
    s.u64(seq);
    s.u64(rob_[slot_of(seq)].complete_at);
  }

  bpred_.save_state(s);
  itlb_.save_state(s);
  dtlb_.save_state(s);

  save_pool(s, fu_int_alu_.next_free);
  save_pool(s, fu_int_mul_.next_free);
  save_pool(s, fu_int_div_.next_free);
  save_pool(s, fu_fp_alu_.next_free);
  save_pool(s, fu_fp_mul_.next_free);
  save_pool(s, fu_fp_div_.next_free);
  save_pool(s, fu_mem_.next_free);

  stream_->save_state(s);
  s.b(stream_done_);
  s.u64(fetch_blocked_on_);
  s.u64(fetch_resume_at_);
  s.b(pending_stream_op_valid_);
  workload::save_op(s, pending_stream_op_);

  s.u32(iq_count_);
  s.u32(lq_count_);
  s.u32(sq_count_);

  s.u64(committed_store_words_.size());
  for (const Addr a : committed_store_words_) s.u64(a);
  s.end_chunk();
}

void OooCore::load_state(ckpt::Deserializer& d) {
  d.begin_chunk("CPU0");
  if (d.u32() != id_) {
    throw ckpt::CkptError("core id mismatch");
  }
  load_stats(d, stats_);
  next_sample_ = d.u64();
  frozen_until_ = d.u64();

  const std::uint64_t n_fetch = d.u64();
  if (n_fetch > config_.fetch_queue_entries) {
    throw ckpt::CkptError("fetch queue over capacity");
  }
  fetch_queue_.resize(n_fetch);
  for (workload::DynOp& op : fetch_queue_) workload::load_op(d, op);

  const std::uint64_t n_rob = d.u64();
  if (n_rob > config_.rob_entries) {
    throw ckpt::CkptError("ROB over capacity");
  }
  rob_clear();
  std::uint32_t n_in_iq = 0, n_loads = 0, n_stores = 0;
  for (std::uint64_t i = 0; i < n_rob; ++i) {
    RobEntry e;
    workload::load_op(d, e.op);
    e.in_iq = d.b();
    e.issued = d.b();
    e.complete_at = d.u64();
    e.mispredicted = d.b();
    // The preconditions the ring and the wakeup lists rely on.
    if (i != 0 && e.op.seq != rob_head_seq_ + i) {
      throw ckpt::CkptError("ROB seqs not contiguous");
    }
    for (const SeqNum src : e.op.src) {
      if (src != kNoSeq && src >= e.op.seq) {
        throw ckpt::CkptError("ROB entry depends on a younger producer");
      }
    }
    if (e.in_iq == e.issued || (!e.issued && e.complete_at != kNever)) {
      throw ckpt::CkptError("ROB entry issue state inconsistent");
    }
    n_in_iq += e.in_iq;
    n_loads += e.op.is_load();
    n_stores += e.op.is_store();
    rob_push(e);
  }
  // The fetch queue continues the ROB's seqs.
  SeqNum next_seq = rob_count_ != 0 ? rob_head_seq_ + rob_count_
                    : n_fetch != 0  ? fetch_queue_.front().seq
                                    : kNoSeq;
  for (const workload::DynOp& op : fetch_queue_) {
    if (op.seq != next_seq++) {
      throw ckpt::CkptError("fetch queue seqs not contiguous with the ROB");
    }
  }

  if (d.u64() != n_rob) {
    throw ckpt::CkptError("completion list does not match the ROB");
  }
  for (SeqNum seq = rob_head_seq_; in_rob(seq); ++seq) {
    const SeqNum at_seq = d.u64();
    const Cycle at = d.u64();
    if (at_seq != seq || at != rob_[slot_of(seq)].complete_at) {
      throw ckpt::CkptError("completion list does not match the ROB");
    }
  }

  bpred_.load_state(d);
  itlb_.load_state(d);
  dtlb_.load_state(d);

  load_pool(d, fu_int_alu_.next_free);
  load_pool(d, fu_int_mul_.next_free);
  load_pool(d, fu_int_div_.next_free);
  load_pool(d, fu_fp_alu_.next_free);
  load_pool(d, fu_fp_mul_.next_free);
  load_pool(d, fu_fp_div_.next_free);
  load_pool(d, fu_mem_.next_free);

  stream_->load_state(d);
  stream_done_ = d.b();
  fetch_blocked_on_ = d.u64();
  fetch_resume_at_ = d.u64();
  pending_stream_op_valid_ = d.b();
  workload::load_op(d, pending_stream_op_);
  if (pending_stream_op_valid_ && next_seq != kNoSeq &&
      pending_stream_op_.seq != next_seq) {
    throw ckpt::CkptError("pending fetch op not contiguous with the ROB");
  }

  iq_count_ = d.u32();
  lq_count_ = d.u32();
  sq_count_ = d.u32();
  if (iq_count_ != n_in_iq || lq_count_ != n_loads || sq_count_ != n_stores) {
    throw ckpt::CkptError("queue counts do not match the ROB");
  }
  if (iq_count_ > config_.iq_entries) {
    throw ckpt::CkptError("issue queue over capacity");
  }

  const std::uint64_t n_words = d.u64();
  if (n_words > kCommittedStoreWords) {
    throw ckpt::CkptError("committed-store window over capacity");
  }
  committed_store_words_.resize(n_words);
  for (Addr& a : committed_store_words_) a = d.u64();
  d.end_chunk();
}

void InOrderCore::save_state(ckpt::Serializer& s) const {
  s.begin_chunk("IOC0");
  s.u32(id_);
  save_stats(s, stats_);
  s.u64(next_sample_);
  s.u64(frozen_until_);
  stream_->save_state(s);
  s.b(stream_done_);
  s.b(op_valid_);
  workload::save_op(s, op_);
  s.b(started_);
  s.u64(complete_at_);
  s.end_chunk();
}

void InOrderCore::load_state(ckpt::Deserializer& d) {
  d.begin_chunk("IOC0");
  if (d.u32() != id_) {
    throw ckpt::CkptError("in-order core id mismatch");
  }
  load_stats(d, stats_);
  next_sample_ = d.u64();
  frozen_until_ = d.u64();
  stream_->load_state(d);
  stream_done_ = d.b();
  op_valid_ = d.b();
  workload::load_op(d, op_);
  started_ = d.b();
  complete_at_ = d.u64();
  d.end_chunk();
}

void CheckLog::save_state(ckpt::Serializer& s) const {
  s.begin_chunk("CLOG");
  s.u64(capacity_);
  s.u64(entries_.size());
  for (const CheckLogEntry& e : entries_) {
    s.u64(e.seq);
    s.u64(e.addr);
    s.u8(static_cast<std::uint8_t>(e.kind));
    s.b(e.taken);
  }
  s.u64(peak_);
  s.u64(total_pushed_);
  s.end_chunk();
}

void CheckLog::load_state(ckpt::Deserializer& d) {
  d.begin_chunk("CLOG");
  if (d.u64() != capacity_) {
    throw ckpt::CkptError("check-log capacity mismatch");
  }
  entries_.resize(d.u64());
  if (entries_.size() > capacity_) {
    throw ckpt::CkptError("check-log over capacity");
  }
  for (CheckLogEntry& e : entries_) {
    e.seq = d.u64();
    e.addr = d.u64();
    e.kind = static_cast<CheckKind>(d.u8());
    e.taken = d.b();
  }
  peak_ = d.u64();
  total_pushed_ = d.u64();
  d.end_chunk();
}

}  // namespace unsync::cpu
