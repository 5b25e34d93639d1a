// Outside-in host-time tracing of the simulator's layers.
//
// Nothing here reaches inside the libraries: the benchmark wraps the public
// seams they already expose. A TracedPolicy forwards every
// engine::SystemPolicy call to a real core::System and is driven by the
// benchmark's own engine::SimKernel, so member_tick / sync_phase / on_error /
// next_event / skip_cycles each become a span. A TracedStream forwards a
// workload::InstStream (its clone() wraps the inner clone, so every core of
// a redundant group pulls through a traced cursor) and makes next() a span.
//
// Spans nest on a thread-local stack; a span's self time is its duration
// minus the time of the spans it encloses, so the per-layer self times of
// one traced run sum to the run's wall time. Totals are kept per layer in
// memory; the first kMaxRawSpans raw spans (id, parent, layer, start, end)
// are kept too and written out when the benchmark ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "core/system.hpp"
#include "engine/policy.hpp"
#include "workload/dyn_op.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kEngineLoop,   // SimKernel::run itself (the remainder of the loop)
  kCpuTick,      // SystemPolicy::member_tick: OoO core + mem calls
  kCoreSync,     // SystemPolicy::sync_phase: CB drains, check-log compare
  kFaultError,   // SystemPolicy::on_error: arrivals, recovery, rollback
  kEngineNext,   // SystemPolicy::next_event (fast-forward bound)
  kEngineSkip,   // SystemPolicy::skip_cycles (fast-forward replay)
  kEngineFast,   // the fast tier's IntervalModel::run
  kWorkloadNext, // InstStream::next
  kCount,
};

inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

const char* layer_name(Layer layer);

struct LayerTotals {
  std::array<std::uint64_t, kLayers> self_ns{};
  std::array<std::uint64_t, kLayers> total_ns{};
  std::array<std::uint64_t, kLayers> calls{};

  std::uint64_t wall_ns() const;  // sum of self times
};

struct RawSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  Layer layer = Layer::kEngineLoop;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// The calling thread's span recorder. Spans must open and close on the
/// same thread (the traced runs are single-threaded).
class Tracer {
 public:
  static Tracer& local();

  void open(Layer layer);
  void close();

  const LayerTotals& totals() const { return totals_; }
  void reset_totals() { totals_ = {}; }

  /// Writes the retained raw spans as JSON lines.
  void write_raw(std::ostream& out) const;

  static constexpr std::size_t kMaxRawSpans = 20000;

 private:
  struct Frame {
    Layer layer;
    std::int64_t start;
    std::uint64_t child_ns;
    std::uint64_t id;
    std::size_t raw_index;  // kNoRaw when not retained
  };
  static constexpr std::size_t kNoRaw = ~std::size_t{0};

  std::vector<Frame> stack_;
  LayerTotals totals_;
  std::vector<RawSpan> raw_;
  std::uint64_t next_id_ = 1;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Span {
 public:
  explicit Span(Layer layer) { Tracer::local().open(layer); }
  ~Span() { Tracer::local().close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

/// Forwards every InstStream call to `inner`, timing next().
class TracedStream final : public unsync::workload::InstStream {
 public:
  explicit TracedStream(std::unique_ptr<unsync::workload::InstStream> inner)
      : inner_(std::move(inner)) {}

  bool next(unsync::workload::DynOp* out) override {
    Span span(Layer::kWorkloadNext);
    return inner_->next(out);
  }
  std::unique_ptr<InstStream> clone() const override {
    return std::make_unique<TracedStream>(inner_->clone());
  }
  void reset() override { inner_->reset(); }
  std::uint64_t length() const override { return inner_->length(); }
  std::optional<WarmRegion> warm_region() const override {
    return inner_->warm_region();
  }
  std::optional<WarmRegion> code_region() const override {
    return inner_->code_region();
  }
  void save_state(unsync::ckpt::Serializer& s) const override {
    inner_->save_state(s);
  }
  void load_state(unsync::ckpt::Deserializer& d) override {
    inner_->load_state(d);
  }

 private:
  std::unique_ptr<unsync::workload::InstStream> inner_;
};

/// Forwards every SystemPolicy call to a core::System, timing the phases.
class TracedPolicy final : public unsync::engine::SystemPolicy {
 public:
  using Cycle = unsync::Cycle;
  using RunResult = unsync::engine::RunResult;

  explicit TracedPolicy(unsync::core::System& inner) : inner_(inner) {}

  std::size_t group_count() const override { return inner_.group_count(); }
  std::size_t member_count(std::size_t g) const override {
    return inner_.member_count(g);
  }
  bool member_finished(std::size_t g, std::size_t m) const override {
    return inner_.member_finished(g, m);
  }
  bool finished(std::size_t g) const override { return inner_.finished(g); }
  void member_tick(std::size_t g, std::size_t m, Cycle now) override {
    Span span(Layer::kCpuTick);
    inner_.member_tick(g, m, now);
  }
  void sync_phase(std::size_t g, Cycle now) override {
    Span span(Layer::kCoreSync);
    inner_.sync_phase(g, now);
  }
  void on_error(std::size_t g, Cycle now, RunResult& acc) override {
    Span span(Layer::kFaultError);
    inner_.on_error(g, now, acc);
  }
  Cycle member_next_event(std::size_t g, std::size_t m,
                          Cycle now) const override {
    return inner_.member_next_event(g, m, now);
  }
  void member_skip_cycles(std::size_t g, std::size_t m, Cycle from,
                          Cycle to) override {
    inner_.member_skip_cycles(g, m, from, to);
  }
  Cycle next_event(std::size_t g, Cycle now) const override {
    Span span(Layer::kEngineNext);
    return inner_.next_event(g, now);
  }
  void skip_cycles(std::size_t g, Cycle from, Cycle to) override {
    Span span(Layer::kEngineSkip);
    inner_.skip_cycles(g, from, to);
    // The kernel replays one window for every unfinished group; count it
    // once.
    if (from != last_skip_from_) skipped_cycles_ += to - from;
    last_skip_from_ = from;
  }
  void finish(RunResult& r) const override { inner_.finish(r); }
  void on_run_complete(const RunResult& r) override {
    inner_.on_run_complete(r);
  }
  const char* ckpt_tag() const override { return inner_.ckpt_tag(); }
  void save_policy_state(unsync::ckpt::Serializer& s) const override {
    inner_.save_policy_state(s);
  }
  void load_policy_state(unsync::ckpt::Deserializer& d) override {
    inner_.load_policy_state(d);
  }

  /// Simulated cycles the kernel fast-forwarded over.
  std::uint64_t skipped_cycles() const { return skipped_cycles_; }

 private:
  unsync::core::System& inner_;
  std::uint64_t skipped_cycles_ = 0;
  Cycle last_skip_from_ = ~Cycle{0};
};

/// Runs `system` to completion through a TracedPolicy on a fresh kernel,
/// inside one kEngineLoop span. The returned result lacks the identity
/// fields (system name, instruction totals) the System seeds into its own
/// kernel; compare cycles, per-core stats and error counts instead.
/// `skipped_cycles` receives the cycles the kernel fast-forwarded over.
unsync::engine::RunResult run_traced(unsync::core::System& system,
                                     bool fast_forward,
                                     std::uint64_t* skipped_cycles);

/// True when the simulated outcome of two runs of one cell is identical:
/// cycles, every core's stats, the error counters and the error log.
bool same_simulation(const unsync::engine::RunResult& a,
                     const unsync::engine::RunResult& b);

}  // namespace perfbench
