// Google-benchmark microbenchmarks of the simulator substrate itself:
// simulation throughput (simulated instructions per wall-clock second) for
// each system, plus hot substrate primitives.
//
// Every --benchmark_* flag applies. json=<path> also writes the
// cycle-engine bench report (bench_util.hpp) from each benchmark's median
// items_per_second over its repetitions; CI runs
//     bench_sim_throughput
//         --benchmark_filter='BM_CycleEngine|BM_HostSpeed$'
//         --benchmark_repetitions=5
//         --benchmark_enable_random_interleaving=true json=BENCH_sim.json
// and gates it against bench/BENCH_baseline.json (docs/ENGINE.md).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/baseline.hpp"
#include "core/factory.hpp"
#include "core/reunion_system.hpp"
#include "core/unsync_system.hpp"
#include "cpu/bpred.hpp"
#include "mem/cache.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace unsync;

void BM_SyntheticStream(benchmark::State& state) {
  workload::SyntheticStream s(workload::profile("gzip"), 1, 1u << 30);
  workload::DynOp op;
  for (auto _ : state) {
    s.next(&op);
    benchmark::DoNotOptimize(op);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyntheticStream);

// Frozen host-speed kernel: the divisor that turns BM_CycleEngine's
// cycles/s into a host-independent throughput (gate 2 in main). It calls
// no simulator code, so no change to the simulator moves it, and its body
// must never change: every throughput `ref` in bench/BENCH_baseline.json
// was recorded against it. The mix is the simulator's kind of work: a
// xorshift hash, a serial chain of loads and stores into a 256 KiB table
// (L2-resident), and a data-dependent branch that mispredicts half the
// time. One item is one step.
void BM_HostSpeed(benchmark::State& state) {
  constexpr std::size_t kWords = 32768;
  constexpr int kSteps = 64;
  std::vector<std::uint64_t> table(kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    table[i] = i * 0x9e3779b97f4a7c15ULL;
  }
  std::uint64_t x = 1, acc = 0;
  for (auto _ : state) {
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint64_t& w = table[(x ^ acc) & (kWords - 1)];
      if (w & 1) {
        acc += w * 0xff51afd7ed558ccdULL;
      } else {
        acc ^= w >> 3;
      }
      w = acc ^ x;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kSteps);
}
BENCHMARK(BM_HostSpeed);

void BM_CacheAccess(benchmark::State& state) {
  mem::Cache cache(mem::CacheConfig{});
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access_read(addr));
    addr += 64;
    addr &= 0xFFFFF;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_GsharePredict(benchmark::State& state) {
  cpu::GsharePredictor pred;
  Addr pc = 0x1000;
  bool taken = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.mispredicted(pc, taken));
    pc += 4;
    taken = !taken;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GsharePredict);

void BM_BaselineSystem(benchmark::State& state) {
  const auto insts = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    workload::SyntheticStream s(workload::profile("gzip"), 1, insts);
    core::SystemConfig cfg;
    cfg.num_threads = 1;
    core::BaselineSystem sys(cfg, s);
    benchmark::DoNotOptimize(sys.run().cycles);
  }
  state.SetItemsProcessed(state.iterations() * insts);
}
BENCHMARK(BM_BaselineSystem)->Arg(5000)->Arg(20000);

void BM_UnSyncSystem(benchmark::State& state) {
  const auto insts = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    workload::SyntheticStream s(workload::profile("gzip"), 1, insts);
    core::SystemConfig cfg;
    cfg.num_threads = 1;
    core::UnSyncParams p;
    p.cb_entries = 256;
    core::UnSyncSystem sys(cfg, p, s);
    benchmark::DoNotOptimize(sys.run().cycles);
  }
  state.SetItemsProcessed(state.iterations() * insts);
}
BENCHMARK(BM_UnSyncSystem)->Arg(5000)->Arg(20000);

// Shared cycle-engine throughput (simulated cycles per wall-clock second),
// naive loop vs quiescence fast-forwarding, on the stall-heavy galgel
// profile — long ROB-full and fence windows are exactly what fast-forwarding
// elides, so this pair is the regression gate for both the kernel hot path
// and the ff speedup (see the report in main below; docs/ENGINE.md).
// Items processed = simulated cycles, so items_per_second is cycles/sec.
void BM_CycleEngine(benchmark::State& state, core::SystemKind kind,
                    bool fast_forward) {
  std::uint64_t simulated_cycles = 0;
  for (auto _ : state) {
    workload::SyntheticStream s(workload::profile("galgel"), 7, 30000);
    core::SystemConfig cfg;
    cfg.num_threads = 2;
    cfg.ser_per_inst = 5e-4;
    cfg.seed = 7;
    cfg.fast_forward = fast_forward;
    const auto sys = core::make_system(kind, cfg, s);
    simulated_cycles += sys->run().cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(simulated_cycles));
}
BENCHMARK_CAPTURE(BM_CycleEngine, baseline_naive,
                  core::SystemKind::kBaseline, false);
BENCHMARK_CAPTURE(BM_CycleEngine, baseline_ff,
                  core::SystemKind::kBaseline, true);
BENCHMARK_CAPTURE(BM_CycleEngine, unsync_naive,
                  core::SystemKind::kUnSync, false);
BENCHMARK_CAPTURE(BM_CycleEngine, unsync_ff,
                  core::SystemKind::kUnSync, true);
BENCHMARK_CAPTURE(BM_CycleEngine, reunion_naive,
                  core::SystemKind::kReunion, false);
BENCHMARK_CAPTURE(BM_CycleEngine, reunion_ff,
                  core::SystemKind::kReunion, true);

void BM_ReunionSystem(benchmark::State& state) {
  const auto insts = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    workload::SyntheticStream s(workload::profile("gzip"), 1, insts);
    core::SystemConfig cfg;
    cfg.num_threads = 1;
    core::ReunionSystem sys(cfg, core::ReunionParams{}, s);
    benchmark::DoNotOptimize(sys.run().cycles);
  }
  state.SetItemsProcessed(state.iterations() * insts);
}
BENCHMARK(BM_ReunionSystem)->Arg(5000)->Arg(20000);

/// Collects every repetition's items_per_second while printing as usual.
class Collector : public benchmark::ConsoleReporter {
 public:
  Collector() : ConsoleReporter(isatty(STDOUT_FILENO) ? OO_Color : OO_None) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      const auto it = run.counters.find("items_per_second");
      if (run.run_type == Run::RT_Iteration && !run.error_occurred &&
          it != run.counters.end()) {
        items_per_second[run.benchmark_name()].push_back(it->second.value);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::map<std::string, std::vector<double>> items_per_second;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  std::vector<std::string> positional;
  const Config cfg = Config::from_args(argc, argv, &positional);
  const std::string json = cfg.get_string("json", "");
  if (!positional.empty() || cfg.report_unused("bench_sim_throughput")) {
    std::cerr << "usage: bench_sim_throughput [--benchmark_*...] "
                 "[json=<path>]\n";
    return 2;
  }
  Collector collector;
  benchmark::RunSpecifiedBenchmarks(&collector);
  benchmark::Shutdown();

  std::map<std::string, double> med;
  for (const auto& [name, runs] : collector.items_per_second) {
    med[name] = median(runs);
  }
  bench::Report report("bench_sim_throughput");
  // Gate 1: ff vs naive on the stall-heavy galgel point, same run and host.
  for (const char* sys : {"baseline", "unsync", "reunion"}) {
    const std::string base = std::string("BM_CycleEngine/") + sys;
    if (!med.count(base + "_naive") || !med.count(base + "_ff")) continue;
    const double ratio = med[base + "_ff"] / med[base + "_naive"];
    std::cout << "ff speedup (median) " << sys << ": "
              << TextTable::num(ratio, 2) << "x\n";
    if (sys == std::string("baseline")) {
      report.metric("ff_speedup/baseline", ratio);
    }
  }
  // Gate 2: cycles/sec normalised by the frozen host-speed kernel from the
  // same run, which divides out raw host speed. The divisor is no simulator
  // code, so a faster stream or core raises the throughputs rather than the
  // divisor. Without it the throughput metrics are absent, and the gate
  // fails them as missing.
  const auto cal = med.find("BM_HostSpeed");
  if (cal != med.end() && cal->second > 0) {
    report.metric("calibration", cal->second);
    for (const auto& [name, ips] : med) {
      if (name.rfind("BM_CycleEngine/", 0) == 0) {
        report.metric("throughput/" + name, ips / cal->second);
      }
    }
  }
  report.write(json);
  return 0;
}
