// Shared plumbing for the table/figure harnesses.
//
// Every bench binary regenerates one table or figure of the paper. Output
// is a TextTable whose rows mirror the paper's rows/series, plus a short
// PAPER-SHAPE note stating what to compare against the publication.
// Common knobs (overridable as key=value argv):
//   insts=<N>    dynamic instructions per benchmark run   (default 30000)
//   seed=<N>     workload seed                             (default 42)
//   threads=<N>  application threads (pairs for redundant) (default 1)
//   workers=<N>  host threads for grid fan-out             (default cores)
//   jobs=<N>     grid size for benches that scale job count (default per
//                bench; bench_campaign_scaling and bench_injection_prefix)
//   json=<path>  write JSON ("-" = stdout): the gated benches write their
//                Report ("unsync.bench_report.v1", below); the others dump
//                the raw campaign grid they built the table from
#pragma once

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/baseline.hpp"
#include "core/reunion_system.hpp"
#include "core/unsync_system.hpp"
#include "obs/json.hpp"
#include "runtime/campaign.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace unsync::bench {

struct BenchArgs {
  std::uint64_t insts = 30000;
  bool insts_set = false;  ///< insts= given explicitly on the command line
  std::uint64_t seed = 42;
  unsigned threads = 1;
  unsigned workers = 0;  // 0 = hardware concurrency
  std::uint64_t jobs = 0;  // 0 = the bench's own default grid size
  std::string json;      // empty = no JSON dump; "-" = stdout

  static BenchArgs parse(int argc, char** argv) {
    const Config cfg = Config::from_args(argc, argv);
    BenchArgs a;
    a.insts_set = cfg.has("insts");
    a.insts = cfg.get_count<std::uint64_t>("insts", 30000);
    a.seed = cfg.get_count<std::uint64_t>("seed", 42);
    a.threads = cfg.get_count<unsigned>("threads", 1);
    a.workers = cfg.get_count<unsigned>("workers", 0);
    a.jobs = cfg.get_count<std::uint64_t>("jobs", 0);
    a.json = cfg.get_string("json", "");
    cfg.report_unused("bench");
    return a;
  }

  core::SystemConfig system_config(double ser = 0.0) const {
    core::SystemConfig cfg;
    cfg.num_threads = threads;
    cfg.ser_per_inst = ser;
    cfg.seed = seed;
    return cfg;
  }

  workload::SyntheticStream stream(const std::string& benchmark) const {
    return workload::SyntheticStream(workload::profile(benchmark), seed,
                                     insts);
  }
};

inline double baseline_ipc(const BenchArgs& a, const std::string& bench) {
  workload::SyntheticStream s = a.stream(bench);
  core::BaselineSystem sys(a.system_config(), s);
  return sys.run().thread_ipc();
}

inline core::RunResult unsync_run(const BenchArgs& a, const std::string& bench,
                                  const core::UnSyncParams& p,
                                  double ser = 0.0) {
  workload::SyntheticStream s = a.stream(bench);
  core::UnSyncSystem sys(a.system_config(ser), p, s);
  return sys.run();
}

inline core::RunResult reunion_run(const BenchArgs& a, const std::string& bench,
                                   const core::ReunionParams& p,
                                   double ser = 0.0) {
  workload::SyntheticStream s = a.stream(bench);
  core::ReunionSystem sys(a.system_config(ser), p, s);
  return sys.run();
}

/// One grid cell with the bench harness's fixed-seed semantics (every cell
/// runs the identical same-seed workload stream, as the serial helpers
/// above always did).
inline runtime::SimJob sim_job(const BenchArgs& a, const std::string& bench,
                               runtime::SystemKind system, double ser = 0.0) {
  runtime::SimJob job;
  job.label = bench;
  job.profile = bench;
  job.insts = a.insts;
  job.seed = a.seed;
  job.app_threads = a.threads;
  job.ser_per_inst = ser;
  job.system = system;
  return job;
}

/// Fans a grid out across workers= host threads; results come back in
/// submission order, so table rows are independent of the worker count.
inline runtime::CampaignOutput run_grid(const BenchArgs& a,
                                        const std::vector<runtime::SimJob>& jobs) {
  runtime::CampaignRunner::Options opts;
  opts.threads = a.workers;
  opts.campaign_seed = a.seed;
  return runtime::CampaignRunner(opts).run(jobs);
}

/// Honors the json= knob: writes `json` to `path` ("-" = stdout; an empty
/// path writes nothing).
inline void write_json(const std::string& path, const std::string& json,
                       const std::string& what) {
  if (path.empty()) return;
  if (path == "-") {
    std::cout << json;
    return;
  }
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write json file " + path);
  f << json;
  std::cout << "(" << what << " written to " << path << ")\n";
}

/// Writes the raw campaign grid ("unsync.campaign.v2") so a plotting
/// script can consume exactly what the table was built from.
inline void maybe_dump_json(const BenchArgs& a,
                            const runtime::CampaignOutput& out) {
  write_json(a.json, out.to_json(2) + "\n", "raw grid JSON");
}

/// A gated bench's result, "unsync.bench_report.v1": named exact integer
/// cells and named measured metrics. A report carries measurements only;
/// every pinned integer and every bound lives in the one committed
/// baseline, and one command checks all gated benches:
///     python3 tools/check_bench_regression.py BENCH_*.json
///         --baseline bench/BENCH_baseline.json
class Report {
 public:
  explicit Report(std::string bench) : bench_(std::move(bench)) {}

  /// A pure function of the grid: gated by exact equality.
  void cell(const std::string& name, std::uint64_t value) {
    cells_[name] = value;
  }
  /// A measured number: gated by the baseline's min/max bound.
  void metric(const std::string& name, double value) {
    metrics_[name] = {value, ""};
  }
  /// A metric this host cannot measure: the gate prints
  /// NOT EVALUATED (why) for it instead of checking its bound.
  void not_evaluated(const std::string& name, const std::string& why) {
    metrics_[name] = {0.0, why};
  }

  std::string to_json() const {
    obs::JsonWriter w(2);
    w.begin_object().key("schema").value("unsync.bench_report.v1");
    w.key("benches").begin_object().key(bench_).begin_object();
    w.key("cells").begin_object();
    for (const auto& [name, v] : cells_) w.key(name).value(v);
    w.end_object().key("metrics").begin_object();
    for (const auto& [name, m] : metrics_) {
      w.key(name).begin_object().key("value");
      if (m.not_evaluated.empty()) {
        w.value(m.value);
      } else {
        w.null().key("not_evaluated").value(m.not_evaluated);
      }
      w.end_object();
    }
    w.end_object().end_object().end_object().end_object();
    return w.take() + "\n";
  }

  void write(const std::string& path) const {
    write_json(path, to_json(), "bench report");
  }

 private:
  struct Metric {
    double value;
    std::string not_evaluated;  ///< non-empty: why it was not measured
  };
  std::string bench_;
  std::map<std::string, std::uint64_t> cells_;
  std::map<std::string, Metric> metrics_;
};

/// Wall-clock timing on a shared host: `reps` interleaved rounds (variant
/// 0, 1, ..., n-1, then again), so a shift in host load hits every variant
/// alike, and per variant the run with the median wall time. `run(i)` runs
/// variant i once and returns a sample with a `wall_seconds` field.
template <typename Run>
auto interleaved_medians(std::size_t variants, Run run, int reps = 3) {
  using Sample = decltype(run(std::size_t{0}));
  std::vector<std::vector<Sample>> samples(variants);
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < variants; ++i) samples[i].push_back(run(i));
  }
  std::vector<Sample> medians;
  medians.reserve(variants);
  for (auto& v : samples) {
    std::sort(v.begin(), v.end(), [](const Sample& a, const Sample& b) {
      return a.wall_seconds < b.wall_seconds;
    });
    medians.push_back(std::move(v[v.size() / 2]));
  }
  return medians;
}

inline void print_header(const std::string& what, const BenchArgs& a) {
  std::cout << "\n=== " << what << " ===\n"
            << "(insts=" << a.insts << " seed=" << a.seed
            << " threads=" << a.threads << ")\n\n";
}

inline void print_shape_note(const std::string& note) {
  std::cout << "\nPAPER SHAPE: " << note << "\n";
}

}  // namespace unsync::bench
