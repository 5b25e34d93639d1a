// The benchmark's three workloads and what one run of each measures.
//
// Every workload is a batch grid submitted whole, in a closed loop, from
// one process: the grid is run round after round until the measuring time
// is used up (at least one round), and every round's results are checked.
// See perfbench/README.md for why each workload exists and what each metric
// means.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small grids and short streams, for the self-test.
  bool tiny = false;
  /// Directory holding the recorded reference results: <workload>.txt,
  /// and <workload>.tiny.txt for the tiny grids.
  std::string expected_dir = "perfbench/expected";
  /// Output directory for journals and span dumps (created if missing).
  std::string out_dir = ".bench_out";
  /// Corrupt this many reference digests (recorded or from reference
  /// re-runs): the self-test's proof that the result check can fail.
  unsigned perturb = 0;
  /// Flip the tier (fast <-> detailed) of this many references, likewise.
  unsigned perturb_tier = 0;
  /// Instead of measuring, run the grid the reference way (no prefix
  /// sharing, no fast-forward, no screening campaign) and print its
  /// expected-results line to stdout.
  bool record = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Everything else worth printing: provenance, grid shape, check
  /// coverage, the tail percentile used. Values are pre-rendered JSON.
  std::map<std::string, std::string> info;
};

/// Runs one workload as `opts` asks. Throws std::invalid_argument for an
/// unknown workload name.
Report run_workload(const Options& opts);

}  // namespace perfbench
