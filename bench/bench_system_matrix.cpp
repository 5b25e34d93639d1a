// Six-architecture comparison matrix: overhead x detection coverage.
//
// One grid over every modelled system (baseline / unsync / reunion /
// lockstep / checkpoint / hetero) x benchmark x soft-error rate:
//
//   * ser=0 rows measure the error-free steady-state overhead of each
//     redundancy discipline against the unprotected baseline CMP;
//   * ser>0 rows measure detection coverage (detected strikes / injected
//     strikes) and the recovery cost each discipline pays.
//
// The matrix is the repo's cross-architecture acceptance surface: the
// heterogeneous leader/checker system must detect every injected strike
// (>= Lockstep's coverage) while keeping a lower error-free overhead than
// the fingerprint-synchronised DMR (reunion) — the MEEK-style argument
// that a small in-order checker is cheaper than synchronising two big
// cores.
//
// json=<path> writes its bench report (bench_util.hpp), gated in CI
// against bench/BENCH_baseline.json (docs/SYSTEMS.md has the command):
// identical must hold (worker-count determinism), hetero must detect every
// injected strike with coverage >= lockstep's, hetero's error-free cycles
// must stay below reunion's, and every per-cell integer must exactly match
// the committed cells.
#include <array>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/factory.hpp"

namespace {

using namespace unsync;

constexpr std::array<core::SystemKind, 6> kSystems = {
    core::SystemKind::kBaseline,   core::SystemKind::kUnSync,
    core::SystemKind::kReunion,    core::SystemKind::kLockstep,
    core::SystemKind::kCheckpoint, core::SystemKind::kHetero};

constexpr const char* kBenches[] = {"gzip", "susan"};
constexpr double kSerPoints[] = {0.0, 5e-4};

/// The SER in shortest %g form ("0", "0.0005").
std::string ser_label(double ser) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", ser);
  return buf;
}

struct Cell {
  std::string bench;
  std::string system;
  double ser = 0.0;
  core::RunResult r;

  std::uint64_t detected() const { return r.recoveries + r.rollbacks; }
  /// "gzip/hetero/ser=0.0005": the cell's name in the bench report.
  std::string key() const {
    return bench + "/" + system + "/ser=" + ser_label(ser);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("System matrix: overhead x detection coverage", args);

  std::vector<runtime::SimJob> jobs;
  for (const double ser : kSerPoints) {
    for (const char* b : kBenches) {
      for (const auto kind : kSystems) {
        jobs.push_back(bench::sim_job(args, b, kind, ser));
      }
    }
  }

  const auto out = bench::run_grid(args, jobs);

  // Worker-count determinism: a serial run of the same grid must be
  // byte-identical — the scheduler may never leak into results.
  runtime::CampaignRunner::Options serial;
  serial.threads = 1;
  serial.campaign_seed = args.seed;
  const auto serial_out = runtime::CampaignRunner(serial).run(jobs);
  const bool identical = serial_out.to_json() == out.to_json();

  std::vector<Cell> cells;
  std::size_t at = 0;
  for (const double ser : kSerPoints) {
    for (const char* b : kBenches) {
      for (const auto kind : kSystems) {
        cells.push_back(
            {b, std::string(core::name_of(kind)), ser, out.results[at]});
        ++at;
      }
    }
  }

  const auto cell_at = [&](const std::string& bench,
                           const std::string& system,
                           double ser) -> const Cell& {
    for (const auto& c : cells) {
      if (c.bench == bench && c.system == system && c.ser == ser) return c;
    }
    throw std::logic_error("system matrix lacks " + bench + "/" + system);
  };

  TextTable t("System matrix (" + std::to_string(args.insts) + " insts x " +
              std::to_string(std::size(kBenches)) + " benches)");
  t.set_header({"bench", "system", "ser", "cycles", "slowdown", "injected",
                "detected", "cb stalls", "fp syncs"});
  for (const auto& c : cells) {
    t.add_row({c.bench, c.system, TextTable::num(c.ser, 4),
               std::to_string(c.r.cycles),
               TextTable::num(static_cast<double>(c.r.cycles) /
                                  cell_at(c.bench, "baseline", 0.0).r.cycles,
                              3),
               std::to_string(c.r.errors_injected),
               std::to_string(c.detected()),
               std::to_string(c.r.cb_full_stalls),
               std::to_string(c.r.fingerprint_syncs)});
  }
  t.print(std::cout);
  std::cout << "\nresults identical across worker counts: "
            << (identical ? "yes" : "NO") << "\n";

  if (!identical) {
    std::cout << "\nERROR: the campaign scheduler leaked into the matrix — "
                 "the determinism contract is broken.\n";
    return 1;
  }

  bench::Report report("bench_system_matrix");
  report.cell("grid.insts", args.insts);
  report.cell("grid.seed", args.seed);
  for (const auto& c : cells) {
    const std::string key = c.key() + "/";
    report.cell(key + "cycles", c.r.cycles);
    report.cell(key + "injected", c.r.errors_injected);
    report.cell(key + "detected", c.detected());
    report.cell(key + "rollbacks", c.r.rollbacks);
    report.cell(key + "recoveries", c.r.recoveries);
    report.cell(key + "cb_full_stalls", c.r.cb_full_stalls);
    report.cell(key + "fingerprint_syncs", c.r.fingerprint_syncs);
  }
  report.metric("identical", identical ? 1 : 0);
  // The cross-architecture properties, each a named metric the baseline
  // bounds: hetero detects every strike (at least lockstep's coverage) and
  // its error-free cycles stay strictly below reunion's.
  const auto coverage = [](const Cell& c) {
    const auto injected = c.r.errors_injected;
    return injected ? static_cast<double>(c.detected()) / injected : 1.0;
  };
  std::uint64_t error_sers = 0;
  for (const double ser : kSerPoints) {
    if (ser > 0.0) ++error_sers;
  }
  report.metric("error_ser_points", static_cast<double>(error_sers));
  for (const char* b : kBenches) {
    for (const double ser : kSerPoints) {
      if (ser == 0.0) continue;
      const Cell& het = cell_at(b, "hetero", ser);
      const Cell& lock = cell_at(b, "lockstep", ser);
      const std::string at = std::string(b) + "/ser=" + ser_label(ser);
      report.metric("hetero_injected/" + at,
                    static_cast<double>(het.r.errors_injected));
      report.metric("hetero_missed/" + at,
                    static_cast<double>(het.r.errors_injected) -
                        static_cast<double>(het.detected()));
      report.metric("hetero_coverage_over_lockstep/" + at,
                    coverage(het) - coverage(lock));
    }
    report.metric("reunion_minus_hetero_cycles/" + std::string(b),
                  static_cast<double>(cell_at(b, "reunion", 0.0).r.cycles) -
                      static_cast<double>(cell_at(b, "hetero", 0.0).r.cycles));
  }
  report.write(args.json);

  bench::print_shape_note(
      "redundancy is never free: every protected system costs cycles over "
      "the baseline at ser=0, with unsync cheapest (the paper's headline) "
      "and reunion's fingerprint synchronisation the most expensive DMR; "
      "hetero's small in-order checker undercuts reunion while detecting "
      "every injected strike, matching lockstep's full coverage at a "
      "fraction of a second big core.");
  return 0;
}
