// Two-tier screening: fast-tier validation + speedup on a mixed grid.
//
// Runs a (benchmark x system) grid twice — once on the detailed
// cycle-accurate tier, once on the approximate interval model — and
// reports, per cell, the fast tier's CPI relative error and error-count
// deviation against the detailed truth, plus the whole-grid wall-clock
// speedup. The speedup is a same-host ratio (both tiers run in this
// process on the same grid, each timed as the median of three interleaved
// runs), so it is stable across machines the same way the engine
// fast-forward gate is.
//
// It also re-runs the grid under the tier=screen policy at threshold 0 and
// cross-checks that the merged output is byte-identical to the pure
// detailed campaign — the end-to-end determinism contract of screening.
//
// json=<path> writes its bench report (bench_util.hpp), gated in CI
// against bench/BENCH_baseline.json (docs/TIERS.md has the command):
// identical must hold, the speedup must clear the committed 10x, no cell's
// err_dev may be nonzero, and every cell's cpi_rel_err must stay within its
// committed bound (the validated-fast-model methodology: the fast tier is
// only trustworthy while its error stays inside the published envelope).
// After a deliberate model change, --write-baseline refreshes each bound
// to measured x 1.5 + 0.02.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/factory.hpp"

namespace {

using namespace unsync;

double cpi_of(const core::RunResult& r) {
  const double ipc = r.thread_ipc();
  return ipc > 0 ? 1.0 / ipc : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Tier screening: fast-model validation + speedup",
                      args);

  const double ser = 2e-4;  // enough strikes that error paths exercise
  const char* benches[] = {"gzip", "galgel", "mcf", "susan", "equake",
                           "bzip2"};
  const runtime::SystemKind systems[] = {
      runtime::SystemKind::kBaseline, runtime::SystemKind::kUnSync,
      runtime::SystemKind::kReunion,  runtime::SystemKind::kLockstep,
      runtime::SystemKind::kCheckpoint, runtime::SystemKind::kHetero};

  std::vector<runtime::SimJob> detailed_jobs;
  for (const char* b : benches) {
    for (const auto s : systems) {
      detailed_jobs.push_back(bench::sim_job(args, b, s, ser));
    }
  }
  std::vector<runtime::SimJob> fast_jobs = detailed_jobs;
  for (auto& j : fast_jobs) j.params.tier = engine::Tier::kFast;

  runtime::CampaignRunner::Options opts;
  opts.threads = args.workers;
  opts.campaign_seed = args.seed;
  // Both tiers are timed as interleaved medians of three: the fast grid
  // runs in a few tens of milliseconds, where one noisy run would decide
  // the gate.
  const auto runs = bench::interleaved_medians(2, [&](std::size_t i) {
    return runtime::CampaignRunner(opts).run(i == 0 ? detailed_jobs
                                                    : fast_jobs);
  });
  const runtime::CampaignOutput& detailed = runs[0];
  const runtime::CampaignOutput& fast = runs[1];
  const double speedup = fast.wall_seconds > 0
                             ? detailed.wall_seconds / fast.wall_seconds
                             : 0.0;

  // The end-to-end screening contract: threshold 0 == pure detailed,
  // byte for byte.
  runtime::CampaignRunner::Options screen = opts;
  screen.screen = true;
  screen.screen_threshold = 0.0;
  const bool identical =
      runtime::CampaignRunner(screen).run(detailed_jobs).to_json() ==
      detailed.to_json();

  TextTable t("Fast-tier error bounds (vs detailed, ser=2e-4)");
  t.set_header({"benchmark", "system", "CPI det", "CPI fast", "rel err",
                "errors det/fast"});
  bench::Report report("bench_tier_screening");
  std::uint64_t diverged = 0;  // cells whose fault-arrival schedule differs
  for (std::size_t i = 0; i < detailed_jobs.size(); ++i) {
    const std::string bench = detailed_jobs[i].label;
    const std::string system = core::name_of(detailed_jobs[i].system);
    const double cpi_detailed = cpi_of(detailed.results[i]);
    const double cpi_fast = cpi_of(fast.results[i]);
    const double rel_err =
        cpi_detailed > 0 ? std::abs(cpi_fast - cpi_detailed) / cpi_detailed
                         : 0.0;
    const std::uint64_t errors_detailed = detailed.results[i].errors_injected;
    const std::uint64_t errors_fast = fast.results[i].errors_injected;
    if (errors_detailed != errors_fast) ++diverged;
    report.metric("cpi_rel_err/" + bench + "/" + system, rel_err);
    t.add_row({bench, system, TextTable::num(cpi_detailed, 3),
               TextTable::num(cpi_fast, 3), TextTable::pct(rel_err),
               std::to_string(errors_detailed) + "/" +
                   std::to_string(errors_fast)});
  }
  t.print(std::cout);
  std::cout << "\ndetailed wall: " << TextTable::num(detailed.wall_seconds, 3)
            << "s, fast wall: " << TextTable::num(fast.wall_seconds, 3)
            << "s, speedup: " << TextTable::num(speedup, 1) << "x\n"
            << "screen threshold=0 byte-identical to pure detailed: "
            << (identical ? "yes" : "NO") << "\n";

  if (!identical) {
    std::cout << "\nERROR: screened campaign diverged from the pure "
                 "detailed run — the screening contract is broken.\n";
    return 1;
  }

  report.cell("grid.insts", args.insts);
  report.cell("grid.seed", args.seed);
  report.metric("grid.ser", ser);
  report.metric("identical", identical ? 1 : 0);
  report.metric("speedup", speedup);
  report.metric("err_dev_cells", static_cast<double>(diverged));
  report.write(args.json);

  bench::print_shape_note(
      "the fast tier trades per-structure fidelity for throughput: expect "
      ">=10x wall-clock speedup on this grid, CPI within the committed "
      "per-cell envelope (bench/BENCH_baseline.json), and err_dev 0 "
      "everywhere — both tiers draw the identical fault-arrival schedule.");
  return 0;
}
