// Campaign-engine scaling: worker count on a short-job grid.
//
// The stress shape for the in-process scheduler is MANY SHORT JOBS: per-job
// work is small enough that claim overhead and queue contention show up in
// the wall clock. This bench runs a jobs= grid (default 10000 jobs of a few
// hundred instructions each) at 1, 2, 4 and 8 host workers, and reports
// throughput, speedup over the serial run and parallel efficiency.
// Efficiency is speedup / min(workers, physical cores): oversubscribed
// points (workers > cores) are reported but can never reach 1.0 by
// construction, so the efficiency column normalises by what the host can
// actually parallelise.
//
// Every run is cross-checked byte-identical to the serial reference — the
// scheduler must never leak into results.
//
// Wall clock on a shared host is noisy, and one cold serial reference skews
// every efficiency at once, so the reference and each workers point are
// timed as the median of three runs. The runs are interleaved (reference,
// 1, 2, 4, 8 workers, then again), so a shift in host load during the
// bench hits every point alike.
//
// json=<path> writes its bench report (bench_util.hpp; docs/CAMPAIGNS.md
// has the gate command): identical must hold, and efficiency at workers=1
// and at the largest non-oversubscribed multi-worker point must clear the
// committed bound. A host with no such point reports scaling as
// NOT EVALUATED (cores=N).
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace unsync;

// A schedule-independent digest of a campaign's results.
std::string digest(const runtime::CampaignOutput& out) {
  std::ostringstream os;
  for (const auto& r : out.results) {
    os << r.cycles << ':' << r.instructions << ':' << r.errors_injected << ':'
       << r.recoveries << ':' << r.rollbacks << ';';
  }
  return os.str();
}

/// One run of the grid at one worker count.
struct Sample {
  double wall_seconds = 0.0;
  std::uint64_t steals = 0;
};

struct Point {
  unsigned workers = 0;
  double efficiency = 0.0;
};

std::uint64_t counter_of(const obs::MetricsSnapshot& snap,
                         const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  const std::uint64_t n_jobs = args.jobs ? args.jobs : 10000;
  // Short jobs by default; an explicit insts= overrides (e.g. to check the
  // long-job regime where any scheduler looks good).
  const std::uint64_t per_job_insts = args.insts_set ? args.insts : 300;
  args.insts = per_job_insts;  // the banner should show the effective value
  bench::print_header("Campaign scheduler scaling: workers", args);

  const char* profiles[] = {"gzip", "susan", "mcf", "equake"};
  const runtime::SystemKind systems[] = {runtime::SystemKind::kBaseline,
                                         runtime::SystemKind::kUnSync};
  std::vector<runtime::SimJob> jobs;
  jobs.reserve(n_jobs);
  for (std::uint64_t i = 0; i < n_jobs; ++i) {
    runtime::SimJob job;
    job.profile = profiles[i % std::size(profiles)];
    job.label = job.profile;
    job.system = systems[(i / std::size(profiles)) % std::size(systems)];
    job.insts = per_job_insts;
    jobs.push_back(std::move(job));
  }
  const unsigned cores = runtime::ThreadPool::default_threads();
  std::cout << "grid: " << n_jobs << " jobs x " << per_job_insts
            << " insts, host cores: " << cores
            << ", median of 3 runs per point\n\n";

  // Slot 0 is the serial reference (threads=1 runs inline on the caller);
  // the others are the measured worker counts.
  const unsigned threads[] = {1, 1, 2, 4, 8};
  constexpr std::size_t kPoints = std::size(threads);
  bool same[kPoints];
  std::fill(std::begin(same), std::end(same), true);
  std::string reference;
  const std::vector<Sample> medians =
      bench::interleaved_medians(kPoints, [&](std::size_t i) {
        runtime::CampaignRunner::Options opts;
        opts.threads = threads[i];
        opts.campaign_seed = args.seed;
        const auto out = runtime::CampaignRunner(opts).run(jobs);
        const std::string d = digest(out);
        if (reference.empty()) reference = d;
        same[i] = same[i] && d == reference;
        return Sample{
            out.wall_seconds,
            counter_of(out.scheduler_metrics, "campaign.scheduler.steals")};
      });
  const double serial_wall = medians[0].wall_seconds;
  bool all_identical = same[0];

  TextTable t;
  t.set_header({"workers", "wall s", "jobs/s", "speedup",
                "efficiency", "steals", "identical"});

  std::vector<Point> points;
  for (std::size_t i = 1; i < kPoints; ++i) {
    const unsigned w = threads[i];
    const Sample& m = medians[i];
    all_identical = all_identical && same[i];

    const double speedup = serial_wall / m.wall_seconds;
    const double efficiency = speedup / std::min(w, cores);
    t.add_row({std::to_string(w), TextTable::num(m.wall_seconds, 3),
               TextTable::num(static_cast<double>(n_jobs) / m.wall_seconds, 0),
               TextTable::num(speedup, 2), TextTable::num(efficiency, 2),
               std::to_string(m.steals), same[i] ? "yes" : "NO"});
    points.push_back({w, efficiency});
  }
  t.print(std::cout);

  if (!all_identical) {
    std::cout << "\nERROR: results differ across worker counts — the "
                 "campaign engine's determinism contract is broken.\n";
    return 1;
  }

  // The gate bounds efficiency at workers=1 (the pool's own overhead,
  // measurable on any host) and at the largest multi-worker point the host
  // can run in parallel; a 1-core host has no such point.
  bench::Report report("bench_campaign_scaling");
  report.metric("identical", all_identical ? 1 : 0);
  report.metric("overhead_efficiency", points.front().efficiency);
  const Point* scaling = nullptr;
  for (const auto& p : points) {
    if (p.workers >= 2 && p.workers <= cores) scaling = &p;
  }
  if (scaling) {
    report.metric("scaling_efficiency", scaling->efficiency);
  } else {
    report.not_evaluated("scaling_efficiency",
                         "cores=" + std::to_string(cores));
  }
  report.write(args.json);

  bench::print_shape_note(
      "efficiency at workers <= cores should stay near 1.0, and the "
      "identical column must read 'yes' everywhere — results depend only "
      "on the job grid and campaign seed, never on the schedule.");
  return 0;
}
