// Prefix-sharing speedup on a Monte-Carlo injection grid.
//
// Runs the same detailed-tier injection campaign both ways — naively
// (every trial simulates its full run) and through the prefix-sharing
// engine (one golden run per unique fault-free configuration, trials
// restore from its in-memory checkpoints and finish early on convergence),
// each timed as the median of three interleaved runs — and reports the
// wall-clock speedup plus the engine's counters. Both
// campaigns run in this process on the same grid, so the speedup is a
// same-host ratio, stable across machines the way the tier and
// fast-forward gates are.
//
// The grid is the shape prefix sharing exists for: trace-workload cells
// (whose golden is shared across every SER point AND trial seed of the
// cell) with many Monte-Carlo trials per point, at soft-error rates low
// enough that most trials see few or no arrivals.
//
// json=<path> writes its bench report (bench_util.hpp), gated in CI
// against bench/BENCH_baseline.json (docs/CAMPAIGNS.md has the command):
// identical must hold, the speedup must clear the committed 3x, and the
// deterministic engine counters (goldens built, jobs restored/spliced/
// bypassed, cycles skipped) must exactly match the committed cells — they
// are a pure function of the grid, independent of worker count and host.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workload/dyn_op.hpp"

namespace {

using namespace unsync;

/// Records a trace workload: trials replay identical ops, so the whole
/// cell shares one golden run (golden_job_key drops the seed for traces).
std::shared_ptr<const std::vector<workload::DynOp>> record_trace(
    const std::string& profile, std::uint64_t seed, std::uint64_t insts) {
  workload::SyntheticStream stream(workload::profile(profile), seed, insts);
  std::vector<workload::DynOp> ops;
  ops.reserve(insts);
  for (workload::DynOp op; stream.next(&op);) ops.push_back(op);
  return std::make_shared<const std::vector<workload::DynOp>>(std::move(ops));
}

std::uint64_t counter(const runtime::CampaignOutput& out,
                      const std::string& name) {
  const auto it = out.scheduler_metrics.counters.find(
      "campaign.prefix_cache." + name);
  return it == out.scheduler_metrics.counters.end() ? 0 : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Prefix-sharing injection campaign speedup", args);

  // jobs= scales the Monte-Carlo depth; the committed baseline pins the
  // default. 2 traces x 2 systems x 2 SER points x trials.
  const std::uint64_t trials = args.jobs ? args.jobs : 12;
  const double sers[] = {1e-6, 1e-5};

  struct Cellbase {
    const char* name;
    std::shared_ptr<const std::vector<workload::DynOp>> trace;
    runtime::SystemKind system;
  };
  const auto gzip = record_trace("gzip", 7, args.insts);
  const auto susan = record_trace("susan", 11, args.insts);
  const Cellbase cells[] = {
      {"gzip/unsync", gzip, runtime::SystemKind::kUnSync},
      {"gzip/reunion", gzip, runtime::SystemKind::kReunion},
      {"susan/unsync", susan, runtime::SystemKind::kUnSync},
      {"susan/reunion", susan, runtime::SystemKind::kReunion},
  };

  std::vector<runtime::SimJob> jobs;
  for (const auto& c : cells) {
    for (const double ser : sers) {
      for (std::uint64_t t = 0; t < trials; ++t) {
        runtime::SimJob job;
        job.label = c.name;
        job.trace = c.trace;
        job.system = c.system;
        job.ser_per_inst = ser;
        jobs.push_back(std::move(job));  // seed unset: one draw per trial
      }
    }
  }

  runtime::CampaignRunner::Options naive_opts;
  naive_opts.threads = args.workers;
  naive_opts.campaign_seed = args.seed;

  runtime::CampaignRunner::Options prefix_opts = naive_opts;
  prefix_opts.prefix.enabled = true;
  // Checkpoint + fingerprint cadence: each boundary costs a full-state
  // serialisation (in the golden build AND in every faulty job's
  // convergence scan), so a coarse cadence wins on runs this short — the
  // re-execution a coarser restore point adds is cheaper than the hashes
  // a finer one spends. ~4-5 boundaries per run is the sweet spot here.
  prefix_opts.prefix.interval = 15000;

  // One naive run is under a second, so a single noisy run could decide
  // the gate: both campaigns are timed as interleaved medians of three.
  const auto runs = bench::interleaved_medians(2, [&](std::size_t i) {
    return runtime::CampaignRunner(i == 0 ? naive_opts : prefix_opts)
        .run(jobs);
  });
  const runtime::CampaignOutput& naive = runs[0];
  const runtime::CampaignOutput& prefix = runs[1];

  const double speedup = prefix.wall_seconds > 0
                             ? naive.wall_seconds / prefix.wall_seconds
                             : 0.0;
  const bool identical = prefix.to_json() == naive.to_json();

  TextTable t("Engine counters (" + std::to_string(jobs.size()) +
              " jobs, " + std::to_string(trials) + " trials per SER point)");
  t.set_header({"counter", "value"});
  const char* names[] = {"goldens_built", "hits",          "misses",
                         "evictions",     "jobs_restored",
                         "jobs_early_terminated", "jobs_bypassed",
                         "cycles_skipped", "bytes"};
  for (const char* n : names) {
    t.add_row({n, std::to_string(counter(prefix, n))});
  }
  t.print(std::cout);

  std::cout << "\nnaive wall: " << TextTable::num(naive.wall_seconds, 3)
            << "s, prefix wall: " << TextTable::num(prefix.wall_seconds, 3)
            << "s, speedup: " << TextTable::num(speedup, 1) << "x\n"
            << "prefix campaign byte-identical to naive: "
            << (identical ? "yes" : "NO") << "\n";

  if (!identical) {
    std::cout << "\nERROR: prefix-shared campaign diverged from the naive "
                 "run — the execution-strategy contract is broken.\n";
    return 1;
  }

  // The gated counters are a pure function of the grid (worker-count and
  // host independent); hits/misses/evictions/bytes depend on scheduling
  // and cache pressure, so only the table shows them.
  bench::Report report("bench_injection_prefix");
  report.cell("grid.insts", args.insts);
  report.cell("grid.seed", args.seed);
  report.cell("grid.trials", trials);
  report.cell("grid.prefix_interval", prefix_opts.prefix.interval);
  for (const char* n : {"goldens_built", "jobs_restored",
                        "jobs_early_terminated", "jobs_bypassed",
                        "cycles_skipped"}) {
    report.cell(n, counter(prefix, n));
  }
  report.metric("identical", identical ? 1 : 0);
  report.metric("speedup", speedup);
  report.write(args.json);

  bench::print_shape_note(
      "most Monte-Carlo trials at realistic soft-error rates share their "
      "entire fault-free prefix with the golden run: expect >=3x wall-clock "
      "speedup on this grid, identical=yes, and engine counters exactly "
      "matching bench/BENCH_baseline.json — the engine is an "
      "execution strategy, never a result change.");
  return 0;
}
