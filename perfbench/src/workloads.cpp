#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "ckpt/serializer.hpp"
#include "common/rng.hpp"
#include "core/factory.hpp"
#include "layers.hpp"
#include "mem/hierarchy.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "runtime/campaign.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {
namespace {

using namespace unsync;
using runtime::CampaignRunner;
using runtime::SimJob;
using runtime::SystemKind;
using Clock = std::chrono::steady_clock;

constexpr SystemKind kSystems[] = {
    SystemKind::kBaseline, SystemKind::kUnSync,     SystemKind::kReunion,
    SystemKind::kLockstep, SystemKind::kCheckpoint, SystemKind::kHetero,
};

// Grid sizes. A round takes a few seconds, so a 30 s run makes several; the
// campaigns hold hundreds or thousands of jobs so no single straggler sets
// the wall time.
constexpr std::uint64_t kMixInsts = 40000;
constexpr std::uint64_t kInjectInsts = 30000;
constexpr std::uint64_t kInjectTrials = 10;   // per batch
constexpr std::uint64_t kInjectBatches = 4;
constexpr double kInjectSers[] = {5e-5, 2e-4};
constexpr std::uint64_t kScreenInsts = 20000;
constexpr std::uint64_t kScreenSeeds = 40;    // per batch
constexpr std::uint64_t kScreenBatches = 10;
constexpr double kScreenSer = 1e-6;
constexpr double kScreenThreshold = 1.0;

constexpr int kSetupReps = 15;
constexpr std::size_t kMinRounds = 3;  // rounds a full-length run makes
constexpr std::size_t kCrossChecks = 8;  // reference re-runs, unrecorded seeds
constexpr Cycle kCkptInterval = 5000;    // the prefix engine's default
constexpr int kMaxCkptsPerCell = 8;
constexpr int kNextEventProbes = 100;  // queries per group and checkpoint

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `v` (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it; 50 when the sample is too small for any.
double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A result's digest: the low 32 bits of ckpt::hash64 over its JSON.
std::uint64_t digest(const core::RunResult& r) {
  return ckpt::hash64(r.to_json()) & 0xffffffffu;
}

std::uint64_t program_insts(const core::RunResult& r) {
  std::uint64_t n = 0;
  for (const auto t : r.thread_instructions) n += t;
  return n;
}

std::uint64_t job_length(const SimJob& job) {
  return job.trace ? job.trace->size() : job.insts;
}

std::shared_ptr<const std::vector<workload::DynOp>> record(
    const std::string& profile, std::uint64_t seed, std::uint64_t insts) {
  workload::SyntheticStream stream(workload::profile(profile), seed, insts);
  std::vector<workload::DynOp> ops;
  ops.reserve(insts);
  for (workload::DynOp op; stream.next(&op);) ops.push_back(op);
  return std::make_shared<const std::vector<workload::DynOp>>(std::move(ops));
}

// ---------------------------------------------------------------------------
// Grids

struct Grid {
  std::vector<SimJob> jobs;  // every job carries its seed
  /// Jobs per round. Round k runs batch k % batches(): jobs
  /// [b * batch, (b + 1) * batch).
  std::size_t batch = 0;
  std::size_t batches() const { return jobs.size() / batch; }
  bool campaign = false;     // false: one host thread runs each job in turn
  CampaignRunner::Options options;
  /// Jobs whose fast-tier CPI is compared with their detailed CPI (the
  /// screen grid uses its re-run cells instead).
  std::vector<std::size_t> cpi_cells;
  /// Traced-sample cells (--trace 1); the screen grid adds its re-run cells.
  std::vector<std::size_t> trace_cells;
};

std::string label(const std::string& bench, SystemKind kind) {
  return bench + "/" + core::name_of(kind);
}

Grid detailed_mix(const Options& o) {
  Grid g;
  const char* benches[] = {"gzip", "mcf", "galgel"};
  for (std::size_t b = 0; b < std::size(benches); ++b) {
    const std::uint64_t stream_seed = derive_seed(o.seed, b);
    for (const SystemKind kind : kSystems) {
      SimJob job;
      job.label = label(benches[b], kind);
      job.profile = benches[b];
      job.system = kind;
      job.insts = o.tiny ? 3000 : kMixInsts;
      job.app_threads = core::SystemConfig{}.num_threads;  // library default
      job.seed = stream_seed;
      g.cpi_cells.push_back(g.jobs.size());
      g.trace_cells.push_back(g.jobs.size());
      g.jobs.push_back(std::move(job));
    }
  }
  g.batch = g.jobs.size();
  return g;
}

Grid inject_campaign(const Options& o, unsigned workers) {
  Grid g;
  g.campaign = true;
  g.options.threads = workers;
  g.options.campaign_seed = o.seed;
  g.options.prefix.enabled = true;
  g.options.journal = o.out_dir + "/inject-campaign.journal.jsonl";
  const char* traces[] = {"gzip", "galgel", "susan"};
  const std::uint64_t insts = o.tiny ? 3000 : kInjectInsts;
  const std::uint64_t trials = o.tiny ? 2 : kInjectTrials;
  const std::uint64_t batches = o.tiny ? 1 : kInjectBatches;
  std::vector<std::shared_ptr<const std::vector<workload::DynOp>>> ops;
  for (std::size_t t = 0; t < std::size(traces); ++t) {
    ops.push_back(record(traces[t], derive_seed(o.seed, 100 + t), insts));
  }
  // Successive rounds replay the same traces with fresh trial seeds, so one
  // run averages over many fault draws per system.
  for (std::uint64_t b = 0; b < batches; ++b) {
    for (std::size_t t = 0; t < std::size(traces); ++t) {
      for (const SystemKind kind : kSystems) {
        for (const double ser : kInjectSers) {
          for (std::uint64_t trial = 0; trial < trials; ++trial) {
            SimJob job;
            job.label = label(traces[t], kind);
            job.trace = ops[t];
            job.system = kind;
            job.ser_per_inst = o.tiny ? ser * 10 : ser;
            job.fast_forward = true;
            job.seed = derive_seed(o.seed, g.jobs.size());
            if (b == 0 && trial == 0) g.cpi_cells.push_back(g.jobs.size());
            if (b == 0 && trial == 0 && ser == kInjectSers[1]) {
              g.trace_cells.push_back(g.jobs.size());
            }
            g.jobs.push_back(std::move(job));
          }
        }
      }
    }
  }
  g.batch = g.jobs.size() / batches;
  return g;
}

Grid screen_grid(const Options& o, unsigned workers) {
  Grid g;
  g.campaign = true;
  g.options.threads = workers;
  g.options.campaign_seed = o.seed;
  g.options.screen = true;
  g.options.screen_threshold = kScreenThreshold;
  auto profiles = workload::profile_names();
  if (o.tiny) profiles.resize(2);
  // Which cells the screen re-runs detailed is random, and those re-runs
  // are most of the wall time; successive rounds therefore screen fresh
  // seeds, so one run averages over many draws.
  const std::uint64_t batches = o.tiny ? 1 : kScreenBatches;
  const std::uint64_t seeds = o.tiny ? 1 : kScreenSeeds;
  for (std::uint64_t b = 0; b < batches; ++b) {
    for (std::uint64_t k = 0; k < seeds; ++k) {
      for (const auto& p : profiles) {
        for (const SystemKind kind : kSystems) {
          SimJob job;
          job.label = label(p, kind);
          job.profile = p;
          job.system = kind;
          job.insts = o.tiny ? 5000 : kScreenInsts;
          // Tiny grids raise the rate so some cells still re-run detailed.
          job.ser_per_inst = o.tiny ? 1e-3 : kScreenSer;
          job.seed = derive_seed(o.seed, g.jobs.size());
          if (b == 0 && k == 0) g.trace_cells.push_back(g.jobs.size());
          g.jobs.push_back(std::move(job));
        }
      }
    }
  }
  g.batch = g.jobs.size() / batches;
  return g;
}

Grid build_grid(const Options& o, unsigned workers) {
  if (o.workload == "detailed-mix") return detailed_mix(o);
  if (o.workload == "inject-campaign") return inject_campaign(o, workers);
  if (o.workload == "screen-grid") return screen_grid(o, workers);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

/// What the reference path (see reference_digests) gave for one seed of a
/// workload, as recorded in expected/.
struct Expected {
  std::size_t jobs = 0;  // jobs the record covers; 0: the seed has none
  std::map<std::size_t, std::uint64_t> digest;  // the detailed jobs only
};

std::string expected_file(const Options& o) {
  return o.expected_dir + "/" + o.workload + (o.tiny ? ".tiny" : "") +
         ".txt";
}

/// Loads the record for this workload and seed. File format, one line per
/// seed: the seed, then one token per job in grid order — its digest as 8
/// hex digits — where "+N" stands for N jobs the reference path leaves on
/// the fast tier. A line covers every job of the grid.
Expected load_expected(const Options& o) {
  Expected out;
  std::ifstream in(expected_file(o));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::uint64_t seed = 0;
    if (line.empty() || line[0] == '#' || !(ls >> seed) || seed != o.seed) {
      continue;
    }
    for (std::string token; ls >> token;) {
      if (token[0] == '+') {
        out.jobs += std::stoull(token.substr(1));
      } else {
        out.digest[out.jobs++] = std::stoull(token, nullptr, 16);
      }
    }
  }
  return out;
}

/// Runs a few tiny jobs so lazy set-up (allocator growth, first-touch page
/// faults, cold code) is paid before timing starts.
void warm_up() {
  for (const SystemKind kind : kSystems) {
    SimJob job;
    job.profile = "gzip";
    job.system = kind;
    job.insts = 5000;
    (void)CampaignRunner::run_job(job, 1);
  }
}

// ---------------------------------------------------------------------------
// Timed rounds

double cpi(const core::RunResult& r) {
  return ratio(static_cast<double>(r.cycles),
               static_cast<double>(r.instructions));
}

bool fast_sane(const SimJob& job, const core::RunResult& r) {
  return r.approximate && r.instructions == job_length(job) &&
         std::isfinite(cpi(r)) && cpi(r) > 0.0;
}

/// What the checks and metrics need from one job's result. Rounds keep
/// only these, so memory does not grow with the number of rounds.
struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t insts = 0;  // program instructions, all threads
  double cpi = 0.0;
  bool approximate = false;
  bool sane = true;  // fast-tier sanity (detailed results: always true)
};

struct Round {
  std::size_t offset = 0;  // grid index of outcomes[0]
  std::vector<Outcome> outcomes;
  /// The full results; kept only when `keep_results` was asked for.
  std::vector<core::RunResult> results;
  std::vector<double> job_wall;
  double wall = 0.0;
  obs::MetricsSnapshot scheduler;
  std::uint64_t journal_bytes = 0;
};

Round run_round(const Grid& g, std::size_t k, bool keep_results) {
  Round r;
  r.offset = (k % g.batches()) * g.batch;
  const std::vector<SimJob> jobs(g.jobs.begin() + r.offset,
                                 g.jobs.begin() + r.offset + g.batch);
  if (g.campaign) {
    const std::string& journal = g.options.journal;
    if (!journal.empty()) std::filesystem::remove(journal);
    const auto t0 = Clock::now();
    auto out = CampaignRunner(g.options).run(jobs);
    r.wall = since(t0);
    r.results = std::move(out.results);
    r.job_wall = std::move(out.job_wall_seconds);
    r.scheduler = std::move(out.scheduler_metrics);
    if (!journal.empty()) {
      r.journal_bytes = std::filesystem::file_size(journal);
      std::filesystem::remove(journal);
    }
  } else {
    const auto t0 = Clock::now();
    for (const SimJob& job : jobs) {
      const auto s = Clock::now();
      r.results.push_back(CampaignRunner::run_job(job, *job.seed));
      r.job_wall.push_back(since(s));
    }
    r.wall = since(t0);
  }
  for (std::size_t i = 0; i < r.results.size(); ++i) {
    const core::RunResult& res = r.results[i];
    r.outcomes.push_back(Outcome{digest(res), program_insts(res), cpi(res),
                                 res.approximate,
                                 !res.approximate || fast_sane(jobs[i], res)});
  }
  if (!keep_results) std::vector<core::RunResult>().swap(r.results);
  return r;
}

/// The job as the naive path runs it: detailed tier, no fast-forward, no
/// prefix sharing (run_job never shares prefixes).
SimJob naive(SimJob job) {
  job.fast_forward = false;
  job.params.tier = engine::Tier::kDetailed;
  return job;
}

/// Runs `jobs` (explicit seeds) on `workers` threads, results in order.
runtime::CampaignOutput run_plain(const std::vector<SimJob>& jobs,
                                  unsigned workers) {
  CampaignRunner::Options opts;
  opts.threads = workers;
  return CampaignRunner(opts).run(jobs);
}

/// A job's reference result: nullopt when it stays on the fast tier, else
/// the digest of its detailed result.
using Reference = std::optional<std::uint64_t>;

/// The reference path, which bypasses the campaign's prefix, fast-forward
/// and screening paths: every job runs plainly, detailed, with no
/// fast-forward. Under screening, the job first runs plainly on the fast
/// tier and is run detailed only if runtime::screening_score of that result
/// reaches the threshold; otherwise it stays on the fast tier.
std::vector<Reference> reference_digests(const Grid& g,
                                         const std::vector<std::size_t>& idx,
                                         unsigned workers) {
  std::vector<bool> detailed(idx.size(), true);
  if (g.options.screen) {
    std::vector<SimJob> fast;
    for (const std::size_t i : idx) {
      SimJob job = g.jobs[i];
      job.params.tier = engine::Tier::kFast;
      fast.push_back(std::move(job));
    }
    const auto out = run_plain(fast, workers);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      detailed[k] = runtime::screening_score(out.results[k]) >=
                    g.options.screen_threshold;
    }
  }
  std::vector<SimJob> jobs;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    if (detailed[k]) jobs.push_back(naive(g.jobs[idx[k]]));
  }
  const auto out = run_plain(jobs, workers);
  std::vector<Reference> refs(idx.size());
  for (std::size_t k = 0, d = 0; k < idx.size(); ++k) {
    if (detailed[k]) refs[k] = digest(out.results[d++]);
  }
  return refs;
}

// ---------------------------------------------------------------------------
// Result check

struct CheckStats {
  std::uint64_t failed = 0;
  std::uint64_t by_record = 0;       // jobs checked against a record
  std::uint64_t by_rerun = 0;        // ... against a reference re-run
  std::uint64_t by_consistency = 0;  // detailed jobs checked only vs round 0
  std::uint64_t fast_sanity = 0;     // fast-tier jobs sanity-checked
};

/// The first outcome of each grid job, by grid index.
std::map<std::size_t, const Outcome*> first_outcomes(
    const std::vector<Round>& rounds) {
  std::map<std::size_t, const Outcome*> out;
  for (const Round& r : rounds) {
    for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
      out.emplace(r.offset + i, &r.outcomes[i]);
    }
  }
  return out;
}

/// Up to `n` entries of `v`, spread evenly over it.
std::vector<std::size_t> spread_sample(const std::vector<std::size_t>& v,
                                       std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> out;
  if (v.empty()) return out;
  const std::size_t stride = std::max<std::size_t>(1, v.size() / n);
  for (std::size_t k = seed % stride; k < v.size() && out.size() < n;
       k += stride) {
    out.push_back(v[k]);
  }
  return out;
}

/// Checks every round: each job must repeat its round-0 outcome exactly,
/// pass the fast-tier sanity check if approximate, and match its reference
/// — tier and, when detailed, digest — where it has one. A recorded seed
/// gives every job a reference; on any other seed a sample of the detailed
/// jobs (and, under screening, of the fast-tier ones) is re-run the
/// reference way instead, so a held-out seed is still checked.
CheckStats check_rounds(const Options& o, const Grid& g,
                        const std::vector<Round>& rounds,
                        const Expected& expected, unsigned workers) {
  CheckStats st;
  const auto first = first_outcomes(rounds);
  std::map<std::size_t, Reference> reference;
  if (expected.jobs) {
    for (const auto& [i, r] : first) {
      const auto it = expected.digest.find(i);
      reference[i] =
          it == expected.digest.end() ? Reference{} : Reference{it->second};
    }
    st.by_record = reference.size();
  } else {
    std::vector<std::size_t> detailed, fast;
    for (const auto& [i, r] : first) {
      (r->approximate ? fast : detailed).push_back(i);
    }
    auto picked = spread_sample(detailed, kCrossChecks, o.seed);
    if (g.options.screen) {
      for (const std::size_t i : spread_sample(fast, kCrossChecks, o.seed)) {
        picked.push_back(i);
      }
    }
    const auto refs = reference_digests(g, picked, workers);
    for (std::size_t k = 0; k < picked.size(); ++k) {
      reference[picked[k]] = refs[k];
    }
    st.by_rerun = picked.size();
  }
  // Self-test hooks: corrupt some references so the check must fail.
  unsigned digests = o.perturb, tiers = o.perturb_tier;
  for (auto& [i, ref] : reference) {
    if (tiers > 0) {
      --tiers;
      ref = ref ? Reference{} : Reference{0};
    } else if (digests > 0 && ref) {
      --digests;
      *ref ^= 1;
    }
  }

  for (const auto& [i, r] : first) {
    if (r->approximate) {
      ++st.fast_sanity;
    } else if (!reference.count(i)) {
      ++st.by_consistency;
    }
  }
  for (const Round& round : rounds) {
    for (std::size_t k = 0; k < round.outcomes.size(); ++k) {
      const std::size_t i = round.offset + k;
      const Outcome& r = round.outcomes[k];
      // A repeated batch repeats exactly.
      bool ok = r.digest == first.at(i)->digest && r.sane;
      if (const auto it = reference.find(i); it != reference.end()) {
        const Reference& want = it->second;
        ok = ok && r.approximate == !want && (!want || *want == r.digest);
      }
      if (!ok) ++st.failed;
    }
  }
  return st;
}

// ---------------------------------------------------------------------------
// Fast-tier error

struct FastCpi {
  double err = 0.0;          // median |CPI_fast - CPI_detailed| / CPI_detailed
  double ns_per_inst = 0.0;  // fast-tier host ns per simulated instruction
  std::size_t cells = 0;
};

FastCpi fast_cpi(const Grid& g,
                 const std::map<std::size_t, const Outcome*>& first,
                 unsigned workers) {
  std::vector<std::size_t> cells;
  for (const auto& [i, r] : first) {
    const bool wanted =
        g.options.screen ? !r->approximate
                         : std::find(g.cpi_cells.begin(), g.cpi_cells.end(),
                                     i) != g.cpi_cells.end();
    if (wanted) cells.push_back(i);
  }
  FastCpi out;
  if (cells.empty()) return out;
  std::vector<SimJob> fast;
  for (const std::size_t i : cells) {
    SimJob job = g.jobs[i];
    job.params.tier = engine::Tier::kFast;
    fast.push_back(std::move(job));
  }
  const auto ran = run_plain(fast, workers);
  std::vector<double> errs;
  double wall = 0.0;
  std::uint64_t insts = 0;
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const double detailed = first.at(cells[k])->cpi;
    errs.push_back(std::abs(cpi(ran.results[k]) - detailed) / detailed);
    wall += ran.job_wall_seconds[k];
    insts += program_insts(ran.results[k]);
  }
  out.err = median(errs);
  out.ns_per_inst = ratio(wall * 1e9, static_cast<double>(insts));
  out.cells = cells.size();
  return out;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1)

struct TraceAcc {
  LayerTotals spans;
  std::size_t cells = 0;
  std::size_t mismatches = 0;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double metrics_s = 0.0;        // detailed cells with a registry attached
  double metrics_base_s = 0.0;   // the same cells without
  std::uint64_t cycles = 0;      // detailed cells
  std::uint64_t skipped = 0;
  std::uint64_t insts = 0;       // program instructions, detailed cells
  std::uint64_t pulled_for = 0;  // per-core committed (detailed) + fast insts
  std::uint64_t core_cycles = 0;
  std::uint64_t committed = 0;
  double rob_sum = 0.0;
  std::size_t cores = 0;
  std::uint64_t l1d_access = 0, l1d_miss = 0, l1i_access = 0;
  std::uint64_t l2_access = 0, l2_miss = 0, bus_busy = 0;
  // ckpt, and the engine's fast-forward bound probed at the same points
  double save_s = 0.0, load_s = 0.0, fp_s = 0.0, next_event_s = 0.0;
  std::uint64_t ckpts = 0, fps = 0, ckpt_bytes = 0, next_events = 0;
  // mem replay
  double replay_s = 0.0;
  std::uint64_t replay_accesses = 0;
};

void trace_fast_cell(const SimJob& job, TraceAcc& acc) {
  const std::uint64_t seed = *job.seed;
  const auto cfg = runtime::job_system_config(job, seed);
  core::RunResult plain;
  {
    const auto stream = runtime::make_job_stream(job, seed);
    const auto model = core::make_model(job.system, cfg, *stream, job.params);
    const auto t0 = Clock::now();
    plain = model->run();
    acc.untraced_s += since(t0);
  }
  TracedStream stream(runtime::make_job_stream(job, seed));
  const auto model = core::make_model(job.system, cfg, stream, job.params);
  const auto t0 = Clock::now();
  core::RunResult traced;
  {
    Span span(Layer::kEngineFast);
    traced = model->run();
  }
  acc.traced_s += since(t0);
  if (traced.to_json() != plain.to_json()) ++acc.mismatches;
  acc.pulled_for += program_insts(plain);
}

void trace_detailed_cell(const SimJob& job, TraceAcc& acc) {
  const std::uint64_t seed = *job.seed;
  const auto cfg = runtime::job_system_config(job, seed);
  const auto build = [&](const workload::InstStream& stream) {
    return core::make_system(job.system, cfg, stream, job.params);
  };
  core::RunResult plain;
  double plain_s = 0.0;
  {
    const auto stream = runtime::make_job_stream(job, seed);
    const auto sys = build(*stream);
    const auto t0 = Clock::now();
    plain = sys->run();
    plain_s = since(t0);
  }
  {
    TracedStream stream(runtime::make_job_stream(job, seed));
    const auto sys = build(stream);
    std::uint64_t skipped = 0;
    const auto t0 = Clock::now();
    const core::RunResult traced = run_traced(*sys, job.fast_forward, &skipped);
    acc.traced_s += since(t0);
    if (!same_simulation(plain, traced)) ++acc.mismatches;
    acc.skipped += skipped;
    mem::MemoryHierarchy& m = sys->memory();
    for (unsigned c = 0; c < m.num_cores(); ++c) {
      acc.l1d_access += m.l1(c).hits() + m.l1(c).misses();
      acc.l1d_miss += m.l1(c).misses();
      acc.l1i_access += m.icache(c).hits() + m.icache(c).misses();
    }
    acc.l2_access += m.l2().hits() + m.l2().misses();
    acc.l2_miss += m.l2().misses();
    acc.bus_busy += m.bus().busy_cycles();
  }
  {
    const auto stream = runtime::make_job_stream(job, seed);
    const auto sys = build(*stream);
    obs::MetricsRegistry reg;
    sys->set_observability(&reg, nullptr);
    const auto t0 = Clock::now();
    (void)sys->run();
    acc.metrics_s += since(t0);
    acc.metrics_base_s += plain_s;
  }
  acc.untraced_s += plain_s;
  acc.cycles += plain.cycles;
  acc.insts += program_insts(plain);
  for (const cpu::CoreStats& cs : plain.core_stats) {
    acc.pulled_for += cs.committed;
    acc.committed += cs.committed;
    acc.core_cycles += cs.cycles;
    acc.rob_sum += cs.avg_rob_occupancy();
    ++acc.cores;
  }
}

/// Times checkpoint save / load, the state fingerprint and the kernel's
/// fast-forward bound query (SystemPolicy::next_event, which only runs with
/// fast-forward on) at the prefix engine's cadence, on a fault-free twin of
/// the cell.
void time_checkpoints(SimJob job, TraceAcc& acc) {
  job.ser_per_inst = 0.0;
  const std::uint64_t seed = *job.seed;
  const auto stream = runtime::make_job_stream(job, seed);
  const auto sys = core::make_system(
      job.system, runtime::job_system_config(job, seed), *stream, job.params);
  for (int k = 1; k <= kMaxCkptsPerCell; ++k) {
    const Cycle target = kCkptInterval * static_cast<Cycle>(k);
    if (sys->run(target).cycles < target) break;
    auto t0 = Clock::now();
    for (int rep = 0; rep < kNextEventProbes; ++rep) {
      for (std::size_t gi = 0; gi < sys->group_count(); ++gi) {
        if (sys->finished(gi)) continue;
        (void)sys->next_event(gi, target);
        ++acc.next_events;
      }
    }
    acc.next_event_s += since(t0);
    t0 = Clock::now();
    const std::string blob = sys->save_checkpoint_bytes();
    acc.save_s += since(t0);
    acc.ckpt_bytes += blob.size();
    ++acc.ckpts;
    if (sys->supports_prefix()) {
      t0 = Clock::now();
      (void)sys->state_fingerprint();
      acc.fp_s += since(t0);
      ++acc.fps;
    }
    t0 = Clock::now();
    sys->load_checkpoint_bytes(blob);
    acc.load_s += since(t0);
  }
}

/// Replays the cell's instruction and data addresses straight through a
/// MemoryHierarchy: the cost of one access without the core around it.
void replay_memory(const SimJob& job, TraceAcc& acc) {
  const auto stream = runtime::make_job_stream(job, *job.seed);
  std::vector<workload::DynOp> ops;
  for (workload::DynOp op; stream->next(&op);) ops.push_back(op);
  mem::MemoryHierarchy m(mem::MemConfig{}, 1);
  if (const auto warm = stream->warm_region()) {
    m.prewarm_l2(warm->base, warm->bytes);
  }
  if (const auto code = stream->code_region()) {
    m.prewarm_icaches(code->base, code->bytes);
  }
  std::uint64_t accesses = 0;
  Cycle now = 0;
  const auto t0 = Clock::now();
  for (const workload::DynOp& op : ops) {
    (void)m.ifetch(0, op.pc, now);
    ++accesses;
    if (op.is_load()) {
      (void)m.load(0, op.mem_addr, now);
      ++accesses;
    } else if (op.is_store()) {
      (void)m.store_writeback(0, op.mem_addr, now);
      ++accesses;
    }
    ++now;
  }
  acc.replay_s += since(t0);
  acc.replay_accesses += accesses;
}

void put(Report& rep, const std::string& name, double value,
         const std::string& unit) {
  rep.metrics[name] = Metric{value, unit};
}

std::uint64_t counter(const obs::MetricsSnapshot& s, const std::string& n) {
  const auto it = s.counters.find(n);
  return it == s.counters.end() ? 0 : it->second;
}

void trace_layers(const Options& o, const Grid& g, const Round& round,
                  unsigned workers, Report& rep) {
  const auto& results = round.results;
  std::vector<SimJob> fast_cells;
  std::vector<SimJob> detailed_cells;
  for (const std::size_t i : g.trace_cells) {
    SimJob job = g.jobs[i];
    if (g.options.screen) {
      job.params.tier = engine::Tier::kFast;
      fast_cells.push_back(std::move(job));
    } else {
      detailed_cells.push_back(std::move(job));
    }
  }
  if (g.options.screen) {  // plus the cells the screen re-ran detailed
    for (std::size_t i = 0; i < results.size() && detailed_cells.size() < 8;
         ++i) {
      if (!results[i].approximate) detailed_cells.push_back(g.jobs[i]);
    }
  }

  Tracer& tracer = Tracer::local();
  tracer.reset_totals();
  TraceAcc acc;
  for (const SimJob& job : fast_cells) trace_fast_cell(job, acc);
  for (const SimJob& job : detailed_cells) trace_detailed_cell(job, acc);
  acc.cells = fast_cells.size() + detailed_cells.size();
  acc.spans = tracer.totals();
  std::set<SystemKind> ckpt_systems;
  std::set<std::string> replayed;
  for (const SimJob& job : detailed_cells) {
    if (ckpt_systems.insert(job.system).second) time_checkpoints(job, acc);
    const std::string stream_key =
        job.profile.empty() ? job.label.substr(0, job.label.find('/'))
                            : job.profile + "#" + std::to_string(*job.seed);
    if (replayed.size() < 3 && replayed.insert(stream_key).second) {
      replay_memory(job, acc);
    }
  }

  const LayerTotals& sp = acc.spans;
  const double wall = static_cast<double>(sp.wall_ns());
  const auto self = [&](Layer l) {
    return static_cast<double>(sp.self_ns[static_cast<std::size_t>(l)]);
  };
  const auto calls = [&](Layer l) {
    return static_cast<double>(sp.calls[static_cast<std::size_t>(l)]);
  };
  const auto per_call = [&](Layer l) { return ratio(self(l), calls(l)); };
  const auto share = [&](Layer l) { return ratio(self(l), wall); };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  put(rep, "workload.next_ns", per_call(Layer::kWorkloadNext), "ns");
  put(rep, "workload.share", share(Layer::kWorkloadNext), "ratio");
  put(rep, "workload.pulls_per_inst",
      ratio(calls(Layer::kWorkloadNext), d(acc.pulled_for)), "ratio");

  put(rep, "cpu.tick_ns", per_call(Layer::kCpuTick), "ns");
  put(rep, "cpu.share", share(Layer::kCpuTick), "ratio");
  put(rep, "cpu.ticks_per_inst", ratio(calls(Layer::kCpuTick), d(acc.insts)),
      "ratio");
  put(rep, "cpu.rob_occupancy_avg", ratio(acc.rob_sum, d(acc.cores)),
      "entries");
  put(rep, "cpu.ipc", ratio(d(acc.committed), d(acc.core_cycles)), "ratio");

  put(rep, "mem.access_ns", ratio(acc.replay_s * 1e9, d(acc.replay_accesses)),
      "ns");
  put(rep, "mem.accesses_per_inst",
      ratio(d(acc.l1d_access + acc.l1i_access), d(acc.committed)), "ratio");
  put(rep, "mem.l1d_miss_rate", ratio(d(acc.l1d_miss), d(acc.l1d_access)),
      "ratio");
  put(rep, "mem.l2_miss_rate", ratio(d(acc.l2_miss), d(acc.l2_access)),
      "ratio");
  put(rep, "mem.bus_busy_frac", ratio(d(acc.bus_busy), d(acc.cycles)),
      "ratio");

  put(rep, "engine.loop_self_share", share(Layer::kEngineLoop), "ratio");
  put(rep, "engine.ff_share",
      ratio(self(Layer::kEngineNext) + self(Layer::kEngineSkip), wall),
      "ratio");
  put(rep, "engine.fast_share", share(Layer::kEngineFast), "ratio");
  put(rep, "engine.host_ns_per_cycle",
      ratio(acc.metrics_base_s * 1e9, d(acc.cycles)), "ns");
  put(rep, "engine.skip_frac", ratio(d(acc.skipped), d(acc.cycles)), "ratio");
  put(rep, "engine.next_event_ns",
      ratio(acc.next_event_s * 1e9, d(acc.next_events)), "ns");

  put(rep, "core.sync_ns", per_call(Layer::kCoreSync), "ns");
  put(rep, "core.sync_share", share(Layer::kCoreSync), "ratio");
  put(rep, "fault.on_error_ns", per_call(Layer::kFaultError), "ns");
  put(rep, "fault.share", share(Layer::kFaultError), "ratio");

  std::uint64_t errors = 0, recovery = 0, cycles = 0, stalls = 0;
  std::uint64_t reruns = 0;
  for (const core::RunResult& r : results) {
    errors += r.errors_injected;
    recovery += r.recovery_cycles_total;
    cycles += r.cycles;
    stalls += r.cb_full_stalls + r.fingerprint_syncs;
    reruns += r.approximate ? 0 : 1;
  }
  put(rep, "core.sync_stall_frac", ratio(d(stalls), d(cycles)), "ratio");
  put(rep, "fault.errors_injected", d(errors), "count");
  put(rep, "fault.recovery_cycle_frac", ratio(d(recovery), d(cycles)),
      "ratio");

  put(rep, "ckpt.save_us", ratio(acc.save_s * 1e6, d(acc.ckpts)), "us");
  put(rep, "ckpt.load_us", ratio(acc.load_s * 1e6, d(acc.ckpts)), "us");
  put(rep, "ckpt.fingerprint_us", ratio(acc.fp_s * 1e6, d(acc.fps)), "us");
  put(rep, "ckpt.bytes", ratio(d(acc.ckpt_bytes), d(acc.ckpts)), "B");
  put(rep, "ckpt.journal_bytes_per_job",
      ratio(d(round.journal_bytes), d(results.size())), "B");

  const obs::MetricsSnapshot& s = round.scheduler;
  double job_wall = 0.0;
  for (const double w : round.job_wall) job_wall += w;
  const unsigned used = g.campaign ? workers : 1;
  put(rep, "runtime.worker_util", ratio(job_wall, used * round.wall),
      "ratio");
  put(rep, "runtime.idle_ms", (used * round.wall - job_wall) * 1e3, "ms");
  put(rep, "runtime.steals", d(counter(s, "campaign.scheduler.steals")),
      "count");
  const std::string pc = "campaign.prefix_cache.";
  const double hits = d(counter(s, pc + "hits"));
  const double misses = d(counter(s, pc + "misses"));
  put(rep, "runtime.prefix.hit_rate", ratio(hits, hits + misses), "ratio");
  put(rep, "runtime.prefix.early_term_frac",
      ratio(d(counter(s, pc + "jobs_early_terminated")), d(results.size())),
      "ratio");
  put(rep, "runtime.prefix.cycles_skipped_frac",
      ratio(d(counter(s, pc + "cycles_skipped")), d(cycles)), "ratio");
  put(rep, "runtime.prefix.goldens", d(counter(s, pc + "goldens_built")),
      "count");
  put(rep, "runtime.prefix.restores", d(counter(s, pc + "jobs_restored")),
      "count");
  put(rep, "runtime.screen.rerun_frac",
      g.options.screen ? ratio(d(reruns), d(results.size())) : 0.0, "ratio");

  put(rep, "obs.metrics_overhead", ratio(acc.metrics_s, acc.metrics_base_s),
      "ratio");
  put(rep, "trace.overhead", ratio(acc.traced_s, acc.untraced_s), "ratio");

  rep.attempted += acc.cells;
  rep.failed += acc.mismatches;
  rep.info["traced_cells"] = std::to_string(acc.cells);
  rep.info["traced_mismatches"] = std::to_string(acc.mismatches);

  std::filesystem::create_directories(o.out_dir);
  std::ofstream spans(o.out_dir + "/spans-" + o.workload + ".jsonl");
  tracer.write_raw(spans);
  obs::JsonWriter w;
  w.begin_object();
  for (std::size_t l = 0; l < kLayers; ++l) {
    w.key(layer_name(static_cast<Layer>(l))).begin_object();
    w.key("calls").value(sp.calls[l]);
    w.key("total_ns").value(sp.total_ns[l]);
    w.key("self_ns").value(sp.self_ns[l]);
    w.end_object();
  }
  w.end_object();
  rep.info["layer_totals"] = w.str();
}

unsigned default_workers() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

std::int64_t peak_rss_kib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

}  // namespace

Report run_workload(const Options& o) {
  const unsigned workers = default_workers();
  std::filesystem::create_directories(o.out_dir);

  if (o.record) {
    const Grid g = build_grid(o, workers);
    std::cout << o.seed;
    std::size_t fast = 0;  // fast-tier jobs not yet written out
    for (std::size_t b = 0; b < g.batches(); ++b) {
      std::vector<std::size_t> idx(g.batch);
      std::iota(idx.begin(), idx.end(), b * g.batch);
      for (const Reference& ref : reference_digests(g, idx, workers)) {
        if (!ref) {
          ++fast;
          continue;
        }
        if (fast) std::cout << " +" << fast;
        fast = 0;
        char hex[9];
        std::snprintf(hex, sizeof hex, "%08llx",
                      static_cast<unsigned long long>(*ref));
        std::cout << " " << hex;
      }
    }
    if (fast) std::cout << " +" << fast;
    std::cout << "\n";
    Report rep;
    rep.correct = true;
    return rep;
  }

  // Set-up (trace recording, grid build, loading the expected results),
  // repeated; the median is the reported set-up time. The warm-up runs
  // after it, outside setup_s: it is simulation, which sim_kips measures.
  std::vector<double> setups;
  Grid g;
  Expected expected;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Free the previous repetition's set-up first, so no two grids are
    // ever alive at once and each repetition builds on the same heap.
    g = Grid{};
    expected = Expected{};
    const auto t0 = Clock::now();
    g = build_grid(o, workers);
    expected = load_expected(o);
    setups.push_back(since(t0));
  }
  if (expected.jobs && expected.jobs != g.jobs.size()) {
    throw std::runtime_error(
        expected_file(o) + ": seed " + std::to_string(o.seed) + " covers " +
        std::to_string(expected.jobs) + " jobs, the grid has " +
        std::to_string(g.jobs.size()));
  }
  warm_up();

  Report rep;
  std::vector<Round> rounds;
  double timed = 0.0;
  bool threw = false;
  try {
    do {
      rounds.push_back(run_round(g, rounds.size(), o.trace));
      timed += rounds.back().wall;
    } while (!o.trace && timed < o.seconds);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << ": " << e.what() << "\n";
    threw = true;
  }

  const std::uint64_t per_round = g.batch;
  rep.attempted = per_round * (rounds.size() + (threw ? 1 : 0));
  rep.failed = threw ? per_round : 0;
  CheckStats checks;
  if (!rounds.empty()) {
    checks = check_rounds(o, g, rounds, expected, workers);
    rep.failed += checks.failed;
  }
  const FastCpi fc = rounds.empty()
                         ? FastCpi{}
                         : fast_cpi(g, first_outcomes(rounds), workers);

  // End-to-end metrics, over every timed round.
  std::vector<double> job_ms;
  std::uint64_t insts = 0;
  std::map<SystemKind, std::pair<double, std::uint64_t>> per_system;
  for (const Round& r : rounds) {
    for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
      const std::uint64_t n = r.outcomes[i].insts;
      insts += n;
      job_ms.push_back(r.job_wall[i] * 1e3);
      auto& [wall, sys_insts] = per_system[g.jobs[r.offset + i].system];
      wall += r.job_wall[i];
      sys_insts += n;
    }
  }
  // The tail percentile depends only on the grid, never on how many rounds
  // fitted: full-length runs make at least kMinRounds.
  const double tail_p = tail_percentile(
      per_round * std::min<std::size_t>(rounds.size(), kMinRounds));
  put(rep, "sim_kips", ratio(static_cast<double>(insts) / 1e3, timed),
      "kinst/s");
  put(rep, "jobs_per_s", ratio(static_cast<double>(job_ms.size()), timed),
      "1/s");
  put(rep, "job_ms_p50", median(job_ms), "ms");
  put(rep, "job_ms_tail", percentile(job_ms, tail_p), "ms");
  put(rep, "setup_s", median(setups), "s");
  put(rep, "peak_rss_mb", static_cast<double>(peak_rss_kib()) / 1024.0,
      "MiB");
  put(rep, "pass_frac",
      1.0 - ratio(static_cast<double>(rep.failed),
                  static_cast<double>(rep.attempted)),
      "ratio");
  put(rep, "fast_cpi_err", fc.err, "ratio");
  for (const SystemKind kind : kSystems) {
    const auto& [wall, sys_insts] = per_system[kind];
    put(rep, std::string("kips.") + core::name_of(kind),
        ratio(static_cast<double>(sys_insts) / 1e3, wall), "kinst/s");
  }

  if (o.trace && !rounds.empty()) {
    rep.metrics.clear();
    put(rep, "engine.fast_ns_per_inst", fc.ns_per_inst, "ns");
    trace_layers(o, g, rounds.front(), workers, rep);
  }

  rep.correct = rep.failed == 0 && !threw && !rounds.empty();
  const auto num = [](double v) {
    std::ostringstream s;
    s << v;
    return s.str();
  };
  rep.info["workers"] = std::to_string(g.campaign ? workers : 1);
  rep.info["jobs_per_round"] = std::to_string(per_round);
  rep.info["rounds"] = std::to_string(rounds.size());
  rep.info["timed_s"] = num(timed);
  rep.info["job_ms_tail_percentile"] = num(tail_p);
  rep.info["fail_frac"] =
      num(ratio(static_cast<double>(rep.failed),
                static_cast<double>(rep.attempted)));
  rep.info["checked_by_record"] = std::to_string(checks.by_record);
  rep.info["checked_by_rerun"] = std::to_string(checks.by_rerun);
  rep.info["checked_by_consistency"] = std::to_string(checks.by_consistency);
  rep.info["fast_sanity_checked"] = std::to_string(checks.fast_sanity);
  rep.info["fast_cpi_cells"] = std::to_string(fc.cells);
  std::string each;
  for (const double s : setups) each += (each.empty() ? "" : " ") + num(s);
  rep.info["setup_s_each"] = each;
  return rep;
}

}  // namespace perfbench
