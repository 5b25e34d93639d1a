// Fast-tier validation harness (docs/TIERS.md).
//
// Runs every requested (benchmark x system) cell on both tiers and prints
// the fast tier's accuracy against the detailed truth: CPI relative error
// and the fault-arrival contract (errors_injected must match exactly —
// both tiers draw the identical schedule from the identical seed). Exit
// code 1 if any cell breaks the arrival contract; accuracy itself is NOT
// gated here (bench_tier_screening's report is, against the committed
// envelope in bench/BENCH_baseline.json) — this tool is
// the exploratory/manual companion that shows the numbers per cell.
//
// Knobs (key=value, GNU --key=value also accepted by the CLI but this
// tool takes plain key=value only):
//   benches=<a,b,...>  comma list of profiles      (default: all of them)
//   systems=<a,b,...>  comma list of systems       (default: all of them)
//   insts=<N>          dynamic instructions/cell   (default 20000)
//   ser=<rate>         raw soft-error rate         (default 2e-4)
//   seed=<N>           workload + campaign seed    (default 42)
//   json=<path>        dump "unsync.tier_validation.v1" ("-" = stdout)
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/factory.hpp"
#include "runtime/campaign.hpp"
#include "workload/profile.hpp"

namespace {

using namespace unsync;

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

double cpi_of(const core::RunResult& r) {
  const double ipc = r.thread_ipc();
  return ipc > 0 ? 1.0 / ipc : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = Config::from_args(argc, argv);
    const auto insts = cfg.get_count<std::uint64_t>("insts", 20000);
    const double ser = cfg.get_double("ser", 2e-4);
    const auto seed = cfg.get_count<std::uint64_t>("seed", 42);
    const std::string json = cfg.get_string("json", "");

    std::vector<std::string> benches =
        split_list(cfg.get_string("benches", ""));
    if (benches.empty()) benches = workload::profile_names();

    std::vector<core::SystemKind> systems;
    for (const auto& name : split_list(cfg.get_string(
             "systems", "baseline,unsync,reunion,lockstep,checkpoint,hetero"))) {
      const auto kind = core::parse_system(name);
      if (!kind) throw std::invalid_argument("unknown system: " + name);
      systems.push_back(*kind);
    }
    cfg.report_unused("validate_fast_tier");

    TextTable t("Fast tier vs detailed (insts=" + std::to_string(insts) +
                " ser=" + std::to_string(ser) + ")");
    t.set_header({"benchmark", "system", "CPI det", "CPI fast", "rel err",
                  "errors det/fast", "schedule"});

    struct Row {
      std::string bench, system;
      double cpi_detailed, cpi_fast, cpi_rel_err;
      std::uint64_t errors_detailed, errors_fast;
      bool schedule_ok;
    };
    std::vector<Row> rows;
    bool all_ok = true;
    double worst = 0.0;

    for (const auto& bench : benches) {
      for (const auto kind : systems) {
        runtime::SimJob job;
        job.label = bench;
        job.profile = bench;
        job.system = kind;
        job.insts = insts;
        job.seed = seed;
        job.ser_per_inst = ser;

        const auto detailed = runtime::CampaignRunner::run_job(job, seed);
        job.params.tier = engine::Tier::kFast;
        const auto fast = runtime::CampaignRunner::run_job(job, seed);

        Row r;
        r.bench = bench;
        r.system = core::name_of(kind);
        r.cpi_detailed = cpi_of(detailed);
        r.cpi_fast = cpi_of(fast);
        r.cpi_rel_err =
            r.cpi_detailed > 0
                ? std::abs(r.cpi_fast - r.cpi_detailed) / r.cpi_detailed
                : 0.0;
        r.errors_detailed = detailed.errors_injected;
        r.errors_fast = fast.errors_injected;
        r.schedule_ok = r.errors_detailed == r.errors_fast;
        all_ok = all_ok && r.schedule_ok;
        worst = std::max(worst, r.cpi_rel_err);

        t.add_row({r.bench, r.system, TextTable::num(r.cpi_detailed, 3),
                   TextTable::num(r.cpi_fast, 3),
                   TextTable::pct(r.cpi_rel_err),
                   std::to_string(r.errors_detailed) + "/" +
                       std::to_string(r.errors_fast),
                   r.schedule_ok ? "ok" : "MISMATCH"});
        rows.push_back(std::move(r));
      }
    }
    t.print(std::cout);
    std::cout << "\nworst CPI relative error: " << TextTable::pct(worst)
              << "\nfault-arrival schedule: "
              << (all_ok ? "identical in every cell"
                         : "MISMATCH — the fast tier broke the contract")
              << "\n";

    if (!json.empty()) {
      std::ostringstream js;
      js << "{\n  \"schema\": \"unsync.tier_validation.v1\",\n"
         << "  \"insts\": " << insts << ",\n  \"ser\": " << ser
         << ",\n  \"seed\": " << seed << ",\n  \"worst_cpi_rel_err\": "
         << worst << ",\n  \"schedule_identical\": "
         << (all_ok ? "true" : "false") << ",\n  \"cells\": [\n";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        js << "    {\"bench\": \"" << r.bench << "\", \"system\": \""
           << r.system << "\", \"cpi_detailed\": " << r.cpi_detailed
           << ", \"cpi_fast\": " << r.cpi_fast
           << ", \"cpi_rel_err\": " << r.cpi_rel_err
           << ", \"errors_detailed\": " << r.errors_detailed
           << ", \"errors_fast\": " << r.errors_fast << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
      }
      js << "  ]\n}\n";
      if (json == "-") {
        std::cout << js.str();
      } else {
        std::ofstream f(json);
        if (!f) throw std::runtime_error("cannot write json file " + json);
        f << js.str();
        std::cout << "(validation JSON written to " << json << ")\n";
      }
    }
    return all_ok ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    // Config knob problems (Config throws invalid_argument): exit 2, the
    // same convention as the main CLI.
    std::cerr << "validate_fast_tier: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "validate_fast_tier: " << e.what() << "\n";
    return 1;
  }
}
