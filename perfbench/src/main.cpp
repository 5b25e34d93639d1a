// unsync_perfbench — one workload of the end-to-end benchmark per process.
//
//   unsync_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--tiny] [--perturb <n>] [--perturb-tier <n>] [--record]
//                    [--expected-dir <dir>] [--out-dir <dir>]
//
// Prints one JSON object on its last line of stdout: correct / attempted /
// failed, the metrics (end-to-end with --trace 0, per-layer with --trace 1)
// with their units, and an "info" object with provenance and check
// coverage. perfbench/run.py builds this program and wraps it.
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  const unsigned long long n = std::stoull(v, &used);
  if (used != v.size()) throw std::invalid_argument(flag + ": " + v);
  return n;
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = parse_u64(a, value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = parse_u64(a, value()) != 0;
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--perturb") {
      o.perturb = static_cast<unsigned>(parse_u64(a, value()));
    } else if (a == "--perturb-tier") {
      o.perturb_tier = static_cast<unsigned>(parse_u64(a, value()));
    } else if (a == "--record") {
      o.record = true;
    } else if (a == "--expected-dir") {
      o.expected_dir = value();
    } else if (a == "--out-dir") {
      o.out_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  try {
    opts = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "unsync_perfbench: " << e.what() << "\n";
    return 2;
  }
  perfbench::Report rep;
  try {
    rep = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::cerr << "unsync_perfbench: " << e.what() << "\n";
    return 1;
  }
  if (opts.record) return 0;

  unsync::obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(rep.correct);
  w.key("attempted").value(rep.attempted);
  w.key("failed").value(rep.failed);
  w.key("metrics").begin_object();
  for (const auto& [name, m] : rep.metrics) {
    w.key(name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.key("info").begin_object();
  w.key("workload").value(opts.workload);
  w.key("seed").value(opts.seed);
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.key("compiler").value(__VERSION__);
  w.key("nproc").value(std::thread::hardware_concurrency());
  for (const auto& [k, v] : rep.info) {
    if (k == "layer_totals") {
      w.key(k).raw(v);
    } else {
      w.key(k).value(v);
    }
  }
  w.end_object();
  w.end_object();
  std::cout << w.str() << "\n";
  return rep.correct ? 0 : 1;
}
