// aecnc_perfbench: the repository's benchmark program.
//
//   aecnc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--scale <f>] [--plant-wrong-count] [--trace-out <file>]
//
// Runs one workload through the library's public API, checks every timed
// op against an independent oracle, prints a human-readable report and,
// as its last line, one JSON object with the keys correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
// is a separate run that records spans around each library call and
// reports the per-layer metrics of the layers the workload runs.
// perfbench/run.py orders the metrics after BENCHMARK.json, reads a layer
// the workload never runs as 0 and checks the set; perfbench/README.md
// documents the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: aecnc_perfbench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--scale <f>] "
               "[--plant-wrong-count] [--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-wrong-count") {
      a.plant_wrong_count = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--scale") {
        a.scale = std::stod(value);
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0) || !(a.scale > 0)) usage("--seconds/--scale must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  try {
    perfbench::fix_mmap_threshold();
    // Build the host gauge's pool before anything is timed.
    (void)perfbench::host_slowdown(perfbench::Vcpus::kAll);
    perfbench::Tracer tracer;
    perfbench::Tracer* t = args.trace ? &tracer : nullptr;
    const std::string host = perfbench::host_stanza(args);
    std::printf("host %s\n", host.c_str());

    perfbench::Report report;
    if (args.workload == "count-skewed") {
      report = perfbench::run_count_skewed(args, t);
    } else if (args.workload == "count-uniform") {
      report = perfbench::run_count_uniform(args, t);
    } else if (args.workload == "serve-mixed") {
      report = perfbench::run_serve_mixed(args, t);
    } else {
      usage("unknown workload " + args.workload);
    }
    if (report.attempted == 0) throw std::logic_error("no op was checked");

    if (args.trace) {
      if (!tracer.well_nested()) throw std::logic_error("spans do not nest");
      if (!args.trace_out.empty()) tracer.write_chrome_json(args.trace_out, host);
      std::printf("trace %zu spans%s%s\n", tracer.spans().size(),
                  args.trace_out.empty() ? "" : " -> ",
                  args.trace_out.c_str());
    }
    std::printf("ops attempted %llu, failed %llu, failed_ratio %.6g\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                static_cast<double>(report.failed) /
                    static_cast<double>(report.attempted));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                report.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    const std::vector<perfbench::Metric>& metrics = report.metrics;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
