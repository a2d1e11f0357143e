// lbtrust benchmark program: runs one workload with one seed and prints one
// JSON result line (see README.md).
//
//   lbtrust_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--trace-out <file.json>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "harness.h"

namespace {

using perfbench::Layers;
using perfbench::Result;
using perfbench::RunConfig;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload exchange_rsa|authz_serve|"
               "mesh_relay --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               argv0);
  return 2;
}

void PrintJson(const Result& result, bool trace) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double value,
                  const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
           "\"}";
  };
  if (trace) {
    for (const auto& [name, unit] : perfbench::LayerMetrics()) {
      auto it = result.layer.find(name);
      emit(name, it == result.layer.end() ? 0.0 : it->second, unit);
    }
  } else {
    for (const auto& [name, unit] : perfbench::EndToEndMetrics()) {
      for (const perfbench::Metric& m : result.end_to_end) {
        if (m.name == name) emit(name, m.value, unit);
      }
    }
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = true;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || config.workload.empty() || config.seconds <= 0 ||
      !have_trace) {
    return Usage(argv[0]);
  }

  // Read before any workload pins a thread: the affinity mask of a pinned
  // thread names one CPU.
  const int nproc = static_cast<int>(perfbench::AllowedCpus().size());
  std::unique_ptr<lbtrust::obs::Tracer> tracer;
  if (config.trace) tracer = std::make_unique<lbtrust::obs::Tracer>();
  Layers layers(tracer.get());
  perfbench::ThreadWatch threads;

  Result result;
  if (config.workload == "exchange_rsa") {
    result = perfbench::RunExchange(config, &layers, &threads);
  } else if (config.workload == "authz_serve") {
    result = perfbench::RunAuthz(config, &layers, &threads);
  } else if (config.workload == "mesh_relay") {
    result = perfbench::RunMesh(config, &layers, &threads);
  } else {
    return Usage(argv[0]);
  }
  if (result.end_to_end.size() != perfbench::EndToEndMetrics().size()) {
    std::fprintf(stderr, "workload %s did not finish its set-up\n",
                 config.workload.c_str());
    return 1;
  }

  // Never more threads than CPUs: a worker pool or a stray thread would
  // make the timings depend on the scheduler.
  threads.Sample();
  if (threads.max_threads() > nproc) {
    result.Fail("process ran " + std::to_string(threads.max_threads()) +
                " threads on " + std::to_string(nproc) + " CPUs");
  }

  if (config.trace) {
    perfbench::AddSpanMetrics(layers, &result);
    for (const perfbench::Metric& m : result.end_to_end) {
      if (m.name == "ops_per_s" || m.name == "update_p50_ms" ||
          m.name == "decide_p50_us") {
        result.layer["traced." + m.name] = m.value;
      }
    }
    perfbench::PrintLayerTable(layers, config.workload);
    // The counts and ratios read at the same boundaries, beside the spans.
    for (const auto& [name, value] : result.layer) {
      std::fprintf(stderr, "%-28s %16.6g\n", name.c_str(), value);
    }
    if (!config.trace_path.empty()) {
      std::ofstream out(config.trace_path);
      out << tracer->ExportJson();
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", config.trace_path.c_str());
        return 1;
      }
    }
  }
  PrintJson(result, config.trace);
  return 0;
}
