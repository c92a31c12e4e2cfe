// perfbench_harness: runs one named workload for a fixed time and prints
// its metrics. Normally started through perfbench/run.py, which builds it:
//
//   perfbench_harness --workload camera_1080p --seed 3 --seconds 10 --trace 0
//   perfbench_harness --list        # the workload and metric catalogue
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
// A full record (host stamp, specs, every metric) is written to
// <out-dir>/<workload>_seed<N>_trace<T>.json, and with --trace 1 the spans
// to <out-dir>/trace_<workload>_seed<N>.json (Chrome trace-event format).
#include <sys/stat.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_list(std::ostream& os) {
  const auto defs = [&os](const std::vector<MetricDef>& list) {
    os << "[";
    for (std::size_t i = 0; i < list.size(); ++i)
      os << (i ? ", " : "") << "{\"name\": " << quoted(list[i].name)
         << ", \"unit\": " << quoted(list[i].unit)
         << ", \"better\": " << quoted(list[i].better) << "}";
    os << "]";
  };
  os << "{\"workloads\": [";
  for (std::size_t i = 0; i < workload_names().size(); ++i)
    os << (i ? ", " : "") << quoted(workload_names()[i]);
  os << "], \"end_to_end\": ";
  defs(end_to_end_metrics());
  os << ", \"per_layer\": ";
  defs(per_layer_metrics());
  os << "}\n";
}

RunArgs parse_args(int argc, char** argv) {
  RunArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--out-dir") a.out_dir = val;
    else throw std::invalid_argument("unknown option " + key);
  }
  bool known = false;
  for (const std::string& w : workload_names()) known |= w == a.workload;
  if (!known) throw std::invalid_argument("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0 && a.seconds <= 60.0))
    throw std::invalid_argument("--seconds must be in (0, 60]");
  return a;
}

Result run(const Env& env) {
  const std::string& w = env.args.workload;
  return w == "camera_1080p" ? run_camera(env) : run_fleet(env);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list") {
    print_list(std::cout);
    return 0;
  }
  try {
    const RunArgs args = parse_args(argc, argv);
    Tracer tracer(args.trace);
    Result res = run(Env{args, &tracer});
    // Probed after the workload so the probe's buffers stay out of rss_mb.
    const HostStamp host = probe_host();
    res.metrics["host.memcpy_gbps"] = host.memcpy_gbps;
    res.metrics["host.parallel_cores"] = host.parallel_cores;
    if (res.bytes_per_frame > 0.0)
      res.metrics["core.bw_frac"] = res.bytes_per_frame * res.frames_per_s /
                                    (host.memcpy_gbps * 1e9);
    const double error_frac = res.error_frac();
    res.metrics["ok_frac"] = 1.0 - error_frac;

    const std::vector<MetricDef>& reported =
        args.trace ? per_layer_metrics() : end_to_end_metrics();
    std::ostringstream metrics;
    metrics << std::setprecision(12);
    std::cout << std::setprecision(6);
    std::cout << "workload " << args.workload << "  seed " << args.seed
              << "  seconds " << args.seconds << "  trace " << args.trace
              << "\nhost isa=" << host.isa << " nproc=" << host.nproc
              << " memcpy_gbps=" << host.memcpy_gbps
              << " parallel_cores=" << host.parallel_cores << "\n";
    for (const auto& [k, v] : res.stamp) std::cout << "spec " << k << "=" << v << "\n";
    for (std::size_t i = 0; i < reported.size(); ++i) {
      const MetricDef& d = reported[i];
      const auto it = res.metrics.find(d.name);
      const double v = it == res.metrics.end() ? 0.0 : it->second;
      if (!std::isfinite(v))
        throw std::runtime_error(std::string("metric ") + d.name +
                                 " is not finite");
      std::cout << "  " << std::left << std::setw(30) << d.name << " "
                << std::setw(12) << v << " " << d.unit << "\n";
      metrics << (i ? ", " : "") << quoted(d.name) << ": {\"value\": " << v
              << ", \"unit\": " << quoted(d.unit) << "}";
    }
    if (!args.trace)
      for (const MetricDef& d : end_to_end_ungated_metrics())
        std::cout << "  " << std::left << std::setw(30) << d.name << " "
                  << std::setw(12) << res.metrics[d.name] << " " << d.unit
                  << "  (not gated)\n";
    std::cout << "  error_frac = " << error_frac << " ratio (attempted "
              << res.attempted << ", failed " << res.failed << ", checked "
              << res.checked << ", wrong " << res.wrong << ")\n";

    ::mkdir(args.out_dir.c_str(), 0755);
    const std::string stem = args.out_dir + "/" + args.workload + "_seed" +
                             std::to_string(args.seed);
    if (args.trace) tracer.write_chrome(args.out_dir + "/trace_" +
                                        args.workload + "_seed" +
                                        std::to_string(args.seed) + ".json");
    {
      std::ofstream os(stem + "_trace" + (args.trace ? "1" : "0") + ".json");
      os << std::setprecision(12) << "{\"workload\": " << quoted(args.workload)
         << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
         << ", \"trace\": " << args.trace << ",\n \"host\": {\"isa\": "
         << quoted(host.isa) << ", \"nproc\": " << host.nproc
         << ", \"memcpy_gbps\": " << host.memcpy_gbps
         << ", \"parallel_cores\": " << host.parallel_cores
         << "},\n \"spec\": {";
      for (std::size_t i = 0; i < res.stamp.size(); ++i)
        os << (i ? ", " : "") << quoted(res.stamp[i].first) << ": "
           << quoted(res.stamp[i].second);
      os << "},\n \"attempted\": " << res.attempted << ", \"failed\": "
         << res.failed << ", \"checked\": " << res.checked
         << ", \"wrong\": " << res.wrong << ", \"error_frac\": " << error_frac
         << ",\n \"metrics\": {";
      bool first = true;
      for (const auto& [k, v] : res.metrics) {
        os << (first ? "" : ", ") << quoted(k) << ": " << v;
        first = false;
      }
      os << "}}\n";
    }

    const bool correct = res.failed == 0 && res.wrong == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << res.attempted
              << ", \"failed\": " << res.failed + res.wrong
              << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
