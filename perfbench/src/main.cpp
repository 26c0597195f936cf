// polybench: the benchmark's measuring program. perfbench/run.py
// builds and invokes it; run it directly as
//   polybench --workload oltp|olap|soe_sql --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-file PATH] [--ops N] [--scale F]
//             [--commit SHA]

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "span_trace.h"
#include "workloads.h"

namespace polybench {

bool FinishTrace(const RunConfig& cfg, const std::string& context, std::string counters,
                 const LoopTotals& loop, int clients) {
  JsonField(&counters, "clients", static_cast<double>(clients));
  JsonField(&counters, "wall_ns", static_cast<double>(loop.wall_ns));
  JsonField(&counters, "untraced_ops", static_cast<double>(loop.ops[0]));
  JsonField(&counters, "untraced_busy_ns", static_cast<double>(loop.busy_ns[0]));
  JsonField(&counters, "traced_ops", static_cast<double>(loop.ops[1]));
  JsonField(&counters, "traced_busy_ns", static_cast<double>(loop.busy_ns[1]));
  if (!WriteSpans(cfg.trace_path, "{\"type\": \"context\", " + context + "}",
                  "{\"type\": \"counters\", " + counters + "}")) {
    std::cerr << "cannot write span file " << cfg.trace_path << "\n";
    return false;
  }
  return true;
}

}  // namespace polybench

int main(int argc, char** argv) {
  using namespace polybench;
  RunConfig cfg;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") cfg.workload = value;
    else if (flag == "--seed") cfg.seed = std::stoull(value);
    else if (flag == "--seconds") cfg.seconds = std::stod(value);
    else if (flag == "--trace") cfg.trace = value == "1";
    else if (flag == "--ops") cfg.ops = std::stoull(value);
    else if (flag == "--scale") cfg.scale = std::stod(value);
    else if (flag == "--work-dir") cfg.work_dir = value;
    else if (flag == "--trace-file") cfg.trace_path = value;
    else if (flag == "--commit") commit = value;
    else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (cfg.work_dir.empty() || (cfg.trace && cfg.trace_path.empty())) {
    std::cerr << "--work-dir is required, and --trace-file with --trace 1\n";
    return 2;
  }

  std::string context;
  JsonField(&context, "workload", cfg.workload);
  JsonField(&context, "seed", static_cast<double>(cfg.seed));
  JsonField(&context, "seconds", cfg.seconds);
  JsonField(&context, "ops_per_client", static_cast<double>(cfg.ops));
  JsonField(&context, "scale", cfg.scale);
  JsonField(&context, "setups", static_cast<double>(kSetups));
  JsonField(&context, "commit", commit);
  JsonField(&context, "build_type", std::string(POLYBENCH_BUILD_TYPE));
  JsonField(&context, "compiler", std::string(POLYBENCH_COMPILER));
  JsonField(&context, "nproc", static_cast<double>(std::thread::hardware_concurrency()));
  std::cout << "# context {" << context << "}\n";

  if (cfg.workload == "oltp") return RunOltp(cfg, context);
  if (cfg.workload == "olap") return RunOlap(cfg, context);
  if (cfg.workload == "soe_sql") return RunSoeSql(cfg, context);
  std::cerr << "unknown workload '" << cfg.workload << "' (oltp, olap, soe_sql)\n";
  return 2;
}
