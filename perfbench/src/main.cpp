// perfbench: one command, one workload, every metric by name and unit.
//
//   perfbench --workload oneshot-rmat|stream-er|daemon-mixed --seed N
//             --seconds S --trace 0|1 [--revision R] [--source-digest D]
//             [--trace-out spans.json]
//
// Human-readable progress goes to stderr. stdout carries one provenance
// line and then, as its last line, the result object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 means the
// run completed; a failed output check still exits 0 with correct=false.
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "spans.hpp"
#include "util/cache_info.hpp"
#include "util/json.hpp"
#include "util/thread_control.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string quoted(const std::string& s) {
  std::string out(1, '"');
  out.append(spkadd::util::json_escape(s)).push_back('"');
  return out;
}

std::string number(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

int usage() {
  std::cerr << "usage: perfbench --workload oneshot-rmat|stream-er|"
               "daemon-mixed --seed N --seconds S --trace 0|1 "
               "[--revision R] [--source-digest D] [--trace-out PATH]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunParams params;
  std::string revision = "none", source_digest = "none";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--workload") {
        params.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        params.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        params.seconds = std::stod(value);
      } else if (flag == "--trace") {
        params.trace = value == "1";
      } else if (flag == "--revision") {
        revision = value;
      } else if (flag == "--source-digest") {
        source_digest = value;
      } else if (flag == "--trace-out") {
        params.trace_out = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!have_workload || params.seconds <= 0) return usage();

  // OpenMP regions use nproc - 1 threads. A fork-join call waits for its
  // slowest thread, so with one thread per CPU every preemption by
  // another process lands in the call's time; one CPU left free keeps
  // call-time tails a property of the library rather than the scheduler.
  spkadd::util::set_num_threads(
      static_cast<int>(spkadd::util::online_cpu_count()) - 1);

  Result result;
  try {
    if (params.workload == "oneshot-rmat")
      result = run_oneshot(params);
    else if (params.workload == "stream-er")
      result = run_stream(params);
    else if (params.workload == "daemon-mixed")
      result = run_daemon(params);
    else
      return usage();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << params.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (params.trace && !params.trace_out.empty() &&
      !spans::dump_json(params.trace_out))
    std::cerr << "perfbench: cannot write " << params.trace_out << "\n";

  const auto& m = spkadd::util::detect_machine();
  std::ostringstream prov;
  prov << "{\"provenance\":{\"workload\":" << quoted(params.workload)
       << ",\"seed\":" << params.seed << ",\"seconds\":" << number(params.seconds)
       << ",\"trace\":" << (params.trace ? 1 : 0)
       << ",\"revision\":" << quoted(revision)
       << ",\"source_digest\":" << quoted(source_digest)
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"omp_threads\":" << spkadd::util::current_max_threads()
       << ",\"l1_bytes\":" << m.l1.bytes << ",\"l2_bytes\":" << m.l2.bytes
       << ",\"llc_bytes\":" << m.llc.bytes
       << ",\"compiler\":" << quoted(PERFBENCH_COMPILER)
       << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE);
  for (const auto& [key, value] : result.provenance)
    prov << "," << quoted(key) << ":" << value;
  prov << "}}";
  std::cout << prov.str() << "\n";

  std::ostringstream line;
  line << "{\"correct\":" << (result.failed == 0 ? "true" : "false")
       << ",\"attempted\":" << result.attempted
       << ",\"failed\":" << result.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : result.metrics) {
    line << (first ? "" : ",") << quoted(name) << ":{\"value\":"
         << number(vu.first) << ",\"unit\":" << quoted(vu.second) << "}";
    first = false;
    std::cerr << "  " << std::left << std::setw(34) << name << " "
              << std::setw(14) << vu.first << " " << vu.second << "\n";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}
