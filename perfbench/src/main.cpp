// perfbench — one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--corrupt] [--scratch <dir>]
//
// Prints a detail line and, as the last line of stdout, the result object
// {"correct", "attempted", "failed", "metrics"}.  Exit status 0 only when
// every checked output was correct.  perfbench/run.py is the entry point
// that builds this program and runs it with a clean environment.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  pb::options opt;
  for (int i = 1; i < argc; ++i) {
    std::string const a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(value().c_str());
    else if (a == "--trace") opt.trace = value() == "1";
    else if (a == "--scratch") opt.scratch = value();
    else if (a == "--tiny") opt.tiny = true;
    else if (a == "--corrupt") opt.corrupt = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  bool const analytics = opt.workload == "rmat-analytics";
  if (!analytics && opt.workload != "serve-mixed") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  if (opt.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  if (opt.scratch.empty())
    opt.scratch = ".";
  std::filesystem::create_directories(opt.scratch);

  pb::host_clock();
  pb::result out;
  out.trace = opt.trace;
  try {
    if (analytics)
      pb::run_analytics(opt, out);
    else
      pb::run_serving(opt, out);
  } catch (std::exception const& ex) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 ex.what());
    return 1;
  }
  out.note("host", pb::host_stamp(opt));
  out.note("workload", pb::result::quote(opt.workload));
  out.print();
  return out.correct ? 0 : 1;
}
