// sixbench: end-to-end benchmark of sixdust. Run it through run.py, which
// builds the program and this binary first:
//
//   python3 sixbench/run.py --workload batch|timeline|serve --seed N
//       --seconds S --trace 0|1
//
// Writes scratch files into the current directory and prints one JSON
// result line last on stdout (see README.md).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sixbench: %s\nusage: sixbench --workload batch|timeline|serve"
               " --seed N --seconds S --trace 0|1 --serve-bin PATH"
               " --setup-bin PATH\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  sixbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || o.seconds <= 0) usage("bad --seconds");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("bad --trace");
      o.trace = val == "1";
    } else if (key == "--serve-bin") {
      o.serve_bin = val;
    } else if (key == "--setup-bin") {
      o.setup_bin = val;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }

  const sixbench::BatchSpec* spec = nullptr;
  if (o.workload == "batch") spec = &sixbench::kBatch;
  if (o.workload == "timeline") spec = &sixbench::kTimeline;
  if (o.workload == "serve") spec = &sixbench::kServe;
  if (spec == nullptr) usage("unknown workload");

  if (o.trace) return sixbench::run_traced(o, *spec);
  if (o.workload == "serve") {
    if (o.serve_bin.empty()) usage("serve needs --serve-bin");
    return sixbench::run_serve(o);
  }
  if (o.setup_bin.empty()) usage("batch and timeline need --setup-bin");
  return sixbench::run_inprocess(o, *spec);
}
