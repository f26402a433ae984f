// sixbench_setup: one cold set-up of an in-process workload, the world
// build plus service construction as the first work of a fresh process.
// Prints its wall seconds. sixbench runs it several times per run and
// reports the median as setup_s.
//
//   sixbench_setup batch|timeline

#include <cstdio>
#include <cstring>
#include <memory>

#include "common.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  const sixbench::BatchSpec* spec = nullptr;
  if (argc == 2 && std::strcmp(argv[1], "batch") == 0) spec = &sixbench::kBatch;
  if (argc == 2 && std::strcmp(argv[1], "timeline") == 0) spec = &sixbench::kTimeline;
  if (spec == nullptr) {
    std::fprintf(stderr, "usage: sixbench_setup batch|timeline\n");
    return 2;
  }
  const auto wc = sixbench::hitlist_world(spec->world_scale);
  const auto sc = sixbench::service_config(spec->threads);
  const double t0 = sixbench::wall_now();
  const auto world = sixdust::build_world(wc);
  const auto svc = std::make_unique<sixdust::HitlistService>(sc);
  std::printf("%.9f\n", sixbench::wall_now() - t0);
  return 0;
}
