#pragma once

// The three workloads and the traced run. Every workload runs whole
// rounds of the same work until --seconds have passed (at least one), and
// reports the median over its rounds. Set-up is timed cold: for batch and
// timeline as the median of several fresh sixbench_setup processes, for
// the daemon as the median of its launches, a fresh one each round.

#include <cstdint>
#include <string>

#include "hitlist/service.hpp"
#include "topo/world_builder.hpp"

namespace sixbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_bin;  // the sixdust-serve executable
  std::string setup_bin;  // sixbench_setup, for cold set-ups
};

/// The two in-process workloads, as sixdust-hitlist runs them.
struct BatchSpec {
  double world_scale = 1.0;
  int scans = 12;
  unsigned threads = 1;
  /// Publish the data files and report, and round-trip the archive.
  bool publish = false;
};

inline constexpr BatchSpec kBatch{1.0, 12, 1, false};
inline constexpr BatchSpec kTimeline{0.1, 46, 4, true};
/// The daemon runs the batch world: 12 epochs at scale 1, threads 1.
inline constexpr BatchSpec kServe{1.0, 12, 1, false};
inline constexpr std::uint64_t kWorldSeed = 42;

/// World of `sixdust-hitlist --world-seed 42 --world-scale X` (which
/// sets 200 tail ASes).
[[nodiscard]] sixdust::WorldConfig hitlist_world(double scale);
/// World of `sixdust-serve --world-seed 42 --world-scale X` (which keeps
/// the WorldConfig default of 2000 tail ASes).
[[nodiscard]] sixdust::WorldConfig serve_world(double scale);
[[nodiscard]] sixdust::HitlistService::Config service_config(unsigned threads);

/// Write what `sixdust-hitlist --outdir DIR` publishes. False on IO error.
bool publish_outdir(const sixdust::HitlistService& s,
                    const sixdust::World& world, const std::string& dir);

/// Each returns the process exit code after printing the result line.
int run_inprocess(const Options& o, const BatchSpec& spec);
int run_serve(const Options& o);
int run_traced(const Options& o, const BatchSpec& spec);

}  // namespace sixbench
