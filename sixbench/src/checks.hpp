#pragma once

// Correctness checks of the benchmark. Each one compares what the program
// published against ground truth that the benchmark derives on its own
// (a separately built World, its own Rib lookups), never against the
// program's own view of itself.

#include <climits>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hitlist/history.hpp"
#include "hitlist/service.hpp"
#include "netbase/prefix.hpp"
#include "serve/protocol.hpp"
#include "topo/world.hpp"

namespace sixbench {

/// Failed checks of one run; the run is correct when none fired.
struct Findings {
  std::uint64_t count = 0;
  std::vector<std::string> first;  // the first few messages, for stderr

  void fail(std::string what);
  [[nodiscard]] bool ok() const { return count == 0; }
};

/// First scan whose UDP/53 output passed the GFW filter; scans before it
/// are in published mode, where GFW injections count as responses.
[[nodiscard]] int filter_from(const sixdust::HitlistService::Config& cfg);

/// Every (address, protocol) recorded as responsive is responsive in
/// ground truth on that scan's date. Exempt: UDP/53 of an address behind
/// the GFW in published mode, and every UDP/53 bit from `filter_from` on
/// (check_filtered_udp53 covers those).
void check_rows_truthful(const sixdust::World& truth,
                         std::span<const sixdust::History::Entry> entries,
                         int filter_from, Findings& f);

/// From `filter_from` on, no kept UDP/53 row is silent in ground truth.
void check_filtered_udp53(const sixdust::World& truth,
                          std::span<const sixdust::History::Entry> entries,
                          int filter_from, Findings& f);

/// A sample of the addresses one scan probed: taken from
/// eligible_targets() before the step (every one of them is scanned),
/// before the alias filter.
struct ScannedSample {
  int scan = 0;
  std::vector<sixdust::Ipv6> targets;
};

/// Keep about one address in `den` of `eligible`, chosen by a salted hash.
[[nodiscard]] std::vector<sixdust::Ipv6> sample_targets(
    const std::vector<sixdust::Ipv6>& eligible, std::uint64_t salt,
    unsigned den);

/// Sampled targets that ground truth says answer a protocol, minus those
/// the scan recorded, stay within what per-probe `loss` with `retries`
/// retransmissions explains. Targets covered by that scan's aliased
/// prefixes were not scanned and are skipped, as is UDP/53 behind the GFW
/// once the filter runs (the filter drops injected-and-genuine answers).
void check_missed(const sixdust::World& truth,
                  std::span<const ScannedSample> samples,
                  std::span<const sixdust::History::Entry> entries,
                  const std::vector<std::vector<sixdust::Prefix>>& aliased,
                  int filter_from, double loss, int retries, Findings& f);

/// Every aliased prefix lies inside a fully_responsive() deployment.
void check_aliased(const sixdust::World& truth,
                   const std::vector<std::vector<sixdust::Prefix>>& aliased,
                   Findings& f);

/// The GFW filter accounted for every record it inspected.
void check_gfw_accounting(std::uint64_t inspected, std::uint64_t kept,
                          std::uint64_t dropped, Findings& f);

/// What a service publishes, as the archive round trip must keep it.
struct Published {
  std::vector<sixdust::History::Counts> counts;  // per scan
  std::vector<std::vector<sixdust::Prefix>> aliased;
  std::size_t taint = 0;
  std::vector<sixdust::Ipv6> pool;
};

[[nodiscard]] Published published_of(const sixdust::HitlistService& s);

/// The loaded archive reproduces the live service's per-scan counts,
/// aliased lists, taint count and exclusion pool.
void check_archive(const Published& live, const Published& loaded,
                   Findings& f);

/// One answered query, kept for checking after the load ends.
struct Answer {
  sixdust::serve::Op op = sixdust::serve::Op::kLookup;
  sixdust::Ipv6 addr;
  sixdust::serve::Response resp;
};

/// Origin answers equal the benchmark's own Rib lookup; every protocol
/// bit of a lookup hit is responsive in ground truth on the answering
/// epoch's date, or is UDP/53 of an address behind the GFW. Sorts
/// `answers` by epoch.
void check_answers(const sixdust::World& truth, std::vector<Answer>& answers,
                   Findings& f);

}  // namespace sixbench
