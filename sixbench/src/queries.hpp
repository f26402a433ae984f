#pragma once

// The benchmark's own closed-loop client of the sixdust-serve protocol.

#include <cstdint>
#include <vector>

#include "checks.hpp"
#include "serve/server.hpp"
#include "topo/world.hpp"

namespace sixbench {

struct Query {
  sixdust::serve::Op op = sixdust::serve::Op::kLookup;
  sixdust::Ipv6 addr;
};

/// Seeded query mix: 70 % lookup, 15 % origin, 10 % alias, 5 % epoch-info.
/// Addresses are drawn uniformly from what the world's public sources
/// expose on scan `date` (World::enumerate_known), so lookups hit the
/// hitlist at a fixed rate instead of probing empty address space.
[[nodiscard]] std::vector<Query> make_mix(const sixdust::World& world,
                                          int date, std::uint64_t seed,
                                          std::size_t n);

/// The request body of one query.
[[nodiscard]] std::vector<std::uint8_t> request_of(const Query& q);

struct LoadResult {
  std::vector<std::uint64_t> latency_ns;  // one per answered query
  std::vector<Answer> answers;            // when kept
  std::uint64_t attempted = 0;
  std::uint64_t dropped = 0;     // transport failure or unparsable frame
  std::uint64_t incoherent = 0;  // error frame, or the epoch went backwards
  std::uint64_t lookups = 0;
  std::uint64_t lookup_hits = 0;
  double seconds = 0;  // first send to last answer
};

/// Closed loop: `connections` clients, one thread and one connection each,
/// one request in flight per connection. Connection c sends queries
/// c, c + connections, ... of `mix`. With `until_epoch` < 0 every query
/// is sent once; otherwise each connection cycles through its share until
/// any answer is stamped with `until_epoch`.
[[nodiscard]] LoadResult run_load(const sixdust::serve::ListenSpec& spec,
                                  const std::vector<Query>& mix,
                                  unsigned connections, int until_epoch,
                                  bool keep_answers);

}  // namespace sixbench
