#include "queries.hpp"

#include <atomic>
#include <chrono>
#include <thread>

#include "netbase/rng.hpp"
#include "serve/client.hpp"

namespace sixbench {

using namespace sixdust;
using serve::Op;

std::vector<Query> make_mix(const World& world, int date, std::uint64_t seed,
                            std::size_t n) {
  std::vector<KnownAddress> known;
  world.enumerate_known(ScanDate{date}, known);
  std::vector<Query> mix;
  if (known.empty()) return mix;
  mix.reserve(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const auto roll = rng.below(100);
    Query q;
    q.op = roll < 70 ? Op::kLookup
           : roll < 85 ? Op::kOrigin
           : roll < 95 ? Op::kAlias
                       : Op::kEpochInfo;
    q.addr = known[rng.below(known.size())].addr;
    mix.push_back(q);
  }
  return mix;
}

std::vector<std::uint8_t> request_of(const Query& q) {
  switch (q.op) {
    case Op::kLookup: return serve::request_lookup(q.addr);
    case Op::kOrigin: return serve::request_origin(q.addr);
    case Op::kAlias: return serve::request_alias(q.addr);
    default: return serve::request_epoch_info();
  }
}

namespace {

using Clock = std::chrono::steady_clock;

/// Answers kept per connection for checking; bounds the memory a long
/// refresh phase takes.
constexpr std::size_t kMaxKeptAnswers = 250000;

}  // namespace

LoadResult run_load(const serve::ListenSpec& spec,
                    const std::vector<Query>& mix, unsigned connections,
                    int until_epoch, bool keep_answers) {
  std::vector<LoadResult> per(connections);
  std::atomic<bool> reached{false};
  std::atomic<std::int64_t> reached_ns{0};
  const auto start = Clock::now();

  auto conn_main = [&](unsigned c) {
    LoadResult& out = per[c];
    serve::Client client;
    if (!client.connect(spec, 10000)) {
      ++out.attempted;
      ++out.dropped;
      return;
    }
    std::uint32_t last_epoch = serve::kNoEpoch;
    const bool cycle = until_epoch >= 0;
    for (std::size_t i = c;; i += connections) {
      if (i >= mix.size()) {
        if (!cycle || mix.size() <= c) break;
        i = c;
      }
      if (cycle && reached.load(std::memory_order_relaxed)) break;
      if (cycle && Clock::now() - start > std::chrono::seconds(120)) {
        ++out.attempted;
        ++out.dropped;  // the epoch never came
        break;
      }
      const Query& q = mix[i];
      const auto body = request_of(q);
      const auto t0 = Clock::now();
      auto resp = client.request(body);
      const auto t1 = Clock::now();
      ++out.attempted;
      if (!resp) {
        ++out.dropped;
        break;  // the protocol has no resync point
      }
      out.latency_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      if (resp->op == Op::kError) ++out.incoherent;
      if (resp->epoch != serve::kNoEpoch) {
        if (last_epoch != serve::kNoEpoch && resp->epoch < last_epoch)
          ++out.incoherent;
        last_epoch = resp->epoch;
        if (cycle && static_cast<int>(resp->epoch) >= until_epoch &&
            !reached.exchange(true))
          reached_ns.store(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - start)
                  .count());
      }
      if (q.op == Op::kLookup && resp->op == Op::kLookup) {
        ++out.lookups;
        if (resp->status == serve::Status::kOk) ++out.lookup_hits;
      }
      if (keep_answers && out.answers.size() < kMaxKeptAnswers)
        out.answers.push_back(Answer{q.op, q.addr, std::move(*resp)});
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (unsigned c = 0; c < connections; ++c) threads.emplace_back(conn_main, c);
  for (auto& t : threads) t.join();
  const auto end = Clock::now();

  LoadResult total;
  for (auto& r : per) {
    total.latency_ns.insert(total.latency_ns.end(), r.latency_ns.begin(),
                            r.latency_ns.end());
    for (auto& a : r.answers) total.answers.push_back(std::move(a));
    total.attempted += r.attempted;
    total.dropped += r.dropped;
    total.incoherent += r.incoherent;
    total.lookups += r.lookups;
    total.lookup_hits += r.lookup_hits;
  }
  total.seconds =
      until_epoch >= 0
          ? static_cast<double>(reached_ns.load()) * 1e-9
          : std::chrono::duration<double>(end - start).count();
  return total;
}

}  // namespace sixbench
