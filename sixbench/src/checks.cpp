#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "netbase/hash.hpp"
#include "netbase/prefix_set.hpp"
#include "topo/deployment.hpp"

namespace sixbench {

using namespace sixdust;

void Findings::fail(std::string what) {
  ++count;
  if (first.size() < 8) first.push_back(std::move(what));
}

int filter_from(const HitlistService::Config& cfg) {
  return cfg.enable_gfw_filter ? cfg.gfw_filter_from_scan : INT_MAX;
}

namespace {

std::string row_str(const Ipv6& a, Proto p, int scan) {
  return a.str() + " " + proto_name(p) + " scan " + std::to_string(scan);
}

ProtoMask truth_mask(const World& truth, const Ipv6& a, int scan) {
  const auto h = truth.truth_host(a, ScanDate{scan});
  return h ? h->responsive : ProtoMask{0};
}

}  // namespace

void check_rows_truthful(const World& truth,
                         std::span<const History::Entry> entries,
                         int filter_from, Findings& f) {
  for (const auto& e : entries) {
    for (const auto& [a, mask] : e.responsive) {
      const ProtoMask t = truth_mask(truth, a, e.scan_index);
      for (Proto p : kAllProtos) {
        if (!mask_has(mask, p) || mask_has(t, p)) continue;
        if (p == Proto::Udp53 &&
            (e.scan_index >= filter_from || truth.behind_gfw(a)))
          continue;
        f.fail("recorded responsive but silent in truth: " +
               row_str(a, p, e.scan_index));
      }
    }
  }
}

void check_filtered_udp53(const World& truth,
                          std::span<const History::Entry> entries,
                          int filter_from, Findings& f) {
  for (const auto& e : entries) {
    if (e.scan_index < filter_from) continue;
    for (const auto& [a, mask] : e.responsive) {
      if (!mask_has(mask, Proto::Udp53)) continue;
      if (!mask_has(truth_mask(truth, a, e.scan_index), Proto::Udp53))
        f.fail("kept UDP/53 row after the GFW filter is silent in truth: " +
               row_str(a, Proto::Udp53, e.scan_index));
    }
  }
}

std::vector<Ipv6> sample_targets(const std::vector<Ipv6>& eligible,
                                 std::uint64_t salt, unsigned den) {
  std::vector<Ipv6> out;
  for (const auto& a : eligible)
    if (hash_of(a, salt) % den == 0) out.push_back(a);
  return out;
}

void check_missed(const World& truth, std::span<const ScannedSample> samples,
                  std::span<const History::Entry> entries,
                  const std::vector<std::vector<Prefix>>& aliased,
                  int filter_from, double loss, int retries, Findings& f) {
  std::uint64_t true_pairs = 0;
  std::uint64_t missed = 0;
  for (const auto& s : samples) {
    const History::Entry* entry = nullptr;
    for (const auto& e : entries)
      if (e.scan_index == s.scan) entry = &e;
    if (entry == nullptr ||
        s.scan >= static_cast<int>(aliased.size())) {
      f.fail("no recorded scan " + std::to_string(s.scan));
      continue;
    }
    PrefixSet covered;
    for (const auto& p : aliased[static_cast<std::size_t>(s.scan)])
      covered.add(p);
    for (const auto& a : s.targets) {
      if (covered.covers(a)) continue;
      const ProtoMask t = truth_mask(truth, a, s.scan);
      if (t == 0) continue;
      const auto it = std::lower_bound(
          entry->responsive.begin(), entry->responsive.end(), a,
          [](const auto& row, const Ipv6& x) { return row.first < x; });
      const ProtoMask got =
          it != entry->responsive.end() && it->first == a ? it->second : 0;
      for (Proto p : kAllProtos) {
        if (!mask_has(t, p)) continue;
        if (p == Proto::Udp53 && s.scan >= filter_from && truth.behind_gfw(a))
          continue;
        ++true_pairs;
        if (!mask_has(got, p)) ++missed;
      }
    }
  }
  // Every attempt is lost independently with probability `loss`; allow
  // the expectation plus a wide Poisson margin.
  const double expected =
      static_cast<double>(true_pairs) * std::pow(loss, retries + 1);
  const double allowed = expected + 5.0 * std::sqrt(expected) + 5.0;
  if (static_cast<double>(missed) > allowed)
    f.fail("missed " + std::to_string(missed) + " of " +
           std::to_string(true_pairs) +
           " true (target, protocol) pairs; loss explains at most " +
           std::to_string(allowed));
}

void check_aliased(const World& truth,
                   const std::vector<std::vector<Prefix>>& aliased,
                   Findings& f) {
  for (std::size_t scan = 0; scan < aliased.size(); ++scan) {
    for (const auto& p : aliased[scan]) {
      const Deployment* dep = truth.deployment_of(p.base());
      bool inside = false;
      if (dep != nullptr && dep->fully_responsive())
        for (const auto& dp : dep->prefixes())
          if (dp.contains(p)) inside = true;
      if (!inside)
        f.fail("aliased prefix " + p.str() + " at scan " +
               std::to_string(scan) +
               " is not inside a fully responsive deployment");
    }
  }
}

void check_gfw_accounting(std::uint64_t inspected, std::uint64_t kept,
                          std::uint64_t dropped, Findings& f) {
  if (inspected != kept + dropped)
    f.fail("gfw.records_inspected " + std::to_string(inspected) +
           " != kept " + std::to_string(kept) + " + dropped " +
           std::to_string(dropped));
}

Published published_of(const HitlistService& s) {
  Published p;
  for (const auto& e : s.history().entries())
    p.counts.push_back(s.history().counts(e.scan_index));
  p.aliased = s.aliased_per_scan();
  p.taint = s.gfw().tainted_count();
  p.pool = s.unresponsive_pool();
  return p;
}

void check_archive(const Published& live, const Published& loaded,
                   Findings& f) {
  bool counts_equal = live.counts.size() == loaded.counts.size();
  for (std::size_t i = 0; counts_equal && i < live.counts.size(); ++i)
    counts_equal = live.counts[i].any == loaded.counts[i].any &&
                   live.counts[i].per_proto == loaded.counts[i].per_proto;
  if (!counts_equal) f.fail("archive: per-scan counts differ");
  if (live.aliased != loaded.aliased) f.fail("archive: aliased lists differ");
  if (live.taint != loaded.taint)
    f.fail("archive: taint count " + std::to_string(loaded.taint) +
           " != live " + std::to_string(live.taint));
  if (live.pool != loaded.pool) f.fail("archive: exclusion pool differs");
}

void check_answers(const World& truth, std::vector<Answer>& answers,
                   Findings& f) {
  using serve::Op;
  using serve::Status;
  // Group by epoch so the truth world's per-date memo rolls once per date.
  std::stable_sort(answers.begin(), answers.end(),
                   [](const Answer& x, const Answer& y) {
                     return x.resp.epoch < y.resp.epoch;
                   });
  for (const auto& ans : answers) {
    const auto& r = ans.resp;
    if (r.op != ans.op) {
      f.fail("response op does not match request for " + ans.addr.str());
      continue;
    }
    if (ans.op == Op::kOrigin && r.status != Status::kNoSnapshot) {
      const auto route = truth.rib().route(ans.addr);
      if (r.status == Status::kNotFound) {
        if (route) f.fail("origin of " + ans.addr.str() + " not found");
        continue;
      }
      if (!route || r.payload.size() != 21 ||
          serve::get_addr(r.payload.data()) != route->prefix.base() ||
          r.payload[16] != route->prefix.len() ||
          serve::get_u32(r.payload.data() + 17) != route->origin)
        f.fail("wrong origin answer for " + ans.addr.str());
    }
    if (ans.op == Op::kLookup && r.status == Status::kOk) {
      if (r.payload.size() != 1) {
        f.fail("lookup hit without a mask for " + ans.addr.str());
        continue;
      }
      const int scan = static_cast<int>(r.epoch);
      const ProtoMask t = truth_mask(truth, ans.addr, scan);
      for (Proto p : kAllProtos) {
        if (!mask_has(r.payload[0], p) || mask_has(t, p)) continue;
        if (p == Proto::Udp53 && truth.behind_gfw(ans.addr)) continue;
        f.fail("lookup answered a silent protocol: " +
               row_str(ans.addr, p, scan));
      }
    }
  }
}

}  // namespace sixbench
