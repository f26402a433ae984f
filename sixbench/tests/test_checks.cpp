// Each correctness check of the benchmark passes on a real run and fails
// on a deliberately corrupted copy of what it reads.

#include <gtest/gtest.h>

#include <filesystem>

#include "checks.hpp"
#include "hitlist/archive.hpp"
#include "queries.hpp"
#include "serve/snapshot.hpp"
#include "serve/snapshot_manager.hpp"
#include "topo/deployment.hpp"
#include "workloads.hpp"

namespace sixbench {
namespace {

using namespace sixdust;

constexpr int kScans = 6;
constexpr int kFilterFrom = 3;

/// A short run at test scale with the GFW filter deployed from scan 3, so
/// both published-mode and filtered scans exist, plus a truth world.
class ChecksTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto wc = hitlist_world(0.1);
    world_ = build_world(wc).release();
    truth_ = build_world(wc).release();
    auto cfg = service_config(1);
    cfg.gfw_filter_from_scan = kFilterFrom;
    svc_ = new HitlistService(cfg);
    samples_ = new std::vector<ScannedSample>;
    for (int d = 0; d < kScans; ++d) {
      samples_->push_back({d, sample_targets(svc_->eligible_targets(), 1, 1)});
      svc_->step(*world_, ScanDate{d});
    }
  }
  static void TearDownTestSuite() {
    delete samples_;
    delete svc_;
    delete truth_;
    delete world_;
  }

  static std::vector<History::Entry> entries() {
    return svc_->history().entries();
  }

  /// A row of scan `scan` and a protocol that truth says is silent there.
  static std::pair<std::size_t, Proto> silent_bit(
      const std::vector<History::Entry>& es, int scan, bool want_udp53) {
    const auto& rows = es[static_cast<std::size_t>(scan)].responsive;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto h = truth_->truth_host(rows[i].first, ScanDate{scan});
      const ProtoMask t = h ? h->responsive : ProtoMask{0};
      for (Proto p : kAllProtos) {
        if ((p == Proto::Udp53) != want_udp53 || mask_has(t, p)) continue;
        if (p == Proto::Udp53 && truth_->behind_gfw(rows[i].first)) continue;
        return {i, p};
      }
    }
    ADD_FAILURE() << "no silent protocol bit in scan " << scan;
    return {0, Proto::Icmp};
  }

  static inline World* world_ = nullptr;
  static inline World* truth_ = nullptr;
  static inline HitlistService* svc_ = nullptr;
  static inline std::vector<ScannedSample>* samples_ = nullptr;
};

TEST_F(ChecksTest, RealRunPassesEveryCheck) {
  Findings f;
  const auto es = entries();
  check_rows_truthful(*truth_, es, kFilterFrom, f);
  check_filtered_udp53(*truth_, es, kFilterFrom, f);
  check_missed(*truth_, *samples_, es, svc_->aliased_per_scan(), kFilterFrom,
               0.01, 1, f);
  check_aliased(*truth_, svc_->aliased_per_scan(), f);
  const auto snap = svc_->metrics().snapshot();
  ASSERT_GT(snap.counter_value("gfw.records_inspected"), 0u);
  check_gfw_accounting(snap.counter_value("gfw.records_inspected"),
                       snap.counter_value("gfw.records_kept"),
                       snap.counter_value("gfw.records_dropped"), f);
  EXPECT_TRUE(f.ok()) << (f.first.empty() ? "" : f.first.front());
}

TEST_F(ChecksTest, OneFlippedProtocolBitFailsRowCheck) {
  auto es = entries();
  const auto [row, p] = silent_bit(es, 1, false);
  es[1].responsive[row].second |= proto_bit(p);
  Findings f;
  check_rows_truthful(*truth_, es, kFilterFrom, f);
  EXPECT_EQ(f.count, 1u);
}

TEST_F(ChecksTest, SilentUdp53AfterFilterFailsFilterCheck) {
  auto es = entries();
  const auto [row, p] = silent_bit(es, kFilterFrom + 1, true);
  es[kFilterFrom + 1].responsive[row].second |= proto_bit(p);
  Findings rows, filtered;
  check_rows_truthful(*truth_, es, kFilterFrom, rows);
  check_filtered_udp53(*truth_, es, kFilterFrom, filtered);
  EXPECT_TRUE(rows.ok());  // exempt there: this check owns the case
  EXPECT_EQ(filtered.count, 1u);
}

TEST_F(ChecksTest, DroppedRowsFailMissedCheck) {
  auto es = entries();
  // Lose the recorded rows of one scan: far beyond what 1 % loss explains.
  es[2].responsive.clear();
  Findings f;
  check_missed(*truth_, *samples_, es, svc_->aliased_per_scan(), kFilterFrom,
               0.01, 1, f);
  EXPECT_EQ(f.count, 1u);
}

TEST_F(ChecksTest, OneExtraAliasedPrefixFailsAliasCheck) {
  auto aliased = svc_->aliased_per_scan();
  // The /64 of a responsive host outside every fully responsive deployment.
  for (const auto& [a, mask] : entries()[2].responsive) {
    const Deployment* dep = truth_->deployment_of(a);
    if (dep != nullptr && !dep->fully_responsive()) {
      aliased[2].push_back(Prefix::make(a, 64));
      break;
    }
  }
  Findings f;
  check_aliased(*truth_, aliased, f);
  EXPECT_EQ(f.count, 1u);
}

TEST_F(ChecksTest, GfwAccountingCountsEveryRecord) {
  Findings ok, off;
  check_gfw_accounting(10, 7, 3, ok);
  check_gfw_accounting(11, 7, 3, off);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(off.count, 1u);
}

TEST_F(ChecksTest, ArchiveRoundTripPassesAndCorruptionsFail) {
  const std::string path = "test_checks.archive";
  ASSERT_TRUE(ServiceArchive::save(*svc_, kWorldSeed, path));
  const auto loaded = ServiceArchive::load(svc_->config(), kWorldSeed, path);
  std::filesystem::remove(path);
  ASSERT_NE(loaded, nullptr);
  const Published live = published_of(*svc_);
  Findings f;
  check_archive(live, published_of(*loaded), f);
  EXPECT_TRUE(f.ok());

  auto extra_prefix = published_of(*loaded);
  extra_prefix.aliased.back().push_back(Prefix::make(Ipv6::from_words(0x20010db8ULL << 32, 0), 64));
  auto lost_count = published_of(*loaded);
  lost_count.counts[1].any -= 1;
  auto taint = published_of(*loaded);
  taint.taint += 1;
  auto pool = published_of(*loaded);
  ASSERT_FALSE(pool.pool.empty());
  pool.pool.pop_back();
  for (const auto* bad : {&extra_prefix, &lost_count, &taint, &pool}) {
    Findings g;
    check_archive(live, *bad, g);
    EXPECT_EQ(g.count, 1u);
  }
}

TEST_F(ChecksTest, WrongOriginOrLookupAnswerFails) {
  serve::SnapshotManager snaps;
  snaps.publish(serve::freeze_epoch(*svc_, *world_, kScans - 1));
  const serve::QueryEngine engine(&snaps, nullptr);
  std::vector<Answer> answers;
  for (const auto& q : make_mix(*truth_, kScans - 1, 3, 4000)) {
    if (q.op != serve::Op::kOrigin && q.op != serve::Op::kLookup) continue;
    const auto body = q.op == serve::Op::kOrigin ? serve::request_origin(q.addr)
                                                 : serve::request_lookup(q.addr);
    const auto frame = engine.handle(body);
    auto resp = serve::parse_response(std::span(frame).subspan(4));
    ASSERT_TRUE(resp.has_value());
    answers.push_back(Answer{q.op, q.addr, std::move(*resp)});
  }
  Findings f;
  auto clean = answers;
  check_answers(*truth_, clean, f);
  EXPECT_TRUE(f.ok()) << (f.first.empty() ? "" : f.first.front());

  auto wrong_origin = answers;
  bool corrupted = false;
  for (auto& a : wrong_origin)
    if (!corrupted && a.op == serve::Op::kOrigin &&
        a.resp.status == serve::Status::kOk) {
      a.resp.payload[17] ^= 1;  // the origin ASN's low byte
      corrupted = true;
    }
  ASSERT_TRUE(corrupted);
  Findings g;
  check_answers(*truth_, wrong_origin, g);
  EXPECT_EQ(g.count, 1u);

  // A lookup hit claiming a protocol that truth says is silent.
  auto wrong_mask = answers;
  corrupted = false;
  for (auto& a : wrong_mask) {
    if (corrupted || a.op != serve::Op::kLookup ||
        a.resp.status != serve::Status::kOk)
      continue;
    const auto h = truth_->truth_host(a.addr, ScanDate{kScans - 1});
    for (Proto p : {Proto::Icmp, Proto::Tcp80, Proto::Tcp443, Proto::Udp443})
      if (!corrupted && !(h && mask_has(h->responsive, p))) {
        a.resp.payload[0] |= proto_bit(p);
        corrupted = true;
      }
  }
  ASSERT_TRUE(corrupted);
  Findings m;
  check_answers(*truth_, wrong_mask, m);
  EXPECT_EQ(m.count, 1u);
}

// The timeline workload runs at threads 4; its stable export must equal
// the sequential run's, or the benchmark would time a different
// computation than threads 1 performs.
TEST(TimelineThreads, StableMetricsAtFourThreadsEqualOneThread) {
  const auto wc = hitlist_world(kTimeline.world_scale);
  std::string exports[2];
  for (int i = 0; i < 2; ++i) {
    const auto world = build_world(wc);
    HitlistService svc(service_config(i == 0 ? 1 : kTimeline.threads));
    for (int d = 0; d < kTimeline.scans; ++d) svc.step(*world, ScanDate{d});
    exports[i] = svc.metrics().snapshot().to_json(/*include_volatile=*/false);
  }
  EXPECT_FALSE(exports[0].empty());
  EXPECT_EQ(exports[0], exports[1]);
}

}  // namespace
}  // namespace sixbench
