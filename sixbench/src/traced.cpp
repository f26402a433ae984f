// The traced run: per-layer numbers from timers in the benchmark's own
// code around calls into each layer's public functions.
//
// The service's step() is a black box from outside, so layers that only
// step() calls are replayed per scan on a second World built from the
// same seed, fed the exact inputs the step saw: the replay keeps its own
// InputDb (same sources, same traceroute feedback) and reads the
// service's exclusion state before each step. The service's world memo
// is never warmed by the replay. The replay must reach the same probe
// counts as the program's stable counters, scan by scan, or the run is
// marked incorrect.

#include <filesystem>

#include "checks.hpp"
#include "common.hpp"
#include "core/parallel.hpp"
#include "hitlist/archive.hpp"
#include "hitlist/input_db.hpp"
#include "hitlist/sources.hpp"
#include "netbase/hash.hpp"
#include "queries.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "serve/snapshot_manager.hpp"
#include "workloads.hpp"

namespace sixbench {

using namespace sixdust;

namespace {

/// Engine queries timed in-process against the final snapshot.
constexpr std::size_t kEngineQueries = 200000;

/// Wall and CPU seconds spent inside a set of timed calls.
struct Timer {
  double wall = 0, cpu = 0;
  template <typename Fn>
  auto operator()(Fn&& fn) {
    const double w0 = wall_now(), c0 = cpu_now();
    struct Stop {
      Timer* t;
      double w0, c0;
      ~Stop() {
        t->wall += wall_now() - w0;
        t->cpu += cpu_now() - c0;
      }
    } stop{this, w0, c0};
    return fn();
  }
};

/// The program's own step-level phase timers, read between steps.
struct Phases {
  std::uint64_t step = 0, inputs = 0, apd = 0, scan = 0, traceroute = 0;
  std::uint64_t apd_probes = 0, trace_probes = 0;
  std::array<std::uint64_t, kProtoCount> scan_probes{};

  explicit Phases(const MetricsRegistry& reg) {
    const auto s = reg.snapshot();
    step = s.counter_value("service.phase.step.wall_ns");
    inputs = s.counter_value("service.phase.inputs.wall_ns");
    apd = s.counter_value("service.phase.apd.wall_ns");
    scan = s.counter_value("service.phase.scan.wall_ns");
    traceroute = s.counter_value("service.phase.traceroute.wall_ns");
    apd_probes = s.counter_value("apd.probes_sent");
    trace_probes = s.counter_value("traceroute.probes_sent");
    for (Proto p : kAllProtos)
      scan_probes[static_cast<std::size_t>(proto_index(p))] =
          s.counter_value("scanner.probes_sent{proto=" + proto_token(p) + "}");
  }
};

/// The in-process work of the workload without any timer or replay:
/// the steps, plus publication and the archive round trip when the
/// workload publishes, plus the epoch freeze and publish when it serves.
double plain_round(const WorldConfig& wc, const HitlistService::Config& sc,
                   const BatchSpec& spec, bool serves) {
  const auto world = build_world(wc);
  HitlistService svc(sc);
  serve::SnapshotManager snaps;
  const double w0 = wall_now();
  for (int d = 0; d < spec.scans; ++d) {
    svc.step(*world, ScanDate{d});
    if (serves) snaps.publish(serve::freeze_epoch(svc, *world, d));
  }
  if (spec.publish) {
    (void)publish_outdir(svc, *world, "outdir");
    (void)ServiceArchive::save(svc, kWorldSeed, "traced.archive");
    (void)ServiceArchive::load(sc, kWorldSeed, "traced.archive");
  }
  return wall_now() - w0;
}

}  // namespace

int run_traced(const Options& o, const BatchSpec& spec) {
  const bool serves = o.workload == "serve";
  const WorldConfig wc =
      serves ? serve_world(spec.world_scale) : hitlist_world(spec.world_scale);
  const HitlistService::Config sc = service_config(spec.threads);
  std::filesystem::create_directories("outdir");
  Findings f;
  std::uint64_t attempted = 0;

  const double untraced_wall = plain_round(wc, sc, spec, serves);

  Timer topo_build;
  const auto world = topo_build([&] { return build_world(wc); });
  const auto replay_world = build_world(wc);
  HitlistService svc(sc);

  // Replay stages: the service's own stage configs, metrics into a
  // private registry, one shared pool as the service has.
  MetricsRegistry rreg;
  const auto pool = ThreadPool::create(sc.threads);
  AliasDetector::Config ac = sc.apd;
  ac.metrics = &rreg;
  AliasDetector apd(ac);
  Zmap6::Config zc = sc.scanner;
  zc.blocklist = &svc.blocklist();
  zc.metrics = &rreg;
  Zmap6 zmap(zc);
  Yarrp::Config yc = sc.traceroute;
  yc.metrics = &rreg;
  Yarrp yarrp(yc);
  apd.set_pool(pool);
  zmap.set_pool(pool);
  yarrp.set_pool(pool);
  GfwFilter gfw;
  gfw.set_metrics(&rreg);
  const SourceCollector sources(sc.sources);
  InputDb db;
  serve::SnapshotManager snaps;

  Timer candidates_t, probe_round_t, merge_t, scan_t, gfw_t, trace_t, freeze_t;
  std::vector<double> publish_us;
  // Like plain_round, the traced pass starts after the world builds.
  const double traced_start = wall_now();
  std::uint64_t alias_probes = 0, scan_probes = 0, trace_probes = 0;
  double step_s = 0, inputs_s = 0, apd_s = 0, scan_s = 0, traceroute_s = 0;
  // The final scan's probe stream, for topo.probe_ns.
  std::vector<Prefix> last_cands;
  std::vector<Ipv6> last_targets;

  for (int d = 0; d < spec.scans; ++d) {
    const ScanDate date{d};
    for (const auto& k : sources.collect(*replay_world, date))
      db.add(k.addr, k.tags, d, &svc.blocklist());
    std::vector<Ipv6> targets;
    for (std::size_t i = 0; i < db.size(); ++i)
      if (db.blocked_flags()[i] == 0 && !svc.excluded(db.addresses()[i]))
        targets.push_back(db.addresses()[i]);

    const Phases before(svc.metrics());
    svc.step(*world, date);
    const Phases after(svc.metrics());
    step_s += static_cast<double>(after.step - before.step) * 1e-9;
    inputs_s += static_cast<double>(after.inputs - before.inputs) * 1e-9;
    apd_s += static_cast<double>(after.apd - before.apd) * 1e-9;
    scan_s += static_cast<double>(after.scan - before.scan) * 1e-9;
    traceroute_s +=
        static_cast<double>(after.traceroute - before.traceroute) * 1e-9;

    const auto snap = freeze_t([&] { return serve::freeze_epoch(svc, *world, d); });
    const double p0 = wall_now();
    snaps.publish(snap);
    publish_us.push_back((wall_now() - p0) * 1e6);

    // Aliased-prefix detection, split at its public seams.
    const auto cands = candidates_t([&] {
      return AliasDetector::candidates(replay_world->rib(), targets, ac);
    });
    std::uint64_t probes = 0;
    auto round = probe_round_t([&] {
      std::vector<std::uint16_t> masks(cands.size());
      const std::size_t chunks = parallel_chunks(pool.get(), cands.size());
      std::vector<std::uint64_t> chunk_probes(chunks, 0);
      parallel_for(pool.get(), cands.size(), chunks,
                   [&](std::size_t c, std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; ++i)
                       masks[i] = apd.probe_candidate(*replay_world, cands[i],
                                                      date, &chunk_probes[c]);
                   });
      std::unordered_map<Prefix, std::uint16_t, PrefixHasher> r;
      r.reserve(cands.size());
      for (std::size_t i = 0; i < cands.size(); ++i) r[cands[i]] = masks[i];
      for (const auto c : chunk_probes) probes += c;
      return r;
    });
    const auto det = merge_t([&] {
      return apd.detect_from_round(std::move(round), cands.size(), probes, date);
    });
    alias_probes += probes;
    if (probes != after.apd_probes - before.apd_probes)
      f.fail("scan " + std::to_string(d) + ": replayed APD probes " +
             std::to_string(probes) + " != apd.probes_sent delta " +
             std::to_string(after.apd_probes - before.apd_probes));
    if (det.aliased != svc.aliased_per_scan()[static_cast<std::size_t>(d)])
      f.fail("scan " + std::to_string(d) + ": replayed aliased list differs");
    std::erase_if(targets, [&](const Ipv6& a) { return det.aliased_set.covers(a); });

    const auto results = scan_t([&] {
      return ordered_map<ScanResult>(pool.get(), kAllProtos.size(),
                                     [&](std::size_t i) {
                                       return zmap.scan(*replay_world, targets,
                                                        kAllProtos[i], date);
                                     });
    });
    for (Proto p : kAllProtos) {
      const auto i = static_cast<std::size_t>(proto_index(p));
      scan_probes += results[i].probes_sent;
      if (results[i].probes_sent != after.scan_probes[i] - before.scan_probes[i])
        f.fail("scan " + std::to_string(d) + ": replayed " + proto_name(p) +
               " probes differ from scanner.probes_sent");
    }
    const ScanResult& udp53 =
        results[static_cast<std::size_t>(proto_index(Proto::Udp53))];
    gfw_t([&] {
      if (d >= filter_from(sc))
        (void)gfw.filter_scan(udp53);
      else
        gfw.observe_scan(udp53);
    });

    const auto traces = trace_t([&] { return yarrp.trace(*replay_world, targets, date); });
    trace_probes += traces.probes_sent;
    if (traces.probes_sent != after.trace_probes - before.trace_probes)
      f.fail("scan " + std::to_string(d) +
             ": replayed traceroute probes differ from traceroute.probes_sent");
    for (const auto& hop : traces.responsive_hops)
      db.add(hop, kSrcTraceroute, d, &svc.blocklist());
    if (db.size() != svc.input().size())
      f.fail("scan " + std::to_string(d) + ": replayed input size differs");
    attempted += 5;  // step, freeze, detection, scans, traceroute
    if (d == spec.scans - 1) {
      last_cands = cands;
      last_targets = targets;
    }
  }

  // Publication and the archive round trip.
  Timer publish_t, save_t, load_t;
  const bool published =
      publish_t([&] { return publish_outdir(svc, *world, "outdir"); });
  const bool saved =
      save_t([&] { return ServiceArchive::save(svc, kWorldSeed, "traced.archive"); });
  const auto loaded =
      load_t([&] { return ServiceArchive::load(sc, kWorldSeed, "traced.archive"); });
  attempted += 3;
  if (!published || !saved || !loaded) f.fail("publication or archive failed");
  if (loaded) check_archive(published_of(svc), published_of(*loaded), f);
  const double archive_bytes =
      saved ? static_cast<double>(std::filesystem::file_size("traced.archive")) : 0;
  // Work that plain_round skips for this workload stays out of the
  // overhead comparison, though its per-layer metrics are reported.
  double traced_wall = wall_now() - traced_start;
  if (!serves) {
    for (const double us : publish_us) traced_wall -= us * 1e-6;
    traced_wall -= freeze_t.wall;
  }
  if (!spec.publish) traced_wall -= publish_t.wall + save_t.wall + load_t.wall;

  // World::probe over the final scan's probe stream, on a cold world:
  // APD's 16 sub-prefix targets per candidate, then every scan target for
  // each of the five protocols.
  const int last = spec.scans - 1;
  const auto probe_world = build_world(wc);
  std::vector<std::pair<Ipv6, Proto>> stream;
  const std::uint64_t salt = hash_combine(ac.seed, static_cast<std::uint64_t>(last));
  for (const auto& c : last_cands)
    for (unsigned i = 0; i < 16; ++i)
      stream.emplace_back(c.subprefix(i, 4).random_address(salt), Proto::Icmp);
  for (Proto p : kAllProtos)
    for (const auto& a : last_targets) stream.emplace_back(a, p);
  std::uint64_t answered = 0;
  const double probe0 = wall_now();
  for (const auto& [a, p] : stream) answered += probe_world->probe(a, p, ScanDate{last});
  const double probe_ns =
      (wall_now() - probe0) * 1e9 / static_cast<double>(std::max<std::size_t>(stream.size(), 1));

  // QueryEngine::handle on the final snapshot with the benchmark's mix.
  serve::QueryEngine engine(&snaps, nullptr);
  std::vector<std::vector<std::uint8_t>> bodies;
  for (const auto& q : make_mix(*replay_world, last, o.seed, kEngineQueries))
    bodies.push_back(request_of(q));
  std::size_t frame_bytes = 0;
  const double e0 = wall_now();
  for (const auto& b : bodies) frame_bytes += engine.handle(b).size();
  const double engine_ns =
      (wall_now() - e0) * 1e9 / static_cast<double>(std::max<std::size_t>(bodies.size(), 1));
  attempted += bodies.size();

  // The traced round must also publish correct data.
  const auto truth = build_world(wc);
  check_rows_truthful(*truth, svc.history().entries(), filter_from(sc), f);
  check_aliased(*truth, svc.aliased_per_scan(), f);
  const auto rsnap = rreg.snapshot();
  check_gfw_accounting(rsnap.counter_value("gfw.records_inspected"),
                       rsnap.counter_value("gfw.records_kept"),
                       rsnap.counter_value("gfw.records_dropped"), f);
  for (const auto& m : f.first) std::fprintf(stderr, "check failed: %s\n", m.c_str());
  std::fprintf(stderr, "probe stream %zu probes (%llu answered), %zu frame bytes\n",
               stream.size(), static_cast<unsigned long long>(answered), frame_bytes);

  const double fold_s = step_s - inputs_s - apd_s - scan_s - traceroute_s;
  const std::vector<Metric> m = {
      {"topo.build_s", topo_build.wall, "s"},
      {"topo.probe_ns", probe_ns, "ns"},
      {"alias.candidates_s", candidates_t.wall, "s"},
      {"alias.probe_round_s", probe_round_t.wall, "s"},
      {"alias.merge_s", merge_t.wall, "s"},
      {"alias.cpu_s", candidates_t.cpu + probe_round_t.cpu + merge_t.cpu, "s"},
      {"alias.probes", static_cast<double>(alias_probes), "count"},
      {"scanner.scan_s", scan_t.wall, "s"},
      {"scanner.cpu_s", scan_t.cpu, "s"},
      {"scanner.probes", static_cast<double>(scan_probes), "count"},
      {"gfw.filter_s", gfw_t.wall, "s"},
      {"gfw.records_inspected",
       static_cast<double>(rsnap.counter_value("gfw.records_inspected")), "count"},
      {"traceroute.trace_s", trace_t.wall, "s"},
      {"traceroute.cpu_s", trace_t.cpu, "s"},
      {"traceroute.probes", static_cast<double>(trace_probes), "count"},
      {"hitlist.inputs_s", inputs_s, "s"},
      {"hitlist.fold_s", fold_s, "s"},
      {"hitlist.archive_save_s", save_t.wall, "s"},
      {"hitlist.archive_load_s", load_t.wall, "s"},
      {"hitlist.archive_bytes", archive_bytes, "bytes"},
      {"analysis.publish_s", publish_t.wall, "s"},
      {"serve.freeze_s", freeze_t.wall, "s"},
      {"serve.publish_us", median(publish_us), "us"},
      {"serve.engine_ns", engine_ns, "ns"},
      {"service.phase.step_s", step_s, "s"},
      {"service.phase.apd_s", apd_s, "s"},
      {"service.phase.scan_s", scan_s, "s"},
      {"service.phase.traceroute_s", traceroute_s, "s"},
      {"trace.untraced_wall_s", untraced_wall, "s"},
      {"trace.traced_wall_s", traced_wall, "s"},
      {"trace.overhead_pct", 100.0 * (traced_wall / untraced_wall - 1.0), "%"},
  };
  print_result(f.ok(), attempted, 0, m);
  return 0;
}

}  // namespace sixbench
