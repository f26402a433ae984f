#include "workloads.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "hitlist/archive.hpp"
#include "hitlist/report_gen.hpp"
#include "netbase/addrio.hpp"
#include "queries.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/snapshot_manager.hpp"

extern char** environ;

namespace sixbench {

using namespace sixdust;

namespace {

/// Queries per round against the final epoch: the daemon's steady phase,
/// or a finished in-process run's last epoch served the same way.
constexpr std::size_t kQueriesPerRound = 200000;
constexpr unsigned kConnections = 2;
/// One sampled target in this many feeds the missed-responder check.
constexpr unsigned kSampleDen = 16;

void report_findings(const Findings& f) {
  for (const auto& m : f.first) std::fprintf(stderr, "check failed: %s\n", m.c_str());
  if (f.count > f.first.size())
    std::fprintf(stderr, "... %llu failed checks in all\n",
                 static_cast<unsigned long long>(f.count));
}

/// Checks on one finished in-process round's service state.
void check_service(const World& truth, const HitlistService& svc,
                   const std::vector<ScannedSample>& samples, Findings& f) {
  const auto& entries = svc.history().entries();
  const int from = filter_from(svc.config());
  check_rows_truthful(truth, entries, from, f);
  check_filtered_udp53(truth, entries, from, f);
  check_missed(truth, samples, entries, svc.aliased_per_scan(), from,
               svc.config().scanner.loss, svc.config().scanner.retries, f);
  check_aliased(truth, svc.aliased_per_scan(), f);
  const auto snap = svc.metrics().snapshot();
  check_gfw_accounting(snap.counter_value("gfw.records_inspected"),
                       snap.counter_value("gfw.records_kept"),
                       snap.counter_value("gfw.records_dropped"), f);
}

/// Serve the final epoch of a finished run in-process, as the daemon
/// serves it after its last epoch, and drive the query mix against it.
LoadResult query_final_epoch(const HitlistService& svc, const World& world,
                             int last, const std::vector<Query>& mix,
                             bool keep_answers) {
  serve::SnapshotManager snaps;
  snaps.publish(serve::freeze_epoch(svc, world, last));
  serve::Server::Config cfg;
  cfg.listen = *serve::parse_listen_spec("unix:query.sock");
  cfg.readers = 2;
  cfg.pool = svc.pool();
  std::filesystem::remove("query.sock");
  serve::Server server(cfg, &snaps);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "cannot serve the final epoch: %s\n", error.c_str());
    LoadResult r;
    r.attempted = r.dropped = 1;
    return r;
  }
  LoadResult r = run_load(cfg.listen, mix, kConnections, -1, keep_answers);
  server.stop();
  return r;
}

/// Cold set-ups per batch or timeline run; setup_s is their median. One
/// set-up takes about a millisecond, so a single one mostly measures the
/// host's scheduling.
constexpr int kColdSetups = 9;

/// Wall seconds of one cold set-up, timed inside a fresh sixbench_setup
/// process; negative if that process fails.
double cold_setup_s(const std::string& bin, const std::string& workload) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  std::vector<char*> args = {const_cast<char*>(bin.c_str()),
                             const_cast<char*>(workload.c_str()), nullptr};
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, bin.c_str(), &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  std::string out;
  char buf[64];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
    else if (n == 0 || errno != EINTR) break;
  }
  close(fds[0]);
  if (rc != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty()) return -1;
  return std::strtod(out.c_str(), nullptr);
}

/// Per-round query figures; each metric is the median over rounds.
struct QueryRounds {
  std::vector<double> qps, p50_us, p99_us;

  void add(const LoadResult& load) {
    qps.push_back(static_cast<double>(load.latency_ns.size()) / load.seconds);
    p50_us.push_back(quantile(load.latency_ns, 0.50) / 1000.0);
    p99_us.push_back(quantile(load.latency_ns, 0.99) / 1000.0);
  }
  void append_to(std::vector<Metric>& m) const {
    m.push_back({"serve_qps", median(qps), "queries/s"});
    m.push_back({"query_p50_us", median(p50_us), "us"});
    m.push_back({"query_p99_us", median(p99_us), "us"});
  }
};

}  // namespace

WorldConfig hitlist_world(double scale) {
  WorldConfig wc;
  wc.seed = kWorldSeed;
  wc.scale = scale;
  wc.tail_as_count = 200;
  return wc;
}

WorldConfig serve_world(double scale) {
  WorldConfig wc;
  wc.seed = kWorldSeed;
  wc.scale = scale;
  return wc;
}

HitlistService::Config service_config(unsigned threads) {
  HitlistService::Config sc;
  sc.threads = threads;
  return sc;
}

bool publish_outdir(const HitlistService& s, const World& world,
                    const std::string& dir) {
  const auto& gfw = s.gfw();
  std::vector<Ipv6> responsive;
  for (const auto& [a, mask] : s.history().entries().back().responsive) {
    if (gfw.tainted(a) && (mask & ~proto_bit(Proto::Udp53)) == 0) continue;
    responsive.push_back(a);
  }
  std::vector<Ipv6> tainted;
  for (const auto& [a, rec] : gfw.taint_records()) tainted.push_back(a);
  std::sort(tainted.begin(), tainted.end());
  bool ok = write_address_file(dir + "/responsive.txt", responsive,
                               "responsive addresses (GFW-cleaned)");
  ok &= write_prefix_file(dir + "/aliased.txt", s.aliased_list(),
                          "aliased (fully responsive) prefixes");
  ok &= write_address_file(dir + "/unresponsive-pool.txt",
                           s.unresponsive_pool(),
                           "30-day-filter exclusion pool");
  ok &= write_address_file(dir + "/gfw-tainted.txt", tainted,
                           "addresses with >=1 injected DNS response");
  const ServiceReport report(&s, &world.rib(), &world.registry());
  for (const auto& [name, text] :
       {std::pair<std::string, std::string>{"REPORT.md", report.markdown()},
        {"timeline.csv", report.timeline_csv()},
        {"as-distribution.csv", report.as_distribution_csv()}}) {
    std::ofstream f(dir + "/" + name);
    f << text;
    ok &= f.good();
  }
  return ok;
}

int run_inprocess(const Options& o, const BatchSpec& spec) {
  const WorldConfig wc = hitlist_world(spec.world_scale);
  const HitlistService::Config sc = service_config(spec.threads);
  std::vector<double> setups;
  for (int i = 0; i < kColdSetups; ++i) {
    const double s = cold_setup_s(o.setup_bin, o.workload);
    if (s < 0) {
      std::fprintf(stderr, "cannot run %s\n", o.setup_bin.c_str());
      return 1;
    }
    setups.push_back(s);
  }
  auto world = build_world(wc);
  auto svc = std::make_unique<HitlistService>(sc);

  const int last = spec.scans - 1;
  std::vector<double> walls, cpus;
  QueryRounds queries;
  double peak_rss_mb = 0;
  std::uint64_t attempted = 0, failed = 0;
  Findings f;
  std::unique_ptr<World> truth;
  std::vector<Query> mix;
  Published first_round;
  std::filesystem::create_directories("outdir");

  const double measure_start = wall_now();
  for (int round = 0;; ++round) {
    if (round > 0) {
      world = build_world(wc);
      svc = std::make_unique<HitlistService>(sc);
    }
    std::vector<ScannedSample> samples;
    double wall = 0, cpu = 0;
    for (int i = 0; i < spec.scans; ++i) {
      if (round == 0)
        samples.push_back(ScannedSample{
            i, sample_targets(svc->eligible_targets(), o.seed, kSampleDen)});
      const double w0 = wall_now(), c0 = cpu_now();
      svc->step(*world, ScanDate{i});
      wall += wall_now() - w0;
      cpu += cpu_now() - c0;
      ++attempted;
    }
    std::unique_ptr<HitlistService> loaded;
    if (spec.publish) {
      const double w0 = wall_now(), c0 = cpu_now();
      const bool published = publish_outdir(*svc, *world, "outdir");
      const bool saved =
          ServiceArchive::save(*svc, kWorldSeed, "timeline.archive");
      loaded = ServiceArchive::load(sc, kWorldSeed, "timeline.archive");
      wall += wall_now() - w0;
      cpu += cpu_now() - c0;
      attempted += 3;
      failed += !published + !saved + (loaded == nullptr);
    }
    walls.push_back(wall);
    cpus.push_back(cpu);

    if (round == 0) {
      peak_rss_mb = self_peak_rss_mb();
      truth = build_world(wc);
      check_service(*truth, *svc, samples, f);
      first_round = published_of(*svc);
      mix = make_mix(*truth, last, o.seed, kQueriesPerRound);
    } else {
      // Later rounds repeat round 0 exactly.
      check_archive(first_round, published_of(*svc), f);
    }
    if (loaded) check_archive(published_of(*svc), published_of(*loaded), f);

    auto load = query_final_epoch(*svc, *world, last, mix, round == 0);
    attempted += load.attempted;
    failed += load.dropped;
    if (load.incoherent > 0) f.fail("incoherent query responses");
    if (round == 0) check_answers(*truth, load.answers, f);
    queries.add(load);
    std::fprintf(stderr, "round %d: wall %.3f s cpu %.3f s, %.0f queries/s, "
                 "p99 %.2f us, lookup hits %llu/%llu\n", round, wall, cpu,
                 queries.qps.back(), queries.p99_us.back(),
                 static_cast<unsigned long long>(load.lookup_hits),
                 static_cast<unsigned long long>(load.lookups));
    if (wall_now() - measure_start >= o.seconds) break;
  }

  report_findings(f);
  std::vector<Metric> m = {{"wall_s", median(walls), "s"},
                           {"cpu_s", median(cpus), "s"},
                           {"peak_rss_mb", peak_rss_mb, "MB"},
                           {"setup_s", median(setups), "s"}};
  queries.append_to(m);
  print_result(f.ok(), attempted, failed, m);
  return 0;
}

namespace {

/// The daemon under test, launched with posix_spawn; its output goes to
/// daemon.log. The destructor stops and reaps it.
class Daemon {
 public:
  explicit Daemon(const std::vector<std::string>& argv) {
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "daemon.log",
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
    if (posix_spawn(&pid_, args[0], &fa, nullptr, args.data(), environ) != 0)
      pid_ = -1;
    posix_spawn_file_actions_destroy(&fa);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  [[nodiscard]] bool running() const { return pid_ > 0; }

  /// SIGTERM and reap; returns the daemon's resource usage.
  rusage stop() {
    rusage ru{};
    if (pid_ <= 0) return ru;
    kill(pid_, SIGTERM);
    int status = 0;
    while (wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return ru;
  }

 private:
  pid_t pid_ = -1;
};

}  // namespace

int run_serve(const Options& o) {
  // Ground truth and the query mix come first, so their cost stays out of
  // the daemon's set-up time.
  const auto truth = build_world(serve_world(kServe.world_scale));
  const int last = kServe.scans - 1;
  const auto mix = make_mix(*truth, last, o.seed, kQueriesPerRound);
  const auto spec = *serve::parse_listen_spec("unix:serve.sock");
  const std::vector<std::string> argv = {
      o.serve_bin, "--listen", "unix:serve.sock", "--epochs",
      std::to_string(kServe.scans), "--threads", std::to_string(kServe.threads),
      "--readers", "2", "--world-seed", std::to_string(kWorldSeed),
      "--world-scale", "1", "--linger-ms", "150000"};

  std::vector<double> walls, cpus, setups;
  QueryRounds queries;
  double peak_rss_mb = 0;
  std::uint64_t attempted = 0, failed = 0;
  Findings f;

  const double measure_start = wall_now();
  for (int round = 0;; ++round) {
    std::filesystem::remove("serve.sock");
    const double launched = wall_now();
    Daemon daemon(argv);
    if (!daemon.running()) {
      std::fprintf(stderr, "cannot launch %s\n", o.serve_bin.c_str());
      return 1;
    }
    // Client::connect retries every 10 ms, which would round set-up up to
    // 10 ms steps; single attempts 100 us apart resolve it finely.
    serve::Client probe;
    bool connected = probe.connect(spec, 0);
    while (!connected && wall_now() - launched < 60) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      connected = probe.connect(spec, 0);
    }
    std::optional<serve::Response> first;
    if (connected) first = probe.request(serve::request_epoch_info());
    if (!first) {
      std::fprintf(stderr, "the daemon never answered (see daemon.log)\n");
      return 1;
    }
    setups.push_back(wall_now() - launched);
    probe.close();

    auto refresh = run_load(spec, mix, kConnections, last, round == 0);
    auto steady = run_load(spec, mix, kConnections, -1, round == 0);
    const rusage ru = daemon.stop();

    walls.push_back(refresh.seconds);
    cpus.push_back(rusage_cpu_s(ru));
    if (round == 0) peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    queries.add(steady);
    for (const auto* load : {&refresh, &steady}) {
      attempted += load->attempted;
      failed += load->dropped;
      if (load->incoherent > 0) f.fail("incoherent query responses");
    }
    // The steady phase must see the final epoch only.
    for (const auto& a : steady.answers)
      if (static_cast<int>(a.resp.epoch) != last) {
        f.fail("steady-phase answer from epoch " + std::to_string(a.resp.epoch));
        break;
      }
    if (round == 0) {
      auto answers = std::move(refresh.answers);
      for (auto& a : steady.answers) answers.push_back(std::move(a));
      check_answers(*truth, answers, f);
    }
    std::fprintf(stderr, "round %d: setup %.3f s, refresh %.3f s (%llu "
                 "queries), steady %.0f queries/s, p99 %.2f us, lookup hits "
                 "%llu/%llu\n", round, setups.back(), refresh.seconds,
                 static_cast<unsigned long long>(refresh.attempted),
                 queries.qps.back(), queries.p99_us.back(),
                 static_cast<unsigned long long>(steady.lookup_hits),
                 static_cast<unsigned long long>(steady.lookups));
    if (wall_now() - measure_start >= o.seconds) break;
  }

  report_findings(f);
  std::vector<Metric> m = {{"wall_s", median(walls), "s"},
                           {"cpu_s", median(cpus), "s"},
                           {"peak_rss_mb", peak_rss_mb, "MB"},
                           {"setup_s", median(setups), "s"}};
  queries.append_to(m);
  print_result(f.ok(), attempted, failed, m);
  return 0;
}

}  // namespace sixbench
