// End-to-end benchmark: runs one workload in this process and prints
// its metrics, then one JSON result line.
//
//   e2e_bench --workload <paper-figs|service-open|service-trace|dist-8node>
//              --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// A run repeats the workload's round until --seconds have passed (at least
// kMinRounds times). Each round builds fresh platforms and inputs from the
// seed (set-up), makes the timed calls into the library (sorter calls or
// SortServer::Run), then checks every output. Host metrics are medians over
// rounds; simulated metrics must repeat bit for bit in every round, which
// is checked. With --trace 1 every other round also records spans and
// attaches an obs::MetricsRegistry, and the per-layer metrics are printed
// instead of the end-to-end ones. The program receives only generated
// inputs; it never sees the seed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/api.h"
#include "exec/executor.h"
#include "net/cluster.h"
#include "net/distributed_sort.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "paper_refs.h"
#include "sched/server.h"
#include "sched/workload.h"
#include "spans.h"
#include "topo/systems.h"
#include "util/datagen.h"
#include "util/stats.h"
#include "vgpu/platform.h"

namespace mgs::e2e {
namespace {

// Functional (really sorted) keys per paper point: enough that the host
// time is dominated by the sorters, as in the paper-scale runs.
constexpr std::int64_t kPaperFigsKeys = std::int64_t{1} << 21;
// Every untraced run ends with a model check: the 39 points again at a small
// functional size, outside the timed rounds. Accuracy is a property of the
// timing model rather than of a workload, so every workload reports it.
constexpr std::int64_t kModelCheckKeys = std::int64_t{1} << 19;

constexpr int kMinRounds = 3;

// ---- one round -----------------------------------------------------------

enum Part { kSetup, kTimed, kVerify, kParts };

/// Everything one round measured. `sim` holds simulated-clock values and
/// simulator counters; they depend only on the inputs, so every round of a
/// run must reproduce them exactly.
struct Round {
  Spans* spans = nullptr;
  obs::MetricsRegistry* registry = nullptr;  // traced rounds only
  double seconds[kParts] = {};
  std::map<std::string, double> sim;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  /// Runs f() as part `part` of the round inside span `span`.
  template <typename F>
  decltype(auto) Time(Part part, const char* span, F&& f) {
    struct Guard {
      Round* round;
      Part part;
      int id;
      Clock::time_point start;
      ~Guard() {
        round->seconds[part] += SecondsSince(start);
        round->spans->End(id);
      }
    } guard{this, part, spans->Begin(span), Clock::now()};
    return f();
  }

  void Fail(std::string what) {
    ++failed;
    errors.push_back(std::move(what));
  }
};

/// Order-independent hash: equal for any permutation of the same keys.
std::uint64_t Fingerprint(const std::vector<std::int32_t>& v) {
  std::uint64_t h = 0;
  for (const std::int32_t x : v) {
    std::uint64_t bits = static_cast<std::uint32_t>(x);
    bits = (bits ^ (bits >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h += bits ^ (bits >> 27);
  }
  return h;
}

// Flow-network resources summed by class; names come from the topology
// presets and net::BuildCluster ("pcie-up(CPU0-plx0)>", "nic3(...)", ...).
constexpr const char* kFlowClasses[] = {
    "pcie-up", "pcie-dn", "pcie", "nvl",  "hbm",   "membus",
    "cpu-link", "cpu-merge-engine", "nic", "leaf", "spine", "other"};

std::string FlowClass(const std::string& resource) {
  std::string base = resource.substr(0, resource.find('('));
  while (!base.empty() && base.back() >= '0' && base.back() <= '9') {
    base.pop_back();
  }
  if (base.rfind("nvl", 0) == 0) return "nvl";
  if (base == "xbus" || base == "upi" || base == "inf-fabric") {
    return "cpu-link";
  }
  for (const char* cls : kFlowClasses) {
    if (base == cls) return base;
  }
  return "other";
}

/// Adds a finished platform's event count and per-class busy / saturated
/// resource-seconds to the round.
void AddPlatformTotals(vgpu::Platform& platform, Round& round) {
  round.sim["sim.events"] +=
      static_cast<double>(platform.simulator().events_processed());
  sim::FlowNetwork& net = platform.network();
  net.SettleTraffic();
  for (std::size_t i = 0; i < net.num_resources(); ++i) {
    const auto id = static_cast<sim::ResourceId>(i);
    const std::string cls = "flow." + FlowClass(net.resource_name(id));
    round.sim[cls + ".busy_s"] += net.ResourceBusySeconds(id);
    round.sim[cls + ".saturated_s"] += net.ResourceSaturatedSeconds(id);
  }
}

void AddSortStats(const core::SortStats& stats, Round& round) {
  round.sim["core.phase_htod_s"] += stats.phases.htod;
  round.sim["core.phase_sort_s"] += stats.phases.sort;
  round.sim["core.phase_merge_s"] += stats.phases.merge;
  round.sim["core.phase_dtoh_s"] += stats.phases.dtoh;
  round.sim["core.p2p_gb"] += stats.p2p_bytes / 1e9;
  round.sim["core.pivot_s"] += stats.pivot_seconds;
}

/// Generates `keys` keys (set-up), sorts them with `sort` inside span `span`
/// (timed), and checks the output is a sorted permutation of the input
/// (verify). Returns the sort's stats, or nullopt after recording a failure.
template <typename SortFn>
std::optional<core::SortStats> SortVerified(const DataGenOptions& gen,
                                            std::int64_t keys, const char* span,
                                            const std::string& what,
                                            Round& round, SortFn&& sort) {
  vgpu::HostBuffer<std::int32_t> data(round.Time(
      kSetup, "util.datagen",
      [&] { return GenerateKeys<std::int32_t>(keys, gen); }));
  const std::uint64_t input = round.Time(
      kVerify, "bench.verify", [&] { return Fingerprint(data.vector()); });
  Result<core::SortStats> stats =
      round.Time(kTimed, span, [&] { return sort(&data); });
  if (!stats.ok()) {
    round.Fail(what + ": " + stats.status().ToString());
    return std::nullopt;
  }
  const bool verified = round.Time(kVerify, "bench.verify", [&] {
    return std::is_sorted(data.vector().begin(), data.vector().end()) &&
           Fingerprint(data.vector()) == input;
  });
  if (!verified) {
    round.Fail(what + ": output is not the sorted input");
    return std::nullopt;
  }
  return std::move(*stats);
}

/// Sorts `keys` generated keys of `point` on a fresh platform and returns
/// the simulated seconds (nullopt on any failure).
std::optional<double> RunPaperPoint(const PaperPoint& point,
                                    std::int64_t keys, std::uint64_t seed,
                                    Round& round) {
  ++round.attempted;
  const std::string what = std::string(point.figure) + " " + point.system;
  auto topology = round.Time(kSetup, "topo.build",
                             [&] { return topo::MakeSystem(point.system); });
  if (!topology.ok()) {
    round.Fail(what + ": " + topology.status().ToString());
    return std::nullopt;
  }
  vgpu::PlatformOptions popts;
  popts.scale = point.logical_keys / static_cast<double>(keys);
  auto platform = round.Time(kSetup, "vgpu.platform_create", [&] {
    return vgpu::Platform::Create(std::move(*topology), popts);
  });
  if (!platform.ok()) {
    round.Fail(what + ": " + platform.status().ToString());
    return std::nullopt;
  }
  vgpu::Platform* p = platform->get();
  p->SetMetrics(round.registry);
  std::vector<int> gpus;
  if (point.sorter != Sorter::kParadis) {
    const bool for_p2p_merge = point.sorter == Sorter::kP2p;
    auto set = core::ChooseGpuSet(p->topology(), point.gpus, for_p2p_merge);
    if (!set.ok()) {
      round.Fail(what + ": " + set.status().ToString());
      return std::nullopt;
    }
    gpus = std::move(*set);
  }
  const char* span = point.sorter == Sorter::kParadis ? "core.cpu_sort"
                     : point.sorter == Sorter::kP2p   ? "core.p2p_sort"
                                                      : "core.het_sort";
  DataGenOptions gen;
  gen.distribution = point.distribution;
  gen.seed = seed;
  const auto stats = SortVerified(
      gen, keys, span, what, round,
      [&](vgpu::HostBuffer<std::int32_t>* data) -> Result<core::SortStats> {
        if (point.sorter == Sorter::kParadis) {
          return core::CpuSortBaseline(p, data);
        }
        if (point.sorter == Sorter::kP2p) {
          core::SortOptions options;
          options.gpu_set = gpus;
          return core::P2pSort(p, data, options);
        }
        core::HetOptions options;
        options.gpu_set = gpus;
        options.scheme = point.sorter == Sorter::kHet3n
                             ? core::BufferScheme::k3n
                             : core::BufferScheme::k2n;
        options.gpu_memory_budget = point.gpu_budget_bytes;
        return core::HetSort(p, data, options);
      });
  if (!stats) return std::nullopt;
  AddPlatformTotals(*p, round);
  AddSortStats(*stats, round);
  return stats->total_seconds;
}

// ---- workloads -------------------------------------------------------------

/// All 39 reference points at `keys` functional keys each: the simulated
/// seconds per point (0 for a point that failed).
std::vector<double> RunPaperPoints(std::int64_t keys, std::uint64_t seed,
                                   Round& round) {
  SplitMix64 rng(seed);
  std::vector<double> sim;
  for (const PaperPoint& point : kPaperPoints) {
    sim.push_back(RunPaperPoint(point, keys, rng.Next(), round).value_or(0.0));
  }
  return sim;
}

void PaperFigsRound(std::uint64_t seed, Round& round) {
  const std::vector<double> sim = RunPaperPoints(kPaperFigsKeys, seed, round);
  double total = 0;
  for (const double s : sim) total += s;
  round.sim["sim_latency_s"] = total / static_cast<double>(sim.size());
}

/// One SortServer run over a generated open-loop stream: fresh DGX A100
/// platform at `scale`, `jobs` Poisson arrivals at `rate_hz` from `mix`.
/// Every job must complete; the server itself checks each output is sorted
/// (ServerOptions::verify_sorted) and fails the job otherwise.
std::optional<sched::ServiceReport> RunService(
    const sched::JobMix& mix, double rate_hz, int jobs, std::uint64_t seed,
    double scale, const sched::ServerOptions& options, Round& round) {
  round.attempted += jobs;
  auto topology = round.Time(kSetup, "topo.build",
                             [] { return topo::MakeSystem("dgx-a100"); });
  if (!topology.ok()) {
    round.Fail(topology.status().ToString());
    return std::nullopt;
  }
  auto platform = round.Time(kSetup, "vgpu.platform_create", [&] {
    return vgpu::Platform::Create(std::move(*topology),
                                  vgpu::PlatformOptions{scale});
  });
  if (!platform.ok()) {
    round.Fail(platform.status().ToString());
    return std::nullopt;
  }
  vgpu::Platform* p = platform->get();
  p->SetMetrics(round.registry);
  sched::SortServer server(p, options);
  {
    const auto specs = round.Time(kSetup, "util.datagen", [&] {
      return sched::MakePoissonWorkload(mix, rate_hz, jobs, seed);
    });
    round.Time(kSetup, "sched.submit", [&] { server.Submit(specs); });
  }
  auto report = round.Time(kTimed, "sched.run", [&] { return server.Run(); });
  if (!report.ok()) {
    round.Fail(report.status().ToString());
    return std::nullopt;
  }
  const std::int64_t lost = round.Time(kVerify, "bench.verify", [&] {
    return static_cast<std::int64_t>(jobs) - report->completed;
  });
  round.failed += lost;
  if (lost > 0) {
    round.errors.push_back(std::to_string(lost) + " of " +
                           std::to_string(jobs) + " jobs not completed (" +
                           std::to_string(report->failed) + " failed, " +
                           std::to_string(report->rejected) + " rejected)");
  }
  AddPlatformTotals(*p, round);
  round.sim["sched.failed"] += report->failed;
  round.sim["sched.rejected"] += report->rejected;
  return std::move(*report);
}

// The rate ladder: latency at each rate, and the highest rate whose p99
// meets the limit with every job completed.
constexpr double kOpenRates[] = {2, 4, 5, 6, 8, 10};
constexpr int kOpenJobsPerRate = 1000;
constexpr double kOpenP99LimitSeconds = 1.0;

void ServiceOpenRound(std::uint64_t seed, Round& round) {
  sched::JobMix mix;
  mix.gpu_choices = {1, 2, 4, 8};
  mix.tenants = 8;
  sched::ServerOptions options;
  options.policy = sched::QueuePolicy::kSjfBytes;
  options.admission.max_queue_depth = 0;  // unbounded: open loop
  // Each rung draws its own jobs: pooled over six independent samples, the
  // ladder's total work and its median latency vary little between seeds.
  SplitMix64 rng(seed);
  std::vector<double> latencies;
  double max_rate = 0;
  for (const double rate : kOpenRates) {
    const auto failed_before = round.failed;
    const auto report = RunService(mix, rate, kOpenJobsPerRate, rng.Next(),
                                   1e5, options, round);
    if (!report) continue;
    for (const sched::JobRecord& job : report->jobs) {
      if (job.state == sched::JobState::kDone) {
        latencies.push_back(job.latency());
      }
    }
    const std::string tag = ".r" + std::to_string(static_cast<int>(rate));
    round.sim["sim_p50_s" + tag] = report->latency.p50;
    round.sim["sim_p99_s" + tag] = report->latency.p99;
    if (rate == 8) {
      round.sim["sched.queue_delay_p99_s.r8"] = report->queue_delay.p99;
      round.sim["sched.service_time_p50_s.r8"] = report->service_time.p50;
    }
    if (round.failed == failed_before &&
        report->latency.p99 <= kOpenP99LimitSeconds) {
      max_rate = std::max(max_rate, rate);
    }
  }
  round.sim["max_rate_hz"] = max_rate;
  round.sim["sim_latency_s"] = Summarize(latencies).p50;
}

void ServiceTraceRound(std::uint64_t seed, Round& round) {
  // bench_sched_trace's mix: tiny 1-GPU jobs over 1024 recurring datasets,
  // arriving far faster than they can be served.
  sched::JobMix mix;
  mix.min_keys = 5e7;
  mix.max_keys = 2e8;
  mix.gpu_choices = {1};
  mix.tenants = 8;
  mix.distinct_datasets = 1024;
  sched::ServerOptions options;
  options.policy = sched::QueuePolicy::kSjfBytes;
  options.admission.max_queue_depth = 0;
  options.report_jobs = false;
  options.coalesce.enabled = true;
  options.dedupe.enabled = true;
  constexpr int kJobs = 1'000'000;
  const auto report = RunService(mix, 1e5, kJobs, seed, 2e6, options, round);
  if (!report) return;
  round.sim["sim_latency_s"] = report->latency.p99;
  round.sim["sched.dedup_hit_ratio"] =
      static_cast<double>(report->dedup_hits) / kJobs;
  round.sim["sched.coalesced_ratio"] =
      static_cast<double>(report->coalesced_jobs) / kJobs;
}

constexpr int kDistSortsPerRound = 25;
constexpr std::int64_t kDistKeys = std::int64_t{1} << 18;
constexpr double kDistLogicalKeys = 4e10;

void DistRound(std::uint64_t seed, Round& round) {
  net::ClusterOptions cluster_options;
  cluster_options.node_system = "dgx-a100";
  cluster_options.nodes = 8;
  cluster_options.nodes_per_rack = 2;
  cluster_options.oversubscription = 2;
  SplitMix64 rng(seed);
  double total = 0;
  for (int i = 0; i < kDistSortsPerRound; ++i) {
    ++round.attempted;
    auto cluster = round.Time(kSetup, "topo.build", [&] {
      return net::BuildCluster(cluster_options);
    });
    if (!cluster.ok()) {
      round.Fail(cluster.status().ToString());
      continue;
    }
    auto platform = round.Time(kSetup, "vgpu.platform_create", [&] {
      return vgpu::Platform::Create(
          std::move(cluster->topology),
          vgpu::PlatformOptions{kDistLogicalKeys /
                                static_cast<double>(kDistKeys)});
    });
    if (!platform.ok()) {
      round.Fail(platform.status().ToString());
      continue;
    }
    vgpu::Platform* p = platform->get();
    p->SetMetrics(round.registry);
    DataGenOptions gen;
    gen.seed = rng.Next();
    const auto stats = SortVerified(
        gen, kDistKeys, "net.dist_sort", "distributed sort", round,
        [&](vgpu::HostBuffer<std::int32_t>* data) {
          return net::DistributedSort(p, cluster->info, data,
                                      net::DistSortOptions{});
        });
    if (!stats) continue;
    AddPlatformTotals(*p, round);
    round.sim["net.shuffle_gb"] += stats->shuffle_bytes / 1e9;
    round.sim["net.cross_node_gb"] += stats->cross_node_bytes / 1e9;
    total += stats->total_seconds;
  }
  round.sim["sim_latency_s"] = total / kDistSortsPerRound;
}

struct Workload {
  const char* name;
  void (*round)(std::uint64_t seed, Round& round);
};

constexpr Workload kWorkloads[] = {
    {"paper-figs", PaperFigsRound},
    {"service-open", ServiceOpenRound},
    {"service-trace", ServiceTraceRound},
    {"dist-8node", DistRound},
};

// ---- the model check -------------------------------------------------------

struct Accuracy {
  double mean_pct = 0;
  double max_pct = 0;
  double heldout_pct = 0;
};

/// |sim - paper| / paper over the 39 reference points at kModelCheckKeys:
/// the mean, the worst point, and the mean over the held-out points.
Accuracy CheckModel(std::uint64_t seed, Round& round) {
  const std::vector<double> sim = RunPaperPoints(kModelCheckKeys, seed, round);
  Accuracy acc;
  double heldout_sum = 0;
  int heldout = 0;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    const PaperPoint& point = kPaperPoints[i];
    const double err =
        100.0 * std::fabs(sim[i] - point.paper_s) / point.paper_s;
    acc.mean_pct += err / static_cast<double>(sim.size());
    acc.max_pct = std::max(acc.max_pct, err);
    if (point.held_out) {
      heldout_sum += err;
      ++heldout;
    }
  }
  acc.heldout_pct = heldout_sum / heldout;
  return acc;
}

// ---- reporting -------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double RegistrySum(const obs::MetricsRegistry& registry, const char* family) {
  const auto* f = registry.FindFamily(family);
  if (f == nullptr) return 0;
  double sum = 0;
  for (const auto& [labels, counter] : f->counters) sum += counter->value();
  for (const auto& [labels, histogram] : f->histograms) {
    sum += histogram->sum();
  }
  return sum;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* clock;  // "host", "sim" or "derived"
};

// Host layers: one span name per call site into a src/ module.
constexpr const char* kHostLayers[] = {
    "util.datagen",  "topo.build",    "vgpu.platform_create",
    "sched.submit",  "core.p2p_sort", "core.het_sort",
    "core.cpu_sort", "net.dist_sort", "sched.run",
    "obs.export",    "bench.verify"};

// Simulated per-layer metrics every workload reports (0 where the layer
// does not run), with their units.
constexpr std::pair<const char*, const char*> kSimLayers[] = {
    {"core.phase_htod_s", "s"},
    {"core.phase_sort_s", "s"},
    {"core.phase_merge_s", "s"},
    {"core.phase_dtoh_s", "s"},
    {"core.p2p_gb", "GB"},
    {"core.pivot_s", "s"},
    {"net.shuffle_gb", "GB"},
    {"net.cross_node_gb", "GB"},
    {"sim.events", "count"},
    {"sched.queue_delay_p99_s.r8", "s"},
    {"sched.service_time_p50_s.r8", "s"},
    {"sched.dedup_hit_ratio", "ratio"},
    {"sched.coalesced_ratio", "ratio"},
    {"sched.failed", "count"},
    {"sched.rejected", "count"},
    {"sim_p50_s.r4", "s"},
    {"sim_p99_s.r4", "s"},
    {"sim_p50_s.r8", "s"},
    {"sim_p99_s.r8", "s"},
    {"max_rate_hz", "1/s"},
};

// Simulated per-layer metrics read from the obs::MetricsRegistry that traced
// rounds attach to every platform.
struct RegistryLayer {
  const char* name;
  const char* family;
  const char* unit;
};
constexpr RegistryLayer kRegistryLayers[] = {
    {"cpusort.cpu_phase_s", obs::kCpuPhaseSeconds, "s"},
    {"gpusort.kernel_busy_s", obs::kKernelBusySeconds, "s"},
    {"exec.nodes", exec::kExecNodesTotal, "count"},
    {"exec.ready_wait_s", exec::kExecWaitSeconds, "s"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <file>]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  Spans spans;
  std::vector<double> wall, setup, traced_wall;
  std::map<std::string, std::vector<double>> layer_self;  // traced rounds
  std::map<std::string, double> registry_values;  // last traced round
  // First round's simulated values, untraced [0] and traced [1]. With a
  // registry attached, PhaseTracker settles the flow network at every phase
  // boundary; splitting the progress accrual re-associates floating-point
  // sums, which moves flow totals and even service latencies in the last
  // bits. So each kind of round must match its own first round exactly,
  // and the two kinds must agree to 1e-12.
  std::optional<std::map<std::string, double>> first_sim[2];
  std::int64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  bool deterministic = true;
  // Traced runs alternate untraced and traced rounds.
  const int min_rounds = args.trace ? 2 * kMinRounds : kMinRounds;
  const auto start = Clock::now();
  for (int r = 0;; ++r) {
    if (r >= min_rounds && SecondsSince(start) >= args.seconds) break;
    const bool traced = args.trace && r % 2 == 1;
    obs::MetricsRegistry registry;
    Round round;
    round.spans = &spans;
    round.registry = traced ? &registry : nullptr;
    spans.set_enabled(traced);
    const std::size_t first_span = spans.size();
    const int root = spans.Begin("bench.round");
    workload->round(args.seed, round);
    if (traced) {
      const int id = spans.Begin("obs.export");
      obs::ToPrometheusText(registry);
      spans.End(id);
    }
    spans.End(root);

    attempted += round.attempted;
    failed += round.failed;
    errors.insert(errors.end(), round.errors.begin(), round.errors.end());
    if (!first_sim[traced]) {
      first_sim[traced] = round.sim;
    } else if (round.sim != *first_sim[traced]) {
      deterministic = false;
    }
    if (traced) {
      traced_wall.push_back(round.seconds[kTimed]);
      const auto self = spans.SelfSeconds(first_span);
      for (const char* layer : kHostLayers) {
        const auto it = self.find(layer);
        layer_self[layer].push_back(it == self.end() ? 0.0 : it->second);
      }
      for (const RegistryLayer& layer : kRegistryLayers) {
        registry_values[layer.name] = RegistrySum(registry, layer.family);
      }
    } else {
      wall.push_back(round.seconds[kTimed]);
      setup.push_back(round.seconds[kSetup]);
    }
  }
  if (!deterministic) {
    errors.push_back("simulated metrics differ between rounds of one seed");
  }
  if (first_sim[0] && first_sim[1]) {
    for (const auto& [name, value] : *first_sim[0]) {
      const double traced = (*first_sim[1])[name];
      if (std::fabs(traced - value) > 1e-12 * std::fabs(value)) {
        errors.push_back("tracing changed simulated " + name);
      }
    }
  }

  std::map<std::string, double>& reference_sim = *first_sim[0];
  std::vector<Metric> metrics;
  const double wall_s = Median(wall);
  if (!args.trace) {
    // The workload's peak, read before the model check can raise it.
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    Round check;
    check.spans = &spans;  // never enabled in an untraced run
    const Accuracy acc = CheckModel(args.seed, check);
    attempted += check.attempted;
    failed += check.failed;
    errors.insert(errors.end(), check.errors.begin(), check.errors.end());
    metrics = {
        {"wall_s", wall_s, "s", "host"},
        {"setup_s", Median(setup), "s", "host"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB",
         "host"},
        {"sim_latency_s", reference_sim["sim_latency_s"], "s", "sim"},
        {"paper_err_pct", acc.mean_pct, "%", "sim"},
        {"paper_max_err_pct", acc.max_pct, "%", "sim"},
        {"paper_heldout_err_pct", acc.heldout_pct, "%", "sim"},
    };
  } else {
    for (const char* layer : kHostLayers) {
      metrics.push_back(
          {std::string(layer) + "_s", Median(layer_self[layer]), "s", "host"});
    }
    for (const auto& [name, unit] : kSimLayers) {
      metrics.push_back({name, reference_sim[name], unit, "sim"});
    }
    for (const char* cls : kFlowClasses) {
      const std::string base = std::string("flow.") + cls;
      metrics.push_back(
          {base + ".busy_s", reference_sim[base + ".busy_s"], "s", "sim"});
      metrics.push_back({base + ".saturated_s",
                         reference_sim[base + ".saturated_s"], "s", "sim"});
    }
    for (const RegistryLayer& layer : kRegistryLayers) {
      metrics.push_back(
          {layer.name, registry_values[layer.name], layer.unit, "sim"});
    }
    const double events = reference_sim["sim.events"];
    metrics.push_back({"sim.host_us_per_event",
                       events > 0 ? 1e6 * wall_s / events : 0, "us",
                       "derived"});
    metrics.push_back({"obs.overhead_pct",
                       wall_s > 0 ? 100.0 * (Median(traced_wall) / wall_s - 1)
                                  : 0,
                       "%", "derived"});
    if (!args.spans_path.empty() && !spans.Write(args.spans_path)) {
      errors.push_back("cannot write " + args.spans_path);
    }
  }

  for (const std::string& e : errors) {
    std::fprintf(stderr, "FAIL: %s\n", e.c_str());
  }
  const bool correct = failed == 0 && errors.empty();
  std::printf("# %s seed=%llu rounds=%zu %s\n", workload->name,
              static_cast<unsigned long long>(args.seed),
              wall.size() + traced_wall.size(),
              args.trace ? "traced" : "untraced");
  for (const Metric& m : metrics) {
    std::printf("%-32s %-22.17g %-6s %s\n", m.name.c_str(), m.value, m.unit,
                m.clock);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mgs::e2e

int main(int argc, char** argv) { return mgs::e2e::Main(argc, argv); }
