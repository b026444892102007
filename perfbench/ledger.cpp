// The repo benchmark's driver: a single-process, closed-loop client that
// runs one workload (workloads.h) on the real ptg runtime over the
// in-process vc cluster, 2 ranks x 2 workers, and prints a ledger.
//
//   perfbench_ledger --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// spends half the time untraced and half with the runtime's task and
// comm-send spans on, and reports the per-layer metrics; the pair of
// halves gives the tracing overhead. README.md lists every metric, the
// end-to-end metric each layer should move, and why each workload exists.
//
// Output: a human-readable table on stdout, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "linalg/gemm.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Freshly set-up instances per run; setup_s and the tce.* setup metrics
/// are medians over their setups.
constexpr int kSegments = 5;
/// Runtime events written to the span file, across all traced operations.
constexpr size_t kMaxDumpedEvents = 200000;
/// The task classes of the t2_7 v5 graph, which the ledger breaks out.
const char* const kClasses[] = {"READ_A", "READ_B", "GEMM",
                                "REDUCE", "SORT",   "WRITE_C"};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One span of the benchmark's own, around a call into the runtime.
struct Span {
  long op = 0;  ///< operation id; prepare is -1, set-up k is -(k + 2)
  std::string name;
  double t0_ms = 0.0, t1_ms = 0.0;  ///< since program start
};

/// Spans kept in memory during the run and written out at the end.
struct SpanLog {
  Clock::time_point origin = Clock::now();
  std::vector<Span> spans;
  struct OpEvents {
    long op;
    mp::ptg::Trace trace;
    std::vector<std::string> class_names;
  };
  std::vector<OpEvents> events;
  size_t num_events = 0;

  double since(Clock::time_point t) const { return ms_between(origin, t); }

  void keep_events(long op, const OpResult& r) {
    if (num_events + r.trace.size() > kMaxDumpedEvents) return;
    num_events += r.trace.size();
    events.push_back({op, r.trace, r.class_names});
  }

  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"note\":\"bench spans: t in ms since program start; runtime "
          "spans: t in s since their rank's trace epoch, parent = op\"}\n";
    for (const Span& s : spans) {
      os << "{\"layer\":\"bench\",\"op\":" << s.op << ",\"name\":\"" << s.name
         << "\",\"t0\":" << s.t0_ms << ",\"t1\":" << s.t1_ms << "}\n";
    }
    for (const OpEvents& oe : events) {
      for (const mp::ptg::TraceEvent& e : oe.trace.events()) {
        const bool named =
            e.cls >= 0 && static_cast<size_t>(e.cls) < oe.class_names.size();
        os << "{\"layer\":\"ptg\",\"op\":" << oe.op << ",\"name\":\""
           << (e.is_comm ? "comm_send"
                         : named ? oe.class_names[static_cast<size_t>(e.cls)]
                                 : "task")
           << "\",\"rank\":" << e.rank << ",\"worker\":" << e.worker
           << ",\"p\":[" << e.p[0] << "," << e.p[1] << "," << e.p[2]
           << "],\"t0\":" << e.t_start << ",\"t1\":" << e.t_end << "}\n";
      }
    }
    return static_cast<bool>(os);
  }
};

/// Everything the timed loop observed.
struct Phase {
  std::vector<double> walls_ms;  ///< completed, correct operations
  std::vector<double> heap_mb;   ///< heap in use after each of them
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::vector<Metric>> layers;  ///< per traced op, same order
};

/// Per-layer figures of one traced operation, from its runtime spans and
/// counters. Busy times are task-body spans; every rank's times are
/// offsets from that rank's own trace epoch, so spans are taken per rank.
std::vector<Metric> op_layers(const OpResult& op, const Workload& wl) {
  std::vector<Metric> m;
  std::map<std::string, std::pair<double, double>> by_class;  // count, busy s
  struct RankAcc {
    double lo = 1e300, hi = -1e300, body = 0.0;
    std::map<int, double> first_start;  // worker -> first task start
  };
  std::map<int, RankAcc> ranks;
  double body = 0.0, comm = 0.0, tasks = 0.0;
  for (const mp::ptg::TraceEvent& e : op.trace.events()) {
    RankAcc& ra = ranks[e.rank];
    ra.lo = std::min(ra.lo, e.t_start);
    ra.hi = std::max(ra.hi, e.t_end);
    const double d = e.t_end - e.t_start;
    if (e.is_comm) {
      comm += d;
      continue;
    }
    body += d;
    tasks += 1.0;
    ra.body += d;
    auto [it, fresh] = ra.first_start.emplace(e.worker, e.t_start);
    if (!fresh) it->second = std::min(it->second, e.t_start);
    if (e.cls >= 0 && static_cast<size_t>(e.cls) < op.class_names.size()) {
      auto& c = by_class[op.class_names[static_cast<size_t>(e.cls)]];
      c.first += 1.0;
      c.second += d;
    }
  }

  for (const char* cls : kClasses) {
    const auto it = by_class.find(cls);
    const double n = it == by_class.end() ? 0.0 : it->second.first;
    const double busy = it == by_class.end() ? 0.0 : it->second.second;
    const std::string p = std::string("task.") + cls;
    m.push_back({p + ".count", n, "count"});
    m.push_back({p + ".busy_ms", busy * 1e3, "ms"});
    m.push_back({p + ".mean_us", ratio(busy * 1e6, n), "us"});
  }

  double span = 0.0, capacity = 0.0, startup = 0.0, rows = 0.0;
  double rank_max = 0.0, rank_min = 1e300;
  for (const auto& [rank, ra] : ranks) {
    const double s = ra.hi - ra.lo;
    span = std::max(span, s);
    capacity += s * kWorkersPerRank;
    for (int w = 0; w < kWorkersPerRank; ++w) {
      const auto it = ra.first_start.find(w);
      startup += (it == ra.first_start.end() ? ra.hi : it->second) - ra.lo;
      rows += 1.0;
    }
    rank_max = std::max(rank_max, ra.body);
    rank_min = std::min(rank_min, ra.body);
  }
  const double wall_s = op.wall_ms / 1e3;
  const double workers = kRanks * kWorkersPerRank;
  const auto gemm = by_class.find("GEMM");
  const double gemm_busy = gemm == by_class.end() ? 0.0 : gemm->second.second;

  auto count = [](uint64_t c) { return static_cast<double>(c); };
  m.insert(m.end(), {
      {"linalg.gemm_insitu_gflops",
       ratio(wl.flops_per_op(), gemm_busy) / 1e9, "GF/s"},
      {"ptg.tasks", tasks, "count"},
      {"ptg.task_busy_ms", body * 1e3, "ms"},
      {"ptg.worker_idle_frac", 1.0 - ratio(body, capacity), "ratio"},
      {"ptg.overhead_us_per_task",
       ratio((wall_s * workers - body) * 1e6, tasks), "us"},
      {"ptg.startup_idle_ms", ratio(startup, rows) * 1e3, "ms"},
      {"ptg.sched_steals", count(op.sched_steals), "count"},
      {"ptg.sched_steal_attempts", count(op.sched_steal_attempts), "count"},
      {"ptg.sched_contended", count(op.sched_contended), "count"},
      {"ptg.comm_busy_ms", comm * 1e3, "ms"},
      {"ptg.comm_overlap_frac", op.trace.comm_overlap_fraction(), "ratio"},
      {"ptg.remote_activations", count(op.remote_activations), "count"},
      {"vc.messages", count(op.messages), "count"},
      {"vc.bytes", count(op.bytes), "B"},
      {"ptg.lifecycle_ms", op.wall_ms - span * 1e3, "ms"},
      {"steal.requests", count(op.steal_requests), "count"},
      {"steal.tasks_migrated", count(op.tasks_migrated), "count"},
      {"steal.tasks_per_request",
       ratio(count(op.tasks_migrated), count(op.steal_requests)), "ratio"},
      {"steal.rank_busy_imbalance", ratio(rank_max, rank_min), "ratio"},
      {"ptg.unattributed_frac", 1.0 - ratio(body, wall_s * workers), "ratio"},
  });
  return m;
}

/// Bytes the allocator has handed out and not yet taken back, over all
/// arenas and mmapped chunks.
double heap_in_use_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Run operations back to back until `seconds` have passed (at least
/// one), adding them to `ph`. Returns this segment's median wall time.
double run_segment(Workload& wl, double seconds, bool traced, SpanLog& log,
                   long& next_op, Phase& ph) {
  std::vector<double> walls;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  do {
    const long id = next_op++;
    const auto t0 = Clock::now();
    const OpResult op = wl.run_op();
    ++ph.attempted;
    if (!op.error.empty()) {
      ++ph.failed;
      std::fprintf(stderr, "op %ld failed: %s\n", id, op.error.c_str());
      continue;
    }
    walls.push_back(op.wall_ms);
    ph.heap_mb.push_back(heap_in_use_mb());
    if (traced) {
      log.spans.push_back({id, "op", log.since(t0),
                           log.since(t0) + op.wall_ms});
      log.keep_events(id, op);
      ph.layers.push_back(op_layers(op, wl));
    }
  } while (Clock::now() < deadline);
  ph.walls_ms.insert(ph.walls_ms.end(), walls.begin(), walls.end());
  return median(walls);
}

/// Single-threaded linalg::dgemm at the workload's own call shape, warm
/// operands: the per-worker kernel ceiling, measured in this run. Other
/// load on the host only slows a sample, so the ceiling is a high
/// percentile of the samples rather than their median.
double gemm_ceiling_gflops(const GemmShape& g) {
  const size_t lda = g.transa == 'T' ? g.k : g.m;
  const size_t ldb = g.transb == 'T' ? g.n : g.k;
  std::vector<double> a(lda * (g.transa == 'T' ? g.m : g.k));
  std::vector<double> b(ldb * (g.transb == 'T' ? g.k : g.n));
  std::vector<double> c(g.m * g.n, 0.0);
  mp::Rng rng(7);
  for (double& x : a) x = rng.uniform(-1.0, 1.0);
  for (double& x : b) x = rng.uniform(-1.0, 1.0);
  const double flops = mp::linalg::gemm_flops(g.m, g.n, g.k);
  // Each sample times enough calls to cover ~2 ms.
  const int calls = std::max(1, static_cast<int>(2e-3 * 5e9 / flops));
  std::vector<double> rates;
  for (int s = 0; s < 40; ++s) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) {
      mp::linalg::dgemm(g.transa, g.transb, g.m, g.n, g.k, g.alpha, a.data(),
                        lda, b.data(), ldb, 1.0, c.data(), g.m);
    }
    const double s_elapsed = ms_between(t0, Clock::now()) / 1e3;
    rates.push_back(flops * calls / s_elapsed / 1e9);
  }
  return percentile(rates, 90.0);
}

/// Cluster::run with an empty body: SPMD thread spawn and join alone.
double spmd_region_ms(mp::vc::Cluster& cluster) {
  std::vector<double> t;
  for (int i = 0; i < 30; ++i) {
    const auto t0 = Clock::now();
    cluster.run([](mp::vc::RankCtx&) {});
    t.push_back(ms_between(t0, Clock::now()));
  }
  return median(t);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out DIR]\nworkloads:",
               argv0);
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, trace_out;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(val);
    } else if (flag == "--trace-out") {
      trace_out = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return usage(argv[0]);
  }
  auto wl = make_workload(workload, seed);
  if (!wl) return usage(argv[0]);

  SpanLog log;
  long next_op = 0;
  uint64_t attempted = 0, failed = 0;

  auto t0 = Clock::now();
  wl->prepare();
  log.spans.push_back({-1, "prepare", log.since(t0), log.since(Clock::now())});

  std::printf("host: nproc=%u isa=%s ranks x workers=%d x %d\n",
              std::thread::hardware_concurrency(), compiled_isa(), kRanks,
              kWorkersPerRank);
  std::printf("workload: %s\nseed=%llu seconds=%g trace=%d\n",
              wl->describe().c_str(), static_cast<unsigned long long>(seed),
              seconds, trace);

  // The timed loop is split into segments, each on a freshly set-up
  // instance (new cluster, arrays, threads). Every set-up is timed, and no
  // single instance's thread and page placement decides the whole run.
  std::vector<double> setup_s, inspect, build, start, first;
  long setups = 0;
  auto do_setup = [&](bool traced) {
    wl->teardown();
    const auto ts = Clock::now();
    const SetupTimes s = wl->setup(traced);
    log.spans.push_back({-2 - setups++, "setup", log.since(ts),
                         log.since(Clock::now())});
    ++attempted;
    if (!s.error.empty()) {
      ++failed;
      std::fprintf(stderr, "warm-up failed: %s\n", s.error.c_str());
    }
    if (!traced) {
      setup_s.push_back(s.total_s);
      inspect.push_back(s.inspect_ms);
      build.push_back(s.template_build_ms);
      start.push_back(s.session_start_ms);
      first.push_back(s.first_submit_ms);
    }
  };
  auto segment = [&](bool traced, double secs, Phase& ph) {
    do_setup(traced);
    const double p50 = run_segment(*wl, secs, traced, log, next_op, ph);
    std::printf("segment %s: p50 %.3f ms\n", traced ? "traced" : "untraced",
                p50);
  };

  std::vector<Metric> metrics;
  if (trace == 0) {
    Phase ph;
    for (int i = 0; i < kSegments; ++i) segment(false, seconds / kSegments, ph);
    attempted += ph.attempted;
    failed += ph.failed;
    const double ok_frac = 1.0 - ratio(static_cast<double>(failed),
                                       static_cast<double>(attempted));
    double wall_s = 0.0;
    for (double w : ph.walls_ms) wall_s += w / 1e3;
    const double ok = static_cast<double>(ph.walls_ms.size());
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"submit_ms_p50", percentile(ph.walls_ms, 50.0), "ms"},
        {"gflop_per_s", ratio(wl->flops_per_op() * ok, wall_s) / 1e9, "GF/s"},
        {"tasks_per_s",
         ratio(static_cast<double>(wl->tasks_per_op()) * ok, wall_s), "1/s"},
        {"ok_frac", ok_frac, "ratio"},
        {"heap_mb", median(ph.heap_mb), "MB"},
    };
    std::printf("timed operations: %zu completed of %llu attempted\n",
                ph.walls_ms.size(),
                static_cast<unsigned long long>(ph.attempted));
    // Reported, not bounded: the peak depends on how far the readers ran
    // ahead in the single worst operation, and moved ~10% between runs.
    std::printf("process peak RSS: %.1f MB\n", peak_rss_mb());
    // Reported, not bounded: on a shared host the 90th percentile sits at
    // the edge of the host's stall mode and swung by over half its median
    // between runs. --trace 1 reports it as client.submit_ms_p90.
    std::printf("submission p90: %.3f ms\n", percentile(ph.walls_ms, 90.0));
  } else {
    // Untraced and traced segments alternate, so both see the same host.
    Phase plain, traced;
    const double secs = seconds / (2 * kSegments);
    double region_ms = 0.0;
    for (int i = 0; i < kSegments; ++i) {
      segment(false, secs, plain);
      if (i == 0) region_ms = spmd_region_ms(wl->cluster());
      segment(true, secs, traced);
    }
    attempted += plain.attempted + traced.attempted;
    failed += plain.failed + traced.failed;

    const double ceiling = gemm_ceiling_gflops(wl->gemm_shape());
    // Per-operation metrics: the median over traced operations of each
    // (all zero when no traced operation completed; the run then fails).
    metrics = op_layers(OpResult{}, *wl);
    for (size_t i = 0; i < metrics.size() && !traced.layers.empty(); ++i) {
      std::vector<double> v;
      for (const auto& op : traced.layers) v.push_back(op[i].value);
      metrics[i].value = median(v);
    }
    const auto insitu =
        std::find_if(metrics.begin(), metrics.end(), [](const Metric& m) {
          return m.name == "linalg.gemm_insitu_gflops";
        })->value;
    metrics.push_back({"linalg.gemm_ceiling_gflops", ceiling, "GF/s"});
    metrics.push_back(
        {"linalg.gemm_insitu_ratio", ratio(insitu, ceiling), "ratio"});
    metrics.push_back({"vc.spmd_region_ms", region_ms, "ms"});
    metrics.push_back(
        {"client.submit_ms_p90", percentile(plain.walls_ms, 90.0), "ms"});
    metrics.push_back({"tce.inspect_ms", median(inspect), "ms"});
    metrics.push_back({"tce.template_build_ms", median(build), "ms"});
    metrics.push_back({"tce.session_start_ms", median(start), "ms"});
    metrics.push_back({"tce.first_submit_ms", median(first), "ms"});
    metrics.push_back({"tce.reference_ms", wl->reference_ms(), "ms"});
    metrics.push_back(
        {"trace.overhead_frac",
         ratio(percentile(traced.walls_ms, 50.0),
               percentile(plain.walls_ms, 50.0)) -
             1.0,
         "ratio"});
    std::printf("operations: %zu untraced + %zu traced completed\n",
                plain.walls_ms.size(), traced.walls_ms.size());
    if (!trace_out.empty()) {
      const std::string path = trace_out + "/" + workload + "-seed" +
                               std::to_string(seed) + ".jsonl";
      if (log.write(path)) {
        std::printf("spans written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
      }
    }
  }

  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
