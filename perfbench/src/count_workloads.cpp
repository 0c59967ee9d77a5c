// The two all-edge count workloads: count-skewed (BMP with relabel) and
// count-uniform (MPS on the VB kernel). One op is one full count call;
// every op's counts are compared slot by slot with count_sequential_mps.
// The traced count-skewed run also times MPS through the 2D-partitioned
// engine (shard::ShardedEngine) on the same graph, for the shard and net
// layers.
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "core/api.hpp"
#include "core/sequential.hpp"
#include "graph/reorder.hpp"
#include "shard/engine.hpp"
#include "util/prng.hpp"

namespace perfbench {
namespace {

namespace core = aecnc::core;
namespace graph = aecnc::graph;
namespace intersect = aecnc::intersect;
namespace shard = aecnc::shard;
using aecnc::EdgeId;
using aecnc::VertexId;
using core::CountArray;

/// Undirected edges of the TW-recipe count graph and the FR-recipe one.
constexpr double kSkewedEdges = 1.4e6;
constexpr double kUniformEdges = 3.6e6;

/// Shards of the traced run's ShardedEngine, and its p = kShards runs.
constexpr int kShards = 4;
constexpr int kShardRuns = 3;

/// Ops the timed loop runs at least, whatever --seconds says.
constexpr int kMinOps = 3;

/// Slots checked by direct intersection (oracle self-check and the
/// checks of ops whose output is in the relabeled ID space).
constexpr int kSampledSlots = 4096;

constexpr double kMiB = 1024.0 * 1024.0;

/// Op ids of traced ops start above the set-up reps' ids (0..kSetupReps).
constexpr std::uint64_t kFirstOpId = 100;

/// Bytes of a graph's CSR arrays, plus its reverse index when built.
double csr_bytes(const graph::Csr& g, bool with_reverse) {
  return static_cast<double>(g.memory_bytes()) +
         (with_reverse ? static_cast<double>(g.num_directed_edges()) *
                             sizeof(EdgeId)
                       : 0.0);
}

/// True when `counts` matches direct intersections on kSampledSlots
/// seeded slots of `g`.
bool sample_matches(const graph::Csr& g, const CountArray& counts,
                    std::uint64_t seed) {
  if (counts.size() != g.num_directed_edges()) return false;
  if (counts.empty()) return true;
  aecnc::util::Xoshiro256 rng(seed);
  for (int i = 0; i < kSampledSlots; ++i) {
    const EdgeId slot = rng() % counts.size();
    const VertexId u = g.src_of(slot);
    const VertexId v = g.dst_of(slot);
    if (counts[slot] != direct_common(g.neighbors(u), g.neighbors(v))) {
      return false;
    }
  }
  return true;
}

/// The reference counts: the sequential MPS oracle on the portable block
/// kernel, itself checked against direct intersections.
CountArray oracle_counts(const graph::Csr& g, std::uint64_t seed) {
  CountArray oracle = core::count_sequential_mps(g, intersect::MpsConfig{});
  if (!sample_matches(g, oracle, seed)) {
    throw std::runtime_error(
        "count_sequential_mps disagrees with direct intersections");
  }
  return oracle;
}

/// Shared state of one count run: the planted fault, the op counter and
/// the checks.
class Checker {
 public:
  Checker(const Args& args, Report& report, const CountArray& oracle)
      : plant_(args.plant_wrong_count), report_(report), oracle_(oracle) {}

  /// Check a full-output op against the oracle.
  void full(CountArray counts) {
    plant(counts);
    report_.op(counts == oracle_);
  }
  /// Check an op whose output is in another ID space by sampled direct
  /// intersections on the graph it was computed on.
  void sampled(const graph::Csr& g, CountArray counts, std::uint64_t seed) {
    plant(counts);
    report_.op(sample_matches(g, counts, seed));
  }

 private:
  void plant(CountArray& counts) {
    if (plant_ && !counts.empty()) {
      ++counts[counts.size() / 2];
      plant_ = false;
    }
  }

  bool plant_;
  Report& report_;
  const CountArray& oracle_;
};

/// The timed loop: run `op(k)` until --seconds have passed and at least
/// kMinOps ops ran. An op that throws counts as one failed op.
template <typename Op>
void run_for(const Args& args, Report& report, Op&& op) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::uint64_t k = 0; k < kMinOps || now_ns() < deadline; ++k) {
    try {
      op(k);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %llu failed: %s\n",
                   static_cast<unsigned long long>(k), e.what());
      report.op(false);
    }
  }
}

/// The program's set-up, kSetupReps times, each rep pinned to the next
/// vCPU: the CSR is built from a fresh copy of `edges` and `extra(rep)`
/// adds the rest. Only the program's calls are timed, and each rep's time is
/// divided by the host's slowdown on its vCPU around it. Returns the
/// median; `g` keeps the last build.
template <typename Extra>
double setup(const graph::EdgeList& edges, Tracer* tracer, graph::Csr& g,
             Extra&& extra) {
  std::vector<double> reps;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    graph::EdgeList copy = edges;  // input generation: not timed
    g = graph::Csr();
    PinnedScope pin(static_cast<std::uint64_t>(rep));
    SpeedScale speed(Vcpus::kThis);
    const double t = timed(tracer, "setup", rep, [&] {
      timed(tracer, "graph.build", rep,
            [&] { g = graph::Csr::from_edge_list(std::move(copy)); });
      extra(rep);
    });
    reps.push_back(t / speed.around());
  }
  return median(reps);
}

/// The timed loop of an untraced count run: `call` until --seconds have
/// passed, each call's wall time divided by the host's slowdown around
/// it; then the end-to-end metrics.
template <typename Call>
void run_untraced(const Args& args, Report& r, Checker& check, double edges,
                  double setup_s, Call&& call) {
  std::vector<double> wall_s;
  std::vector<double> op_s;
  std::vector<double> slowdown;
  SpeedScale speed(Vcpus::kAll);
  run_for(args, r, [&](std::uint64_t) {
    CountArray cnt;
    wall_s.push_back(timed(nullptr, "", 0, [&] { cnt = call(); }));
    slowdown.push_back(speed.around());
    op_s.push_back(wall_s.back() / slowdown.back());
    check.full(std::move(cnt));
  });
  const double op = median(op_s);
  r.add("pairs_per_s", edges / op, "1/s");
  r.add("op_us", op * 1e6, "us");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_rss_mib(), "MiB");
  r.add("ok_ratio",
        1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted),
        "1");
  std::printf("edges_per_s %.6g 1/s (median of %zu ops, %.0f edges; op "
              "time p25 %.4f s, p75 %.4f s; wall time median %.4f s at a "
              "median host slowdown of %.3f)\n",
              edges / op, op_s.size(), edges, quantile(op_s, 0.25),
              quantile(op_s, 0.75), median(wall_s), median(slowdown));
}

void add_intersect(Report& r, const intersect::StatsCounter& s) {
  r.add("intersect.intersections", static_cast<double>(s.intersections),
        "count");
  r.add("intersect.bitmap_probes", static_cast<double>(s.bitmap_probes),
        "count");
  r.add("intersect.block_steps", static_cast<double>(s.block_steps), "count");
  r.add("intersect.streamed_mb", static_cast<double>(s.streamed_bytes) / kMiB,
        "MiB");
  r.add("intersect.gallop_steps", static_cast<double>(s.gallop_steps),
        "count");
  r.add("intersect.binary_steps", static_cast<double>(s.binary_steps),
        "count");
}

/// Instrumented sequential run of the same kernel on the same graph:
/// exact operation counts, independent of timing.
intersect::StatsCounter kernel_counts(const graph::Csr& g,
                                      const core::Options& options,
                                      Tracer* tracer) {
  intersect::StatsCounter stats;
  timed(tracer, "intersect.instrumented", 0,
        [&] { (void)core::count_instrumented(g, options, stats); });
  return stats;
}

double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  return (median(traced) / median(untraced) - 1.0) * 100.0;
}

/// The shard and net layers on `g`: MPS through shard::ShardedEngine at
/// p = kShards (kShardRuns runs) and at p = 1, against shared-memory MPS
/// at kThreads threads; every run is checked. Returns the exact kernel
/// counts of that MPS on `g`.
intersect::StatsCounter add_shard_layers(Report& r, graph::Csr& g,
                                         Checker& check, Tracer* tracer,
                                         std::uint64_t& id) {
  core::Options opt = production_options(core::Algorithm::kMps);
  require_production(opt);
  shard::ShardConfig cfg;
  cfg.num_shards = kShards;
  cfg.algorithm = opt.algorithm;
  cfg.mps = opt.mps;
  shard::ShardConfig one = cfg;
  one.num_shards = 1;
  (void)g.reverse_offsets();  // as a sharded caller's set-up builds it

  std::unique_ptr<shard::ShardedEngine> engine;
  std::unique_ptr<shard::ShardedEngine> single;
  {
    SpanScope op(tracer, "op", ++id);
    timed(tracer, "shard.partition", id,
          [&] { engine = std::make_unique<shard::ShardedEngine>(g, cfg); });
    timed(tracer, "shard.partition_p1", id,
          [&] { single = std::make_unique<shard::ShardedEngine>(g, one); });
  }
  check.full(engine->run());  // warm-up
  const aecnc::net::TransportStats before = engine->transport_stats();
  std::vector<double> p4_s;
  for (int i = 0; i < kShardRuns; ++i) {
    SpanScope op(tracer, "op", ++id);
    CountArray cnt;
    p4_s.push_back(
        timed(tracer, "shard.run", id, [&] { cnt = engine->run(); }));
    SpanScope c(tracer, "check", id);
    check.full(std::move(cnt));
  }
  const aecnc::net::TransportStats after = engine->transport_stats();
  engine.reset();

  std::vector<double> p1_s;
  std::vector<double> parallel_s;
  for (int i = 0; i < 2; ++i) {
    CountArray cnt;
    {
      SpanScope op(tracer, "op", ++id);
      p1_s.push_back(
          timed(tracer, "shard.run_p1", id, [&] { cnt = single->run(); }));
      check.full(std::move(cnt));
    }
    SpanScope op(tracer, "op", ++id);
    parallel_s.push_back(timed(tracer, "core.call_mps", id, [&] {
      cnt = core::count_common_neighbors(g, opt);
    }));
    check.full(std::move(cnt));
  }
  single.reset();

  const double p4 = median(p4_s);
  const double runs = static_cast<double>(kShardRuns);
  const double m = static_cast<double>(g.num_undirected_edges());
  r.add("shard.partition_s", median(tracer->self_seconds("shard.partition")),
        "s");
  r.add("shard.speedup_p4", median(p1_s) / p4, "x");
  r.add("shard.vs_parallel", p4 / median(parallel_s), "x");
  r.add("net.messages_per_run",
        static_cast<double>(after.messages - before.messages) / runs, "count");
  r.add("net.bytes_per_edge",
        static_cast<double>(after.bytes - before.bytes) / runs / m, "B");
  r.add("net.batches_per_run",
        static_cast<double>(after.batches - before.batches) / runs, "count");
  r.add("net.backpressure_per_run",
        static_cast<double>(after.backpressure - before.backpressure) / runs,
        "count");
  return kernel_counts(g, opt, tracer);
}

}  // namespace

Report run_count_skewed(const Args& args, Tracer* tracer) {
  const graph::EdgeList edges = generate(
      kTwitter, kSkewedEdges * args.scale, derive_seed(args.seed, "tw-count"));
  core::Options opt = production_options(core::Algorithm::kBmp);
  opt.relabel = true;
  require_production(opt);

  Report r;
  graph::Csr g;
  const double setup_s = setup(edges, tracer, g, [](int) {});
  const double m = static_cast<double>(g.num_undirected_edges());
  const CountArray oracle = oracle_counts(g, derive_seed(args.seed, "oracle"));
  Checker check(args, r, oracle);

  // Warm-up (checked, not timed).
  check.full(core::count_common_neighbors(g, opt));

  if (tracer == nullptr) {
    run_untraced(args, r, check, m, setup_s,
                 [&] { return core::count_common_neighbors(g, opt); });
    return r;
  }

  // Traced: per round, one untraced call (the overhead reference), one
  // traced call and one op decomposed into the library calls the
  // relabeled count makes: relabel, reverse index, the count on the
  // relabeled graph. Translate-back is what the decomposition leaves.
  core::Options inner = opt;
  inner.relabel = false;
  std::vector<double> op_s;
  std::vector<double> call_s;
  double internal_bytes = 0.0;
  graph::Csr internal;
  std::uint64_t id = kFirstOpId;
  run_for(args, r, [&](std::uint64_t k) {
    CountArray cnt;
    op_s.push_back(
        timed(nullptr, "", 0, [&] { cnt = core::count_common_neighbors(g, opt); }));
    check.full(std::move(cnt));
    {
      SpanScope op(tracer, "op", ++id);
      call_s.push_back(timed(tracer, "core.call", id, [&] {
        cnt = core::count_common_neighbors(g, opt);
      }));
      SpanScope c(tracer, "check", id);
      check.full(std::move(cnt));
    }
    {
      SpanScope op(tracer, "op", ++id);
      graph::IdMap map;
      internal = graph::Csr();  // free the last twin outside the span
      timed(tracer, "graph.relabel", id,
            [&] { internal = graph::reorder_degree_descending(g, &map); });
      timed(tracer, "graph.reverse_index", id,
            [&] { (void)internal.reverse_offsets(); });
      timed(tracer, "core.count", id,
            [&] { cnt = core::count_common_neighbors(internal, inner); });
      SpanScope c(tracer, "check", id);
      check.sampled(internal, std::move(cnt), derive_seed(args.seed, "s") + k);
    }
    internal_bytes = csr_bytes(internal, true) +
                     static_cast<double>(g.num_vertices()) * 2 *
                         sizeof(VertexId);
  });

  core::Options single = opt;
  single.num_threads = 1;
  std::vector<double> one_thread;
  for (int i = 0; i < 2; ++i) {
    SpanScope op(tracer, "op", ++id);
    CountArray cnt;
    one_thread.push_back(timed(tracer, "core.call_1t", id, [&] {
      cnt = core::count_common_neighbors(g, single);
    }));
    check.full(std::move(cnt));
  }
  intersect::StatsCounter stats = kernel_counts(internal, inner, tracer);
  // BMP neither gallops nor binary-searches; those two counts are the MPS
  // kernel's that the sharded engine runs on this graph.
  const intersect::StatsCounter mps =
      add_shard_layers(r, g, check, tracer, id);
  stats.gallop_steps = mps.gallop_steps;
  stats.binary_steps = mps.binary_steps;

  const double relabel = median(tracer->self_seconds("graph.relabel"));
  const double reverse = median(tracer->self_seconds("graph.reverse_index"));
  const double count = median(tracer->self_seconds("core.count"));
  r.add("graph.build_s", median(tracer->self_seconds("graph.build")), "s");
  r.add("graph.relabel_s", relabel, "s");
  r.add("graph.reverse_index_s", reverse, "s");
  r.add("graph.csr_mb", (csr_bytes(g, false) + internal_bytes) / kMiB, "MiB");
  add_intersect(r, stats);
  r.add("core.count_s", count, "s");
  r.add("core.translate_back_s",
        median(tracer->self_seconds("core.call")) - relabel - reverse - count,
        "s");
  r.add("core.speedup_4t", median(one_thread) / median(op_s), "x");
  r.add("trace.overhead_pct", overhead_pct(call_s, op_s), "%");
  return r;
}

Report run_count_uniform(const Args& args, Tracer* tracer) {
  const graph::EdgeList edges =
      generate(kFriendster, kUniformEdges * args.scale,
               derive_seed(args.seed, "fr-count"));
  const core::Options opt = production_options(core::Algorithm::kMps);
  require_production(opt);

  Report r;
  graph::Csr g;
  const double setup_s = setup(edges, tracer, g, [&](int rep) {
    timed(tracer, "graph.reverse_index", rep, [&] { (void)g.reverse_offsets(); });
  });
  const double m = static_cast<double>(g.num_undirected_edges());
  const CountArray oracle = oracle_counts(g, derive_seed(args.seed, "oracle"));
  Checker check(args, r, oracle);
  check.full(core::count_common_neighbors(g, opt));  // warm-up
  if (tracer == nullptr) {
    run_untraced(args, r, check, m, setup_s,
                 [&] { return core::count_common_neighbors(g, opt); });
    return r;
  }

  std::vector<double> op_s;
  std::vector<double> call_s;
  std::uint64_t id = kFirstOpId;
  run_for(args, r, [&](std::uint64_t) {
    CountArray cnt;
    op_s.push_back(
        timed(nullptr, "", 0, [&] { cnt = core::count_common_neighbors(g, opt); }));
    check.full(std::move(cnt));
    SpanScope op(tracer, "op", ++id);
    call_s.push_back(timed(tracer, "core.call", id, [&] {
      cnt = core::count_common_neighbors(g, opt);
    }));
    SpanScope c(tracer, "check", id);
    check.full(std::move(cnt));
  });

  core::Options single = opt;
  single.num_threads = 1;
  std::vector<double> one_thread;
  for (int i = 0; i < 2; ++i) {
    SpanScope op(tracer, "op", ++id);
    CountArray cnt;
    one_thread.push_back(timed(tracer, "core.call_1t", id, [&] {
      cnt = core::count_common_neighbors(g, single);
    }));
    check.full(std::move(cnt));
  }
  const intersect::StatsCounter stats = kernel_counts(g, opt, tracer);

  r.add("graph.build_s", median(tracer->self_seconds("graph.build")), "s");
  r.add("graph.reverse_index_s",
        median(tracer->self_seconds("graph.reverse_index")), "s");
  r.add("graph.csr_mb", csr_bytes(g, true) / kMiB, "MiB");
  add_intersect(r, stats);
  r.add("core.count_s", median(tracer->self_seconds("core.call")), "s");
  r.add("core.speedup_4t", median(one_thread) / median(op_s), "x");
  r.add("trace.overhead_pct", overhead_pct(call_s, op_s), "%");
  return r;
}

}  // namespace perfbench
