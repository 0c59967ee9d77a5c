// serve-mixed: one client runs a closed loop over a seeded script against
// one serve::Service in its production configuration (dispatcher thread
// on). A round follows the sustained mixed section of
// bench/bench_serve_throughput.cpp: 2500 query_edge calls on a hot set of
// 2048 edges with uniform popularity, then 16 delete-and-re-add flips of
// random edges, each its own apply_updates() call, then publish(). Each
// round also sends a cold tail of random edges and two-hop non-edge
// candidates, one query_batch and one window of submit_edge calls whose
// futures are awaited together; perfbench/README.md states these shares
// as assumptions. Every reply is checked against a shadow adjacency kept
// here (the graph of the epoch the reply names), every mutation batch
// against its script.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <future>
#include <memory>
#include <span>

#include "bench.hpp"
#include "core/api.hpp"
#include "graph/generators.hpp"
#include "serve/service.hpp"
#include "util/prng.hpp"

namespace perfbench {
namespace {

namespace core = aecnc::core;
namespace graph = aecnc::graph;
namespace serve = aecnc::serve;
namespace update = aecnc::update;
using aecnc::VertexId;

constexpr double kServeEdges = 3.5e5;

// From bench_serve_throughput's mixed section (its default 20000 queries
// over 8 rounds): query_edge calls per round, hot-set size, and flips
// (delete + re-add of one edge, one apply_updates call) per publish.
constexpr int kRoundQueries = 2500;
constexpr int kHotEdges = 2048;
constexpr int kFlips = 16;
// Assumptions with no source in the repository: the share of query pairs
// outside the hot set (half random edges, half two-hop candidates), and
// one query_batch and one submit window per round, each as many pairs as
// the dispatcher coalesces into one engine batch by default
// (ServiceConfig::max_coalesce).
constexpr int kColdPercent = 10;
constexpr int kBatchPairs = 256;
constexpr int kWindowPairs = 256;
/// Ops of a round: the query_edge calls, the batch, the window and the
/// mutation batch.
constexpr std::size_t kRoundOps = kRoundQueries + 3;
/// Rounds of the traced run: fixed, so its counts repeat for a seed.
constexpr int kTracedRounds = 24;

/// The benchmark's own view of the graph: sorted adjacency built from
/// the raw edge list, mutated in step with the service.
class Shadow {
 public:
  explicit Shadow(const graph::EdgeList& edges) : adj_(edges.num_vertices()) {
    for (const graph::Edge& e : edges.edges()) {
      if (e.u == e.v) continue;
      adj_[e.u].push_back(e.v);
      adj_[e.v].push_back(e.u);
    }
    for (auto& a : adj_) {
      std::sort(a.begin(), a.end());
      a.erase(std::unique(a.begin(), a.end()), a.end());
      edges_ += a.size();
    }
    edges_ /= 2;
  }

  [[nodiscard]] VertexId size() const {
    return static_cast<VertexId>(adj_.size());
  }
  [[nodiscard]] std::size_t edges() const { return edges_; }
  [[nodiscard]] const std::vector<VertexId>& operator[](VertexId u) const {
    return adj_[u];
  }
  [[nodiscard]] bool has(VertexId u, VertexId v) const {
    return std::binary_search(adj_[u].begin(), adj_[u].end(), v);
  }
  void apply(const update::Mutation& m) {
    if (m.kind == update::kAddEdge) {
      if (insert(m.u, m.v) && insert(m.v, m.u)) ++edges_;
    } else {
      if (erase(m.u, m.v) && erase(m.v, m.u)) --edges_;
    }
  }
  /// True when `r` is the exact reply for its pair on this graph.
  [[nodiscard]] bool matches(const serve::QueryResult& r, VertexId u,
                             VertexId v) const {
    return r.status == serve::ReplyStatus::kFresh && r.u == u && r.v == v &&
           r.is_edge == has(u, v) &&
           r.count == direct_common(adj_[u], adj_[v]);
  }

 private:
  bool insert(VertexId u, VertexId v) {
    auto& a = adj_[u];
    const auto it = std::lower_bound(a.begin(), a.end(), v);
    if (it != a.end() && *it == v) return false;
    a.insert(it, v);
    return true;
  }
  bool erase(VertexId u, VertexId v) {
    auto& a = adj_[u];
    const auto it = std::lower_bound(a.begin(), a.end(), v);
    if (it == a.end() || *it != v) return false;
    a.erase(it);
    return true;
  }

  std::vector<std::vector<VertexId>> adj_;
  std::size_t edges_ = 0;
};

enum class OpKind { kEdge, kBatch, kWindow, kMutate };

struct Op {
  OpKind kind = OpKind::kEdge;
  std::vector<serve::EdgeQuery> pairs;  // the queried pairs
  std::vector<update::Mutation> muts;   // kMutate only: kFlips (del, add)
};

/// The seeded op stream. Drawn from the base graph only, so every client
/// that replays it sees the same script.
class Script {
 public:
  Script(const Shadow& base, std::uint64_t seed) : base_(base), rng_(seed) {
    for (VertexId u = 0; u < base.size(); ++u) {
      for (std::size_t k = 0; k < base[u].size(); ++k) slot_src_.push_back(u);
    }
    for (int i = 0; i < kHotEdges; ++i) hot_.push_back(random_edge());
  }

  /// kRoundQueries query_edge ops with the batch and the window after a
  /// third and two thirds of them, then the mutation batch.
  [[nodiscard]] std::vector<Op> round() {
    std::vector<Op> ops;
    for (int i = 0; i < kRoundQueries; ++i) {
      if (i == kRoundQueries / 3) {
        ops.push_back(queries(OpKind::kBatch, kBatchPairs));
      }
      if (i == 2 * kRoundQueries / 3) {
        ops.push_back(queries(OpKind::kWindow, kWindowPairs));
      }
      ops.push_back(queries(OpKind::kEdge, 1));
    }
    Op flips;
    flips.kind = OpKind::kMutate;
    for (int k = 0; k < kFlips; ++k) {
      const serve::EdgeQuery e = random_edge();
      flips.muts.push_back({update::kDelEdge, e.u, e.v});
      flips.muts.push_back({update::kAddEdge, e.u, e.v});
    }
    ops.push_back(std::move(flips));
    return ops;
  }

 private:
  /// A uniformly random edge: a uniform directed slot, so endpoints
  /// follow degree and hub edges are drawn as often as they exist.
  serve::EdgeQuery random_edge() {
    const std::size_t slot = rng_() % slot_src_.size();
    const VertexId u = slot_src_[slot];
    const auto& nbrs = base_[u];
    // slot_src_ lists u once per neighbor; pick one of them.
    return {u, nbrs[rng_() % nbrs.size()]};
  }

  Op queries(OpKind kind, int pairs) {
    Op op;
    op.kind = kind;
    for (int k = 0; k < pairs; ++k) op.pairs.push_back(query_pair());
    return op;
  }

  serve::EdgeQuery query_pair() {
    const std::uint64_t p = rng_() % 100;
    if (p >= kColdPercent) return hot_[rng_() % hot_.size()];
    const serve::EdgeQuery e = random_edge();
    if (p < kColdPercent / 2) return e;
    const auto& two_hop = base_[e.v];
    const VertexId w = two_hop[rng_() % two_hop.size()];
    return {e.u, w == e.u ? e.v : w};
  }

  const Shadow& base_;
  aecnc::util::Xoshiro256 rng_;
  std::vector<VertexId> slot_src_;
  std::vector<serve::EdgeQuery> hot_;
};

serve::ServiceConfig production_config(VertexId vertices) {
  serve::ServiceConfig cfg;
  cfg.engine.options = production_options(core::Algorithm::kMps);
  cfg.engine.num_workers = kThreads;
  cfg.update.recount_options = production_options(core::Algorithm::kMps);
  cfg.update.max_vertices = vertices;
  require_production(cfg.engine.options);
  require_production(cfg.update.recount_options);
  return cfg;
}

/// What one replay of the script measures. Per-call latencies are kept
/// for one round at a time and summarised per round, so memory does not
/// grow with the number of rounds a run completes (and neither does its
/// peak RSS); the traced run, whose round count is fixed, also pools
/// them.
struct Samples {
  explicit Samples(bool pool_calls) : pool(pool_calls) {}

  bool pool;
  std::vector<double> edge_us;  // this round's query_edge latencies
  std::vector<double> hit_us;   // ... of cached replies
  std::vector<double> miss_us;  // ... of computed replies
  std::vector<double> all_hit_us, all_miss_us;  // pooled (traced run)
  std::vector<double> batch_us;     // one query_batch call
  std::vector<double> window_us;    // submit_edge x k, then every get()
  std::vector<double> apply_ms;     // one apply_updates call
  std::vector<double> publish_ms;   // one publish()
  std::vector<double> mutation_ms;  // a round's flips and its publish
  // One entry per round.
  std::vector<double> edge_p50_us, edge_p99_us;
  std::vector<double> pairs_per_s;  // query pairs ÷ time in query calls
  std::vector<double> op_us;        // all client time ÷ ops, writes included
  std::vector<double> client_s;     // all client time
  std::vector<double> slowdown;     // the host's, around the round

  /// Close a round; `query_s` and `all_s` are already divided by the
  /// host's `slow`down.
  void end_round(double pairs, double query_s, double ops, double all_s,
                 double slow) {
    edge_p50_us.push_back(median(edge_us));
    edge_p99_us.push_back(quantile(edge_us, 0.99));
    pairs_per_s.push_back(pairs / query_s);
    op_us.push_back(all_s / ops * 1e6);
    client_s.push_back(all_s);
    slowdown.push_back(slow);
    if (pool) {
      all_hit_us.insert(all_hit_us.end(), hit_us.begin(), hit_us.end());
      all_miss_us.insert(all_miss_us.end(), miss_us.begin(), miss_us.end());
    }
    edge_us.clear();
    hit_us.clear();
    miss_us.clear();
  }
};

/// One service plus the shadow its replies are checked against.
class Client {
 public:
  Client(const graph::EdgeList& edges, Tracer* tracer, Report& report)
      : shadow_(edges), tracer_(tracer), report_(report) {}

  /// The program's set-up, kSetupReps times from copies of the edge
  /// list, each rep pinned to the next vCPU and divided by the host's
  /// slowdown on it; returns the median. The service itself (and its
  /// threads) is created before the pin and untimed. The last service is
  /// kept.
  double setup(const graph::EdgeList& edges) {
    std::vector<double> reps;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      graph::EdgeList copy = edges;  // input generation: not timed
      svc_.reset();
      svc_ = std::make_unique<serve::Service>(
          production_config(edges.num_vertices()));
      PinnedScope pin(static_cast<std::uint64_t>(rep));
      SpeedScale speed(Vcpus::kThis);
      const double t = timed(tracer_, "setup", rep, [&] {
        graph::Csr g;
        timed(tracer_, "graph.build", rep,
              [&] { g = graph::Csr::from_edge_list(std::move(copy)); });
        timed(tracer_, "serve.publish", rep,
              [&] { svc_->publish(std::move(g)); });
        // The first apply_updates seeds the mutation pipeline (one
        // all-edge count); it applies nothing.
        timed(tracer_, "update.seed", rep, [&] { svc_->apply_updates({}); });
      });
      reps.push_back(t / speed.around());
    }
    epoch_ = svc_->current_epoch();
    return median(reps);
  }

  [[nodiscard]] serve::Service& service() { return *svc_; }

  /// Replay one round, pinned to the next vCPU. Replies are checked
  /// after the round's queries (and before its mutation batch), so the
  /// checks do not sit between timed calls. The round's times are divided
  /// by the host's slowdown on its vCPU, read before and after the round.
  void round(const std::vector<Op>& ops, Samples& s) {
    PinnedScope pin(rounds_++);
    SpeedScale speed(Vcpus::kThis);
    double pairs = 0.0;
    double query_s = 0.0;
    double all_s = 0.0;
    for (const Op& op : ops) {
      try {
        const double t = run(op, s);
        all_s += t;
        if (op.kind != OpKind::kMutate) {
          query_s += t;
          pairs += static_cast<double>(op.pairs.size());
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve op failed: %s\n", e.what());
        report_.op(false);
      }
    }
    const double slowdown = speed.around();
    check_pending(++op_id_);
    s.end_round(pairs, query_s / slowdown, static_cast<double>(ops.size()),
                all_s / slowdown, slowdown);
  }

  void plant_wrong_count() { plant_ = true; }

 private:
  struct Pending {
    const Op* op;
    std::vector<serve::QueryResult> replies;
  };

  /// Execute one op; returns the client's time inside the library.
  double run(const Op& op, Samples& s) {
    const std::uint64_t id = ++op_id_;
    SpanScope span(tracer_, "op", id);
    switch (op.kind) {
      case OpKind::kEdge: {
        const auto [u, v] = op.pairs.front();
        std::vector<serve::QueryResult> rs(1);
        const double t = timed(tracer_, "serve.query_edge", id,
                               [&] { rs[0] = svc_->query_edge(u, v); });
        s.edge_us.push_back(t * 1e6);
        (rs[0].cached ? s.hit_us : s.miss_us).push_back(t * 1e6);
        pending_.push_back({&op, std::move(rs)});
        return t;
      }
      case OpKind::kBatch: {
        std::vector<serve::QueryResult> rs;
        const double t = timed(tracer_, "serve.query_batch", id,
                               [&] { rs = svc_->query_batch(op.pairs); });
        s.batch_us.push_back(t * 1e6);
        pending_.push_back({&op, std::move(rs)});
        return t;
      }
      case OpKind::kWindow: {
        std::vector<serve::QueryResult> rs;
        const double t = timed(tracer_, "serve.submit_window", id, [&] {
          std::vector<std::future<serve::QueryResult>> fs;
          for (const auto& [u, v] : op.pairs) {
            fs.push_back(svc_->submit_edge(u, v));
          }
          for (auto& f : fs) rs.push_back(f.get());
        });
        s.window_us.push_back(t * 1e6);
        pending_.push_back({&op, std::move(rs)});
        return t;
      }
      case OpKind::kMutate:
        return mutate(op, id, s);
    }
    return 0.0;
  }

  /// The round's flips, one apply_updates call each, then publish().
  /// Checked against the script: each flip erases and inserts exactly
  /// one edge, the epoch advances by one, and the published graph has
  /// the shadow's edge count.
  double mutate(const Op& op, std::uint64_t id, Samples& s) {
    check_pending(id);
    const serve::Epoch before = svc_->current_epoch();
    const std::span<const update::Mutation> muts(op.muts);
    bool ok = true;
    double t = 0.0;
    for (std::size_t k = 0; k < muts.size(); k += 2) {
      update::ApplyReport rep;
      const double a = timed(tracer_, "update.apply", id, [&] {
        rep = svc_->apply_updates(muts.subspan(k, 2));
      });
      s.apply_ms.push_back(a * 1e3);
      t += a;
      ok = ok && rep.erased == 1 && rep.inserted == 1 && rep.noops == 0 &&
           rep.rejected == 0;
    }
    const double p = timed(tracer_, "update.publish", id,
                           [&] { epoch_ = svc_->publish(); });
    t += p;
    s.publish_ms.push_back(p * 1e3);
    s.mutation_ms.push_back(t * 1e3);
    for (const update::Mutation& m : op.muts) shadow_.apply(m);
    const serve::SnapshotPtr snap = svc_->snapshot();
    report_.op(ok && epoch_ == before + 1 && snap->epoch == epoch_ &&
               snap->graph.num_undirected_edges() == shadow_.edges());
    return t;
  }

  /// Check every reply since the last check against the shadow graph,
  /// which is still the graph of the epoch they name; one op per call.
  void check_pending(std::uint64_t id) {
    SpanScope span(tracer_, "check", id);
    for (Pending& p : pending_) {
      if (plant_ && !p.replies.empty()) {
        ++p.replies.front().count;
        plant_ = false;
      }
      bool ok = p.replies.size() == p.op->pairs.size();
      for (std::size_t i = 0; ok && i < p.replies.size(); ++i) {
        const serve::QueryResult& r = p.replies[i];
        ok = r.epoch == epoch_ &&
             shadow_.matches(r, p.op->pairs[i].u, p.op->pairs[i].v);
      }
      report_.op(ok);
    }
    pending_.clear();
  }

  Shadow shadow_;
  Tracer* tracer_;
  Report& report_;
  std::unique_ptr<serve::Service> svc_;
  serve::Epoch epoch_ = 0;
  std::uint64_t op_id_ = 0;
  std::uint64_t rounds_ = 0;
  std::vector<Pending> pending_;
  bool plant_ = false;
};

}  // namespace

Report run_serve_mixed(const Args& args, Tracer* tracer) {
  const graph::EdgeList edges = generate(
      kTwitter, kServeEdges * args.scale, derive_seed(args.seed, "tw-serve"));
  const Shadow base(edges);
  Script script(base, derive_seed(args.seed, "script"));
  // A recount batch would run the first OpenMP region inside a pinned
  // round and pin the team; start the team here, unpinned.
  (void)core::count_common_neighbors(
      graph::Csr::from_edge_list(graph::clique(8)),
      production_options(core::Algorithm::kMps));

  Report r;
  Client client(edges, tracer, r);
  const double setup_s = client.setup(edges);
  if (args.plant_wrong_count) client.plant_wrong_count();

  // Traced runs add a second, untraced client replaying the identical
  // script in alternating rounds; the gap between the two is the tracing
  // overhead.
  Report plain_report;
  std::unique_ptr<Client> plain;
  if (tracer != nullptr) {
    plain = std::make_unique<Client>(edges, nullptr, plain_report);
    (void)plain->setup(edges);
  }
  Samples warm(false);  // checked, not reported
  const std::vector<Op> warm_ops = script.round();
  client.round(warm_ops, warm);
  if (plain) plain->round(warm_ops, warm);

  if (tracer == nullptr) {
    Samples s(false);
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
    while (s.client_s.size() < 3 || now_ns() < deadline) {
      client.round(script.round(), s);
    }
    r.add("pairs_per_s", median(s.pairs_per_s), "1/s");
    r.add("op_us", median(s.op_us), "us");
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", peak_rss_mib(), "MiB");
    r.add("ok_ratio",
          1.0 - static_cast<double>(r.failed) /
                    static_cast<double>(r.attempted),
          "1");
    std::printf("queries_per_s %.6g 1/s (query pairs / time in the query "
                "entry points), op_us %.6g us (all client time / ops, "
                "writes included): medians of %zu rounds of %zu ops, each "
                "divided by the host's slowdown around it (median %.3f)\n",
                median(s.pairs_per_s), median(s.op_us), s.client_s.size(),
                kRoundOps, median(s.slowdown));
    std::printf("query_p50_us %.4f us, query_p99_us %.4f us (wall time, "
                "medians of per-round values; %d query_edge samples a "
                "round, %d beyond its p99)\n",
                median(s.edge_p50_us), median(s.edge_p99_us), kRoundQueries,
                kRoundQueries / 100);
    std::printf("publish_p50_ms %.4f ms (wall time; %zu mutation batches "
                "of %d apply_updates and a publish)\n",
                median(s.mutation_ms), s.mutation_ms.size(), kFlips);
    return r;
  }

  const serve::ServiceStats before = client.service().stats();
  Samples s(true);
  Samples plain_s(false);
  for (int i = 0; i < kTracedRounds; ++i) {
    const std::vector<Op> ops = script.round();
    plain->round(ops, plain_s);
    client.round(ops, s);
  }
  const serve::ServiceStats after = client.service().stats();
  r.attempted += plain_report.attempted;
  r.failed += plain_report.failed;

  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  const double carried = static_cast<double>(after.cache.carried_forward -
                                             before.cache.carried_forward);
  const double invalidated = static_cast<double>(
      after.cache.invalidations - before.cache.invalidations);
  const double publishes =
      static_cast<double>(after.publishes - before.publishes);

  r.add("graph.build_s", median(tracer->self_seconds("graph.build")), "s");
  r.add("graph.csr_mb",
        static_cast<double>(client.service().snapshot()->graph.memory_bytes()) /
            (1024.0 * 1024.0),
        "MiB");
  r.add("serve.hit_ratio", hits / (hits + misses), "1");
  r.add("serve.hit_us_p50", median(s.all_hit_us), "us");
  r.add("serve.miss_us_p50", median(s.all_miss_us), "us");
  r.add("serve.miss_us_p99", quantile(s.all_miss_us, 0.99), "us");
  r.add("serve.batch_us_p50", median(s.batch_us), "us");
  r.add("serve.async_us_p50", median(s.window_us), "us");
  r.add("serve.engine_pairs",
        static_cast<double>((after.point_computes - before.point_computes) +
                            (after.engine_queries - before.engine_queries)),
        "count");
  r.add("serve.carried_ratio", carried / (carried + invalidated), "1");
  r.add("serve.stale",
        static_cast<double>(after.stale_served - before.stale_served), "count");
  r.add("serve.shed", static_cast<double>(after.slo_shed - before.slo_shed),
        "count");
  r.add("update.seed_s", median(tracer->self_seconds("update.seed")), "s");
  r.add("update.apply_ms_p50", median(s.apply_ms), "ms");
  r.add("update.publish_ms_p50", median(s.publish_ms), "ms");
  r.add("update.delta_batches",
        static_cast<double>(after.updates.delta_batches -
                            before.updates.delta_batches),
        "count");
  r.add("update.recount_batches",
        static_cast<double>(after.updates.recount_batches -
                            before.updates.recount_batches),
        "count");
  r.add("update.touched_per_publish",
        static_cast<double>(after.updates.touched_pairs -
                            before.updates.touched_pairs) /
            publishes,
        "count");
  r.add("trace.overhead_pct",
        (median(s.client_s) / median(plain_s.client_s) - 1.0) * 100.0, "%");
  return r;
}

}  // namespace perfbench
