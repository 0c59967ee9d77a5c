// Shared pieces of the perfbench program: run arguments, the result record,
// wall-clock timing, the span tracer, the production-configuration guard,
// the seeded graph recipes and the host stanza.
//
// Every timed call goes through the library's public API from this
// process; the tracer records spans around those calls from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every graph size; the smoke tests run at a tiny scale.
  double scale = 1.0;
  /// Corrupt one count of the first timed op before it is checked, so a
  /// test can see the check fire.
  bool plant_wrong_count = false;
  /// Chrome trace-event JSON output of the traced run ("" = not written).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: its metrics plus the op accounting.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record one checked op.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// --- timing -------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (0 for an empty sample).
[[nodiscard]] double median(std::vector<double> v);

/// Value at quantile q of `v` (nearest rank).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Peak resident set of this process so far (VmHWM), less the host
/// gauge's pool (below), which stays resident from the start; in MiB.
[[nodiscard]] double peak_rss_mib();

// --- tracing --------------------------------------------------------------

/// One call into the library, timed from outside.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        // index of the enclosing span, -1 at top level
  std::uint64_t op = 0;   // id shared by every span of one op
};

/// In-memory span recorder for the single benchmark thread. Spans nest by
/// call order: a span begun while another is open becomes its child.
class Tracer {
 public:
  int begin(const char* name, std::uint64_t op);
  void end(int index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Self time (duration minus the time its children cover) of every
  /// span called `name`, in seconds, in recording order.
  [[nodiscard]] std::vector<double> self_seconds(std::string_view name) const;
  /// True when every child lies inside its parent and shares its op id.
  [[nodiscard]] bool well_nested() const;
  /// Chrome trace-event JSON ("X" events; args carry id, parent and op).
  void write_chrome_json(const std::string& path,
                         const std::string& host_json) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), index_(tracer ? tracer->begin(name, op) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Run `f` inside a span (when traced) and return its wall time in s.
template <typename F>
double timed(Tracer* tracer, const char* name, std::uint64_t op, F&& f) {
  SpanScope span(tracer, name, op);
  const std::int64_t t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// --- configuration --------------------------------------------------------

/// Worker threads for every parallel call; the host stanza records nproc.
inline constexpr int kThreads = 4;

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 8;

/// Pins the calling thread to one vCPU for the scope's lifetime: the
/// (slot mod n)-th of the n vCPUs the process may use. A vCPU of the host
/// can drift in speed on its own, so single-threaded stretches (set-up
/// reps, the serve client's rounds) rotate over every vCPU instead of
/// riding whichever one the scheduler picked. Threads the library starts
/// inside the scope inherit the pin, so scopes never wrap a call that
/// creates threads; count calls stay unpinned because a pinned caller
/// shares its vCPU with a spinning OpenMP worker.
class PinnedScope {
 public:
  explicit PinnedScope(std::uint64_t slot);
  ~PinnedScope();
  PinnedScope(const PinnedScope&) = delete;
  PinnedScope& operator=(const PinnedScope&) = delete;

 private:
  std::vector<int> saved_;  // the vCPUs allowed before the pin
};

/// Blocks of kMmapThreshold bytes and more get their own mapping, returned
/// to the kernel when freed, so peak RSS follows live memory. glibc's
/// default raises the threshold to the largest block freed so far; blocks
/// of 1-4 MiB (serve-mixed's snapshots) then fragment the heap, and its
/// peak RSS moved from 63 to 78 MiB with the seed (57 MiB for every seed
/// with the threshold fixed). Recorded in the host stanza.
inline constexpr int kMmapThreshold = 1 << 20;
void fix_mmap_threshold();

/// Throws unless the run would time the production configuration: the
/// observability runtime off (AECNC_OBS unset) and the widest MPS kernel
/// the CPU supports, as `aecnc_cli count` selects it.
void require_production(const aecnc::core::Options& options);

/// The production options for an MPS or BMP count at kThreads.
[[nodiscard]] aecnc::core::Options production_options(
    aecnc::core::Algorithm algorithm);

// --- host speed -------------------------------------------------------------

/// Which vCPUs a reading of the host's speed covers: the caller's, for a
/// single-threaded stretch on a pinned caller, or every vCPU the process
/// may use, for a parallel op.
enum class Vcpus { kThis, kAll };

/// How slow the host is right now, 1 on the quiet host the benchmark was
/// tuned on: the wall time of one pass of a fixed reference kernel ÷ its
/// time there. The kernel is written here and runs on data that depend
/// on nothing (not the seed, not the library): scalar merges of pairs of
/// sorted lists from an 8 MiB pool, one thread. kThis runs one pass on
/// the caller's vCPU. kAll pins one pass to each vCPU in turn and
/// combines them as capacity (harmonic mean), which is how a dynamically
/// scheduled parallel op sees vCPUs of unequal speed. Timed ops are
/// divided by the mean of the readings taken right before and right
/// after them, so the gated times read as wall time on the quiet host: a
/// change to the library moves them in full, a change in the host's
/// speed much less.
[[nodiscard]] double host_slowdown(Vcpus vcpus);

/// Readings of host_slowdown around a sequence of timed ops: one when
/// constructed, then one after each op, so each reading serves the op
/// before it and the op after it.
class SpeedScale {
 public:
  explicit SpeedScale(Vcpus vcpus)
      : vcpus_(vcpus), last_(host_slowdown(vcpus)) {}
  /// Reads the gauge again; returns the mean of this reading and the
  /// previous one, the slowdown to divide the op between them by.
  double around() {
    const double now = host_slowdown(vcpus_);
    const double mean = 0.5 * (last_ + now);
    last_ = now;
    return mean;
  }

 private:
  Vcpus vcpus_;
  double last_;
};

// --- inputs ---------------------------------------------------------------

/// A graph recipe after the paper's dataset replicas (graph/datasets.cpp):
/// a Chung-Lu body plus optional hubs adjacent to a uniform subset of the
/// vertices. graph::make_dataset fixes each replica's seed, so the
/// benchmark applies the recipe itself with a seed taken from --seed.
struct Recipe {
  double vertices_per_edge;  // |V| / |E| of the original dataset
  double exponent;           // Chung-Lu tail exponent
  double hub_edge_share;     // fraction of edges carried by added hubs
  double hub_degree_share;   // hub degree as a fraction of |V|
};

/// TW (twitter) replica recipe: skewed body plus celebrity hubs.
inline constexpr Recipe kTwitter{41652230.0 / 684500375.0, 2.15, 0.30, 0.15};
/// FR (friendster) replica recipe: near-uniform degrees, no hubs.
inline constexpr Recipe kFriendster{124836180.0 / 1806067135.0, 2.75, 0.0,
                                    0.0};

/// About `edges` undirected edges drawn from `recipe`, deterministic in
/// `seed`. The raw generator output: the program normalizes it.
[[nodiscard]] aecnc::graph::EdgeList generate(const Recipe& recipe,
                                              double edges,
                                              std::uint64_t seed);

/// Independent seed for one input of one workload.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::string_view purpose);

/// |N(u) ∩ N(v)| by a plain merge written here, independent of the
/// library's kernels.
[[nodiscard]] std::uint32_t direct_common(std::span<const std::uint32_t> a,
                                          std::span<const std::uint32_t> b);

// --- host -----------------------------------------------------------------

/// One-line JSON host stanza: nproc, ISA, compiler, build type, threads,
/// L3 size and the workload seed.
[[nodiscard]] std::string host_stanza(const Args& args);

// --- workloads ------------------------------------------------------------

Report run_count_skewed(const Args& args, Tracer* tracer);
Report run_count_uniform(const Args& args, Tracer* tracer);
Report run_serve_mixed(const Args& args, Tracer* tracer);

}  // namespace perfbench
