#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "intersect/dispatch.hpp"
#include "obs/metrics.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "";  // __VERSION__ names clang itself
#else
constexpr const char* kCompiler = "gcc ";
#endif

namespace perfbench {

namespace core = aecnc::core;
namespace graph = aecnc::graph;
namespace intersect = aecnc::intersect;

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}


// --- Tracer ---------------------------------------------------------------

int Tracer::begin(const char* name, std::uint64_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size());
  open_.push_back(index);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return index;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> Tracer::self_seconds(std::string_view name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(static_cast<double>(spans_[i].end_ns -
                                        spans_[i].start_ns - child_ns[i]) *
                    1e-9);
    }
  }
  return out;
}

bool Tracer::well_nested() const {
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) return false;
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.op != p.op) {
      return false;
    }
  }
  return true;
}

void Tracer::write_chrome_json(const std::string& path,
                               const std::string& host_json) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"otherData\": " << host_json << ",\n\"traceEvents\": [\n";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"op\":%llu}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, static_cast<unsigned long long>(s.op));
    out << buf;
  }
  out << "\n]}\n";
}

// --- pinning --------------------------------------------------------------

namespace {

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool set_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

PinnedScope::PinnedScope(std::uint64_t slot) : saved_(allowed_cpus()) {
  if (!set_cpus({saved_[slot % saved_.size()]})) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

PinnedScope::~PinnedScope() {
  // Widening back to a mask the thread held a moment ago does not fail.
  (void)set_cpus(saved_);
}

// --- configuration --------------------------------------------------------

void fix_mmap_threshold() {
  if (mallopt(M_MMAP_THRESHOLD, kMmapThreshold) != 1) {
    throw std::runtime_error("mallopt(M_MMAP_THRESHOLD) failed");
  }
}

void require_production(const core::Options& options) {
  if (std::getenv("AECNC_OBS") != nullptr) {
    throw std::runtime_error(
        "AECNC_OBS is set: the benchmark times only the production "
        "configuration, with the observability runtime off");
  }
  if (aecnc::obs::enabled()) {
    throw std::runtime_error("the observability runtime is on");
  }
  if (options.mps.kind != intersect::best_merge_kind()) {
    throw std::runtime_error(
        "MPS kernel is not best_merge_kind(): not the production kernel");
  }
}

core::Options production_options(core::Algorithm algorithm) {
  core::Options o;
  o.algorithm = algorithm;
  o.mps.kind = intersect::best_merge_kind();
  o.parallel = true;
  o.num_threads = kThreads;
  return o;
}

// --- host speed -------------------------------------------------------------

namespace {

/// The reference kernel: kMergePairs merges of pairs of sorted lists
/// drawn from a pool of kPoolLists lists of kPoolLen values below
/// kPoolRange (about 32 common values per pair), 8 MiB in all; branchy
/// scalar work, one thread. kMergeNominal is its median wall time on the
/// quiet host (a vCPU of the 4-vCPU KVM guest described under host noise
/// in README.md).
constexpr std::size_t kPoolLists = 2048;
constexpr std::size_t kPoolLen = 1024;
constexpr std::uint64_t kPoolRange = 1 << 15;
constexpr std::int64_t kMergePairs = 500;
constexpr double kMergeNominal = 7.9e-3;

/// Idle OpenMP workers spin for about 10 ms after a parallel region
/// (libgomp's default spin count) before they sleep; an all-vCPU reading
/// waits this long first, so that no pass shares its vCPU with one.
constexpr std::chrono::milliseconds kSettle{25};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const std::vector<std::uint32_t>& gauge_pool() {
  static const std::vector<std::uint32_t> pool = [] {
    std::vector<std::uint32_t> p(kPoolLists * kPoolLen);
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = static_cast<std::uint32_t>(splitmix64(i) % kPoolRange);
    }
    for (auto it = p.begin(); it != p.end(); it += kPoolLen) {
      std::sort(it, it + kPoolLen);
    }
    return p;
  }();
  return pool;
}

/// Slowdown of one merge pass on the caller's vCPU.
double merge_slowdown() {
  const std::vector<std::uint32_t>& pool = gauge_pool();
  const auto list = [&](std::uint64_t k) {
    return std::span<const std::uint32_t>(
        pool.data() + (k % kPoolLists) * kPoolLen, kPoolLen);
  };
  std::uint64_t total = 0;
  const std::int64_t t0 = now_ns();
  for (std::int64_t i = 0; i < kMergePairs; ++i) {
    const std::uint64_t h = splitmix64(static_cast<std::uint64_t>(i) ^ 0x6a09);
    total += direct_common(list(h), list(h >> 32));
  }
  const double s = static_cast<double>(now_ns() - t0) * 1e-9;
  // Every pass merges the same pairs and finds the same common values.
  static const std::uint64_t expected = total;
  if (total != expected) throw std::logic_error("host gauge miscounted");
  return s / kMergeNominal;
}

}  // namespace

double peak_rss_mib() {
  const double pool_mib =
      static_cast<double>(gauge_pool().size() * sizeof(std::uint32_t)) /
      (1024.0 * 1024.0);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0 - pool_mib;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double host_slowdown(Vcpus vcpus) {
  if (vcpus == Vcpus::kThis) return merge_slowdown();
  std::this_thread::sleep_for(kSettle);
  const std::size_t n = allowed_cpus().size();
  double capacity = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    PinnedScope pin(c);
    capacity += 1.0 / merge_slowdown();
  }
  return static_cast<double>(n) / capacity;
}

// --- inputs ---------------------------------------------------------------

std::uint64_t derive_seed(std::uint64_t seed, std::string_view purpose) {
  // FNV-1a over the purpose, folded into the run seed.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : purpose) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h ^ (seed * 0x9e3779b97f4a7c15ULL);
}

graph::EdgeList generate(const Recipe& recipe, double edges,
                         std::uint64_t seed) {
  const auto m = static_cast<std::uint64_t>(std::max(2048.0, edges));
  const auto n = static_cast<aecnc::VertexId>(
      std::max(512.0, std::round(static_cast<double>(m) *
                                 recipe.vertices_per_edge)));
  const auto body = static_cast<std::uint64_t>(
      std::round(static_cast<double>(m) * (1.0 - recipe.hub_edge_share)));
  graph::EdgeList list =
      graph::chung_lu_power_law(n, body, recipe.exponent, seed);
  if (recipe.hub_edge_share > 0.0) {
    const auto hub_degree = static_cast<aecnc::Degree>(
        std::max(64.0, std::round(recipe.hub_degree_share * n)));
    const auto hubs = static_cast<aecnc::VertexId>(
        std::max<std::uint64_t>(1, (m - body) / hub_degree));
    graph::add_hubs(list, hubs, hub_degree, seed ^ 0x40b5ULL);
  }
  return list;
}

std::uint32_t direct_common(std::span<const std::uint32_t> a,
                            std::span<const std::uint32_t> b) {
  std::uint32_t n = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

// --- host -----------------------------------------------------------------

std::string host_stanza(const Args& args) {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::ostringstream s;
  s << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"isa\": \""
    << (intersect::cpu_has_avx512() ? "AVX-512"
        : intersect::cpu_has_avx2() ? "AVX2"
                                    : "SSE2")
    << "\", \"mps_kernel\": \""
    << intersect::merge_kind_name(intersect::best_merge_kind())
    << "\", \"compiler\": \"" << kCompiler << __VERSION__
    << "\", \"build_type\": \""
    << PERFBENCH_BUILD_TYPE << "\", \"threads\": " << kThreads
    << ", \"l3_bytes\": " << (l3 > 0 ? l3 : 0)
    << ", \"mmap_threshold\": " << kMmapThreshold << ", \"workload\": \""
    << args.workload << "\", \"seed\": " << args.seed
    << ", \"seconds\": " << args.seconds << ", \"scale\": " << args.scale
    << ", \"trace\": " << (args.trace ? 1 : 0) << "}";
  return s.str();
}

}  // namespace perfbench
