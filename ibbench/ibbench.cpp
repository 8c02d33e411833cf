// ibbench — the simulator's end-to-end benchmark.
//
// One workload per process. Each run builds its inputs from --seed, runs one
// discarded warm-up rep, then timed reps of the workload through the public
// API (buildTopology + runSimulationOn) until --seconds have been measured,
// checks every rep, and prints a table of end-to-end metrics followed by a
// one-line JSON verdict as the last line of stdout:
//
//   {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// --trace 1 replaces the end-to-end metrics with the per-layer split: timed
// reps run in cycles of untraced, traced (spans around every public call),
// other shard count and watchdog off, and probe passes time each module's
// public entry points from the outside on the workload's own fabrics. Spans
// are kept in memory and written as a Chrome trace-event file when the run
// ends.
//
// No allocator hook: memory is the process's VmHWM, so the parallel paths
// run exactly as they do for a user. No process uses more worker threads
// than the machine has cores (capped at 4).
//
// Usage:
//   ibbench --workload NAME --seconds S [--seed N] [--trace 0|1]
//           [--out DIR] [--reference FILE]
//   ibbench --smoke         all workloads at tiny budgets (health, rep-to-rep
//                           determinism, 1- vs 4-shard digest)
//   ibbench --digest NAME --seed N   print one rep's digest (reference record)
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/simulation.hpp"
#include "core/sl_to_vl.hpp"
#include "fabric/fabric.hpp"
#include "fault/fault_audit.hpp"
#include "routing/lft_image.hpp"
#include "routing/minimal.hpp"
#include "routing/updown.hpp"
#include "subnet/subnet_manager.hpp"
#include "topology/partition.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ibadapt;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---- workloads --------------------------------------------------------------

enum class Budget { kFull, kSmoke };

/// splitmix64 step: decorrelated per-purpose seeds from the one --seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Workload {
  std::string name;
  int fabrics = 1;              // independent fabrics per rep
  bool expectComplete = true;   // the measurement window must close
  bool faults = false;          // fault campaign + reliable transport
  std::function<SimParams(std::uint64_t seed, int fabric)> params;
};

/// True when the switch graph stays connected without the link (sw, port).
bool connectedWithout(const Topology& topo, SwitchId sw, PortIndex port) {
  const Peer& cut = topo.peer(sw, port);
  std::vector<char> seen(static_cast<std::size_t>(topo.numSwitches()), 0);
  std::vector<SwitchId> stack = {0};
  seen[0] = 1;
  int reached = 1;
  while (!stack.empty()) {
    const SwitchId s = stack.back();
    stack.pop_back();
    for (PortIndex q = 0; q < topo.portsPerSwitch(); ++q) {
      const Peer& peer = topo.peer(s, q);
      if (peer.kind != PeerKind::kSwitch) continue;
      if ((s == sw && q == port) || (s == cut.id && q == cut.port)) continue;
      if (!seen[static_cast<std::size_t>(peer.id)]) {
        seen[static_cast<std::size_t>(peer.id)] = 1;
        ++reached;
        stack.push_back(peer.id);
      }
    }
  }
  return reached == topo.numSwitches();
}

/// The fault workload's schedule: `cycles` link faults, one every 125 us
/// (jittered by up to 10 us), each repaired 60 us later, on links drawn from
/// the seed. Every fault and every repair gets its own SM sweep (sweep delay
/// 50 us), so a rep always performs 2 x cycles full replans and audits; a
/// stochastic MTBF draw made the sweep count, and with it run_s, vary by
/// ~30 % from seed to seed.
std::vector<ScriptedFault> faultSchedule(const Topology& topo,
                                         std::uint64_t seed, int cycles) {
  std::vector<ScriptedFault> faults;
  std::uint64_t state = derive(seed, 401);
  const auto draw = [&state](std::uint64_t n) {
    state = derive(state, 1);
    return state % n;
  };
  for (int k = 0; k < cycles; ++k) {
    ScriptedFault f;
    do {
      f.sw = static_cast<SwitchId>(
          draw(static_cast<std::uint64_t>(topo.numSwitches())));
      f.port = static_cast<PortIndex>(
          draw(static_cast<std::uint64_t>(topo.portsPerSwitch())));
    } while (topo.peer(f.sw, f.port).kind != PeerKind::kSwitch ||
             !connectedWithout(topo, f.sw, f.port));
    f.failAtNs = 20'000 + 125'000 * static_cast<SimTime>(k) +
                 static_cast<SimTime>(draw(10'000));
    f.recoverAtNs = f.failAtNs + 60'000;
    faults.push_back(f);
  }
  return faults;
}

/// The four workloads. Sizes were chosen so one rep takes ~1.5-2.5 s on a
/// 4-core x86 host; see README.md for why each exists and which layer it
/// isolates.
std::vector<Workload> workloads(Budget budget, int threads) {
  const bool smoke = budget == Budget::kSmoke;
  std::vector<Workload> ws;

  // The paper's Table-1 regime: saturation on random irregular fabrics.
  // Event-loop bound; planning is ~1 % of the wall.
  ws.push_back({"paper-sat-irr64", smoke ? 2 : 10, true, false,
                [smoke](std::uint64_t seed, int f) {
                  SimParams p;
                  p.topoKind = TopologyKind::kIrregular;
                  p.numSwitches = 64;
                  p.linksPerSwitch = 4;
                  p.nodesPerSwitch = 4;
                  p.topoSeed = seed + static_cast<std::uint64_t>(f);
                  p.trafficSeed = derive(seed, 100 + static_cast<unsigned>(f));
                  p.saturation = true;
                  p.fabric.kernel = SimKernel::kCalendar;
                  p.warmupPackets = smoke ? 500 : 5000;
                  p.measurePackets = smoke ? 3000 : 30000;
                  return p;
                }});

  // Controller-side route computation on a large dragonfly: planning is
  // ~88 % of the wall, the event loop a short tail. The tail is 60k
  // packets, not 8k: a 40 ms run phase varied 11 % from run to run.
  ws.push_back({"plan-df2048", 1, true, false,
                [smoke, threads](std::uint64_t seed, int) {
                  SimParams p;
                  p.topoKind = TopologyKind::kDragonfly;
                  p.dragonflyRoutersPerGroup = 16;
                  p.dragonflyGlobalPerRouter = 8;
                  p.dragonflyGroups = 128;
                  p.nodesPerSwitch = 2;
                  p.topoSeed = seed;
                  p.trafficSeed = derive(seed, 200);
                  p.fabric.kernel = SimKernel::kParallel;
                  p.fabric.threads = threads;
                  p.loadBytesPerNsPerNode = 0.02;
                  p.warmupPackets = smoke ? 200 : 1000;
                  p.measurePackets = smoke ? 1000 : 60000;
                  return p;
                }});

  // The sharded kernel below saturation on a 4-level fat-tree: windows,
  // mailboxes and barriers are ~96 % of the work.
  ws.push_back({"par-ft864", 1, true, false,
                [smoke, threads](std::uint64_t seed, int) {
                  SimParams p;
                  p.topoKind = TopologyKind::kFatTree;
                  p.fatTreeArity = 6;
                  p.fatTreeLevels = 4;
                  p.nodesPerSwitch = 2;
                  p.topoSeed = seed;
                  p.trafficSeed = derive(seed, 300);
                  p.fabric.kernel = SimKernel::kParallel;
                  p.fabric.threads = threads;
                  p.fabric.partition = PartitionStrategy::kTopology;
                  p.loadBytesPerNsPerNode = 0.05;
                  p.warmupPackets = smoke ? 500 : 5000;
                  p.measurePackets = smoke ? 5000 : 500000;
                  return p;
                }});

  // Link faults under reliable transport: full replans and audits inside
  // the run, next to the event loop. Load sits below saturation (accepted
  // equals offered) so the fault path, not congestion, is what is timed.
  ws.push_back({"faults-irr256", 1, false, true,
                [smoke](std::uint64_t seed, int) {
                  SimParams p;
                  p.topoKind = TopologyKind::kIrregular;
                  p.numSwitches = 256;
                  p.linksPerSwitch = 4;
                  p.nodesPerSwitch = 4;
                  p.topoSeed = seed;
                  p.trafficSeed = derive(seed, 400);
                  p.fabric.kernel = SimKernel::kCalendar;
                  p.loadBytesPerNsPerNode = 0.003;
                  p.reliableTransport = true;
                  p.scriptedFaults =
                      faultSchedule(buildTopology(p), seed, smoke ? 1 : 7);
                  p.sweepDelayNs = 50'000;
                  p.reconfig.mode = ReconfigMode::kInstantSweep;
                  p.auditAfterSweep = true;
                  p.invariantChecks = true;
                  p.warmupPackets = 100;
                  p.measurePackets = ~0ULL >> 1;  // run to the horizon
                  p.maxSimTimeNs = smoke ? 200'000 : 1'000'000;
                  return p;
                }});
  return ws;
}

// ---- result digest ----------------------------------------------------------

/// FNV-1a over every deterministic SimResults field. Wall times, the thread
/// count and the shard proxy counters are excluded: they legitimately vary
/// between bit-identical runs.
class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const std::string& s) {
    for (char c : s) add(c);
  }
  void add(const LatencyAccumulator& acc) {
    add(acc.count());
    add(acc.mean());
    add(acc.min());
    add(acc.max());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// `withWatchdog` = false leaves out the invariant watchdog's footprint: its
/// counters and its periodic check events (the only part of kernelEvents
/// that changes when the watchdog is switched off).
void digestResults(Digest& d, const SimResults& r, bool withWatchdog) {
  for (double v : {r.avgLatencyNs, r.minLatencyNs, r.maxLatencyNs,
                   r.stddevLatencyNs, r.p50LatencyNs, r.p95LatencyNs,
                   r.p99LatencyNs, r.p999LatencyNs, r.avgLatencyAdaptiveNs,
                   r.avgLatencyDeterministicNs, r.msgP50LatencyNs,
                   r.msgP99LatencyNs, r.msgP999LatencyNs,
                   r.acceptedBytesPerNsPerSwitch, r.offeredBytesPerNsPerSwitch,
                   r.avgHops, r.adaptiveForwardFraction,
                   r.escapeForwardFraction, r.maxLinkUtilization,
                   r.meanLinkUtilization, r.e2eLatencyNs}) {
    d.add(v);
  }
  for (std::uint64_t v : {r.messagesMeasured, r.generated, r.injected,
                          r.delivered, r.dropped, r.measured,
                          r.inOrderViolations}) {
    d.add(v);
  }
  if (withWatchdog) d.add(r.kernelEvents);
  d.add(r.simEndTimeNs);
  d.add(r.measurementComplete);
  d.add(r.deadlockSuspected);
  d.add(r.livePacketLimitHit);
  d.add(r.faultCampaignRan);

  const ResilienceStats& rs = r.resilience;
  for (int v : {rs.faultsInjected, rs.linksRecovered, rs.smSweeps,
                rs.auditsPassed, rs.auditsRun}) {
    d.add(v);
  }
  d.add(rs.timeToRecovery);
  d.add(rs.degradedTimeNs);
  for (std::uint64_t v :
       {rs.droppedWhileDegraded, rs.droppedWhileHealthy, rs.reconfigSmpsSent,
        rs.installPhaseNs, rs.reconfigLatencyNs, rs.injectionPausedNs,
        rs.packetsCorrupted, rs.crcDrops, rs.silentCorruptions,
        rs.creditUpdatesLost, rs.creditsLeaked, rs.creditsResynced,
        rs.retransmitsSent, rs.duplicatesSuppressed, rs.abandonedPackets,
        rs.uniqueSent, rs.uniqueDelivered}) {
    d.add(v);
  }
  d.add(rs.epochsInstalled);
  d.add(rs.computeRestarts);
  d.add(rs.firstAuditFailure);

  if (withWatchdog) {
    const WatchdogStats& w = r.invariants;
    for (std::uint64_t v :
         {w.checksRun, w.creditConservationViolations, w.splitBoundViolations,
          w.deadlocksDetected, w.livelocksDetected, w.congestionStalls,
          w.throttleIdleObservations, w.crossEpochWaitEdges,
          w.crossEpochDeadlocks, w.creditsRecovered}) {
      d.add(v);
    }
    d.add(w.aborted);
    d.add(w.firstViolation);
  }

  const CongestionStats& c = r.congestion;
  for (std::uint64_t v : {c.fecnMarked, c.congOnsets, c.congestedPortNs,
                          c.zeroCreditStallNs, c.cnpsReceived,
                          c.rateDecreases, c.packetsThrottled, c.heldAtEnd}) {
    d.add(v);
  }
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ---- tracing ----------------------------------------------------------------

struct Span {
  std::string name;
  double startUs = 0.0;
  double endUs = 0.0;
  int id = 0;
  int parent = 0;  // 0 = root
  int rep = 0;
};

/// In-memory span log, written once as a Chrome trace-event file. A null
/// Tracer* means "untraced": timed() still measures, nothing is recorded.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int open(const std::string& name, int parent, int rep) {
    const auto t0 = Clock::now();
    Span s;
    s.name = name;
    s.startUs = usNow();
    s.id = static_cast<int>(spans_.size()) + 1;
    s.parent = parent;
    s.rep = rep;
    spans_.push_back(std::move(s));
    costMs_ += msSince(t0);
    return spans_.back().id;
  }
  void close(int id) {
    const auto t0 = Clock::now();
    spans_[static_cast<std::size_t>(id - 1)].endUs = usNow();
    costMs_ += msSince(t0);
  }
  /// Wall time spent inside open() and close() so far: what tracing adds.
  double costMs() const { return costMs_; }

  void write(const std::string& path, const std::string& workload) const {
    std::ofstream os(path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                    "\"parent\":%d,\"workload\":\"%s\",\"rep\":%d}}",
                    i ? "," : "", s.name.c_str(), s.startUs,
                    s.endUs - s.startUs, s.id, s.parent, workload.c_str(),
                    s.rep);
      os << buf;
    }
    os << "\n]}\n";
  }

 private:
  double usNow() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  double costMs_ = 0.0;
};

/// Runs f() inside a span (when traced) and returns its wall time in ms.
template <typename F>
double timed(Tracer* tr, const std::string& name, int parent, int rep, F&& f) {
  const int id = tr ? tr->open(name, parent, rep) : 0;
  const auto t0 = Clock::now();
  f();
  const double ms = msSince(t0);
  if (tr) tr->close(id);
  return ms;
}

// ---- one rep ----------------------------------------------------------------

struct Rep {
  double setupS = 0.0;    // buildTopology + setupWallMs + planWallMs
  double runS = 0.0;      // runWallMs
  double harvestMs = 0.0; // runSimulationOn wall minus its three phases
  std::vector<SimResults> results;  // one per fabric
  std::uint64_t digest = 0;
  std::uint64_t trafficDigest = 0;  // digest without watchdog counters
  std::string failure;              // empty = healthy
};

/// Health checks every rep must pass, before the determinism checks.
std::string healthFailure(const Workload& w, const SimResults& r) {
  if (r.deadlockSuspected) return "deadlock suspected";
  if (r.invariants.violations() > 0) return "watchdog violations";
  if (r.inOrderViolations > 0) return "in-order violations";
  if (w.expectComplete && !r.measurementComplete) return "measurement incomplete";
  if (w.faults) {
    if (!r.resilience.allAuditsPassed()) return "post-sweep audit failed";
    if (r.resilience.abandonedPackets > 0) return "transport abandoned packets";
  }
  return {};
}

Rep runRep(const Workload& w, std::uint64_t seed, Tracer* tr, int rep,
           const std::function<void(SimParams&)>& tweak = {}) {
  Rep out;
  int repSpan = 0;
  if (tr) repSpan = tr->open("rep", 0, rep);
  Digest d, dt;
  for (int f = 0; f < w.fabrics; ++f) {
    SimParams p = w.params(seed, f);
    if (tweak) tweak(p);
    Topology topo(1, 1, 0);
    const double buildMs = timed(tr, "api.buildTopology", repSpan, rep,
                                 [&] { topo = buildTopology(p); });
    SimResults r;
    const double simMs = timed(tr, "api.runSimulationOn", repSpan, rep,
                               [&] { r = runSimulationOn(topo, p); });
    out.setupS += (buildMs + r.setupWallMs + r.planWallMs) / 1e3;
    out.runS += r.runWallMs / 1e3;
    out.harvestMs += simMs - r.setupWallMs - r.planWallMs - r.runWallMs;
    digestResults(d, r, true);
    digestResults(dt, r, false);
    if (out.failure.empty()) out.failure = healthFailure(w, r);
    out.results.push_back(std::move(r));
  }
  if (tr) tr->close(repSpan);
  out.digest = d.value();
  out.trafficDigest = dt.value();
  return out;
}

// ---- statistics -------------------------------------------------------------

struct Summary {
  double median = 0.0, q1 = 0.0, q3 = 0.0, max = 0.0;
  int n = 0;
};

/// Median and quartiles exactly as Python's statistics.quantiles(n=4)
/// ("exclusive" method) computes them, so compare_runs.py agrees.
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = static_cast<int>(v.size());
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.max = v.back();
  s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  const auto quart = [&](int i) {
    const long m = static_cast<long>(n) + 1;
    long j = i * m / 4;
    j = std::clamp(j, 1L, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = quart(1);
  s.q3 = quart(3);
  return s;
}

double median(std::vector<double> v) { return summarize(std::move(v)).median; }

/// The process's VmHWM. Read right after the warm-up rep, it is the peak
/// memory of one simulation in a fresh process, as a user sees it. Read
/// after a dozen reps it also holds the malloc arenas' retained
/// fragmentation, which made plan-df2048 read 95 or 105 MiB by chance.
double peakRssMb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---- metric output ----------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  Summary s;
  /// Listed in BENCHMARK.json, so part of the verdict line. The others are
  /// printed and written to the results file only.
  bool verdict = true;
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonMetrics(const std::vector<Metric>& ms, bool full) {
  std::string o = "{";
  for (const Metric& m : ms) {
    if (!full && !m.verdict) continue;
    o += (o.size() > 1 ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.s.median) +
         ", \"unit\": \"" + m.unit + "\"";
    if (full) {
      o += ", \"q1\": " + num(m.s.q1) + ", \"q3\": " + num(m.s.q3) +
           ", \"max\": " + num(m.s.max) + ", \"n\": " + std::to_string(m.s.n);
    }
    o += "}";
  }
  return o + "}";
}

void printTable(const std::string& workload, const std::vector<Metric>& ms) {
  std::printf("%s\n  %-28s %14s %14s %14s %14s %4s  %s\n", workload.c_str(),
              "metric", "median", "q1", "q3", "max", "n", "unit");
  for (const Metric& m : ms) {
    std::printf("  %-28s %14.6g %14.6g %14.6g %14.6g %4d  %s\n",
                m.name.c_str(), m.s.median, m.s.q1, m.s.q3, m.s.max, m.s.n,
                m.unit.c_str());
  }
}

Metric exact(const std::string& name, const std::string& unit, double v,
             bool verdict = true) {
  return {name, unit, summarize({v}), verdict};
}

// ---- reference digests ------------------------------------------------------

/// Reference file lines: "<workload> <seed> <digest-hex>"; '#' comments.
std::map<std::pair<std::string, std::uint64_t>, std::string> loadReference(
    const std::string& path) {
  std::map<std::pair<std::string, std::uint64_t>, std::string> ref;
  if (path.empty()) return ref;
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read reference file " + path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, digest;
    std::uint64_t seed = 0;
    if (ls >> name >> seed >> digest) ref[{name, seed}] = digest;
  }
  return ref;
}

// ---- per-layer probes -------------------------------------------------------

/// Accumulates per-layer times (ms) over the workload's fabrics.
using Layers = std::map<std::string, double>;

/// Times each module's public entry points on one of the workload's
/// fabrics, from the outside. The plan parts reproduce what
/// SubnetManager::configure does internally, so their sum against the
/// configure call itself shows how much of planning is attributed. The
/// parts install into a second fresh fabric, so both sides pay the first
/// touch of the tables. Odd passes time the parts before configure, so a
/// slow host phase that starts between the two does not always land on the
/// same side.
void probeFabric(const SimParams& p, int threads, Tracer* tr, int parent,
                 int rep, Layers& acc) {
  Topology topo(1, 1, 0);
  acc["topology.build_ms"] += timed(tr, "topology.buildTopology", parent, rep,
                                    [&] { topo = buildTopology(p); });
  const int shards = std::min(threads, topo.numSwitches());
  PartitionResult part;
  acc["topology.partition_ms"] +=
      timed(tr, "topology.partitionSwitches", parent, rep, [&] {
        part = partitionSwitches(topo, shards, PartitionStrategy::kTopology);
      });
  acc["cut_links"] += static_cast<double>(part.cutLinks);
  acc["total_links"] += static_cast<double>(part.totalLinks);

  std::optional<Fabric> fabric;
  acc["fabric.construct_ms"] += timed(tr, "fabric.Fabric", parent, rep,
                                      [&] { fabric.emplace(topo, p.fabric); });
  Fabric bare(topo, p.fabric);
  SubnetManager sm(*fabric);
  SubnetParams sp;
  sp.rootSelection = p.rootSelection;
  sp.sourceMultipathPlanes = p.sourceMultipathPlanes;
  sp.apmPathSets = p.apmPathSets;
  const auto configure = [&] {
    acc["subnet.configure_ms"] += timed(tr, "subnet.configure", parent, rep,
                                        [&] { sm.configure(sp); });
  };
  if (rep % 2 == 0) configure();

  {
    // The parts, each on its own, on the planner's worker pool (built
    // outside the timings). Scoped so that pool is gone before configure
    // builds its own: the process never holds more workers than cores.
    acc["subnet.discover_ms"] +=
        timed(tr, "subnet.discover", parent, rep, [&] { (void)sm.discover(); });
    const LftPlanSpec spec = SubnetManager::planSpec(*fabric, sp);
    const LftPlanner planner(topo, spec);
    ThreadPool* pool = planner.pool();
    std::optional<SwitchAdjacency> adj;
    acc["routing.adjacency_ms"] += timed(tr, "routing.SwitchAdjacency", parent,
                                         rep, [&] { adj.emplace(topo); });
    acc["routing.minimal_ms"] +=
        timed(tr, "routing.MinimalAdaptiveRouting", parent, rep,
              [&] { MinimalAdaptiveRouting minimal(topo, *adj, pool); });
    UpDownBuildOptions opts;
    opts.keepDownDistances = false;
    opts.pool = pool;
    acc["routing.updown_ms"] +=
        timed(tr, "routing.UpDownRouting", parent, rep, [&] {
          for (int j = 0; j < std::max(1, spec.apmPathSets); ++j) {
            UpDownRouting updown(topo, *adj, spec.rootSelection,
                                 static_cast<unsigned>(j), opts);
          }
        });

    std::vector<std::vector<std::uint8_t>> rows(
        static_cast<std::size_t>(topo.numSwitches()));
    // Rows are filled in configure's batches (pool workers x 4 rows), so the
    // pool's per-batch hand-off, ~10 % of fill on plan-df2048, is attributed
    // here as it is paid there.
    acc["routing.fill_ms"] += timed(tr, "routing.LftPlanner.fillRow", parent,
                                    rep, [&] {
      const std::size_t batch = pool != nullptr ? pool->workerCount() * 4 : 1;
      for (std::size_t start = 0; start < rows.size(); start += batch) {
        const std::size_t count = std::min(batch, rows.size() - start);
        const auto fill = [&](std::size_t i) {
          planner.fillRow(static_cast<SwitchId>(start + i), rows[start + i]);
        };
        if (pool != nullptr) {
          parallelForIndex(*pool, count, fill);
        } else {
          for (std::size_t i = 0; i < count; ++i) fill(i);
        }
      }
    });
    acc["pairs"] += static_cast<double>(topo.numSwitches()) *
                    static_cast<double>(topo.numNodes());
    acc["subnet.install_ms"] +=
        timed(tr, "subnet.setLftBlock", parent, rep, [&] {
          for (std::size_t sw = 0; sw < rows.size(); ++sw) {
            bare.setLftBlock(static_cast<SwitchId>(sw), 0, rows[sw].data(),
                             rows[sw].size());
          }
        });
    acc["subnet.sl2vl_ms"] += timed(tr, "subnet.setSlToVl", parent, rep, [&] {
      const int ports = topo.portsPerSwitch();
      for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        for (PortIndex in = 0; in < ports; ++in) {
          for (PortIndex outp = 0; outp < ports; ++outp) {
            for (int sl = 0; sl < kMaxServiceLevels; ++sl) {
              bare.setSlToVl(sw, in, outp, sl,
                             static_cast<VlIndex>(sl % p.fabric.numVls));
            }
          }
        }
      }
    });
  }
  if (rep % 2 == 1) configure();
  acc["fault.audit_ms"] += timed(tr, "fault.auditFabric", parent, rep,
                                 [&] { (void)auditFabric(*fabric); });
}

/// Setup + plan of a warm SimSession rerun (reset + cached image reinstall)
/// on the workload's first fabric, median of five reruns. Traffic is cut to
/// a token budget: the warm path's cost does not depend on it.
double warmSetupMs(const SimParams& base) {
  SimParams p = base;
  p.warmupPackets = 50;
  p.measurePackets = 200;
  p.saturation = false;
  p.loadBytesPerNsPerNode = 0.01;
  p.reliableTransport = false;
  p.faultMtbfNs = 0.0;
  p.maxSimTimeNs = 200'000;
  SimSession session(p);
  (void)session.run();
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const SimResults warm = session.run();
    ms.push_back(warm.setupWallMs + warm.planWallMs);
  }
  return median(ms);
}

// ---- run modes --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  // run length: run_seconds in BENCHMARK.json
  bool trace = false;
  std::string outDir;
  std::string reference;
};

int workerThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw == 0 ? 1u : hw, 1u, 4u));
}

const Workload& findWorkload(const std::vector<Workload>& ws,
                             const std::string& name) {
  for (const Workload& w : ws) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Per-fabric means of the simulated metrics of one rep.
struct Simulated {
  double accepted = 0.0, p50 = 0.0, p99 = 0.0, delivered = 0.0;
};

Simulated simulated(const Rep& r) {
  Simulated s;
  for (const SimResults& x : r.results) {
    s.accepted += x.acceptedBytesPerNsPerSwitch;
    s.p50 += x.p50LatencyNs;
    s.p99 += x.p99LatencyNs;
    s.delivered += x.resilience.deliveredFraction();
  }
  const double n = static_cast<double>(r.results.size());
  s.accepted /= n;
  s.p50 /= n;
  s.p99 /= n;
  s.delivered /= n;
  return s;
}

int runWorkload(const Options& opt) {
  const auto origin = Clock::now();
  const int threads = workerThreads();
  const auto ws = workloads(Budget::kFull, threads);
  const Workload& w = findWorkload(ws, opt.workload);
  const auto reference = loadReference(opt.reference);
  Tracer tracer(origin);

  int attempted = 0, failed = 0;
  std::string firstFailure;
  std::uint64_t firstDigest = 0;
  const auto check = [&](Rep& r) {
    ++attempted;
    if (attempted == 1) {
      firstDigest = r.digest;
      const auto it = reference.find({w.name, opt.seed});
      if (r.failure.empty() && it != reference.end() &&
          it->second != hex(r.digest)) {
        r.failure = "digest " + hex(r.digest) + " differs from reference " +
                    it->second;
      }
    } else if (r.failure.empty() && r.digest != firstDigest) {
      r.failure = "digest differs from the first rep";
    }
    if (!r.failure.empty()) {
      ++failed;
      if (firstFailure.empty()) firstFailure = r.failure;
    }
  };

  // Warm-up rep: checked, not timed (first reps ran 40-50 % slower on the
  // plan-heavy workloads).
  Rep warm = runRep(w, opt.seed, nullptr, 0);
  check(warm);
  const double peakMb = peakRssMb();

  // Timed reps until the budget is spent. A traced run times cycles of four
  // adjacent reps instead -- untraced, traced, at the other shard count
  // (1 <-> threads), and with the watchdog off -- and reports each
  // comparison as the median of its per-cycle ratios: host speed drifts in
  // phases of several seconds, which cancel out of reps run back to back.
  const bool parallel = warm.results.front().threadsUsed > 1;
  const int otherShards = parallel ? 1 : threads;
  const auto atOtherShards = [&](SimParams& p) {
    p.fabric.kernel =
        otherShards > 1 ? SimKernel::kParallel : SimKernel::kCalendar;
    p.fabric.threads = otherShards;
  };
  const auto withoutWatchdog = [](SimParams& p) { p.invariantChecks = false; };
  std::vector<Rep> plain;
  std::vector<double> traceCost, traceDelta, harvest, speedup, watchdogCost;
  std::uint64_t shardsDigest = 0;
  const auto t0 = Clock::now();
  int rep = 1;
  do {
    Rep r = runRep(w, opt.seed, nullptr, rep++);
    check(r);
    if (opt.trace) {
      const double costBefore = tracer.costMs();
      Rep t = runRep(w, opt.seed, &tracer, rep++);
      check(t);
      Rep s = runRep(w, opt.seed, nullptr, rep++, atOtherShards);
      check(s);
      shardsDigest = s.digest;
      const Rep q = runRep(w, opt.seed, nullptr, rep++, withoutWatchdog);
      ++attempted;
      if (q.trafficDigest != warm.trafficDigest) {
        ++failed;
        if (firstFailure.empty()) {
          firstFailure = "results changed with the watchdog off";
        }
      }
      const double traced = t.setupS + t.runS;
      traceCost.push_back((tracer.costMs() - costBefore) / (traced * 1e3));
      traceDelta.push_back(traced / (r.setupS + r.runS) - 1.0);
      harvest.push_back(t.harvestMs);
      speedup.push_back(parallel ? s.runS / r.runS : r.runS / s.runS);
      watchdogCost.push_back(r.runS / q.runS - 1.0);
    }
    plain.push_back(std::move(r));
  } while (msSince(t0) < opt.seconds * 1e3 || plain.size() < 3);

  std::vector<double> setup, run;
  for (const Rep& r : plain) {
    setup.push_back(r.setupS);
    run.push_back(r.runS);
  }
  const Simulated sim = simulated(warm);

  std::vector<Metric> metrics;
  std::string extra;
  if (!opt.trace) {
    metrics.push_back({"setup_s", "s", summarize(setup)});
    metrics.push_back({"run_s", "s", summarize(run)});
    metrics.push_back(exact("peak_rss_mb", "MiB", peakMb));
    // The simulated metrics repeat exactly for a seed, so they carry no
    // bound: the reference digest and compare_runs.py's equal-seed check
    // hold them exact. failed_frac is the verdict's own attempted/failed.
    metrics.push_back(
        exact("accepted_Bpns_sw", "B/ns/switch", sim.accepted, false));
    metrics.push_back(exact("lat_p50_ns", "sim_ns", sim.p50, false));
    metrics.push_back(exact("lat_p99_ns", "sim_ns", sim.p99, false));
    metrics.push_back(exact("delivered_frac", "fraction", sim.delivered, false));
    metrics.push_back(exact("failed_frac", "reps",
                            static_cast<double>(failed) / attempted, false));
  } else {
    // ---- traced pass: per-layer split ------------------------------------
    // Module probes: five passes over the workload's fabrics, median each.
    // The attributed share is a ratio within each pass.
    std::map<std::string, std::vector<double>> passes;
    for (int pass = 0; pass < 5; ++pass) {
      const int probeSpan = tracer.open("probe", 0, pass);
      Layers acc;
      for (int f = 0; f < w.fabrics; ++f) {
        probeFabric(w.params(opt.seed, f), threads, &tracer, probeSpan, pass,
                    acc);
      }
      tracer.close(probeSpan);
      const double parts =
          acc["subnet.discover_ms"] + acc["routing.adjacency_ms"] +
          acc["routing.minimal_ms"] + acc["routing.updown_ms"] +
          acc["routing.fill_ms"] + acc["subnet.install_ms"] +
          acc["subnet.sl2vl_ms"];
      acc["subnet.unattributed_ms"] = acc["subnet.configure_ms"] - parts;
      acc["subnet.attributed_frac"] = parts / acc["subnet.configure_ms"];
      for (const auto& [k, v] : acc) passes[k].push_back(v);
    }
    Layers L;
    for (auto& [k, v] : passes) L[k] = median(v);

    const int warmSpan = tracer.open("subnet.warm_session", 0, rep);
    const double warmMs = warmSetupMs(w.params(opt.seed, 0));
    tracer.close(warmSpan);

    double events = 0, delivered = 0, windows = 0, xshard = 0, sweeps = 0,
           retx = 0, sent = 0, adaptive = 0;
    for (const SimResults& x : warm.results) {
      events += static_cast<double>(x.kernelEvents);
      delivered += static_cast<double>(x.delivered);
      windows += static_cast<double>(x.windowsExecuted);
      xshard += static_cast<double>(x.crossShardMessages);
      sweeps += x.resilience.smSweeps;
      retx += static_cast<double>(x.resilience.retransmitsSent);
      sent += static_cast<double>(x.resilience.uniqueSent);
      adaptive += x.adaptiveForwardFraction;
    }
    const double runMs = median(run) * 1e3;
    metrics = {
        exact("topology.build_ms", "ms", L["topology.build_ms"]),
        exact("topology.partition_ms", "ms", L["topology.partition_ms"]),
        exact("topology.cut_frac", "fraction",
              L["total_links"] > 0 ? L["cut_links"] / L["total_links"] : 0.0),
        exact("routing.adjacency_ms", "ms", L["routing.adjacency_ms"]),
        exact("routing.minimal_ms", "ms", L["routing.minimal_ms"]),
        exact("routing.updown_ms", "ms", L["routing.updown_ms"]),
        exact("routing.fill_ms", "ms", L["routing.fill_ms"]),
        exact("routing.fill_ns_per_pair", "ns/pair",
              L["routing.fill_ms"] * 1e6 / L["pairs"]),
        exact("subnet.configure_ms", "ms", L["subnet.configure_ms"]),
        exact("subnet.discover_ms", "ms", L["subnet.discover_ms"]),
        exact("subnet.install_ms", "ms", L["subnet.install_ms"]),
        exact("subnet.sl2vl_ms", "ms", L["subnet.sl2vl_ms"]),
        exact("subnet.unattributed_ms", "ms", L["subnet.unattributed_ms"]),
        exact("subnet.attributed_frac", "fraction",
              L["subnet.attributed_frac"]),
        exact("subnet.warm_setup_ms", "ms", warmMs),
        exact("fabric.construct_ms", "ms", L["fabric.construct_ms"]),
        exact("fabric.events", "count", events),
        exact("fabric.ns_per_event", "ns/event", runMs * 1e6 / events),
        exact("fabric.events_per_delivered", "events/pkt", events / delivered),
        exact("fabric.adaptive_frac", "fraction", adaptive / w.fabrics),
        exact("fabric.windows", "count", windows),
        exact("fabric.xshard_per_kevent", "msgs/kevent", xshard * 1e3 / events),
        {"fabric.par_speedup_4t", "x", summarize(speedup)},
        {"fabric.harvest_ms", "ms", summarize(harvest)},
        exact("fault.sweeps", "count", sweeps),
        exact("fault.audit_ms", "ms", L["fault.audit_ms"]),
        exact("host.retx_per_ksent", "retx/kpkt", sent > 0 ? retx * 1e3 / sent : 0.0),
        {"check.watchdog_cost_frac", "fraction", summarize(watchdogCost)},
        {"trace.overhead_frac", "fraction", summarize(traceCost)},
        // The A/B form of the overhead: spans sit outside the library's
        // phase timers, so this reads host noise, not tracing cost.
        {"trace.ab_delta_frac", "fraction", summarize(traceDelta), false},
    };
    extra = ", \"shards_digest\": \"" + hex(shardsDigest) +
            "\", \"shards_other\": " + std::to_string(otherShards);
  }

  printTable(w.name, metrics);
  if (!firstFailure.empty()) {
    std::printf("  FAILED: %s\n", firstFailure.c_str());
  }
  std::printf("  digest %s, %d worker threads, %d reps (%d failed)\n",
              hex(firstDigest).c_str(), threads, attempted, failed);

  if (!opt.outDir.empty()) {
    const std::string base = opt.outDir + "/" + w.name;
    std::ofstream os(base + (opt.trace ? ".trace-metrics.json" : ".json"));
    os << "{\"workload\": \"" << w.name << "\", \"seed\": " << opt.seed
       << ", \"trace\": " << (opt.trace ? "true" : "false")
       << ", \"cores\": " << std::thread::hardware_concurrency()
       << ", \"threads\": " << threads << ", \"digest\": \"" << hex(firstDigest)
       << "\", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"failure\": \"" << firstFailure << "\"" << extra
       << ", \"metrics\": " << jsonMetrics(metrics, true) << "}\n";
    if (opt.trace) tracer.write(base + ".trace.json", w.name);
  }

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              jsonMetrics(metrics, false).c_str());
  return correct ? 0 : 1;
}

/// Tiny-budget pass over every workload: health, rep-to-rep determinism and
/// the 1- vs N-shard digest. Exit code 0 = all good.
int runSmoke() {
  const int threads = workerThreads();
  int bad = 0;
  for (const Workload& w : workloads(Budget::kSmoke, threads)) {
    const auto t0 = Clock::now();
    const Rep a = runRep(w, 1, nullptr, 0);
    const Rep b = runRep(w, 1, nullptr, 1);
    const Rep c = runRep(w, 1, nullptr, 2, [](SimParams& p) {
      const bool par = p.fabric.kernel == SimKernel::kParallel;
      p.fabric.kernel = par ? SimKernel::kCalendar : SimKernel::kParallel;
      p.fabric.threads = par ? 1 : 4;
    });
    std::string why = a.failure;
    if (why.empty() && b.digest != a.digest) why = "rep-to-rep digest differs";
    if (why.empty() && c.digest != a.digest) why = "shard-count digest differs";
    std::printf("%-16s %s  %s  (%.1f s)\n", w.name.c_str(),
                hex(a.digest).c_str(), why.empty() ? "ok" : why.c_str(),
                msSince(t0) / 1e3);
    if (!why.empty()) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

int printDigest(const Options& opt) {
  const auto ws = workloads(Budget::kFull, workerThreads());
  const Rep r = runRep(findWorkload(ws, opt.workload), opt.seed, nullptr, 0);
  if (!r.failure.empty()) {
    std::fprintf(stderr, "%s seed %" PRIu64 ": %s\n", opt.workload.c_str(),
                 opt.seed, r.failure.c_str());
    return 1;
  }
  std::printf("%s %" PRIu64 " %s\n", opt.workload.c_str(), opt.seed,
              hex(r.digest).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  enum class Mode { kRun, kSmoke, kDigest } mode = Mode::kRun;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      std::string value;
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
      }
      const auto need = [&]() -> std::string {
        if (eq != std::string::npos) return value;
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--smoke") {
        mode = Mode::kSmoke;
      } else if (arg == "--workload") {
        opt.workload = need();
      } else if (arg == "--digest") {
        mode = Mode::kDigest;
        opt.workload = need();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(need());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(need());
      } else if (arg == "--trace") {
        opt.trace = std::stoi(need()) != 0;
      } else if (arg == "--out") {
        opt.outDir = need();
      } else if (arg == "--reference") {
        opt.reference = need();
      } else {
        throw std::invalid_argument("unknown argument '" + arg + "'");
      }
    }
    switch (mode) {
      case Mode::kSmoke:
        return runSmoke();
      case Mode::kDigest:
        return printDigest(opt);
      case Mode::kRun:
        if (opt.workload.empty()) {
          throw std::invalid_argument("--workload is required");
        }
        if (!(opt.seconds > 0.0)) {
          throw std::invalid_argument("--seconds must be positive");
        }
        return runWorkload(opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ibbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
