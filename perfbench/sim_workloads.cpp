/// \file sim_workloads.cpp
/// The `grover` and `gse` workloads: the paper's exact-vs-ε comparison on
/// its own circuits and an ε sweep on the worker pool, followed by the
/// server phase (serve_workload.cpp) on jobs of the same family.
#include "workloads.hpp"

#include "algebraic/small_kernels.hpp"
#include "algorithms/grover.hpp"
#include "algorithms/gse.hpp"
#include "core/algebraic_system.hpp"
#include "core/numeric_system.hpp"
#include "eval/accuracy.hpp"
#include "eval/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "io/snapshot.hpp"
#include "qc/simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <thread>

namespace perfbench {
namespace {

using namespace qadd;
using AlgSim = qc::Simulator<dd::AlgebraicSystem>;
using NumSim = qc::Simulator<dd::NumericSystem>;

/// The paper's best-tuned tolerance: the numeric side of exact_overhead.
constexpr double kEpsilon = 1e-10;
/// Stated bound on eval::accuracyError of the ε=1e-10 final state against
/// the exact amplitudes.
constexpr double kAccuracyBound = 1e-6;
/// Setup is repeated and its median reported, so one slow page-in does not
/// read as a set-up regression.
constexpr int kSetupRepeats = 5;
/// ε runs are 25-50× cheaper than exact ones; ten per repetition keep
/// num_s, and each repetition's exact_overhead, a median over enough
/// samples.
constexpr std::size_t kNumericRunsPerRep = 10;

dd::NumericSystem::Config numericConfig() {
  dd::NumericSystem::Config config;
  config.epsilon = kEpsilon;
  return config;
}

/// Construct a simulator and run the whole circuit; one span per gate when
/// tracing.  `seconds` is the wall time of construction plus run.
template <class Sim, class Config>
std::unique_ptr<Sim> simulate(const qc::Circuit& circuit, const Config& config, SpanLog& spans,
                              const char* name, double& seconds) {
  const int span = spans.begin(name, "qc");
  const auto start = Clock::now();
  auto sim = std::make_unique<Sim>(circuit, config);
  if (spans.enabled()) {
    for (std::size_t gate = 0; gate < circuit.size(); ++gate) {
      const Scoped step(spans, "qc::Simulator::step", "qc");
      sim->step();
    }
  } else {
    sim->run();
  }
  seconds = secondsSince(start);
  spans.end(span);
  return sim;
}

/// Samples of the exact-vs-ε phase, plus what the traced run reads from the
/// last repetition's packages.
struct SimPhase {
  std::vector<double> algSeconds;
  std::vector<double> numSeconds;
  /// Per repetition: exact time ÷ the median of that repetition's ε runs,
  /// so slow drifts of the host cancel out of the ratio.
  std::vector<double> overheads;
  std::size_t peakNodes = 0;
  std::vector<std::uint8_t> algSnapshot; ///< first repetition's exact final state
  obs::PackageStats repStats;            ///< last repetition, all packages merged
  obs::PackageStats numStats;            ///< last repetition's last ε package
  obs::PackageStats algStats;
  std::uint64_t smallPathHits = 0; ///< during the last exact run
  std::uint64_t smallPathSpills = 0;
  std::unique_ptr<AlgSim> alg; ///< last exact run (ring probe, io)
  std::unique_ptr<NumSim> num; ///< last ε run (io)
};

/// A Grover search's marked element: its final probability must match the
/// closed form.
struct Marked {
  qc::Qubit qubits = 0;
  std::uint64_t element = 0;
};

/// One repetition: one exact run and kNumericRunsPerRep ε runs of `circuit`,
/// with the output checks outside the timed sections.  Returns the summed
/// wall time of the timed sections.
double exactVsNumericRep(const qc::Circuit& circuit, SpanLog& spans, Report& report,
                         SimPhase& phase, const Marked* marked) {
  const auto checkMarked = [&](const auto& sim, const char* which, double tolerance) {
    if (marked == nullptr) {
      return;
    }
    std::array<bool, 64> bits{};
    for (qc::Qubit q = 0; q < marked->qubits; ++q) {
      bits[q] = ((marked->element >> q) & 1ULL) != 0;
    }
    const double probability = sim.probability(std::span<const bool>(bits.data(), marked->qubits));
    const double expected = algos::groverSuccessProbability(
        marked->qubits, algos::groverOptimalIterations(marked->qubits));
    report.check(std::abs(probability - expected) <= tolerance,
                 std::string(which) + " marked-state probability " + std::to_string(probability) +
                     " != closed form " + std::to_string(expected));
  };
  double wall = 0.0;
  double seconds = 0.0;
  const auto& small = alg::detail::smallPathStats();
  const std::uint64_t hitsBefore = small.hits.load();
  const std::uint64_t spillsBefore = small.spills.load();
  phase.alg = simulate<AlgSim>(circuit, dd::AlgebraicSystem::Config{}, spans, "alg.run", seconds);
  phase.smallPathHits = small.hits.load() - hitsBefore;
  phase.smallPathSpills = small.spills.load() - spillsBefore;
  phase.algSeconds.push_back(seconds);
  wall += seconds;
  phase.peakNodes = std::max(phase.peakNodes, phase.alg->package().peakNodes());
  phase.algStats = phase.alg->package().stats();
  phase.repStats = phase.algStats;

  const auto exact = phase.alg->package().amplitudes(phase.alg->state());
  const auto snapshot = io::saveVector(phase.alg->package(), phase.alg->state());
  if (phase.algSnapshot.empty()) {
    phase.algSnapshot = snapshot;
  }
  report.check(snapshot == phase.algSnapshot, "exact final state differs between repetitions");
  checkMarked(*phase.alg, "exact", 1e-9);

  for (std::size_t k = 0; k < kNumericRunsPerRep; ++k) {
    phase.num = simulate<NumSim>(circuit, numericConfig(), spans, "num.run", seconds);
    phase.numSeconds.push_back(seconds);
    wall += seconds;
    phase.peakNodes = std::max(phase.peakNodes, phase.num->package().peakNodes());
    phase.numStats = phase.num->package().stats();
    phase.repStats += phase.numStats;
    const double error =
        eval::accuracyError(phase.num->package().amplitudes(phase.num->state()), exact);
    report.check(error <= kAccuracyBound, "eps=1e-10 accuracy error " + std::to_string(error) +
                                              " exceeds " + std::to_string(kAccuracyBound));
    checkMarked(*phase.num, "eps=1e-10", 1e-6);
  }
  phase.overheads.push_back(
      phase.algSeconds.back() /
      median({phase.numSeconds.end() - kNumericRunsPerRep, phase.numSeconds.end()}));
  return wall;
}

/// Repeat `rep` until `seconds` have been measured.  Untraced runs feed
/// every repetition to the end-to-end samples; a traced run alternates
/// untraced and traced repetitions, starting untraced, and reports the ratio
/// of their median walls as obs.trace_overhead.
void measure(const Args& args, double seconds, SpanLog& spans, Report& report,
             const std::function<double(SpanLog&)>& rep) {
  SpanLog untraced(false);
  std::vector<double> untracedWalls;
  std::vector<double> tracedWalls;
  const auto begin = Clock::now();
  do {
    const bool traced = args.trace && tracedWalls.size() < untracedWalls.size();
    (traced ? tracedWalls : untracedWalls).push_back(rep(traced ? spans : untraced));
  } while (secondsSince(begin) < seconds || (args.trace && tracedWalls.empty()));
  if (args.trace) {
    report.metric("obs.trace_overhead", median(tracedWalls) / median(untracedWalls), "ratio",
                  tracedWalls.size() + untracedWalls.size());
  }
}

volatile std::size_t ringSink = 0;

/// Mean ns per call of `op` over a seeded sample of interned weights,
/// timed for at least 50 ms.
double timeRingOp(const std::vector<alg::QOmega>& sample, std::mt19937_64& rng,
                  const std::function<std::size_t(const alg::QOmega&, const alg::QOmega&)>& op) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs(1024);
  std::uniform_int_distribution<std::size_t> pick(0, sample.size() - 1);
  for (auto& pair : pairs) {
    pair = {pick(rng), pick(rng)};
  }
  std::size_t sink = 0;
  std::size_t calls = 0;
  const auto start = Clock::now();
  do {
    for (const auto& [a, b] : pairs) {
      sink += op(sample[a], sample[b]);
    }
    calls += pairs.size();
  } while (secondsSince(start) < 0.05);
  ringSink = sink; // keeps the calls observable
  return secondsSince(start) * 1e9 / static_cast<double>(calls);
}

/// The algebraic/bigint layer: ring-op costs on the run's own weights, read
/// through AlgebraicSystem::value, plus the weight-table counters.
void reportAlgebraicLayer(Report& report, const SimPhase& phase, std::mt19937_64& rng) {
  const dd::AlgebraicSystem& system = phase.alg->package().system();
  const std::size_t weights = system.distinctValues();
  std::size_t maxBits = 0;
  std::vector<alg::QOmega> nonZero;
  for (dd::AlgebraicSystem::Weight w = 0; w < weights; ++w) {
    maxBits = std::max(maxBits, system.value(w).maxBits());
  }
  std::uniform_int_distribution<dd::AlgebraicSystem::Weight> pick(
      0, static_cast<dd::AlgebraicSystem::Weight>(weights - 1));
  while (nonZero.size() < 256) {
    const alg::QOmega& value = system.value(pick(rng));
    if (!value.isZero()) {
      nonZero.push_back(value);
    }
  }
  const double addNs = timeRingOp(nonZero, rng, [](const alg::QOmega& a, const alg::QOmega& b) {
    return (a + b).maxBits();
  });
  const double mulNs = timeRingOp(nonZero, rng, [](const alg::QOmega& a, const alg::QOmega& b) {
    return (a * b).maxBits();
  });
  const double invNs = timeRingOp(
      nonZero, rng, [](const alg::QOmega& a, const alg::QOmega&) { return a.inverse().maxBits(); });
  report.metric("alg.ring_add_ns", addNs, "ns", 1);
  report.metric("alg.ring_mul_ns", mulNs, "ns", 1);
  report.metric("alg.ring_inv_ns", invNs, "ns", 1);
  report.metric("alg.small_path_hits", static_cast<double>(phase.smallPathHits), "count", 1);
  const std::uint64_t probes = phase.smallPathHits + phase.smallPathSpills;
  report.metric("alg.spill_ratio",
                probes == 0 ? 0.0
                            : static_cast<double>(phase.smallPathSpills) /
                                  static_cast<double>(probes),
                "ratio", 1);
  report.metric("alg.max_bits", static_cast<double>(maxBits), "bits", 1);
  report.metric("alg.weights", static_cast<double>(weights), "count", 1);
  report.metric("alg.op_cache_hit_rate", phase.algStats.weights.opCache.hitRate(), "ratio", 1);
}

/// The qc layer from the traced step spans, per traced repetition.
void reportQcLayer(Report& report, const SpanLog& spans, const obs::PackageStats& repStats,
                   std::size_t gatesPerRep) {
  const std::vector<double> steps = spans.durations("qc::Simulator::step");
  const double reps = static_cast<double>(steps.size()) / static_cast<double>(gatesPerRep);
  double stepSeconds = 0.0;
  for (const double s : steps) {
    stepSeconds += s;
  }
  stepSeconds /= reps;
  std::vector<double> stepUs(steps.size());
  std::transform(steps.begin(), steps.end(), stepUs.begin(), [](double s) { return s * 1e6; });
  report.metric("qc.gates", static_cast<double>(gatesPerRep), "count", 1);
  report.metric("qc.step_s", stepSeconds, "s", steps.size());
  report.metric("qc.step_us_p50", percentile(stepUs, 0.50), "us", steps.size());
  report.metric("qc.step_us_p99", percentile(stepUs, 0.99), "us", steps.size());
  report.metric("qc.kernel_s", stepSeconds - repStats.gc.seconds, "s", steps.size());
}


std::string listSamples(const std::vector<double>& samples) {
  std::string out;
  for (const double s : samples) {
    out += ' ';
    out += std::to_string(s);
  }
  return out;
}

/// QDDS save and reload of a final state into a fresh package; the reload
/// must re-serialize to the same bytes.  Returns the snapshot size.
template <class Sim, class Config>
std::size_t snapshotRoundTrip(Sim& sim, const Config& config, SpanLog& spans, Report& report,
                              std::vector<double>& saveSeconds, std::vector<double>& loadSeconds) {
  auto start = Clock::now();
  std::vector<std::uint8_t> bytes;
  {
    const Scoped span(spans, "io::saveVector", "io");
    bytes = io::saveVector(sim.package(), sim.state());
  }
  saveSeconds.push_back(secondsSince(start));
  typename Sim::Package fresh(sim.package().qubits(), config);
  start = Clock::now();
  typename Sim::VEdge loaded;
  {
    const Scoped span(spans, "io::loadVector", "io");
    loaded = io::loadVector(fresh, std::span<const std::uint8_t>(bytes));
  }
  loadSeconds.push_back(secondsSince(start));
  report.check(io::saveVector(fresh, loaded) == bytes, "QDDS reload does not re-serialize "
                                                       "byte-identically");
  return bytes.size();
}

/// A six-point ε sweep of `circuit` over Fig. 2's tolerances, without a
/// reference run.
eval::SweepSpec epsilonSweep(const qc::Circuit& circuit) {
  eval::SweepSpec spec(circuit);
  spec.options.sampleEvery = std::max<std::size_t>(1, circuit.size() / 60);
  spec.reference = eval::ReferencePolicy::None;
  for (const double epsilon : {0.0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3}) {
    spec.addRun({epsilon, false, {}});
  }
  return spec;
}

/// Shares of --seconds: the simulation repetitions, then the server's
/// nominal-rate phase.  Untraced, the capacity ladder follows (one 3 s
/// probe per rung, usually three to five); a traced run has no ladder and
/// spends that time in its traced nominal phase.
constexpr double kSimShare = 0.65;
constexpr double kNominalShare = 0.1;
constexpr double kTracedNominalShare = 0.35;

/// A workload's circuits, built during its set-up.
struct Family {
  qc::Circuit circuit{0};      ///< exact vs ε
  qc::Circuit sweepCircuit{0}; ///< the ε sweep on the pool
  std::optional<Marked> marked; ///< Grover: the closed-form check
};

/// What both workloads measure, on their own circuits.  Set-up: build the
/// circuits (`make`, repeated, its median reported with the server's
/// set-up), start the pool and warm up with one ε run.  Then, for kSimShare
/// of the time, repetitions of exact vs ε, QDDS round trips of both final
/// states and the ε sweep on the pool; then the server phase on `serveJobs`.
void runFamily(const Args& args, Report& report, SpanLog& spans,
               const std::function<Family()>& make,
               const std::function<ServeJobs(std::uint64_t)>& serveJobs) {
  std::mt19937_64 rng(args.seed);
  std::vector<double> setup;
  std::vector<double> compile;
  Family family;
  const std::size_t jobs = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::unique_ptr<exec::ThreadPool> pool;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    {
      const Scoped span(spans, "synth::compile", "synth");
      family = make();
    }
    compile.push_back(secondsSince(start));
    pool = jobs > 1 ? std::make_unique<exec::ThreadPool>(jobs) : nullptr;
    NumSim(family.circuit, numericConfig()).run();
    setup.push_back(secondsSince(start));
  }
  const eval::SweepSpec sweep = epsilonSweep(family.sweepCircuit);

  SimPhase phase;
  std::vector<double> saveSeconds;
  std::vector<double> loadSeconds;
  std::size_t snapshotBytes = 0;
  std::vector<double> sweepSeconds;
  std::vector<std::vector<std::size_t>> sweepFinalNodes;
  eval::SweepResult lastSweep;
  // The first repetition after set-up runs up to 30% slower (memory the
  // process has not touched yet); the medians over five or more
  // repetitions leave it out.
  const auto rep = [&](SpanLog& log) {
    double wall = exactVsNumericRep(family.circuit, log, report, phase,
                                    family.marked ? &*family.marked : nullptr);
    // The io codec on both final states (outside the timed sections).
    saveSeconds.clear();
    loadSeconds.clear();
    snapshotBytes = snapshotRoundTrip(*phase.alg, dd::AlgebraicSystem::Config{}, log, report,
                                      saveSeconds, loadSeconds);
    snapshotRoundTrip(*phase.num, numericConfig(), log, report, saveSeconds, loadSeconds);

    const int span = log.begin("eval::runSweep", "exec");
    const auto start = Clock::now();
    lastSweep = eval::runSweep(sweep, pool.get());
    const double seconds = secondsSince(start);
    log.end(span);
    sweepSeconds.push_back(seconds);
    wall += seconds;
    std::vector<std::size_t> finals;
    for (const auto& trace : lastSweep.traces) {
      finals.push_back(trace.finalNodes);
      phase.peakNodes = std::max(phase.peakNodes, trace.peakNodes);
    }
    sweepFinalNodes.push_back(std::move(finals));
    return wall;
  };
  measure(args, kSimShare * args.seconds, spans, report, rep);

  // Every point's final node count must match a serial run of that point.
  const eval::SweepResult serial = eval::runSweep(sweep, nullptr);
  for (const auto& finals : sweepFinalNodes) {
    for (std::size_t p = 0; p < serial.traces.size(); ++p) {
      report.check(p < finals.size() && finals[p] == serial.traces[p].finalNodes,
                   "sweep point " + serial.traces[p].label +
                       " final node count differs from its serial run");
    }
  }

  if (args.trace) {
    reportAlgebraicLayer(report, phase, rng);
    reportNumericLayer(report, phase.numStats);
    obs::PackageStats all = phase.repStats;
    all += lastSweep.aggregated;
    reportCoreLayer(report, all);
    reportQcLayer(report, spans, phase.repStats,
                  family.circuit.size() * (1 + kNumericRunsPerRep));
    report.metric("synth.compile_s", median(compile), "s", compile.size());
    report.metric("synth.t_count",
                  static_cast<double>(family.circuit.tCount() + family.sweepCircuit.tCount()),
                  "count", 1);
    double pointSum = 0.0;
    double critical = 0.0;
    for (const auto& trace : lastSweep.traces) {
      pointSum += trace.totalSeconds;
      critical = std::max(critical, trace.totalSeconds);
    }
    report.metric("exec.jobs", static_cast<double>(lastSweep.jobs), "count", 1);
    report.metric("exec.point_s_sum", pointSum, "s", lastSweep.traces.size());
    report.metric("exec.critical_point_s", critical, "s", lastSweep.traces.size());
    report.metric("exec.efficiency",
                  pointSum / (static_cast<double>(lastSweep.jobs) * sweepSeconds.back()), "ratio",
                  1);
    report.metric("io.save_s", median(saveSeconds), "s", saveSeconds.size());
    report.metric("io.load_s", median(loadSeconds), "s", loadSeconds.size());
    report.metric("io.snapshot_bytes", static_cast<double>(snapshotBytes), "bytes", 1);
  }
  // The server phase runs without the simulation's packages and pool.
  phase.alg.reset();
  phase.num.reset();
  pool.reset();

  const double serveSetup =
      runServePhase(args, (args.trace ? kTracedNominalShare : kNominalShare) * args.seconds,
                    serveJobs(args.seed), report, spans);
  if (args.trace) {
    return;
  }
  report.note("alg_s samples:" + listSamples(phase.algSeconds));
  report.note("num_s samples:" + listSamples(phase.numSeconds));
  report.note("sweep_s samples:" + listSamples(sweepSeconds));
  report.metric("setup_s", median(setup) + serveSetup, "s", setup.size());
  report.metric("alg_s", median(phase.algSeconds), "s", phase.algSeconds.size());
  report.metric("num_s", median(phase.numSeconds), "s", phase.numSeconds.size());
  report.metric("exact_overhead", median(phase.overheads), "ratio", phase.overheads.size());
  report.metric("sweep_s", median(sweepSeconds), "s", sweepSeconds.size());
  report.metric("peak_nodes", static_cast<double>(phase.peakNodes), "count", 1);
  report.metric("peak_rss_mb", peakRssMb(), "MB", 1);
}

/// `count` distinct seeded marked elements of an n-qubit search.
std::vector<std::uint64_t> distinctMarked(qc::Qubit qubits, std::size_t count,
                                          std::mt19937_64& rng) {
  std::uniform_int_distribution<std::uint64_t> pick(0, (1ULL << qubits) - 1);
  std::vector<std::uint64_t> marked;
  while (marked.size() < count) {
    const std::uint64_t m = pick(rng);
    if (std::find(marked.begin(), marked.end(), m) == marked.end()) {
      marked.push_back(m);
    }
  }
  return marked;
}

/// Fig. 5's circuit: GSE compiled to Clifford+T.
qc::Circuit gseCircuit(unsigned systemQubits, unsigned precisionQubits,
                       double evolutionTime = 1.0) {
  algos::GseOptions options;
  options.systemQubits = systemQubits;
  options.precisionQubits = precisionQubits;
  options.evolutionTime = evolutionTime;
  return algos::gse(options, {4, 1});
}

/// Fig. 2's circuit: the eigenphase a hair off an ancilla grid point, so the
/// exact state carries small leakage tails that tight ε must represent.
qc::Circuit gseFig2Circuit(unsigned systemQubits, unsigned precisionQubits) {
  const algos::IsingHamiltonian hamiltonian = algos::makeMolecularInstance(systemQubits);
  const double energy = hamiltonian.eigenvalue(0);
  const double targetPhase = 5.0 / std::ldexp(1.0, static_cast<int>(precisionQubits)) + 3e-5;
  return gseCircuit(systemQubits, precisionQubits, -2.0 * M_PI * targetPhase / energy);
}

} // namespace

void runGrover(const Args& args, Report& report, SpanLog& spans) {
  constexpr qc::Qubit kQubits = 14;
  constexpr std::uint64_t kMarked = (1ULL << kQubits) / 3;
  // Grover-10's sweep takes ~2 s: ε=0, 1e-20 and 1e-5 lose compactness and
  // reach the GC watermark, the other three stay small.
  constexpr qc::Qubit kSweepQubits = 10;
  // Server jobs: exact Grover-8 runs for the cache and 256 seeded marked
  // elements of Grover-9 for the uncached ε runs (~4 ms each).
  constexpr qc::Qubit kExactQubits = 8;
  constexpr qc::Qubit kMissQubits = 9;
  runFamily(
      args, report, spans,
      [] {
        return Family{algos::grover({kQubits, kMarked, 0}),
                      algos::grover({kSweepQubits, (1ULL << kSweepQubits) / 3, 0}),
                      Marked{kQubits, kMarked}};
      },
      [](std::uint64_t seed) {
        std::mt19937_64 rng(seed);
        ServeJobs jobs;
        for (const std::uint64_t marked : distinctMarked(kExactQubits, 4, rng)) {
          jobs.exact.push_back(algos::grover({kExactQubits, marked, 0}));
        }
        for (const std::uint64_t marked : distinctMarked(kMissQubits, 256, rng)) {
          jobs.numeric.push_back(algos::grover({kMissQubits, marked, 0}));
        }
        jobs.nominalRps = 400.0;
        jobs.firstRung = 10; // 1037 req/s
        return jobs;
      });
}

void runGse(const Args& args, Report& report, SpanLog& spans) {
  runFamily(
      args, report, spans,
      [] { return Family{gseCircuit(3, 3), gseFig2Circuit(3, 5), std::nullopt}; },
      [](std::uint64_t seed) {
        // Server jobs: Clifford+T GSE at 2+2 with seeded evolution times;
        // exact runs ~45 ms, ε runs ~4 ms.
        std::mt19937_64 rng(seed);
        std::uniform_real_distribution<double> time(0.2, 3.0);
        ServeJobs jobs;
        for (int k = 0; k < 4; ++k) {
          jobs.exact.push_back(gseCircuit(2, 2, time(rng)));
        }
        for (int k = 0; k < 256; ++k) {
          jobs.numeric.push_back(gseCircuit(2, 2, time(rng)));
        }
        jobs.nominalRps = 200.0;
        jobs.firstRung = 8; // 428 req/s
        return jobs;
      });
}

} // namespace perfbench
