/// \file workloads.hpp
/// The two benchmark workloads, one per circuit family of the paper.  Each
/// runs in its own process and takes its family through every surface a
/// user meets: the exact-vs-ε simulation, the ε sweep on the worker pool and
/// qadd_serve over loopback TCP.  Outputs are checked outside the timed
/// sections; `report` gets the end-to-end set when untraced and the
/// per-layer set when `spans` is enabled (`--trace 1`).
#pragma once

#include "common.hpp"

#include "qc/circuit.hpp"

namespace perfbench {

/// The paper's Fig. 3 circuit, Grover at 14 qubits with marked element
/// 2^14/3, exact vs ε=1e-10 serially with a QDDS save/load of each final
/// state; a six-point ε sweep of Grover-10 on the pool; and a server phase
/// on Grover jobs.
void runGrover(const Args& args, Report& report, SpanLog& spans);

/// GSE compiled to Clifford+T: exact vs ε=1e-10 at 3+3 qubits, the Fig. 2
/// six-point ε sweep at 3+5 qubits on the pool, and a server phase on
/// Clifford+T GSE jobs at 2+2.
void runGse(const Args& args, Report& report, SpanLog& spans);

/// The jobs of a server phase: a few exact circuits, which the server's
/// result cache answers after warm-up, and many distinct circuits that run
/// uncached on ε sessions.  All exact circuits have one width, and so do
/// all ε circuits.
struct ServeJobs {
  std::vector<qadd::qc::Circuit> exact;
  std::vector<qadd::qc::Circuit> numeric;
  /// The rate of the nominal phase, rung 0 of the capacity ladder, at
  /// which the serve.* breakdown is measured.
  double nominalRps = 400.0;
  /// Capacity-ladder rung the search starts at, about 60% of the server's
  /// capacity on these jobs.
  int firstRung = 0;
};

/// An in-process qadd_serve driven open loop with a seeded mix of `jobs`:
/// set up (timed, repeated) and then measured for about `seconds` plus the
/// capacity ladder.  Untraced it reports `serve_max_rps`; traced, the
/// `serve.*` breakdown.  Every served job is checked against an offline
/// simulator run.  Returns the median set-up time.
double runServePhase(const Args& args, double seconds, const ServeJobs& jobs, Report& report,
                     SpanLog& spans);

} // namespace perfbench
