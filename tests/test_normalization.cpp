/// Tests of the three normalization schemes of Section II-B / IV-B:
/// numeric leftmost / max-magnitude, algebraic Q[omega]-inverse (Algorithm 2)
/// and algebraic D[omega]-GCD (Algorithm 3), including the canonicity
/// property that makes QMDD equivalence checking O(1).
#include "algorithms/grover.hpp"
#include "algorithms/gse.hpp"
#include "core/algebraic_system.hpp"
#include "core/export.hpp"
#include "core/numeric_system.hpp"
#include "core/package.hpp"
#include "io/snapshot.hpp"
#include "qc/gates.hpp"
#include "qc/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace qadd::dd {
namespace {

using alg::QOmega;
using qadd::BigInt;
using alg::ZOmega;

TEST(NumericNormalization, LeftmostPivotBecomesOne) {
  NumericSystem system({0.0, NumericSystem::Normalization::LeftmostNonzero});
  std::array<NumericSystem::Weight, 4> weights{
      system.zero(), system.fromComplex({0.5, 0.5}), system.fromComplex({0.25, 0.0}),
      system.fromComplex({-0.5, 0.5})};
  const auto factor = system.normalize(weights);
  EXPECT_EQ(system.toComplex(factor), std::complex<double>(0.5, 0.5));
  EXPECT_TRUE(system.isZero(weights[0]));
  EXPECT_TRUE(system.isOne(weights[1]));
  // 0.25 / (0.5 + 0.5i) = 0.25 - 0.25i.
  EXPECT_NEAR(system.toComplex(weights[2]).real(), 0.25, 1e-12);
  EXPECT_NEAR(system.toComplex(weights[2]).imag(), -0.25, 1e-12);
}

TEST(NumericNormalization, MaxMagnitudeKeepsWeightsBounded) {
  NumericSystem system({0.0, NumericSystem::Normalization::MaxMagnitude});
  std::array<NumericSystem::Weight, 4> weights{
      system.fromComplex({0.1, 0.0}), system.fromComplex({0.9, 0.0}),
      system.fromComplex({-0.9, 0.0}), system.fromComplex({0.3, 0.3})};
  const auto factor = system.normalize(weights);
  // Pivot = leftmost of maximal magnitude = index 1 (0.9).
  EXPECT_EQ(system.toComplex(factor), std::complex<double>(0.9, 0.0));
  EXPECT_TRUE(system.isOne(weights[1]));
  for (const auto w : weights) {
    EXPECT_LE(std::abs(system.toComplex(w)), 1.0 + 1e-12);
  }
}

TEST(NumericNormalization, BothSchemesYieldSameCanonicalDiagrams) {
  // Different normalization, same represented matrix; node counts agree for
  // these benchmarks.
  for (const auto normalization : {NumericSystem::Normalization::LeftmostNonzero,
                                   NumericSystem::Normalization::MaxMagnitude}) {
    Package<NumericSystem> p(2, {0.0, normalization});
    const auto m = qc::complexMatrix(qc::GateKind::H);
    const typename Package<NumericSystem>::GateMatrix h{
        p.system().fromComplex(m[0]), p.system().fromComplex(m[1]),
        p.system().fromComplex(m[2]), p.system().fromComplex(m[3])};
    const auto u = p.makeGate(h, 0);
    // One H node; the identity on the untouched qubit is a skip edge.
    EXPECT_EQ(p.countNodes(u), 1U);
    const auto dense = toDenseMatrix(p, u);
    EXPECT_NEAR(dense.at(0, 0).real(), 1.0 / std::sqrt(2.0), 1e-14);
  }
}

TEST(AlgebraicNormalization, QOmegaInverseMakesPivotOne) {
  AlgebraicSystem system({AlgebraicSystem::Normalization::QOmegaInverse});
  std::array<AlgebraicSystem::Weight, 4> weights{
      system.zero(), system.intern(QOmega::invSqrt2()),
      system.intern(QOmega::omega() * QOmega::invSqrt2()), system.intern(QOmega{3})};
  const auto factor = system.normalize(weights);
  EXPECT_EQ(system.value(factor), QOmega::invSqrt2());
  EXPECT_TRUE(system.isZero(weights[0]));
  EXPECT_TRUE(system.isOne(weights[1]));
  EXPECT_EQ(system.value(weights[2]), QOmega::omega());
  // 3 / (1/sqrt2) = 3 sqrt2 — exact, even though 3 has no inverse in D[omega].
  EXPECT_EQ(system.value(weights[3]), QOmega{3} * QOmega::sqrt2());
}

TEST(AlgebraicNormalization, GcdSchemeStaysDyadic) {
  AlgebraicSystem system({AlgebraicSystem::Normalization::GcdDOmega});
  std::array<AlgebraicSystem::Weight, 4> weights{
      system.intern(QOmega{6}), system.intern(QOmega{10} * QOmega::invSqrt2()),
      system.zero(), system.intern(QOmega{4} * QOmega::omega())};
  const auto factor = system.normalize(weights);
  // All results must remain in D[omega] (Algorithm 3's design constraint).
  for (const auto w : weights) {
    EXPECT_TRUE(system.value(w).isDyadic());
  }
  EXPECT_TRUE(system.value(factor).isDyadic() || !system.value(factor).isZero());
  // Dividing by the factor reproduces the originals:
  EXPECT_EQ(system.value(weights[0]) * system.value(factor), QOmega{6});
}

TEST(AlgebraicNormalization, GcdSchemeIsCanonicalUnderCommonUnits) {
  // Scaling all weights by a common unit must produce identical normalized
  // weights (only the factor changes) — this is what makes nodes canonical.
  AlgebraicSystem system({AlgebraicSystem::Normalization::GcdDOmega});
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::int64_t> c(-5, 5);
  for (int trial = 0; trial < 50; ++trial) {
    std::array<QOmega, 4> values;
    bool allZero = true;
    for (auto& v : values) {
      v = QOmega{ZOmega{BigInt{c(rng)}, BigInt{c(rng)}, BigInt{c(rng)}, BigInt{c(rng)}},
                 static_cast<long>(rng() % 3)};
      allZero = allZero && v.isZero();
    }
    if (allZero) {
      continue;
    }
    // Unit u = omega^j * sqrt2^m * (omega+1)^p.
    QOmega unit = QOmega::omegaPower(static_cast<long>(rng() % 8));
    unit = unit * QOmega{ZOmega::one(), static_cast<long>(rng() % 5) - 2};
    for (unsigned p = 0; p < rng() % 3; ++p) {
      unit = unit * QOmega{ZOmega::omega() + ZOmega::one()};
    }

    std::array<AlgebraicSystem::Weight, 4> plain;
    std::array<AlgebraicSystem::Weight, 4> scaled;
    for (std::size_t i = 0; i < 4; ++i) {
      plain[i] = system.intern(values[i]);
      scaled[i] = system.intern(values[i] * unit);
    }
    (void)system.normalize(plain);
    (void)system.normalize(scaled);
    EXPECT_EQ(plain, scaled) << "normalized weights must not depend on a common unit";
  }
}

TEST(AlgebraicNormalization, QOmegaInverseIsCanonicalUnderCommonScalars) {
  AlgebraicSystem system({AlgebraicSystem::Normalization::QOmegaInverse});
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<std::int64_t> c(-5, 5);
  for (int trial = 0; trial < 50; ++trial) {
    std::array<QOmega, 4> values;
    bool allZero = true;
    for (auto& v : values) {
      v = QOmega{ZOmega{BigInt{c(rng)}, BigInt{c(rng)}, BigInt{c(rng)}, BigInt{c(rng)}},
                 static_cast<long>(rng() % 3), BigInt{2 * (c(rng) % 3) + 7}};
      allZero = allZero && v.isZero();
    }
    if (allZero) {
      continue;
    }
    // Any common non-zero scalar (not just units!) must cancel out.
    const QOmega scalar =
        QOmega{ZOmega{BigInt{1}, BigInt{0}, BigInt{2}, BigInt{3}}, -1, BigInt{5}};
    std::array<AlgebraicSystem::Weight, 4> plain;
    std::array<AlgebraicSystem::Weight, 4> scaled;
    for (std::size_t i = 0; i < 4; ++i) {
      plain[i] = system.intern(values[i]);
      scaled[i] = system.intern(values[i] * scalar);
    }
    (void)system.normalize(plain);
    (void)system.normalize(scaled);
    EXPECT_EQ(plain, scaled);
  }
}

TEST(Normalization, BothAlgebraicSchemesRepresentTheSameStates) {
  // Simulate the same circuit under both schemes; amplitudes must agree
  // exactly (they are different normal forms of the same exact object).
  qc::Circuit circuit(3, "mix");
  circuit.h(0).t(0).cx(0, 1).h(2).v(1).cx(1, 2).tdg(2).h(1);
  qc::Simulator<AlgebraicSystem> inverseSim(circuit,
                                            {AlgebraicSystem::Normalization::QOmegaInverse});
  qc::Simulator<AlgebraicSystem> gcdSim(circuit, {AlgebraicSystem::Normalization::GcdDOmega});
  inverseSim.run();
  gcdSim.run();
  const auto a = inverseSim.package().amplitudes(inverseSim.state());
  const auto b = gcdSim.package().amplitudes(gcdSim.state());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-14) << "index " << i;
  }
  // And node counts agree: both are maximally-reduced forms of one object.
  EXPECT_EQ(inverseSim.stateNodes(), gcdSim.stateNodes());
}

TEST(AlgebraicNormalization, UnitPartSchemeStaysDyadicAndExact) {
  // The experimental future-work scheme: values simulated under it must be
  // exactly those of the canonical schemes (same field elements), even
  // though the diagrams may be less compact.
  qc::Circuit circuit(3, "mix");
  circuit.h(0).t(0).cx(0, 1).h(2).v(1).cx(1, 2).tdg(2).h(1).cz(0, 2);
  qc::Simulator<AlgebraicSystem> canonical(circuit,
                                           {AlgebraicSystem::Normalization::QOmegaInverse});
  qc::Simulator<AlgebraicSystem> experimental(circuit,
                                              {AlgebraicSystem::Normalization::UnitPart});
  canonical.run();
  experimental.run();
  const auto a = canonical.package().amplitudes(canonical.state());
  const auto b = experimental.package().amplitudes(experimental.state());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-14) << i;
  }
  // Node count may only be >= the canonical one (less merging, never more).
  EXPECT_GE(experimental.stateNodes(), canonical.stateNodes());
}

TEST(AlgebraicNormalization, UnitPartIsCanonicalUnderUnitScalars) {
  AlgebraicSystem system({AlgebraicSystem::Normalization::UnitPart});
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::int64_t> c(-5, 5);
  for (int trial = 0; trial < 40; ++trial) {
    std::array<QOmega, 4> values;
    bool allZero = true;
    for (auto& v : values) {
      v = QOmega{ZOmega{BigInt{c(rng)}, BigInt{c(rng)}, BigInt{c(rng)}, BigInt{c(rng)}},
                 static_cast<long>(rng() % 3)};
      allZero = allZero && v.isZero();
    }
    if (allZero) {
      continue;
    }
    QOmega unit = QOmega::omegaPower(static_cast<long>(rng() % 8));
    unit = unit * QOmega{ZOmega::one(), static_cast<long>(rng() % 5) - 2};
    std::array<AlgebraicSystem::Weight, 4> plain;
    std::array<AlgebraicSystem::Weight, 4> scaled;
    for (std::size_t i = 0; i < 4; ++i) {
      plain[i] = system.intern(values[i]);
      scaled[i] = system.intern(values[i] * unit);
    }
    (void)system.normalize(plain);
    (void)system.normalize(scaled);
    EXPECT_EQ(plain, scaled) << "unit-part normalization must cancel common units";
  }
}

TEST(Normalization, GcdSchemeCanonicityGivesO1Equivalence) {
  // Two syntactically different but equal circuits: HH vs identity; TSSdgTdg
  // vs identity — equal diagrams under the GCD scheme, too.
  qc::Circuit c1(2, "a");
  c1.h(0).h(0).t(1).s(1).sdg(1).tdg(1);
  qc::Simulator<AlgebraicSystem> sim(c1, {AlgebraicSystem::Normalization::GcdDOmega});
  sim.run();
  auto& p = sim.package();
  EXPECT_EQ(sim.state(), p.makeZeroState());
}

// -- pinned exact runs -----------------------------------------------------------
//
// Normalization routes its products through the memoized mul.  A cache hit
// returns a handle that was interned before, so the intern table must come
// out with the same values in the same handle order as a recomputation.  The
// figures below were captured before that routing existed; any drift in the
// interned set or its order shows up in the order hash, and any drift in the
// diagram in the node counts or the QDDS bytes.

struct PinnedRun {
  std::size_t distinctValues;
  std::size_t maxBits;
  std::size_t finalNodes;
  std::size_t peakNodes;
  std::size_t qddsBytes;
  std::uint64_t qddsHash;  ///< FNV-1a of the QDDS snapshot of the final state
  std::uint64_t orderHash; ///< FNV-1a of every interned value's text, in handle order
};

std::uint64_t fnv1a(std::uint64_t hash, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t byte : bytes) {
    hash = (hash ^ byte) * 0x100000001b3ULL;
  }
  return hash;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

void expectPinnedRun(const qc::Circuit& circuit, AlgebraicSystem::Normalization normalization,
                     const PinnedRun& pinned) {
  qc::Simulator<AlgebraicSystem> sim(circuit, AlgebraicSystem::Config{normalization});
  sim.run();
  auto& package = sim.package();
  const AlgebraicSystem& system = package.system();
  const std::vector<std::uint8_t> qdds = io::saveVector(package, sim.state());
  std::uint64_t order = kFnvOffset;
  for (AlgebraicSystem::Weight w = 0; w < system.distinctValues(); ++w) {
    const std::string text = system.value(w).toString();
    order = fnv1a(order, std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  }
  EXPECT_EQ(system.distinctValues(), pinned.distinctValues);
  EXPECT_EQ(system.maxBits(), pinned.maxBits);
  EXPECT_EQ(package.countNodes(sim.state()), pinned.finalNodes);
  EXPECT_EQ(package.peakNodes(), pinned.peakNodes);
  EXPECT_EQ(qdds.size(), pinned.qddsBytes);
  EXPECT_EQ(fnv1a(kFnvOffset, qdds), pinned.qddsHash);
  EXPECT_EQ(order, pinned.orderHash);
}

TEST(AlgebraicNormalization, Grover10RunIsPinned) {
  const qc::Circuit circuit = algos::grover({10, 0x2AA, 0});
  expectPinnedRun(circuit, AlgebraicSystem::Normalization::QOmegaInverse,
                  {3945, 205, 19, 8425, 265, 0x1aa63769a8c2f7f7ULL, 0xf06c1cae6cc3c851ULL});
  expectPinnedRun(circuit, AlgebraicSystem::Normalization::GcdDOmega,
                  {2728, 205, 19, 8425, 249, 0xcf52608b1aab252dULL, 0x8b72f5ae9d90d0c2ULL});
}

TEST(AlgebraicNormalization, CliffordTGse2Plus2RunIsPinned) {
  algos::GseOptions options;
  options.systemQubits = 2;
  options.precisionQubits = 2;
  const qc::Circuit circuit = algos::gse(options, {4, 1});
  expectPinnedRun(circuit, AlgebraicSystem::Normalization::QOmegaInverse,
                  {3614, 148, 13, 2744, 1273, 0xea3485bada62496aULL, 0x7762729577fb0157ULL});
  expectPinnedRun(circuit, AlgebraicSystem::Normalization::GcdDOmega,
                  {3953, 38, 13, 2744, 492, 0x36a0d8eac8948b42ULL, 0x1ccf0c270b52884bULL});
}

} // namespace
} // namespace qadd::dd
