#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "fairness/fairness.hpp"
#include "util/rng.hpp"

namespace p2prm::fairness {
namespace {

using util::PeerId;

TEST(JainIndex, EqualLoadsAreTotallyFair) {
  const std::vector<double> loads{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jain_index(loads), 1.0);
}

TEST(JainIndex, SinglePeerCarryingEverythingGivesOneOverN) {
  const std::vector<double> loads{10.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(loads), 0.25);
}

TEST(JainIndex, PaperInterpretationTenPercent) {
  // "A value of 0.1 indicates the system to be fair to only 10% of the
  // users": one loaded peer among ten.
  std::vector<double> loads(10, 0.0);
  loads[0] = 7.0;
  EXPECT_DOUBLE_EQ(jain_index(loads), 0.1);
}

TEST(JainIndex, EmptyAndAllZeroAreFair) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(zeros), 1.0);
}

TEST(JainIndex, NegativeLoadRejected) {
  const std::vector<double> loads{1.0, -0.5};
  EXPECT_THROW((void)jain_index(loads), std::invalid_argument);
}

TEST(JainIndex, ScaleInvariance) {
  util::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> loads;
    for (int i = 0; i < 8; ++i) loads.push_back(rng.uniform(0.0, 100.0));
    const double f1 = jain_index(loads);
    for (auto& l : loads) l *= 37.5;
    EXPECT_NEAR(jain_index(loads), f1, 1e-12);
  }
}

TEST(JainIndex, BoundedInZeroOne) {
  util::Rng rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> loads;
    const int n = 1 + static_cast<int>(rng.below(20));
    for (int i = 0; i < n; ++i) loads.push_back(rng.uniform(0.0, 10.0));
    const double f = jain_index(loads);
    EXPECT_GE(f, 1.0 / n - 1e-12);
    EXPECT_LE(f, 1.0 + 1e-12);
  }
}

TEST(BestLoad, MaximizerIsSumsqOverSumOfOthers) {
  // Solving dF/dx = 0 for Eq. 1 gives l_best = (sum l_j^2) / (sum l_j)
  // over the other peers.
  const std::vector<double> loads{2.0, 4.0, 6.0, 100.0};
  const double best = best_load(loads, 3);
  EXPECT_DOUBLE_EQ(best, 56.0 / 12.0);
  // Index at l_best beats nearby perturbations (the paper's l_best claim).
  auto with = [&](double x) {
    auto copy = loads;
    copy[3] = x;
    return jain_index(copy);
  };
  EXPECT_GT(with(best), with(best + 1.0));
  EXPECT_GT(with(best), with(best - 1.0));
}

TEST(BestLoad, NonMonotonicityAroundBest) {
  // Fairness increases while approaching l_best and decreases beyond it.
  const std::vector<double> loads{10.0, 10.0, 0.0};
  auto with = [&](double x) {
    auto copy = loads;
    copy[2] = x;
    return jain_index(copy);
  };
  EXPECT_LT(with(0.0), with(5.0));
  EXPECT_LT(with(5.0), with(10.0));   // climbing toward l_best = 10
  EXPECT_GT(with(10.0), with(20.0));  // past it, fairness falls again
}

TEST(IncrementalFairness, MatchesBatchComputation) {
  util::Rng rng(7);
  IncrementalFairness inc;
  std::vector<double> loads;
  for (std::uint64_t i = 0; i < 12; ++i) {
    const double l = rng.uniform(0.0, 50.0);
    loads.push_back(l);
    inc.set(PeerId{i}, l);
  }
  EXPECT_NEAR(inc.index(), jain_index(loads), 1e-12);
  // Update a few and re-check.
  for (std::uint64_t i = 0; i < 6; ++i) {
    const double l = rng.uniform(0.0, 50.0);
    loads[i * 2] = l;
    inc.set(PeerId{i * 2}, l);
  }
  EXPECT_NEAR(inc.index(), jain_index(loads), 1e-12);
}

TEST(IncrementalFairness, RemovePeer) {
  IncrementalFairness inc;
  inc.set(PeerId{1}, 10.0);
  inc.set(PeerId{2}, 10.0);
  inc.set(PeerId{3}, 0.0);
  inc.remove(PeerId{3});
  EXPECT_DOUBLE_EQ(inc.index(), 1.0);
  EXPECT_EQ(inc.size(), 2u);
  inc.remove(PeerId{99});  // no-op
  EXPECT_EQ(inc.size(), 2u);
}

TEST(IncrementalFairness, HypotheticalDeltas) {
  IncrementalFairness inc;
  inc.set(PeerId{1}, 10.0);
  inc.set(PeerId{2}, 0.0);
  // Loading the idle peer to parity should yield 1.0 without mutating.
  const std::vector<std::pair<PeerId, double>> deltas{{PeerId{2}, 10.0}};
  EXPECT_DOUBLE_EQ(inc.index_with(deltas), 1.0);
  EXPECT_DOUBLE_EQ(inc.load(PeerId{2}), 0.0);  // unchanged
  EXPECT_DOUBLE_EQ(inc.index(), 0.5);
}

TEST(IncrementalFairness, RepeatedDeltasAccumulate) {
  IncrementalFairness inc;
  inc.set(PeerId{1}, 10.0);
  inc.set(PeerId{2}, 0.0);
  const std::vector<std::pair<PeerId, double>> deltas{{PeerId{2}, 4.0},
                                                      {PeerId{2}, 6.0}};
  EXPECT_DOUBLE_EQ(inc.index_with(deltas), 1.0);
}

TEST(IncrementalFairness, DeltaOnUnknownPeerJoins) {
  IncrementalFairness inc;
  inc.set(PeerId{1}, 10.0);
  const std::vector<std::pair<PeerId, double>> deltas{{PeerId{2}, 10.0}};
  EXPECT_DOUBLE_EQ(inc.index_with(deltas), 1.0);
}

// index_with as it stood with a hashed stage, over a mirrored load table
// kept with the same running-sum updates as IncrementalFairness::set.
struct MapStagedReference {
  std::unordered_map<PeerId, double> loads;
  double sum = 0.0;
  double sum_sq = 0.0;

  void set(PeerId peer, double load) {
    auto [it, inserted] = loads.try_emplace(peer, 0.0);
    const double old = it->second;
    sum += load - old;
    sum_sq += load * load - old * old;
    it->second = load;
  }

  double index_with(
      const std::vector<std::pair<PeerId, double>>& deltas) const {
    double s = sum;
    double sq = sum_sq;
    std::size_t n = loads.size();
    std::unordered_map<PeerId, double> staged;
    for (const auto& [peer, delta] : deltas) {
      double current = 0.0;
      const auto st = staged.find(peer);
      if (st != staged.end()) {
        current = st->second;
      } else {
        const auto it = loads.find(peer);
        if (it == loads.end()) {
          ++n;
        } else {
          current = it->second;
        }
      }
      const double next = current + delta;
      s += next - current;
      sq += next * next - current * current;
      staged[peer] = next;
    }
    if (n == 0) return 1.0;
    if (sq <= 0.0) return 1.0;
    return (s * s) / (static_cast<double>(n) * sq);
  }
};

TEST(IncrementalFairness, InlineStageMatchesHashedStageBitForBit) {
  const std::size_t past_inline = IncrementalFairness::kInlineStage + 5;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    IncrementalFairness inc;
    MapStagedReference ref;
    const std::uint64_t tracked = rng.below(12);
    for (int op = 0; op < 40 && tracked > 0; ++op) {
      const PeerId peer{rng.below(tracked)};
      const double load = rng.uniform(0.0, 50.0);
      inc.set(peer, load);
      ref.set(peer, load);
    }
    // Empty, path-sized and longer-than-inline spans; peers drawn from a
    // range wider than the tracked set (joins) and narrow enough to repeat.
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{1}, std::size_t{3},
          IncrementalFairness::kInlineStage, past_inline, 3 * past_inline}) {
      std::vector<std::pair<PeerId, double>> deltas;
      const std::uint64_t range = 1 + rng.below(tracked + 6);
      for (std::size_t i = 0; i < len; ++i) {
        const PeerId peer{rng.below(range)};
        deltas.emplace_back(peer, rng.uniform(-5.0, 20.0));
      }
      EXPECT_EQ(inc.index_with(deltas), ref.index_with(deltas))
          << "len " << len;
    }
  }
}

TEST(IncrementalFairness, InlineStageEdgeCasesMatchHashedStage) {
  IncrementalFairness inc;
  MapStagedReference ref;
  for (std::uint64_t p = 0; p < 4; ++p) {
    inc.set(PeerId{p}, 1.5 * static_cast<double>(p));
    ref.set(PeerId{p}, 1.5 * static_cast<double>(p));
  }
  const std::size_t many = 2 * IncrementalFairness::kInlineStage + 1;
  std::vector<std::pair<PeerId, double>> one_peer_repeated;
  std::vector<std::pair<PeerId, double>> all_joining;
  std::vector<std::pair<PeerId, double>> alternating;
  for (std::size_t i = 0; i < many; ++i) {
    one_peer_repeated.emplace_back(PeerId{2}, 0.1 * static_cast<double>(i));
    all_joining.emplace_back(PeerId{100 + i}, 3.0);
    alternating.emplace_back(PeerId{i % 2 == 0 ? 1u : 50u + i}, 0.7);
  }
  for (const auto* deltas : {&one_peer_repeated, &all_joining, &alternating}) {
    EXPECT_EQ(inc.index_with(*deltas), ref.index_with(*deltas));
  }
  EXPECT_EQ(inc.index_with({}), ref.index_with({}));
  EXPECT_EQ(inc.index_with({}), inc.index());
  // An empty table with only joining peers.
  IncrementalFairness empty;
  MapStagedReference empty_ref;
  EXPECT_EQ(empty.index_with(all_joining), empty_ref.index_with(all_joining));
  EXPECT_EQ(empty.index_with({}), 1.0);
}

TEST(IncrementalFairness, RebuildFixesDrift) {
  IncrementalFairness inc;
  util::Rng rng(8);
  for (std::uint64_t i = 0; i < 64; ++i) inc.set(PeerId{i}, rng.uniform(0, 1));
  for (int round = 0; round < 10000; ++round) {
    inc.set(PeerId{rng.below(64)}, rng.uniform(0.0, 1.0));
  }
  const double before = inc.index();
  inc.rebuild();
  EXPECT_NEAR(inc.index(), before, 1e-9);
}

TEST(IncrementalFairness, MeanAndTotal) {
  IncrementalFairness inc;
  inc.set(PeerId{1}, 4.0);
  inc.set(PeerId{2}, 8.0);
  EXPECT_DOUBLE_EQ(inc.total_load(), 12.0);
  EXPECT_DOUBLE_EQ(inc.mean_load(), 6.0);
}

}  // namespace
}  // namespace p2prm::fairness
