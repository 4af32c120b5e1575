// Jain's Fairness Index — the paper's load-balancing objective (§4.2).
//
//   F(l) = (sum_p l_p)^2 / (|P| * sum_p l_p^2)            (Eq. 1)
//
// Properties the paper relies on (and our tests verify):
//  * range (0, 1]; 1 iff all loads equal, -> 1/|P| when one peer carries
//    everything;
//  * scale-free: F(c*l) == F(l) for c > 0;
//  * continuous in every l_p, maximized when l_p equals the common value.
//
// IncrementalFairness supports O(1) "what if peer p's load changed by d"
// queries — the inner loop of the allocation algorithm (Fig. 3) evaluates
// the fairness of a hypothetical assignment for every candidate path.
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/ids.hpp"

namespace p2prm::fairness {

// Eq. 1 on a plain load vector. Empty input and all-zero input return 1.0
// (a system with no load is trivially fair). Negative loads are invalid.
[[nodiscard]] double jain_index(std::span<const double> loads);

// The load value that, substituted at position `i`, maximizes the index
// given the other loads stay fixed (the paper's l_best discussion): the
// maximizer is the mean of the *other* loads.
[[nodiscard]] double best_load(std::span<const double> loads, std::size_t i);

// Maintains sum(l) and sum(l^2) for a keyed set of loads with O(1) update
// and O(1) hypothetical queries.
class IncrementalFairness {
 public:
  void set(util::PeerId peer, double load);
  void remove(util::PeerId peer);
  [[nodiscard]] double load(util::PeerId peer) const;
  [[nodiscard]] bool contains(util::PeerId peer) const;
  [[nodiscard]] std::size_t size() const { return loads_.size(); }

  // Current F over all tracked peers.
  [[nodiscard]] double index() const;

  // F if each (peer, delta) in `deltas` were applied. Peers may repeat;
  // unknown peers are treated as joining with load = delta. Allocation-
  // free up to kInlineStage deltas; quadratic in the span length, which is
  // meant to be path-sized.
  [[nodiscard]] double index_with(
      std::span<const std::pair<util::PeerId, double>> deltas) const;
  static constexpr std::size_t kInlineStage = 8;

  [[nodiscard]] double total_load() const { return sum_; }
  [[nodiscard]] double mean_load() const;

  // Recomputes the running sums from scratch (guards against FP drift in
  // very long simulations; called periodically by resource managers).
  void rebuild();

 private:
  std::unordered_map<util::PeerId, double> loads_;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

}  // namespace p2prm::fairness
