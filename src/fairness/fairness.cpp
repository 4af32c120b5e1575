#include "fairness/fairness.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace p2prm::fairness {

double jain_index(std::span<const double> loads) {
  if (loads.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double l : loads) {
    if (l < 0.0) throw std::invalid_argument("jain_index: negative load");
    sum += l;
    sum_sq += l * l;
  }
  if (sum_sq == 0.0) return 1.0;  // all idle: trivially fair
  return (sum * sum) / (static_cast<double>(loads.size()) * sum_sq);
}

double best_load(std::span<const double> loads, std::size_t i) {
  if (i >= loads.size()) throw std::out_of_range("best_load: bad index");
  if (loads.size() == 1) return loads[0];
  double sum_others = 0.0;
  double sumsq_others = 0.0;
  for (std::size_t j = 0; j < loads.size(); ++j) {
    if (j != i) {
      sum_others += loads[j];
      sumsq_others += loads[j] * loads[j];
    }
  }
  // F(x) = (S + x)^2 / (n (Q + x^2)); dF/dx = 0  =>  x = Q / S.
  if (sum_others <= 0.0) return 0.0;
  return sumsq_others / sum_others;
}

void IncrementalFairness::set(util::PeerId peer, double load) {
  if (load < 0.0) throw std::invalid_argument("IncrementalFairness: negative load");
  auto [it, inserted] = loads_.try_emplace(peer, 0.0);
  const double old = it->second;
  sum_ += load - old;
  sum_sq_ += load * load - old * old;
  it->second = load;
}

void IncrementalFairness::remove(util::PeerId peer) {
  const auto it = loads_.find(peer);
  if (it == loads_.end()) return;
  sum_ -= it->second;
  sum_sq_ -= it->second * it->second;
  loads_.erase(it);
}

double IncrementalFairness::load(util::PeerId peer) const {
  const auto it = loads_.find(peer);
  return it == loads_.end() ? 0.0 : it->second;
}

bool IncrementalFairness::contains(util::PeerId peer) const {
  return loads_.count(peer) != 0;
}

double IncrementalFairness::index() const {
  if (loads_.empty()) return 1.0;
  if (sum_sq_ <= 0.0) return 1.0;
  return (sum_ * sum_) / (static_cast<double>(loads_.size()) * sum_sq_);
}

double IncrementalFairness::index_with(
    std::span<const std::pair<util::PeerId, double>> deltas) const {
  double sum = sum_;
  double sum_sq = sum_sq_;
  std::size_t n = loads_.size();
  // Apply deltas sequentially; repeated peers accumulate. For correctness
  // with repeats we need each peer's evolving load, so stage them — in a
  // small inline array searched linearly (spans are path-sized), spilling
  // to the heap only past kInlineStage deltas.
  std::array<std::pair<util::PeerId, double>, kInlineStage> inline_stage;
  std::vector<std::pair<util::PeerId, double>> spilled;
  std::span<std::pair<util::PeerId, double>> stage(inline_stage);
  if (deltas.size() > kInlineStage) {
    spilled.resize(deltas.size());
    stage = spilled;
  }
  std::size_t staged = 0;
  for (const auto& [peer, delta] : deltas) {
    std::pair<util::PeerId, double>* slot = nullptr;
    for (std::size_t i = 0; i < staged; ++i) {
      if (stage[i].first == peer) {
        slot = &stage[i];
        break;
      }
    }
    double current = 0.0;
    if (slot != nullptr) {
      current = slot->second;
    } else {
      const auto it = loads_.find(peer);
      if (it == loads_.end()) {
        ++n;  // joining peer
      } else {
        current = it->second;
      }
      slot = &stage[staged++];
      slot->first = peer;
    }
    const double next = current + delta;
    sum += next - current;
    sum_sq += next * next - current * current;
    slot->second = next;
  }
  if (n == 0) return 1.0;
  if (sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

double IncrementalFairness::mean_load() const {
  return loads_.empty() ? 0.0 : sum_ / static_cast<double>(loads_.size());
}

void IncrementalFairness::rebuild() {
  sum_ = 0.0;
  sum_sq_ = 0.0;
  for (const auto& [_, l] : loads_) {
    sum_ += l;
    sum_sq_ += l * l;
  }
}

}  // namespace p2prm::fairness
