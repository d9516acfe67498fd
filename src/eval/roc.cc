#include "eval/roc.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace commsig {

RocResult ComputeRoc(const std::vector<double>& scores,
                     const std::vector<bool>& relevant) {
  assert(scores.size() == relevant.size());
  const size_t n = scores.size();
  size_t num_relevant = 0;
  for (bool r : relevant) num_relevant += r ? 1 : 0;
  const size_t num_irrelevant = n - num_relevant;

  RocResult result;
  result.curve.push_back({0.0, 0.0});
  if (num_relevant == 0 || num_irrelevant == 0) {
    result.curve.push_back({1.0, 1.0});
    result.auc = 0.5;
    return result;
  }

  // Rank ascending by score; process tie groups as a single diagonal move
  // so the curve (and the trapezoid area) is order-independent. NaN ranks
  // after every number, all NaNs as one tie group: that keeps `before` a
  // strict weak order, and every group below nonempty.
  auto before = [&](size_t a, size_t b) {
    return scores[a] < scores[b] ||
           (!std::isnan(scores[a]) && std::isnan(scores[b]));
  };
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), before);

  const double up = 1.0 / static_cast<double>(num_relevant);
  const double right = 1.0 / static_cast<double>(num_irrelevant);

  double tpr = 0.0, fpr = 0.0, auc = 0.0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    size_t group_rel = 0, group_irr = 0;
    while (j < n && !before(order[i], order[j])) {
      if (relevant[order[j]]) {
        ++group_rel;
      } else {
        ++group_irr;
      }
      ++j;
    }
    const double new_tpr = tpr + up * static_cast<double>(group_rel);
    const double new_fpr = fpr + right * static_cast<double>(group_irr);
    // Trapezoid under the diagonal segment.
    auc += (new_fpr - fpr) * (tpr + new_tpr) / 2.0;
    tpr = new_tpr;
    fpr = new_fpr;
    result.curve.push_back({fpr, tpr});
    i = j;
  }
  result.auc = auc;
  return result;
}

double ComputeAuc(const std::vector<double>& scores,
                  const std::vector<bool>& relevant) {
  return ComputeRoc(scores, relevant).auc;
}

std::vector<RocPoint> AverageRocCurves(const std::vector<RocResult>& curves,
                                       size_t grid_size) {
  std::vector<RocPoint> grid(grid_size);
  if (grid_size == 0) return grid;
  for (size_t g = 0; g < grid_size; ++g) {
    grid[g].fpr = static_cast<double>(g) / static_cast<double>(grid_size - 1);
  }
  if (curves.empty()) return grid;

  for (size_t g = 0; g < grid_size; ++g) {
    const double x = grid[g].fpr;
    double sum = 0.0;
    for (const RocResult& rc : curves) {
      // Linear interpolation of tpr at fpr = x. Curves may contain
      // vertical segments (several points at the same fpr); at an exact
      // hit we take the upper envelope — the tpr ultimately reached at
      // that fpr.
      const auto& c = rc.curve;
      double y = 1.0;
      for (size_t i = 1; i < c.size(); ++i) {
        if (c[i].fpr >= x) {
          if (c[i].fpr == x) {
            size_t j = i;
            while (j + 1 < c.size() && c[j + 1].fpr == x) ++j;
            y = c[j].tpr;
          } else {
            const double x0 = c[i - 1].fpr, y0 = c[i - 1].tpr;
            const double x1 = c[i].fpr, y1 = c[i].tpr;
            y = y0 + (y1 - y0) * (x - x0) / (x1 - x0);
          }
          break;
        }
      }
      sum += y;
    }
    grid[g].tpr = sum / static_cast<double>(curves.size());
  }
  return grid;
}

double MeanAuc(const std::vector<RocResult>& curves) {
  if (curves.empty()) return 0.5;
  double sum = 0.0;
  for (const RocResult& rc : curves) sum += rc.auc;
  return sum / static_cast<double>(curves.size());
}

}  // namespace commsig
