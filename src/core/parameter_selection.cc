#include "core/parameter_selection.h"

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "graph/network_distance.h"

namespace netclus {

namespace {
double Quantile(std::vector<double>* values, double q) {
  std::sort(values->begin(), values->end());
  double pos = std::clamp(q, 0.0, 1.0) * (values->size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values->size() - 1);
  double frac = pos - static_cast<double>(lo);
  return (*values)[lo] * (1.0 - frac) + (*values)[hi] * frac;
}
}  // namespace

Result<double> SuggestEps(const NetworkView& view,
                          const EpsSuggestionOptions& options) {
  if (view.num_points() < 2) {
    return Status::InvalidArgument("need at least two points");
  }
  if (options.sample_size == 0 || options.quantile < 0.0 ||
      options.quantile > 1.0 || options.slack <= 0.0) {
    return Status::InvalidArgument("bad eps suggestion options");
  }
  // Initial search radius: the typical same-edge gap, or 1.0 if the
  // points never share edges.
  Result<double> gap = SuggestDelta(view, 0.5);
  double radius0 = gap.ok() ? std::max(gap.value(), 1e-9) : 1.0;

  Rng rng(options.seed);
  TraversalWorkspace ws(view.num_nodes());
  std::vector<RangeResult> found;
  std::vector<double> nn;
  uint32_t samples = std::min<uint32_t>(options.sample_size,
                                        view.num_points());
  for (uint32_t s = 0; s < samples; ++s) {
    PointId p = static_cast<PointId>(rng.NextBounded(view.num_points()));
    // Expanding range search: double the radius until a neighbor shows up.
    double radius = radius0;
    double best = kInfDist;
    for (int attempt = 0; attempt < 24; ++attempt) {
      RangeQuery(view, view, p, radius, &ws, &found);
      for (const RangeResult& r : found) {
        if (r.id != p && r.dist < best) best = r.dist;
      }
      if (best < kInfDist) break;
      radius *= 2.0;
    }
    if (best < kInfDist) nn.push_back(best);
  }
  if (nn.empty()) {
    return Status::NotFound("no neighbor found within the search horizon");
  }
  return options.slack * Quantile(&nn, options.quantile);
}

Result<double> SuggestDelta(const NetworkView& view, double quantile) {
  if (quantile < 0.0 || quantile > 1.0) {
    return Status::InvalidArgument("quantile must be in [0, 1]");
  }
  std::vector<double> gaps;
  std::vector<EdgePoint> pts;
  view.ForEachPointGroup(
      [&](NodeId u, NodeId v, PointId first, uint32_t count) {
        (void)first;
        if (count < 2) return;
        view.GetEdgePoints(u, v, &pts);
        for (size_t i = 1; i < pts.size(); ++i) {
          gaps.push_back(pts[i].offset - pts[i - 1].offset);
        }
      });
  if (gaps.empty()) {
    return Status::NotFound("no edge holds two points");
  }
  return Quantile(&gaps, quantile);
}

}  // namespace netclus
