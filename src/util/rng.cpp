#include "util/rng.hpp"

#include <cmath>

namespace streambrain::util {

namespace {

/// Box-Muller: (u1, u2) -> two independent standard normals.
void box_muller(double u1, double u2, double& first, double& second) noexcept {
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  second = radius * std::sin(angle);
  first = radius * std::cos(angle);
}

}  // namespace

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller on (0,1] to avoid log(0).
  double u1 = 0.0;
  double u2 = 0.0;
  draw_pair(u1, u2);
  double first = 0.0;
  box_muller(u1, u2, first, cached_normal_);
  has_cached_normal_ = true;
  return first;
}

void Rng::fill_normal(double mean, double stddev, double* out, std::size_t n,
                      const BlockRunner& run) {
  std::size_t i = 0;
  if (n > 0 && has_cached_normal_) out[i++] = normal(mean, stddev);
  // Each whole pair parks its uniforms in its own two output slots, then
  // turns them into the pair's two values in place.
  double* pair_out = out + i;
  const std::size_t pairs = (n - i) / 2;
  for (std::size_t p = 0; p < pairs; ++p) {
    draw_pair(pair_out[2 * p], pair_out[2 * p + 1]);
  }
  run(pairs, [pair_out, mean, stddev](std::size_t lo, std::size_t hi) {
    for (std::size_t p = lo; p < hi; ++p) {
      double first = 0.0;
      double second = 0.0;
      box_muller(pair_out[2 * p], pair_out[2 * p + 1], first, second);
      pair_out[2 * p] = mean + stddev * first;
      pair_out[2 * p + 1] = mean + stddev * second;
    }
  });
  i += 2 * pairs;
  // An odd tail draws one more pair and keeps its second value cached.
  if (i < n) out[i] = normal(mean, stddev);
}

double Rng::exponential(double lambda) noexcept {
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

double Rng::gamma(double shape, double scale) noexcept {
  if (shape < 1.0) {
    // Boost to shape+1 then correct (Marsaglia-Tsang appendix).
    const double boosted = gamma(shape + 1.0, scale);
    double u = 0.0;
    do {
      u = uniform();
    } while (u <= 0.0);
    return boosted * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return scale * d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return scale * d * v;
    }
  }
}

std::size_t Rng::categorical(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return 0;
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;
}

}  // namespace streambrain::util
