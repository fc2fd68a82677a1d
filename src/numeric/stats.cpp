#include "src/numeric/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace emi::num {

double mean(std::span<const double> x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (double v : x) s += v;
  return s / static_cast<double>(x.size());
}

double rms(std::span<const double> x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (double v : x) s += v * v;
  return std::sqrt(s / static_cast<double>(x.size()));
}

double pearson(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double mean_abs_error(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("mean_abs_error: size mismatch");
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += std::fabs(x[i] - y[i]);
  return s / static_cast<double>(x.size());
}

double max_abs_error(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("max_abs_error: size mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) m = std::max(m, std::fabs(x[i] - y[i]));
  return m;
}

double volts_to_dbuv(double volts) {
  constexpr double kFloorV = 1e-12;  // -120 dBuV floor keeps log finite
  return 20.0 * std::log10(std::max(std::fabs(volts), kFloorV) * 1e6);
}

double dbuv_to_volts(double dbuv) { return std::pow(10.0, dbuv / 20.0) * 1e-6; }

double db20(double ratio) {
  constexpr double kFloor = 1e-30;
  return 20.0 * std::log10(std::max(std::fabs(ratio), kFloor));
}

double interp(std::span<const double> xs, std::span<const double> ys, double x) {
  if (xs.empty() || xs.size() != ys.size()) {
    throw std::invalid_argument("interp: bad grids");
  }
  if (x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t i = static_cast<std::size_t>(it - xs.begin());
  const double t = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
  return ys[i - 1] + t * (ys[i] - ys[i - 1]);
}

std::vector<double> log_space(double lo, double hi, std::size_t n) {
  if (n < 2 || !(std::isfinite(hi) && lo > 0.0 && hi > lo)) {
    throw std::invalid_argument("log_space: bad range");
  }
  std::vector<double> out(n);
  const double la = std::log10(lo);
  const double lb = std::log10(hi);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::pow(10.0, la + (lb - la) * static_cast<double>(i) /
                                static_cast<double>(n - 1));
  }
  return out;
}

std::vector<double> lin_space(double lo, double hi, std::size_t n) {
  if (n < 2) throw std::invalid_argument("lin_space: need n >= 2");
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  }
  return out;
}

}  // namespace emi::num
