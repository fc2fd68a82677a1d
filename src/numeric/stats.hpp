// Statistics and dB helpers for comparing predicted and "measured" spectra.
#pragma once

#include <span>
#include <vector>

namespace emi::num {

double mean(std::span<const double> x);
double rms(std::span<const double> x);

// Pearson correlation coefficient; returns 0 for degenerate inputs.
// This is the "correlation with measurement" metric behind Figs 12-14.
double pearson(std::span<const double> x, std::span<const double> y);

// Mean absolute difference between two equally sized series.
double mean_abs_error(std::span<const double> x, std::span<const double> y);
double max_abs_error(std::span<const double> x, std::span<const double> y);

// Conducted-emission levels are expressed in dBuV (dB re 1 microvolt).
double volts_to_dbuv(double volts);
double dbuv_to_volts(double dbuv);
double db20(double ratio);

// Linear interpolation of y(x) on a sorted x grid (clamped at the ends).
double interp(std::span<const double> xs, std::span<const double> ys, double x);

// Logarithmically spaced grid from lo to hi (inclusive), n >= 2 points.
// Throws std::invalid_argument unless 0 < lo < hi, both finite.
std::vector<double> log_space(double lo, double hi, std::size_t n);
std::vector<double> lin_space(double lo, double hi, std::size_t n);

}  // namespace emi::num
