// Small statistics toolkit used across the analysis subsystem.
//
// All functions operate on std::span<const double> so callers can pass
// vectors, arrays, or sub-ranges without copies; the hot reductions also
// take a StridedSpan so profile::Trial's [thread][event] value columns
// can be reduced across threads in place — one (event, metric) series is
// a strided slice of a column, and copying it into a vector per call
// dominated the analysis primitives' cost. Empty-input
// behaviour is documented per function; most throw InvalidArgumentError
// because a silent NaN would poison downstream inference-rule facts.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace perfknow::stats {

/// Non-owning view of every `stride`-th double in a buffer. The
/// element order is the iteration order, so reductions over a
/// StridedSpan are bit-identical to the same reduction over the copied
/// vector it replaces.
class StridedSpan {
 public:
  constexpr StridedSpan() = default;
  constexpr StridedSpan(const double* data, std::size_t size,
                        std::size_t stride)
      : data_(data), size_(size), stride_(stride == 0 ? 1 : stride) {}
  // Implicit on purpose: a contiguous span is the stride-1 special case,
  // so span/vector callers can flow into StridedSpan parameters.
  constexpr StridedSpan(std::span<const double> xs)  // NOLINT(runtime/explicit)
      : data_(xs.data()), size_(xs.size()), stride_(1) {}

  [[nodiscard]] constexpr double operator[](std::size_t i) const {
    return data_[i * stride_];
  }
  [[nodiscard]] constexpr std::size_t size() const noexcept { return size_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] constexpr std::size_t stride() const noexcept {
    return stride_;
  }

  /// Materializes the elements (for callers that genuinely need storage).
  [[nodiscard]] std::vector<double> to_vector() const {
    std::vector<double> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
    return out;
  }

 private:
  const double* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t stride_ = 1;
};

/// Arithmetic mean. Throws InvalidArgumentError on empty input.
[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double mean(StridedSpan xs);

/// Population variance (divides by N). Throws on empty input.
[[nodiscard]] double variance(std::span<const double> xs);
[[nodiscard]] double variance(StridedSpan xs);

/// Population standard deviation. Throws on empty input.
[[nodiscard]] double stddev(std::span<const double> xs);
[[nodiscard]] double stddev(StridedSpan xs);

/// Sample standard deviation (divides by N-1). Throws when N < 2.
[[nodiscard]] double sample_stddev(std::span<const double> xs);
[[nodiscard]] double sample_stddev(StridedSpan xs);

/// Minimum / maximum. Throw on empty input.
[[nodiscard]] double min(std::span<const double> xs);
[[nodiscard]] double min(StridedSpan xs);
[[nodiscard]] double max(std::span<const double> xs);
[[nodiscard]] double max(StridedSpan xs);

/// Sum; 0 for empty input.
[[nodiscard]] double sum(std::span<const double> xs);
[[nodiscard]] double sum(StridedSpan xs);

/// Coefficient of variation: stddev / mean. This is the paper's
/// load-imbalance indicator ("ratio of the standard deviation to the
/// mean"). Returns 0 when the mean is 0 (an all-zero series is balanced).
[[nodiscard]] double coefficient_of_variation(std::span<const double> xs);
[[nodiscard]] double coefficient_of_variation(StridedSpan xs);

/// Pearson correlation of two equal-length series. Throws when the lengths
/// differ or are < 2. Returns 0 when either series is constant: a constant
/// series carries no directional signal, and the load-imbalance rule must
/// not fire on it.
[[nodiscard]] double pearson_correlation(std::span<const double> xs,
                                         std::span<const double> ys);
[[nodiscard]] double pearson_correlation(StridedSpan xs, StridedSpan ys);

/// Linear interpolation percentile, p in [0, 100]. Throws on empty input
/// or out-of-range p.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// Result of an ordinary least squares fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

/// Least-squares line through (xs, ys). Throws when lengths differ or < 2,
/// or when xs is constant.
[[nodiscard]] LinearFit linear_fit(std::span<const double> xs,
                                   std::span<const double> ys);

/// Normalizes each element by the first element (series relative to a
/// baseline, as in the paper's Table I). Throws when xs is empty or
/// xs[0] == 0.
[[nodiscard]] std::vector<double> relative_to_first(
    std::span<const double> xs);

/// z-score normalization: (x - mean) / stddev. A constant series maps to
/// all zeros.
[[nodiscard]] std::vector<double> zscores(std::span<const double> xs);

}  // namespace perfknow::stats
