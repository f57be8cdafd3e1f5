// Power-of-two latency histogram for service observability.
//
// The partitioning service reports request-latency quantiles (p50/p95/
// p99) from a fixed set of exponential buckets: bucket 0 holds samples
// below 1 microsecond, bucket i >= 1 holds [2^(i-1), 2^i) microseconds.
// Quantiles return the upper bound of the bucket containing the rank, so
// reported percentiles are conservative (they never under-state latency)
// and, for a given multiset of samples, independent of arrival order —
// the same determinism discipline as the rest of the library, applied to
// observability.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace vlsipart {

class LatencyHistogram {
 public:
  void record(double seconds);
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  double max_seconds() const { return max_seconds_; }
  double mean_seconds() const {
    return count_ == 0 ? 0.0 : total_seconds_ / static_cast<double>(count_);
  }

  /// Upper bound in seconds of the bucket containing the q-quantile
  /// (0 < q <= 1) of the recorded samples; 0 when empty.
  double quantile(double q) const;

  /// One-line digest: "n=12 mean=1.2ms p50=1.0ms p95=4.1ms p99=8.2ms
  /// max=7.9ms".
  std::string summary() const;

 private:
  // 44 buckets cover up to ~2^42 us (~51 days); the last bucket absorbs
  // anything larger.
  static constexpr std::size_t kBuckets = 44;

  static std::size_t bucket_index(double seconds);
  static double bucket_upper_seconds(std::size_t index);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double total_seconds_ = 0.0;
  double max_seconds_ = 0.0;
};

/// Human-friendly duration: "870us", "3.41ms", "1.250s".
std::string format_duration(double seconds);

}  // namespace vlsipart
