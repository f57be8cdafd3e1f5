// Order statistics and process readings used by the benchmark's
// end-to-end metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// Median (mean of the two middle values for an even count); 0 if empty.
double median(std::vector<double> values);

/// The tail statistic of op_ms_tail: the value at the highest percentile
/// that still has at least ten samples beyond it, i.e. the 11th-largest
/// sample.  With n samples that is nearest-rank percentile
/// 100 * (n - 10) / n.  With fewer than 11 samples no such percentile
/// exists and the maximum is reported (percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail tail_ten_beyond(std::vector<double> values);

/// Process CPU time (user + system) in seconds, all threads.
double process_cpu_s();
/// Monotonic wall clock in seconds.
double wall_s();
/// Peak resident set size of this process in MB.
double peak_rss_mb();
/// CPUs this process may run on, and the hardware thread count.
std::size_t usable_cpus();
std::size_t hardware_cpus();

/// FNV-1a 64-bit digest accumulator for cut digests.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(const std::string& text);
  std::uint64_t value() const { return hash_; }
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace e2ebench
