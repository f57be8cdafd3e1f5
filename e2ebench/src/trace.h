// In-memory span and counter recorder for the traced benchmark run.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into each library layer; nothing inside the library is instrumented.
// When no tracer is active (the untraced runs that produce the
// end-to-end metrics) a ScopedSpan is a null-pointer test and nothing
// else.  Spans are kept in memory and written out once, at exit.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

struct Span {
  std::string name;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< op the span belongs to (shared by its spans)
  std::uint32_t thread = 0;
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
  /// Probe spans time extra calls the traced run makes only to split a
  /// layer (for example a second build_hierarchy on a copied Rng); they
  /// are excluded from the tracing-overhead comparison.
  bool probe = false;

  double seconds() const { return end_s - start_s; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once).
/// Result is indexed like `spans`.
std::vector<double> self_seconds(const std::vector<Span>& spans);

class Tracer {
 public:
  Tracer();

  /// Open a span on the calling thread; its parent is the thread's
  /// innermost open span.  Returns the span id.
  std::uint32_t open(const std::string& name, bool probe);
  void close(std::uint32_t id);

  /// Add `value` to the named counter.
  void count(const std::string& name, double value);

  /// Snapshot (copies, under the lock) for analysis.
  std::vector<Span> spans() const;
  std::map<std::string, double> counters() const;

  /// Write every span, with its self time, and every counter as JSON.
  void write_json(const std::string& path) const;

 private:
  double now_s() const;

  mutable std::mutex mutex_;
  std::int64_t origin_ns_ = 0;
  std::vector<Span> spans_;                 // guarded_by(mutex_)
  std::map<std::string, double> counters_;  // guarded_by(mutex_)
  std::uint32_t next_thread_ = 0;           // guarded_by(mutex_)
};

/// The process-wide tracer, or nullptr when tracing is off.
Tracer* active_tracer();
void set_active_tracer(Tracer* tracer);

/// Op id stamped on spans the calling thread opens from now on.
void set_current_op(std::uint64_t op);

/// RAII span on the active tracer; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool probe = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_ = 0;
};

/// Add to a counter of the active tracer; a no-op when tracing is off.
void trace_count(const char* name, double value);

}  // namespace e2ebench
