#include "src/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace e2ebench {
namespace {

std::atomic<Tracer*> g_tracer{nullptr};

struct ThreadState {
  std::vector<std::uint32_t> stack;
  std::uint64_t op = 0;
  std::uint32_t thread = 0;
  bool has_thread = false;
};

thread_local ThreadState t_state;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index_of.find(s.parent);
    if (it != index_of.end()) {
      children[it->second].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s;
    const double hi = spans[i].end_s;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the
    // parent's own interval.
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    bool open_run = false;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (open_run && a <= run_hi) {
        run_hi = std::max(run_hi, b);
      } else {
        if (open_run) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
        open_run = true;
      }
    }
    if (open_run) covered += run_hi - run_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

Tracer::Tracer() : origin_ns_(steady_ns()) {}

double Tracer::now_s() const {
  return static_cast<double>(steady_ns() - origin_ns_) * 1e-9;
}

std::uint32_t Tracer::open(const std::string& name, bool probe) {
  ThreadState& ts = t_state;
  const double start = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ts.has_thread) {
    ts.thread = next_thread_++;
    ts.has_thread = true;
  }
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = ts.stack.empty() ? 0 : ts.stack.back();
  span.op = ts.op;
  span.thread = ts.thread;
  span.start_s = start;
  span.end_s = start;
  span.probe = probe;
  spans_.push_back(std::move(span));
  ts.stack.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(std::uint32_t id) {
  const double end = now_s();
  ThreadState& ts = t_state;
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_s = end;
  if (!ts.stack.empty() && ts.stack.back() == id) ts.stack.pop_back();
}

void Tracer::count(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += value;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::map<std::string, double> ctr = counters();
  const std::vector<double> self = self_seconds(all);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot write " + path);
  out << "{\"spans\":[";
  char buf[160];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof(buf),
                  "\"start_s\":%.9f,\"end_s\":%.9f,\"self_s\":%.9f", s.start_s,
                  s.end_s, self[i]);
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << json_escape(s.name)
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"thread\":" << s.thread << "," << buf
        << ",\"probe\":" << (s.probe ? "true" : "false") << "}";
  }
  out << "\n],\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : ctr) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << (first ? "" : ",") << "\n\"" << json_escape(name) << "\":" << buf;
    first = false;
  }
  out << "\n}}\n";
}

Tracer* active_tracer() { return g_tracer.load(std::memory_order_acquire); }

void set_active_tracer(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

void set_current_op(std::uint64_t op) { t_state.op = op; }

ScopedSpan::ScopedSpan(const char* name, bool probe)
    : tracer_(active_tracer()) {
  if (tracer_ != nullptr) id_ = tracer_->open(name, probe);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

void trace_count(const char* name, double value) {
  if (Tracer* t = active_tracer()) t->count(name, value);
}

}  // namespace e2ebench
