// In-memory span and count recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (nothing inside src/ is instrumented). Each
// span carries a name, a layer (one of the src/ modules), start and end
// times, and the span that caused it. A span opened on a thread with no open
// span of its own (a pool worker) is parented to the innermost span open on
// the driver thread, which is the call that fanned the work out.
//
// With tracing disabled, Span is a no-op: the untraced runs that give the
// end-to-end metrics pay one branch per call site.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench::trace {

/// The src/ modules the per-layer split attributes time to.
inline const std::vector<std::string>& layers() {
  static const std::vector<std::string> names = {
      "netlist", "locking", "attacks", "sat",
      "eval",    "core",    "campaign", "util"};
  return names;
}

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::string layer;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::uint32_t thread = 0;
};

class Recorder {
 public:
  static Recorder& instance() {
    static Recorder recorder;
    return recorder;
  }

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Marks the calling thread as the driver thread (parent of worker spans).
  void set_driver_thread() { driver_thread_ = thread_index(); }

  /// Span ids are 1-based positions in spans_.
  std::uint32_t open(std::string layer, std::string name) {
    const std::uint32_t thread = thread_index();
    std::vector<std::uint32_t>& stack = open_stack();
    const std::uint32_t parent =
        !stack.empty() ? stack.back() : driver_top_.load();
    std::uint32_t id = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      id = static_cast<std::uint32_t>(spans_.size()) + 1;
      spans_.push_back({id, parent, std::move(layer), std::move(name), now_s(),
                        0.0, thread});
    }
    stack.push_back(id);
    if (thread == driver_thread_) driver_top_.store(id);
    return id;
  }

  void close(std::uint32_t id) {
    const double end = now_s();
    std::vector<std::uint32_t>& stack = open_stack();
    if (!stack.empty() && stack.back() == id) stack.pop_back();
    if (thread_index() == driver_thread_) {
      driver_top_.store(stack.empty() ? 0 : stack.back());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = end;
  }

  /// Adds `value` to the named count (thread-safe; recorded when enabled).
  void count(const std::string& name, double value) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    counts_[name] += value;
  }

  double count_of(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Summed duration of every span with this name.
  double busy_s(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0.0;
    for (const SpanRecord& s : spans_) {
      if (s.name == name) total += s.end - s.start;
    }
    return total;
  }

  std::size_t calls(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const SpanRecord& s : spans_) n += s.name == name ? 1 : 0;
    return n;
  }

  /// Writes every span and count as JSON (times relative to `origin`).
  void write_json(const std::string& path, double origin) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << s.id
         << ", \"parent\": " << s.parent << ", \"layer\": \"" << s.layer
         << "\", \"name\": \"" << s.name << "\", \"thread\": " << s.thread
         << ", \"start_s\": " << (s.start - origin)
         << ", \"end_s\": " << (s.end - origin) << "}";
    }
    os << "\n], \"counts\": {";
    bool first = true;
    for (const auto& [name, value] : counts_) {
      os << (first ? "\n" : ",\n") << "  \"" << name << "\": " << value;
      first = false;
    }
    os << "\n}}\n";
  }

 private:
  static std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = ++next;
    return index;
  }
  static std::vector<std::uint32_t>& open_stack() {
    thread_local std::vector<std::uint32_t> stack;
    return stack;
  }

  bool enabled_ = false;
  std::uint32_t driver_thread_ = 0;
  std::atomic<std::uint32_t> driver_top_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counts_;
};

/// RAII span; records nothing when tracing is disabled.
class Span {
 public:
  Span(const char* layer, std::string name) {
    Recorder& r = Recorder::instance();
    if (r.enabled()) id_ = r.open(layer, std::move(name));
  }
  ~Span() {
    if (id_ != 0) Recorder::instance().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_ = 0;
};

/// Length of the union of [start, end) intervals.
inline double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = -1.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (!open || a > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = a;
      cur_end = b;
      open = true;
    } else {
      cur_end = std::max(cur_end, b);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

/// Per-layer self time: each span's duration minus the part of its interval
/// covered by its children (children on worker threads overlap each other,
/// so the covered part is the union of their intervals).
inline std::map<std::string, double> self_time_by_layer(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start, s.end});
  }
  std::map<std::string, double> self;
  for (const std::string& layer : layers()) self[layer] = 0.0;
  for (const SpanRecord& s : spans) {
    double covered = 0.0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> clipped;
      for (auto [a, b] : it->second) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b > a) clipped.push_back({a, b});
      }
      covered = union_length(std::move(clipped));
    }
    self[s.layer] += (s.end - s.start) - covered;
  }
  return self;
}

/// Share of [begin, end) that no span covers.
inline double uncovered_fraction(const std::vector<SpanRecord>& spans,
                                 double begin, double end) {
  std::vector<std::pair<double, double>> intervals;
  for (const SpanRecord& s : spans) {
    const double a = std::max(s.start, begin);
    const double b = std::min(s.end, end);
    if (b > a) intervals.push_back({a, b});
  }
  const double wall = end - begin;
  return wall > 0.0 ? 1.0 - union_length(std::move(intervals)) / wall : 0.0;
}

}  // namespace perfbench::trace
