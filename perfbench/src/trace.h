// In-memory spans recorded by the benchmark around the program's public
// calls (traced mode only). A span has a name, a start, an end and the
// span that caused it; spans are written out once, when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans; -1 = root
};

/// Records nested spans on one thread. Disabled recorders record nothing,
/// so untraced runs pay one branch per boundary.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNanos(), 0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNanos();
    open_ = spans_[static_cast<size_t>(id)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Mean self time per span name, in ms: each span's duration minus the
  /// union of its children's intervals (children nest, so the union is
  /// their sum), averaged over the spans of that name.
  std::map<std::string, double> SelfMillis() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> self;
    std::map<std::string, int> count;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                      1e6;
      ++count[s.name];
    }
    for (auto& [name, ms] : self) ms /= count[name];
    return self;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanRecorder* rec, const std::string& name)
      : rec_(rec), id_(rec->Begin(name)) {}
  ~Scoped() { rec_->End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
