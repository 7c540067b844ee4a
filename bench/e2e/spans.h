// Host wall-clock spans recorded by the benchmark around its own
// calls into each src/ module. A span has a name, start, end and parent;
// spans stay in memory and are written out once, when the run ends. A
// disabled recorder records nothing, so untraced rounds pay only for the
// steady_clock reads that wall_s needs anyway.

#ifndef MGS_BENCH_E2E_SPANS_H_
#define MGS_BENCH_E2E_SPANS_H_

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace mgs::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0;  // seconds since the recorder was created
    double end = 0;
    int parent = -1;  // index into spans(), -1 for a root
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int Begin(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, Now(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = Now();
    open_.pop_back();
  }

  std::size_t size() const { return spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per span name over spans [first, size()): each span's
  /// duration minus the part its children cover (children never overlap:
  /// the benchmark is single-threaded).
  std::map<std::string, double> SelfSeconds(std::size_t first) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (std::size_t i = first; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = first; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return self;
  }

  /// Writes every span as JSON: {"spans": [{"name", "start_s", "end_s",
  /// "parent"}, ...]}. Returns false if the file cannot be written.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                   "\"parent\": %d}%s\n",
                   s.name.c_str(), s.start, s.end, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double Now() const { return SecondsSince(origin_); }

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace mgs::e2e

#endif  // MGS_BENCH_E2E_SPANS_H_
