// Measurement helpers shared by the harness and its unit checks: order
// statistics (median, the tail rule), the in-memory span log with self-time
// derivation, exact pin comparison, and number formatting. Header-only and
// free of simulator types, so perfbench_checks can test it without linking
// the simulator.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (mean of the two middle values for an even count); 0 when
/// empty.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail statistic: the highest percentile that still has at least
/// `min_beyond` samples strictly beyond it in sorted order. With n samples
/// that is the value at sorted index n - 1 - min_beyond, i.e. percentile
/// 100 * (n - min_beyond) / n. `ok` is false (and value 0) when there are
/// not more than `min_beyond` samples.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool ok = false;
};

[[nodiscard]] inline Tail tail(std::vector<double> v, std::size_t min_beyond = 10) {
  Tail t;
  t.samples = v.size();
  if (v.size() <= min_beyond) return t;
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() - 1 - min_beyond;
  t.value = v[idx];
  t.beyond = min_beyond;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
  t.ok = true;
  return t;
}

/// Shortest decimal text that reads back as exactly `x` (all its digits).
[[nodiscard]] inline std::string fmt(double x) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, r.ptr);
}

/// Spans kept in memory around each timed layer call. A plain span is one
/// call (count 1, busy = end - start). An aggregate span stands for `count`
/// calls of the same function under one parent: start/end are the first
/// call's start and the last call's end, and busy is the sum of the call
/// durations — the part of the parent's interval those calls cover.
struct Span {
  std::string name;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 1;
  std::int64_t busy_ns = 0;
};

/// Accumulates the calls one aggregate span stands for.
struct CallCost {
  std::uint64_t calls = 0;
  std::int64_t busy_ns = 0;
  Clock::time_point first{};
  Clock::time_point last{};

  /// Adds `n` calls that together ran from `a` to `b`.
  void add(Clock::time_point a, Clock::time_point b, std::uint64_t n = 1) {
    if (calls == 0 || a < first) first = a;
    if (calls == 0 || b > last) last = b;
    calls += n;
    busy_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  }
  void merge(const CallCost& o) {
    if (o.calls == 0) return;
    if (calls == 0 || o.first < first) first = o.first;
    if (calls == 0 || o.last > last) last = o.last;
    calls += o.calls;
    busy_ns += o.busy_ns;
  }
  [[nodiscard]] double seconds() const { return static_cast<double>(busy_ns) * 1e-9; }
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin = Clock::now()) : origin_(origin) {}

  /// Records a plain span from `a` to `b`; returns its id.
  int add(std::string name, int parent, Clock::time_point a, Clock::time_point b) {
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.start_ns = ns(a);
    s.end_ns = ns(b);
    s.busy_ns = s.end_ns - s.start_ns;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Records an aggregate span; no-op when `c` holds no calls.
  void add_aggregate(std::string name, int parent, const CallCost& c) {
    if (c.calls == 0) return;
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.start_ns = ns(c.first);
    s.end_ns = ns(c.last);
    s.count = c.calls;
    s.busy_ns = c.busy_ns;
    spans_.push_back(std::move(s));
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its busy time minus the part its children
  /// cover. The harness traces single-threaded runs only, so the children of
  /// one parent are sequential calls and their busy times add. Children on
  /// several threads could overlap and sum past the parent, so the covered
  /// part is capped at the parent's busy time.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const { return self_times(spans_); }

  [[nodiscard]] static std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
    std::vector<std::int64_t> covered(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) covered.at(static_cast<std::size_t>(s.parent)) += s.busy_ns;
    }
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[i] = spans[i].busy_ns - std::min(spans[i].busy_ns, covered[i]);
    }
    return self;
  }

  /// Writes {"layers": {...}, "spans": [...]}: every span with its self
  /// time, and per span name the summed count, busy and self time. `header`
  /// is spliced in verbatim as the leading members (e.g. the host record).
  void write_json(std::ostream& os, const std::string& header) const {
    const std::vector<std::int64_t> self = self_ns();
    struct Layer {
      std::uint64_t count = 0;
      std::int64_t busy_ns = 0, self_ns = 0;
    };
    std::map<std::string, Layer> layers;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Layer& l = layers[spans_[i].name];
      l.count += spans_[i].count;
      l.busy_ns += spans_[i].busy_ns;
      l.self_ns += self[i];
    }
    os << "{" << header << (header.empty() ? "" : ",") << "\"layers\":{";
    const char* sep = "";
    for (const auto& [name, l] : layers) {
      os << sep << "\n\"" << name << "\":{\"count\":" << l.count << ",\"busy_ns\":" << l.busy_ns
         << ",\"self_ns\":" << l.self_ns << "}";
      sep = ",";
    }
    os << "},\n\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << ",\"count\":" << s.count
         << ",\"busy_ns\":" << s.busy_ns << ",\"self_ns\":" << self[i] << "}";
    }
    os << "\n]}\n";
  }

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Exact comparison of simulated outputs against their pins. Every check
/// is bit-exact: simulated time is integer picoseconds and the simulator is
/// deterministic, so any difference at all is a changed result.
class PinCheck {
 public:
  void expect(const std::string& what, std::int64_t got, std::int64_t want) {
    if (got != want) fail(what, std::to_string(got), std::to_string(want));
  }
  void expect(const std::string& what, std::uint64_t got, std::uint64_t want) {
    if (got != want) fail(what, std::to_string(got), std::to_string(want));
  }
  /// Doubles compare by bit pattern, so -0.0 != 0.0 and one ulp is a miss.
  void expect(const std::string& what, double got, double want) {
    if (std::memcmp(&got, &want, sizeof got) != 0) fail(what, fmt(got), fmt(want));
  }
  void expect_true(const std::string& what, bool ok) {
    if (!ok) mismatches_.push_back(what);
  }

  [[nodiscard]] bool ok() const { return mismatches_.empty(); }
  [[nodiscard]] const std::vector<std::string>& mismatches() const { return mismatches_; }

 private:
  void fail(const std::string& what, const std::string& got, const std::string& want) {
    mismatches_.push_back(what + ": got " + got + ", pinned " + want);
  }
  std::vector<std::string> mismatches_;
};

}  // namespace perfbench
