// Unit checks for the benchmark's own arithmetic: the tail-percentile rule,
// the self-time subtraction, and the pin comparison. Exits non-zero and
// names each failed check.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "measure.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void tail_rule() {
  using perfbench::tail;
  // 100 samples 1..100: ten beyond index 89 (value 90) -> p90.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  perfbench::Tail t = tail(v);
  check(t.ok && t.value == 90 && t.percentile == 90 && t.samples == 100 && t.beyond == 10,
        "tail of 1..100 is p90 = 90");
  // 11 samples: the smallest count with a tail; it is the minimum, p9.09.
  v.assign({5, 3, 9, 1, 7, 2, 8, 4, 6, 11, 10});
  t = tail(v);
  check(t.ok && t.value == 1 && t.percentile == 100.0 / 11, "tail of 11 samples is the minimum");
  // 10 samples or fewer: no percentile has ten samples beyond it.
  v.pop_back();
  t = tail(v);
  check(!t.ok && t.value == 0 && t.samples == 10, "no tail with 10 samples");
  // 1000 samples -> p99, value 990.
  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  t = tail(v);
  check(t.ok && t.value == 990 && t.percentile == 99, "tail of 1..1000 is p99 = 990");

  check(perfbench::median({3, 1, 2}) == 2, "median of odd count");
  check(perfbench::median({4, 1, 3, 2}) == 2.5, "median of even count");
  check(perfbench::median({}) == 0, "median of nothing is 0");
}

void self_time() {
  using perfbench::Span;
  // run_all [0, 100) with an aggregate of 3 monitor calls covering 30 ns
  // and a plain child covering 20 ns: self = 50. The cycle around it has
  // run_all plus a 10 ns cluster build as children: self = 200 - 110.
  std::vector<Span> s(4);
  s[0] = {"cycle", -1, 0, 200, 1, 200};
  s[1] = {"sim.run_all", 0, 50, 150, 1, 100};
  s[2] = {"check.complete", 1, 60, 140, 3, 30};
  s[3] = {"host.Cluster", 0, 0, 10, 1, 10};
  std::vector<Span> with_plain = s;
  with_plain.push_back({"pdes.stats", 1, 141, 161, 1, 20});
  const auto self = perfbench::SpanLog::self_times(with_plain);
  check(self[0] == 90, "cycle self = 200 - (100 + 10)");
  check(self[1] == 50, "run_all self = 100 - (30 + 20)");
  check(self[2] == 30 && self[3] == 10 && self[4] == 20, "leaves keep their busy time");
  // Children whose busy time sums past the parent (calls on several
  // threads) cover it at most fully: self is 0, never negative.
  s[2].busy_ns = 180;
  check(perfbench::SpanLog::self_times(s)[1] == 0, "overlapping children cap at the parent");

  // The log records aggregate spans from CallCost and derives the same.
  const perfbench::Clock::time_point t0{};
  perfbench::SpanLog log(t0);
  const int run = log.add("sim.run_all", -1, t0, t0 + std::chrono::nanoseconds(1000));
  perfbench::CallCost c;
  c.add(t0 + std::chrono::nanoseconds(100), t0 + std::chrono::nanoseconds(150));
  c.add(t0 + std::chrono::nanoseconds(300), t0 + std::chrono::nanoseconds(400), 4);
  log.add_aggregate("check.arrive", run, c);
  log.add_aggregate("empty", run, perfbench::CallCost{});
  check(log.spans().size() == 2, "an aggregate with no calls adds no span");
  const perfbench::Span& a = log.spans()[1];
  check(a.count == 5 && a.busy_ns == 150 && a.start_ns == 100 && a.end_ns == 400,
        "aggregate span: count, busy, first start, last end");
  check(log.self_ns()[0] == 850, "run_all self = 1000 - 150");
}

void pin_comparison() {
  perfbench::PinCheck p;
  p.expect("same int", std::int64_t{10100150600}, std::int64_t{10100150600});
  p.expect("same double", 101.0015, 101.0015);
  check(p.ok(), "equal values pass");
  p.expect("one ps off", std::int64_t{10100150601}, std::int64_t{10100150600});
  check(!p.ok() && p.mismatches().size() == 1, "one picosecond is a mismatch");
  check(p.mismatches()[0] == "one ps off: got 10100150601, pinned 10100150600",
        "mismatch text names both values");
  perfbench::PinCheck d;
  const double x = 235.0;
  d.expect("one ulp", std::nextafter(x, 1e9), x);
  d.expect("signed zero", -0.0, 0.0);
  d.expect("count", std::uint64_t{3}, std::uint64_t{3});
  check(d.mismatches().size() == 2, "doubles compare bit-exact");
  perfbench::PinCheck t;
  t.expect_true("holds", true);
  t.expect_true("broken", false);
  check(t.mismatches().size() == 1 && t.mismatches()[0] == "broken", "boolean pins");
}

}  // namespace

int main() {
  tail_rule();
  self_time();
  pin_comparison();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench unit checks: %d failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench unit checks: all passed\n");
  return 0;
}
