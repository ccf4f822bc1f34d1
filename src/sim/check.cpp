#include "sim/check.hpp"

#include <cstdarg>
#include <cstdio>

namespace nicbar::sim::check {

namespace {

std::string one_line(const std::string& subsystem, SimTime when, const std::string& condition,
                     const std::string& detail) {
  std::string msg = "invariant violation [" + subsystem + "] at t=" + when.str() + ": " +
                    condition;
  if (!detail.empty()) msg += " — " + detail;
  return msg;
}

/// Raises `a` to at least `v` (relaxed; concurrent raises keep the larger).
void raise_to(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

InvariantViolation::InvariantViolation(std::string subsystem, SimTime when,
                                       std::string condition, std::string detail)
    : std::logic_error(one_line(subsystem, when, condition, detail)),
      subsystem_(std::move(subsystem)),
      condition_(std::move(condition)),
      detail_(std::move(detail)),
      when_(when) {}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

void fail(const char* subsystem, SimTime when, const char* condition, std::string detail) {
  throw InvariantViolation(subsystem, when, condition, std::move(detail));
}

void BarrierSafetyMonitor::arrive(std::size_t m, SimTime when) {
  (void)when;
  arrivals_.at(m).fetch_add(1, std::memory_order_relaxed);
}

void BarrierSafetyMonitor::complete(std::size_t m, SimTime when) {
  // the barrier being completed
  const std::uint64_t k = completions_.at(m).load(std::memory_order_relaxed) + 1;
  if (k > watermark_.load(std::memory_order_relaxed)) {
    std::uint64_t low = UINT64_MAX;
    for (std::size_t j = 0; j < arrivals_.size(); ++j) {
      const std::uint64_t a = arrivals_[j].load(std::memory_order_relaxed);
      NICBAR_CHECK(a >= k, "coll.barrier-safety", when,
                   "member %zu observed completion of barrier %llu before member %zu arrived "
                   "(arrivals=%llu)",
                   m, static_cast<unsigned long long>(k), j,
                   static_cast<unsigned long long>(a));
      if (a < low) low = a;
    }
    raise_to(watermark_, low);
  }
  completions_[m].store(k, std::memory_order_relaxed);
  raise_to(barriers_checked_, k);
}

}  // namespace nicbar::sim::check
