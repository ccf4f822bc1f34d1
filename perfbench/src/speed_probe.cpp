#include "speed_probe.hpp"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"

namespace perfbench {
namespace {

/// `words` words of zeroed state in pages of their own, unmapped on
/// destruction, so they leave the process's resident set with the call
/// (freed heap memory would stay resident).
class MappedState {
 public:
  explicit MappedState(std::size_t words) : bytes_(words * sizeof(std::uint64_t)) {
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    words_ = static_cast<std::uint64_t*>(p);
    std::fill_n(words_, words, std::uint64_t{0});  // fault every page in now
  }
  ~MappedState() { munmap(words_, bytes_); }
  MappedState(const MappedState&) = delete;
  MappedState& operator=(const MappedState&) = delete;

  std::uint64_t& operator[](std::size_t i) { return words_[i]; }

 private:
  std::size_t bytes_;
  std::uint64_t* words_ = nullptr;
};

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// A fixed event loop: a binary-heap queue, one small heap object per event,
/// and four dependent read-modify-writes into `words` words of state.
/// Returns its checksum; `us` receives its host time.
std::uint64_t kernel(std::size_t words, double& us) {
  constexpr int kEvents = 30000;
  // Faulted in before the clock starts, so the probe does not time page
  // faults.
  MappedState state(words);
  const auto a = Clock::now();
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, id)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < 2048; ++i) queue.emplace(next() % 100000, i);
  std::uint64_t sum = 0;
  for (int step = 0; step < kEvents; ++step) {
    const auto [t, id] = queue.top();
    queue.pop();
    auto payload = std::make_unique<std::uint64_t[]>(1 + (id & 7));
    std::uint64_t h = (t * 0x9e3779b97f4a7c15ULL) % words;
    for (int k = 0; k < 4; ++k) {
      state[h] += t;
      h = (h * 31 + state[h]) % words;
    }
    payload[0] = t;
    sum += payload[0] + state[h];
    queue.emplace(t + 1 + next() % 1000, id);
  }
  us = seconds_between(a, Clock::now()) * 1e6;
  return sum;
}

}  // namespace

ProbeResult run_probe() {
  ProbeResult r;
  r.peak_rss_mb = peak_rss_mb();
  double small_us = 0, large_us = 0;
  const std::uint64_t small = kernel(std::size_t{1} << 12, small_us);  // 32 KiB
  const std::uint64_t large = kernel(std::size_t{1} << 18, large_us);  // 2 MiB
  r.us = std::sqrt(small_us * large_us);
  r.checksum = small ^ (large << 1);
  r.rss_reset = reset_peak_rss();
  return r;
}

double peak_rss_mb() {
  // VmHWM belongs to the current address space only. getrusage's ru_maxrss
  // survives execve, so under a launcher it reports the launcher's
  // footprint whenever that is larger; it is only the fallback.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
