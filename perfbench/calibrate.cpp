// perfbench_calibrate: a fixed amount of synthetic work whose time tracks
// how fast the host runs right now.
//
//   perfbench_calibrate
//
// Prints "<seconds> <checksum>". kThreads threads (the batch workloads'
// --threads) each run one untimed round and then kRounds timed rounds of
// a hash-map build and probe over kItems keys followed by a sort and
// parse of short strings: the kinds of work the pipeline's loaders and
// passes do. The working set, under a MB per thread, stays in the CPU's
// caches: a larger one made the time follow the host's memory traffic
// more than `series` does. The untimed round takes the page faults of
// first use, so the timed rounds reuse warm memory. Each thread
// times its own rounds and the result is the mean of the two middle
// threads' times, so a thread that started late or lost its CPU for a
// while does not count. The program depends on nothing in the repository,
// so its speed on a given host does not change from one commit to the
// next. run.py runs it between the timed commands and divides their wall
// times by its median.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace {

constexpr int kThreads = 4;
constexpr int kRounds = 60;
constexpr uint64_t kItems = 10000;

uint64_t splitmix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Scratch {
  std::unordered_map<uint64_t, uint64_t> map;
  std::vector<std::string> lines;
};

uint64_t one_round(uint64_t seed, Scratch& scratch) {
  uint64_t state = seed, sum = 0;
  const uint64_t key_space = kItems * 4;
  scratch.map.clear();
  for (uint64_t i = 0; i < kItems; ++i) {
    scratch.map[splitmix(state) % key_space] += i;
  }
  for (uint64_t i = 0; i < 2 * kItems; ++i) {
    auto it = scratch.map.find(splitmix(state) % key_space);
    if (it != scratch.map.end()) sum += it->second;
  }
  scratch.lines.clear();
  for (uint64_t i = 0; i < kItems / 4; ++i) {
    scratch.lines.push_back(std::to_string(splitmix(state)) + "|" +
                            std::to_string(i));
  }
  std::sort(scratch.lines.begin(), scratch.lines.end());
  for (const auto& line : scratch.lines) {
    sum += std::strtoull(line.c_str(), nullptr, 10) & 0xff;
  }
  return sum;
}

}  // namespace

int main() {
  std::vector<double> seconds(kThreads);
  std::vector<uint64_t> sums(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&seconds, &sums, t] {
      Scratch scratch;
      sums[t] = one_round(1000 + t, scratch);
      const auto start = std::chrono::steady_clock::now();
      for (int r = 0; r < kRounds; ++r) {
        sums[t] += one_round(t * kRounds + r, scratch);
      }
      seconds[t] = std::chrono::duration<double>(
          std::chrono::steady_clock::now() - start).count();
    });
  }
  for (auto& thread : pool) thread.join();
  std::sort(seconds.begin(), seconds.end());
  uint64_t checksum = 0;
  for (uint64_t sum : sums) checksum ^= sum;
  std::printf("%.9f %llu\n",
              (seconds[kThreads / 2 - 1] + seconds[kThreads / 2]) / 2,
              static_cast<unsigned long long>(checksum));
  return 0;
}
