// perfbench_load — the offnetd load generator: one process, one
// connection per thread, speaking offnetd's line protocol over a
// Unix-domain socket.
//
//   perfbench_load record --socket P --queries Q --out F
//       Closed loop on one connection: send every query in Q once, in
//       order, and write each answer line to F. run.py does this on the
//       idle server before timing starts; those answers are the
//       reference every timed answer must equal byte for byte.
//
//   perfbench_load closed --socket P --queries Q --connections N
//                         --seconds S --seed N
//       N connections, each closed loop (next request once the answer
//       is in). Prints the sustained rate; used to size the offered rate.
//
//   perfbench_load run --socket P --queries Q --expected F --rate R
//                      --seconds S --seed N --reload PATH
//                      --reload-every-ms M --reload-deadline-ms T --out O
//       Three threads and three connections. Two send queries drawn
//       (seeded) from Q open loop, on a fixed schedule that together
//       offers R requests/s, pipelining on their connection and reading
//       answers as they arrive; the third sends `T=<T> RELOAD PATH` every
//       M ms and waits for each answer. Each line of O is one request:
//         <kind> <due_ns> <latency_ns> <lag_ns> <status>
//       kind is the query's index in Q (or R for a reload); due_ns is
//       the due time since the schedule's start; latency runs
//       from the request's due time to its answer (-1 when none came);
//       lag is how late the send left after its due time; status is
//       0 ok, 1 wrong answer, 2 non-OK answer, 3 no answer. The last
//       line is `STATS <answer>` from the server after the run.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <deque>
#include <fstream>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One connected Unix-domain stream socket with a line reader.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + errno_text());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      ::close(fd_);
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string why = errno_text();
      ::close(fd_);
      throw std::runtime_error("connect " + path + ": " + why);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send_line(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send: " + errno_text());
      off += static_cast<std::size_t>(n);
    }
  }

  /// Waits up to `timeout_ns` for data and appends every complete line
  /// received to `lines`. False when the peer closed the connection.
  bool poll_lines(std::int64_t timeout_ns, std::vector<std::string>& lines) {
    pollfd p{fd_, POLLIN, 0};
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                static_cast<long>(timeout_ns % 1'000'000'000)};
    const int ready = ::ppoll(&p, 1, timeout_ns < 0 ? nullptr : &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll: " + errno_text());
    }
    if (ready <= 0) return true;
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EAGAIN || errno == EINTR) return true;
      return false;
    }
    pending_.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = pending_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      lines.push_back(pending_.substr(start, nl - start));
    }
    pending_.erase(0, start);
    return true;
  }

  /// Closed-loop exchange: one request, its answer line (empty when the
  /// connection closed or `timeout_ns` passed).
  std::string request(const std::string& line, std::int64_t timeout_ns) {
    send_line(line);
    std::vector<std::string> lines;
    const std::int64_t deadline = now_ns() + timeout_ns;
    while (lines.empty()) {
      const std::int64_t left = deadline - now_ns();
      if (left <= 0 || !poll_lines(left, lines)) return {};
    }
    return lines.front();
  }

 private:
  static std::string errno_text() { return std::strerror(errno); }

  int fd_ = -1;
  std::string pending_;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

struct Args {
  std::map<std::string, std::string> options;
  std::string get(const std::string& key) const {
    auto it = options.find(key);
    if (it == options.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  std::int64_t num(const std::string& key) const { return std::stoll(get(key)); }
};

struct Sample {
  std::string kind;
  std::int64_t due_ns = 0;  // since the schedule's start
  std::int64_t latency_ns = -1;
  std::int64_t lag_ns = 0;
  int status = 3;
};

constexpr std::int64_t kDrainNs = 3'000'000'000;  // wait for late answers

/// One open-loop query connection: sends query indices on its schedule
/// (due = start + phase + i * interval) whether or not earlier answers
/// are in, and matches answers to requests in order.
std::vector<Sample> open_loop(const std::string& socket,
                              const std::vector<std::string>& queries,
                              const std::vector<std::string>& expected,
                              std::int64_t start_ns, std::int64_t phase_ns,
                              std::int64_t interval_ns, std::int64_t end_ns,
                              std::uint64_t seed) {
  Connection conn(socket);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, queries.size() - 1);
  std::vector<Sample> samples;
  std::deque<std::pair<std::size_t, std::int64_t>> in_flight;  // sample, due
  std::vector<std::size_t> query_of;
  std::vector<std::string> lines;
  std::int64_t due = start_ns + phase_ns;
  bool open = true;
  auto take_answers = [&](std::int64_t at) {
    for (const std::string& line : lines) {
      if (in_flight.empty()) break;
      const auto [i, when] = in_flight.front();
      in_flight.pop_front();
      Sample& s = samples[i];
      s.latency_ns = at - when;
      if (line == expected[query_of[i]]) {
        s.status = 0;
      } else {
        s.status = line.rfind("OK", 0) == 0 ? 1 : 2;
      }
    }
    lines.clear();
  };
  while (open && due < end_ns) {
    if (now_ns() >= due) {
      const std::size_t q = pick(rng);
      conn.send_line(queries[q]);
      samples.push_back(
          Sample{std::to_string(q), due - start_ns, -1, now_ns() - due, 3});
      query_of.push_back(q);
      in_flight.emplace_back(samples.size() - 1, due);
      due += interval_ns;
    }
    // Read between sends even when behind schedule: a generator that
    // only sends would stop draining answers, and once both socket
    // buffers filled, it and the server would block on each other.
    open = conn.poll_lines(std::max<std::int64_t>(0, due - now_ns()), lines);
    take_answers(now_ns());
  }
  const std::int64_t drain_until = now_ns() + kDrainNs;
  while (open && !in_flight.empty()) {
    const std::int64_t left = drain_until - now_ns();
    if (left <= 0) break;
    open = conn.poll_lines(left, lines);
    take_answers(now_ns());
  }
  return samples;
}

/// The reload connection: `T=<deadline> RELOAD <path>` on a fixed
/// schedule, each answer awaited before the next is due.
std::vector<Sample> reloads(const std::string& socket, const Args& args,
                            std::int64_t start_ns, std::int64_t end_ns,
                            std::string& stats) {
  Connection conn(socket);
  const std::int64_t every_ns = args.num("reload-every-ms") * 1'000'000;
  const std::int64_t deadline_ms = args.num("reload-deadline-ms");
  const std::string line = "T=" + std::to_string(deadline_ms) + " RELOAD " +
                           args.get("reload");
  std::vector<Sample> samples;
  for (std::int64_t due = start_ns + every_ns / 2; due < end_ns;
       due += every_ns) {
    const std::int64_t wait = due - now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    Sample s{"R", due - start_ns, -1, now_ns() - due, 3};
    const std::string answer =
        conn.request(line, deadline_ms * 1'000'000 + kDrainNs);
    if (!answer.empty()) {
      s.latency_ns = now_ns() - due;
      s.status = answer.rfind("OK version=", 0) == 0 ? 0 : 2;
    }
    samples.push_back(s);
  }
  const std::int64_t wait = end_ns - now_ns();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  stats = conn.request("STATS", kDrainNs);
  return samples;
}

int cmd_record(const Args& args) {
  Connection conn(args.get("socket"));
  std::ofstream out(args.get("out"));
  for (const std::string& q : read_lines(args.get("queries"))) {
    out << conn.request(q, kDrainNs) << '\n';
  }
  out.flush();
  return out ? 0 : 74;
}

int cmd_closed(const Args& args) {
  const std::vector<std::string> queries = read_lines(args.get("queries"));
  const int n = static_cast<int>(args.num("connections"));
  const std::int64_t end = now_ns() + args.num("seconds") * 1'000'000'000;
  std::vector<std::uint64_t> done(static_cast<std::size_t>(n), 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Connection conn(args.get("socket"));
      std::mt19937_64 rng(static_cast<std::uint64_t>(args.num("seed")) + c);
      std::uniform_int_distribution<std::size_t> pick(0, queries.size() - 1);
      while (now_ns() < end) {
        if (conn.request(queries[pick(rng)], kDrainNs).rfind("OK", 0) == 0) {
          ++done[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::uint64_t total = 0;
  for (std::uint64_t d : done) total += d;
  std::printf("closed-loop connections=%d ok_per_s=%.1f\n", n,
              static_cast<double>(total) /
                  static_cast<double>(args.num("seconds")));
  return 0;
}

int cmd_run(const Args& args) {
  const std::vector<std::string> queries = read_lines(args.get("queries"));
  const std::vector<std::string> expected = read_lines(args.get("expected"));
  if (queries.empty() || expected.size() != queries.size()) {
    throw std::invalid_argument("--expected must answer every query");
  }
  const std::string socket = args.get("socket");
  const double rate = std::stod(args.get("rate"));
  const auto interval_ns = static_cast<std::int64_t>(2e9 / rate);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.num("seed"));
  // Connect first; the schedule starts once everyone is connected.
  const std::int64_t start = now_ns() + 50'000'000;
  const std::int64_t end = start + args.num("seconds") * 1'000'000'000;

  std::vector<Sample> query_samples[2];
  std::vector<Sample> reload_samples;
  std::string stats;
  std::string errors[3];
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      try {
        query_samples[c] =
            open_loop(socket, queries, expected, start, c * interval_ns / 2,
                      interval_ns, end, seed * 2 + static_cast<unsigned>(c));
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  threads.emplace_back([&] {
    try {
      reload_samples = reloads(socket, args, start, end, stats);
    } catch (const std::exception& e) {
      errors[2] = e.what();
    }
  });
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }

  std::string text;
  for (const auto* part : {&query_samples[0], &query_samples[1],
                           &reload_samples}) {
    for (const Sample& s : *part) {
      text += s.kind + ' ' + std::to_string(s.due_ns) + ' ' +
              std::to_string(s.latency_ns) + ' ' +
              std::to_string(s.lag_ns) + ' ' + std::to_string(s.status) +
              '\n';
    }
  }
  text += "STATS " + stats + "\n";
  std::ofstream out(args.get("out"));
  out << text;
  out.flush();
  return out ? 0 : 74;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_load record|closed|run --key value...\n");
    return 64;
  }
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "perfbench_load: unexpected '%s'\n", argv[i]);
      return 64;
    }
    args.options[key.substr(2)] = argv[i + 1];
  }
  const std::string command = argv[1];
  // The default 50 us timer slack would make every send late by up to
  // that much; the schedule's intervals are tens of microseconds.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  try {
    if (command == "record") return cmd_record(args);
    if (command == "closed") return cmd_closed(args);
    if (command == "run") return cmd_run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_load: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_load: unknown command '%s'\n", argv[1]);
  return 64;
}
