// perfbench_trace — the benchmark's traced run.
//
//   perfbench_trace series  --root R --threads N --checkpoint-dir D
//                           --metrics-out F --spans-out S
//   perfbench_trace analyze --dir D --month YYYY-MM --threads N
//                           --metrics-out F --spans-out S
//   perfbench_trace snapshot --checkpoint C --spans-out S
//
// `series` and `analyze` do what `offnet_cli series --checkpoint-dir` and
// `offnet_cli analyze` do, through the same public functions, and print
// the same report, so run.py checks the traced run against the same
// reference as the untraced one. Every span is taken here, around calls
// into the layers; the program itself is not instrumented. Loads go
// through StampingBuf, an istream buffer that stamps the first and last
// read of each input file, which splits a load into per-file read spans
// and the topology / prefix2as builds between them.
//
// `snapshot` times what offnetd does with a checkpoint before it serves:
// Checkpoint::load, svc::load_snapshot_from_checkpoint and
// ServiceSnapshot::validate.
//
// Spans stay in memory and are written once, at exit, as JSON: name,
// start and end (ns, steady clock), parent index (-1 for a top-level
// span) and run id (the snapshot index + 1 for per-snapshot spans, 0 for
// whole-process spans).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/longitudinal.h"
#include "core/pipeline.h"
#include "io/atomic_file.h"
#include "io/loaders.h"
#include "net/table.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "svc/service_snapshot.h"

using namespace offnet;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::size_t run = 0;
};

class Tracer {
 public:
  int begin(std::string name, int parent, std::size_t run) {
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent, run});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int span) { spans_[static_cast<std::size_t>(span)].end_ns = now_ns(); }
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::size_t run) {
    spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, run});
    return static_cast<int>(spans_.size() - 1);
  }
  void count(const std::string& name, std::uint64_t n) { counts_[name] += n; }

  std::string to_json() const {
    std::string out = "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += i == 0 ? "\n" : ",\n";
      out += "{\"name\": \"" + s.name + "\", \"start_ns\": " +
             std::to_string(s.start_ns) + ", \"end_ns\": " +
             std::to_string(s.end_ns) + ", \"parent\": " +
             std::to_string(s.parent) + ", \"run\": " +
             std::to_string(s.run) + "}";
    }
    out += "\n], \"counts\": {";
    bool first = true;
    for (const auto& [name, n] : counts_) {
      out += first ? "" : ", ";
      first = false;
      out += "\"" + name + "\": " + std::to_string(n);
    }
    out += "}}\n";
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::map<std::string, std::uint64_t> counts_;
};

/// A pass-through input buffer over a file that stamps the first and the
/// last read and counts the bytes read. It keeps no buffer of its own, so
/// tellg/seekg (the loaders' bytes-remaining probe) see the file's real
/// positions.
class StampingBuf : public std::streambuf {
 public:
  bool open(const std::string& path) {
    return file_.open(path, std::ios::in) != nullptr;
  }
  std::int64_t first_ns() const { return first_ns_; }
  std::int64_t last_ns() const { return last_ns_; }
  std::uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    stamp();
    const std::streamsize got = file_.sgetn(s, n);
    bytes_ += static_cast<std::uint64_t>(got);
    last_ns_ = now_ns();
    return got;
  }
  int_type underflow() override {
    stamp();
    return file_.sgetc();
  }
  int_type uflow() override {
    stamp();
    const int_type c = file_.sbumpc();
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes_;
    return c;
  }
  std::streamsize showmanyc() override { return file_.in_avail(); }
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override {
    return file_.pubseekoff(off, dir, which);
  }
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return file_.pubseekpos(pos, which);
  }

 private:
  void stamp() {
    last_ns_ = now_ns();
    if (first_ns_ < 0) first_ns_ = last_ns_;
  }

  std::filebuf file_;
  std::int64_t first_ns_ = -1;
  std::int64_t last_ns_ = -1;
  std::uint64_t bytes_ = 0;
};

/// One input file: its stamping buffer and the istream over it.
struct TracedFile {
  StampingBuf buf;
  std::istream in{&buf};
};

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::string get(const std::string& key) const {
    auto it = options.find(key);
    if (it == options.end()) {
      throw std::invalid_argument("missing --" + key);
    }
    return it->second;
  }
};

/// Loads one snapshot directory like offnet_cli's load_dir, under an
/// `io.load` span with one child span per file read and the two builds
/// between the reads.
io::Dataset traced_load(Tracer& tracer, int parent, std::size_t run,
                        const std::string& dir, net::YearMonth month,
                        io::LoadReport* report) {
  const int load = tracer.begin("io.load", parent, run);
  static constexpr const char* kNames[] = {
      "relationships.txt", "organizations.txt", "prefix2as.txt",
      "certificates.tsv",  "hosts.tsv",         "headers.tsv"};
  static constexpr const char* kSpans[] = {
      "io.relationships", "io.organizations", "io.prefix2as",
      "io.certificates",  "io.hosts",         "io.headers"};
  std::vector<std::unique_ptr<TracedFile>> files;
  for (int i = 0; i < 5; ++i) {
    files.push_back(std::make_unique<TracedFile>());
    if (!files.back()->buf.open(dir + "/" + kNames[i])) {
      throw io::LoadError(std::string("cannot read ") + kNames[i]);
    }
  }
  io::stream::StreamOptions stream;  // the CLI's default: serial
  io::ReadOptions options;
  io::Dataset dataset = io::load_dataset_stream(
      files[0]->in, files[1]->in, files[2]->in, files[3]->in, files[4]->in,
      month, stream, options, report);
  files.push_back(std::make_unique<TracedFile>());
  if (files.back()->buf.open(dir + "/headers.tsv")) {
    dataset.add_headers(files.back()->in, stream, options, report);
  }
  tracer.end(load);

  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const StampingBuf& buf = files[i]->buf;
    bytes += buf.bytes();
    if (buf.first_ns() >= 0) {
      tracer.add(kSpans[i], buf.first_ns(), buf.last_ns(), load, run);
    }
  }
  tracer.add("topology.build", files[1]->buf.last_ns(),
             files[2]->buf.first_ns(), load, run);
  tracer.add("bgp.build", files[2]->buf.last_ns(), files[3]->buf.first_ns(),
             load, run);
  tracer.count("io.bytes", bytes);
  const io::LoadReport& tally = report != nullptr ? *report : dataset.report();
  tracer.count("io.lines", tally.lines_ok() + tally.lines_skipped());
  return dataset;
}

std::size_t threads_from(const Args& args) {
  return static_cast<std::size_t>(std::stoul(args.get("threads")));
}

/// Writes the registry as offnet_cli --metrics-out does, under an
/// `obs.export` span.
void traced_export(Tracer& tracer, const Args& args, obs::Registry& metrics) {
  const int span = tracer.begin("obs.export", -1, 0);
  io::AtomicFile::write(args.get("metrics-out"),
                        obs::MetricsExporter::to_json(metrics));
  tracer.end(span);
}

// The two report renderers below reproduce offnet_cli's output byte for
// byte; run.py compares the traced run's report with the reference.

void print_footprints(const core::SnapshotResult& result) {
  net::TextTable table({"Hypergiant", "confirmed off-net ASes",
                        "cert-only ASes", "off-net IPs", "on-net IPs"});
  for (const core::HgFootprint& fp : result.per_hg) {
    if (fp.candidate_ases.empty() && fp.onnet_ips == 0) continue;
    table.add(fp.name, fp.confirmed_ases().size(), fp.candidate_ases.size(),
              fp.confirmed_ips, fp.onnet_ips);
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\ncorpus: %zu records, %zu valid, %zu ASes, %zu ASes with "
              "any HG certificate\n",
              result.stats.total_records, result.stats.valid_cert_ips,
              result.stats.ases_with_certs, result.stats.ases_with_any_hg);
}

void print_series(const std::vector<net::YearMonth>& months,
                  const std::vector<core::SnapshotResult>& results) {
  net::TextTable table({"snapshot", "health", "lines read", "lines skipped",
                        "confirmed off-net ASes"});
  std::size_t usable = 0;
  for (const core::SnapshotResult& result : results) {
    std::size_t confirmed = 0;
    for (const core::HgFootprint& fp : result.per_hg) {
      confirmed += fp.confirmed_ases().size();
    }
    if (result.usable()) ++usable;
    table.add(months[result.snapshot].to_string(),
              core::to_string(result.health), result.load_report.lines_ok(),
              result.load_report.lines_skipped(),
              result.usable() ? std::to_string(confirmed) : "-");
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\n%zu of %zu snapshots usable\n", usable, results.size());
}

int cmd_analyze(const Args& args, Tracer& tracer) {
  const auto month = net::YearMonth::parse(args.get("month"));
  if (!month) throw std::invalid_argument("malformed --month");
  io::LoadReport report;
  io::Dataset dataset =
      traced_load(tracer, -1, 1, args.get("dir"), *month, &report);
  const std::int64_t feed_return = now_ns();

  obs::Registry metrics;
  core::PipelineOptions options;
  options.n_threads = threads_from(args);
  options.metrics = &metrics;
  core::OffnetPipeline pipeline(dataset.topology(), dataset.ip2as(),
                                dataset.certs(), dataset.roots(),
                                core::standard_hg_inputs(), options);
  core::SnapshotResult result = pipeline.run(dataset.snapshot());
  tracer.add("pipeline.segment", feed_return, now_ns(), -1, 1);
  result.health = report.clean() ? core::SnapshotHealth::kComplete
                                 : core::SnapshotHealth::kPartial;
  report.export_metrics(metrics);
  print_footprints(result);
  traced_export(tracer, args, metrics);
  std::printf("snapshot %s: %s — %s\n", month->to_string().c_str(),
              core::to_string(result.health), report.summary().c_str());
  return 0;
}

int cmd_series(const Args& args, Tracer& tracer) {
  const std::string root = args.get("root");
  const auto months = net::study_snapshots();
  const int run_span = tracer.begin("series.run", -1, 0);

  // The spans between the runner's callbacks: feed return -> progress is
  // the snapshot's pipeline segment, progress -> next feed call (or the
  // runner's return) its checkpoint save.
  std::int64_t feed_return = -1;
  std::int64_t progress_at = -1;
  std::size_t current = 0;
  auto close_save = [&](std::int64_t end) {
    if (progress_at < 0) return;
    tracer.add("checkpoint.save", progress_at, end, run_span, current + 1);
    progress_at = -1;
  };

  auto feed = [&](std::size_t t) {
    close_save(now_ns());
    current = t;
    core::SnapshotFeed input;
    const std::string dir = root + "/" + months[t].to_string();
    std::ifstream probe(dir + "/relationships.txt");
    if (!probe) return input;
    input.dataset =
        traced_load(tracer, run_span, t + 1, dir, months[t], &input.report);
    feed_return = now_ns();
    return input;
  };
  auto progress = [&](const core::SnapshotResult& result) {
    progress_at = now_ns();
    tracer.add("pipeline.segment", feed_return, progress_at, run_span,
               result.snapshot + 1);
  };

  obs::Registry metrics;
  core::PipelineOptions options;
  options.n_threads = threads_from(args);
  options.metrics = &metrics;
  core::LongitudinalRunner runner{options};
  core::SupervisorOptions supervisor;
  const std::string checkpoint_dir = args.get("checkpoint-dir");
  std::filesystem::create_directories(checkpoint_dir);
  supervisor.checkpoint_path = checkpoint_dir + "/checkpoint.offnet";
  const std::vector<core::SnapshotResult> results = runner.run_supervised(
      feed, supervisor, 0, months.size() - 1, progress);
  close_save(now_ns());
  tracer.end(run_span);

  print_series(months, results);
  traced_export(tracer, args, metrics);
  return 0;
}

int cmd_snapshot(const Args& args, Tracer& tracer) {
  const std::string path = args.get("checkpoint");
  int span = tracer.begin("checkpoint.decode", -1, 0);
  const core::RunState state = core::Checkpoint::load(path, "");
  tracer.end(span);
  tracer.count("checkpoint.results", state.results.size());

  span = tracer.begin("svc.snapshot_load", -1, 0);
  auto snapshot = svc::load_snapshot_from_checkpoint(path);
  tracer.end(span);
  span = tracer.begin("svc.validate", -1, 0);
  const std::string why = snapshot->validate();
  tracer.end(span);
  if (!why.empty()) {
    std::fprintf(stderr, "perfbench_trace: %s: %s\n", path.c_str(),
                 why.c_str());
    return 65;
  }
  std::printf("months=%zu usable=%zu hgs=%zu\n", snapshot->months().size(),
              snapshot->usable_months(), snapshot->hypergiants().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_trace series|analyze|snapshot [--key "
                 "value]... --spans-out FILE\n");
    return 64;
  }
  Args args;
  args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "perfbench_trace: unexpected '%s'\n", argv[i]);
      return 64;
    }
    args.options[key.substr(2)] = argv[i + 1];
  }
  Tracer tracer;
  try {
    int rc = 64;
    if (args.command == "series") rc = cmd_series(args, tracer);
    if (args.command == "analyze") rc = cmd_analyze(args, tracer);
    if (args.command == "snapshot") rc = cmd_snapshot(args, tracer);
    if (std::fflush(stdout) != 0) return 74;
    if (rc != 0) return rc;
    io::AtomicFile::write(args.get("spans-out"), tracer.to_json());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
}
