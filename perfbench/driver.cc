// perfbench_driver: the measuring half of the ilat benchmark (run.py is the
// orchestrating half; see README.md in this directory).
//
//   perfbench_driver e2e    PLAN OUTDIR
//       Untraced end-to-end run.  Every line of PLAN is one `ilat`
//       invocation (its arguments, whitespace-separated).  Each goes
//       through ParseCliArgs + RunCli in this process -- the exact code path
//       of the `ilat` binary -- with no profiler installed.  Writes
//       OUTDIR/report.txt (per-invocation wall/setup/exit code, process CPU
//       and peak RSS) and OUTDIR/out_<i>.txt (what the CLI printed).
//
//   perfbench_driver layers campaign SPEC OUTDIR [--journal J] [--resume R]
//   perfbench_driver layers gui      PLAN OUTDIR
//       Traced per-layer run.  Replays the same work as a serial fold that
//       times every call into a layer's public function from this file
//       (RunSpecSession, MakeWorkloadByName, SummarizeCell,
//       CampaignAggregate::Add/ToJson, CellToJsonLine, JournalWriter::Add,
//       LoadJournal, TraceToChromeJson, ExplainLatencyReport) and sums the
//       exact simulated counts of every session's metrics snapshot.  Writes
//       OUTDIR/layers.txt ("name value..." lines) plus the artefacts run.py
//       checks against the untraced run.
//
//   perfbench_driver pace SECONDS OUTFILE
//       Host pace probe.  Runs a fixed kernel of the benchmark's own (no
//       ilat code) every quarter second for SECONDS, or until it is killed,
//       and appends "monotonic_s iteration_s" to OUTFILE after each run.
//       run.py runs it beside the untraced run to scale host times to a
//       reference pace (README.md, "Host pace").

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/campaign/aggregate.h"
#include "src/campaign/journal.h"
#include "src/campaign/spec.h"
#include "src/core/catalog.h"
#include "src/obs/trace_export.h"
#include "src/sim/random.h"
#include "src/tools/cli.h"
#include "src/viz/explain.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- First-cell hook ----
//
// setup_s is the host time before the first cell starts executing.  The
// runner starts a cell by calling RunSpecSession, so the link step wraps
// that one symbol (-Wl,--wrap, see CMakeLists.txt) and the wrapper records
// when it is first entered.  The cost per cell is one relaxed atomic load.
std::atomic<std::int64_t> g_first_session_ns{0};

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

}  // namespace

#define RUN_SPEC_SESSION_SYMBOL \
  _ZN4ilat14RunSpecSessionERKNS_7RunSpecEPNS_13SessionResultEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE
#define PASTE2(a, b) a##b
#define PASTE(a, b) PASTE2(a, b)

extern "C" bool PASTE(__real_, RUN_SPEC_SESSION_SYMBOL)(const ilat::RunSpec&,
                                                       ilat::SessionResult*, std::string*);
extern "C" bool PASTE(__wrap_, RUN_SPEC_SESSION_SYMBOL)(const ilat::RunSpec& spec,
                                                       ilat::SessionResult* out,
                                                       std::string* error) {
  if (g_first_session_ns.load(std::memory_order_relaxed) == 0) {
    std::int64_t expected = 0;
    g_first_session_ns.compare_exchange_strong(expected, NowNs());
  }
  return PASTE(__real_, RUN_SPEC_SESSION_SYMBOL)(spec, out, error);
}

// ---- fsync ----
//
// The journal fsyncs its whole file on every cell.  On a shared host the
// disk's fsync latency, not the code, then sets journal_resume's numbers
// (173 to 365 cells/s between runs of the same build), so the link also
// wraps fsync: calls are counted and return success without waiting for
// the disk.  The journal's own work -- serialising, writing every byte
// through the page cache, renaming -- still runs.  README.md, "Journal".
std::atomic<std::uint64_t> g_fsyncs{0};

extern "C" int __wrap_fsync(int /*fd*/) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

// ---- rename ----
//
// The journal publishes each rewrite by renaming it over the old file.  On
// ext4 a rename over an existing file starts writeback of the new file's
// data (auto_da_alloc), so every Add still sent its whole journal to the
// shared disk: ~2 GB per journal_resume repeat, and 213 to 369 cells/s
// between runs.  Unlinking the target first makes the rename a plain one;
// the replaced rewrite is then dropped from the page cache unwritten.  The
// journal still ends up under its name with the same bytes; only the
// atomicity of the swap, which no run here relies on, is given up.
extern "C" int __real_rename(const char* from, const char* to);

extern "C" int __wrap_rename(const char* from, const char* to) {
  unlink(to);
  return __real_rename(from, to);
}

namespace {

bool ReadLines(const std::string& path, std::vector<std::string>* lines) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines->push_back(line);
    }
  }
  return true;
}

std::vector<std::string> SplitWords(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> words;
  std::string w;
  while (in >> w) {
    words.push_back(w);
  }
  return words;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

double ProcessCpuSeconds(long* peak_rss_kb) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  if (peak_rss_kb != nullptr) {
    *peak_rss_kb = ru.ru_maxrss;
  }
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Bytes this process has passed to write(2) so far (/proc/self/io wchar).
std::uint64_t WrittenBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") {
      return value;
    }
  }
  return 0;
}

// ---- e2e ----

int RunE2e(const std::string& plan_path, const std::string& outdir) {
  std::vector<std::string> plan;
  if (!ReadLines(plan_path, &plan) || plan.empty()) {
    std::fprintf(stderr, "perfbench_driver: cannot read plan %s\n", plan_path.c_str());
    return 2;
  }
  std::ostringstream report;
  std::vector<std::string> outputs;
  const double cpu0 = ProcessCpuSeconds(nullptr);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ilat::CliOptions options;
    std::string error;
    if (!ilat::ParseCliArgs(SplitWords(plan[i]), &options, &error)) {
      std::fprintf(stderr, "perfbench_driver: plan line %zu: %s\n", i + 1, error.c_str());
      return 2;
    }
    char* buf = nullptr;
    std::size_t len = 0;
    std::FILE* out = open_memstream(&buf, &len);
    if (out == nullptr) {
      return 2;
    }
    g_first_session_ns.store(0, std::memory_order_relaxed);
    const std::int64_t start_ns = NowNs();
    const int rc = ilat::RunCli(options, out);
    const std::int64_t end_ns = NowNs();
    std::fclose(out);
    outputs.emplace_back(buf, len);
    std::free(buf);
    const std::int64_t first = g_first_session_ns.load(std::memory_order_relaxed);
    const double setup_s = first == 0 ? -1.0 : 1e-9 * static_cast<double>(first - start_ns);
    char line[160];
    std::snprintf(line, sizeof line, "inv %zu %d %.9f %.9f\n", i, rc,
                  1e-9 * static_cast<double>(end_ns - start_ns), setup_s);
    report << line;
  }
  long peak_rss_kb = 0;
  const double cpu_s = ProcessCpuSeconds(&peak_rss_kb) - cpu0;
  report << "cpu_s " << cpu_s << "\npeak_rss_kb " << peak_rss_kb << "\nfsyncs "
         << g_fsyncs.load() << "\n";
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    if (!WriteFile(outdir + "/out_" + std::to_string(i) + ".txt", outputs[i])) {
      return 2;
    }
  }
  return WriteFile(outdir + "/report.txt", report.str()) ? 0 : 2;
}

// ---- layers ----

// Named accumulators, written out as "name value" lines.
class Layers {
 public:
  void Add(const std::string& name, double v) { sums_[name] += v; }
  void Sample(const std::string& name, double v) { samples_[name].push_back(v); }

  std::string Render() const {
    std::ostringstream out;
    out.precision(17);
    for (const auto& [name, v] : sums_) {
      out << name << ' ' << v << '\n';
    }
    for (const auto& [name, vs] : samples_) {
      out << name;
      for (double v : vs) {
        out << ' ' << v;
      }
      out << '\n';
    }
    return out.str();
  }

 private:
  std::map<std::string, double> sums_;
  std::map<std::string, std::vector<double>> samples_;
};

// Times one call and adds its seconds to `name`.
template <typename F>
auto Timed(Layers* layers, const std::string& name, F&& f) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    layers->Add(name, Seconds(t0, Clock::now()));
  } else {
    auto result = f();
    layers->Add(name, Seconds(t0, Clock::now()));
    return result;
  }
}

std::string KindOf(const std::string& app) {
  return app == "server" || app == "pipeline" ? app : "gui";
}

// What RunSpecSession generates for a script-shaped GUI session, generated
// again here so that input generation gets a time of its own.
void TimeScriptGen(const ilat::RunSpec& rs, Layers* layers) {
  const std::string workload =
      rs.workload.empty() ? ilat::DefaultWorkloadFor(rs.app) : rs.workload;
  if (KindOf(rs.app) != "gui" || workload == "network") {
    return;
  }
  Timed(layers, "script_gen_s", [&] {
    ilat::Random rng(rs.workload_seed != 0 ? rs.workload_seed : rs.seed);
    return ilat::MakeWorkloadByName(workload, &rng, rs.params).size();
  });
  layers->Add("script_gen_calls", 1);
}

// Exact simulated work of one session, from its metrics snapshot.
void CountSession(const ilat::SessionResult& s, const std::string& kind, Layers* layers) {
  const ilat::obs::MetricsSnapshot& m = s.metrics;
  layers->Add("sched_events", m.Get("sched.context_switches") + m.Get("sched.interrupts") +
                                  m.Get("sim.device_ticks"));
  layers->Add("disk_reads", m.Get("disk.reads"));
  layers->Add("idle_records", m.Get("idle.records"));
  layers->Add("fsm_intervals", m.Get("fsm.intervals"));
  layers->Add("app_messages", m.Get("app.messages_handled"));
  layers->Add("server_requests", m.Get("server.completed"));
  layers->Add("server_cache_hits", m.Get("server.cache.hits"));
  layers->Add("server_cache_misses", m.Get("server.cache.misses"));
  layers->Add("media_frames", m.Get("media.frames.decoded"));
  double injections = 0.0;
  for (const auto& [name, v] : m.values) {
    if (name.rfind("fault.", 0) == 0) {
      injections += v;
    }
  }
  layers->Add("fault_injections", injections);
  layers->Add("metrics_json_bytes", static_cast<double>(s.metrics_json.size()));
  layers->Add("cells_" + kind, 1);
}

// The RunSpec the campaign runner builds for a cell's first attempt.
ilat::RunSpec RunSpecFor(const ilat::campaign::CampaignCell& cell) {
  ilat::RunSpec rs;
  rs.os = cell.os;
  rs.app = cell.app;
  rs.workload = cell.workload;
  rs.driver = cell.driver;
  rs.seed = cell.seed;
  rs.workload_seed = cell.workload_seed;
  rs.params = cell.params;
  rs.faults = cell.faults;
  return rs;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  return 1;
}

// The campaign path of RunCampaign, run serially: every executed cell goes
// RunSpecSession -> SummarizeCell -> CellToJsonLine -> [JournalWriter::Add]
// -> CampaignAggregate::Add, and replayed cells fold straight from the
// loaded journal, in index order as the runner does.
int RunLayersCampaign(const std::string& spec_path, const std::string& outdir,
                      const std::string& journal_path, const std::string& resume_path) {
  namespace campaign = ilat::campaign;
  Layers layers;
  std::string error;
  const auto start = Clock::now();
  campaign::CampaignSpec spec;
  if (!Timed(&layers, "spec_load_s",
             [&] { return campaign::LoadCampaignSpec(spec_path, &spec, &error); })) {
    return Fail(error);
  }
  if (spec.cell_retries != 0 || spec.timeout_cell_s > 0.0) {
    return Fail("the serial fold runs single-attempt cells only (no retries, no watchdog)");
  }
  const std::vector<campaign::CampaignCell> cells =
      Timed(&layers, "expand_s", [&] { return spec.ExpandCells(); });

  campaign::JournalData journal_data;
  if (!resume_path.empty() &&
      !Timed(&layers, "journal_load_s",
             [&] { return campaign::LoadJournal(resume_path, &journal_data, &error); })) {
    return Fail(error);
  }
  campaign::JournalWriter journal;
  if (!journal_path.empty() && !Timed(&layers, "journal_open_s", [&] {
        journal.Open(journal_path, spec, cells.size(), 0, 1);
        journal.SeedLines(journal_data.raw_lines);
        return journal.Flush(&error);
      })) {
    return Fail(error);
  }

  campaign::CampaignAggregate aggregate(spec.name, spec.campaign_seed, spec.threshold_ms);
  for (const campaign::CampaignCell& cell : cells) {
    const auto replay = journal_data.cells.find(cell.index);
    if (replay != journal_data.cells.end()) {
      campaign::CellResult r = replay->second;
      Timed(&layers, "aggregate_add_s", [&] { aggregate.Add(std::move(r)); });
      layers.Add("replayed", 1);
      continue;
    }
    const ilat::RunSpec rs = RunSpecFor(cell);
    const std::string kind = KindOf(rs.app);
    TimeScriptGen(rs, &layers);
    const auto cell_start = Clock::now();
    ilat::SessionResult session;
    if (!Timed(&layers, "session_s_" + kind,
               [&] { return ilat::RunSpecSession(rs, &session, &error); })) {
      return Fail("cell " + cell.Label() + ": " + error);
    }
    CountSession(session, kind, &layers);
    campaign::CellResult r = Timed(&layers, "summarize_s", [&] {
      return campaign::SummarizeCell(cell, session, spec.threshold_ms);
    });
    r.wall_s = Seconds(cell_start, Clock::now());
    layers.Add("degraded_cells", r.degraded ? 1 : 0);
    Timed(&layers, "cell_json_s", [&] { return campaign::CellToJsonLine(r).size(); });
    if (journal.open()) {
      const std::uint64_t written = WrittenBytes();
      const auto t0 = Clock::now();
      const bool added = journal.Add(r, &error);
      const double dt = Seconds(t0, Clock::now());
      if (!added) {
        return Fail(error);
      }
      layers.Add("journal_add_s", dt);
      layers.Sample("journal_add_samples_s", dt);
      layers.Add("journal_add_bytes", static_cast<double>(WrittenBytes() - written));
    }
    Timed(&layers, "aggregate_add_s", [&] { aggregate.Add(std::move(r)); });
    layers.Add("cells", 1);
  }
  std::string json;
  Timed(&layers, "finish_s", [&] {
    json = aggregate.ToJson();
    return aggregate.ToCellsCsv().size();
  });
  layers.Add("wall_s", Seconds(start, Clock::now()));
  layers.Add("fsyncs", static_cast<double>(g_fsyncs.load()));
  if (!WriteFile(outdir + "/aggregate.json", json) ||
      !WriteFile(outdir + "/layers.txt", layers.Render())) {
    return Fail("cannot write to " + outdir);
  }
  return 0;
}

// `ilat --os=X --app=Y --trace-out=... --explain`, one session at a time
// as the CLI runs it, plus the same session untraced for the paired
// trace-collection cost.
int RunLayersGui(const std::string& plan_path, const std::string& outdir) {
  std::vector<std::string> plan;
  if (!ReadLines(plan_path, &plan) || plan.empty()) {
    return Fail("cannot read plan " + plan_path);
  }
  Layers layers;
  std::string error;
  double paired_s = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ilat::CliOptions options;
    if (!ilat::ParseCliArgs(SplitWords(plan[i]), &options, &error)) {
      return Fail("plan line " + std::to_string(i + 1) + ": " + error);
    }
    ilat::RunSpec rs;
    rs.os = options.os;
    rs.app = options.app;
    rs.workload = options.workload;
    rs.driver = options.driver;
    rs.seed = options.seed;
    rs.idle_period_ms = options.idle_period_ms;
    rs.collect_trace = true;
    TimeScriptGen(rs, &layers);
    ilat::SessionResult traced;
    if (!Timed(&layers, "session_s_gui",
               [&] { return ilat::RunSpecSession(rs, &traced, &error); }) ||
        traced.trace_data == nullptr) {
      return Fail("session " + plan[i] + ": " + error);
    }
    CountSession(traced, "gui", &layers);
    layers.Add("trace_events", static_cast<double>(traced.trace_data->events.size()));
    layers.Add("trace_bytes", static_cast<double>(Timed(&layers, "trace_export_s", [&] {
                                                    return ilat::obs::TraceToChromeJson(
                                                               *traced.trace_data)
                                                        .size();
                                                  })));
    ilat::ExplainOptions xopts;
    xopts.threshold_ms = options.threshold_ms;
    const std::string report = Timed(&layers, "explain_s", [&] {
      return ilat::ExplainLatencyReport(traced.events, *traced.trace_data, xopts);
    });
    if (!WriteFile(outdir + "/explain_" + std::to_string(i) + ".txt", report)) {
      return Fail("cannot write to " + outdir);
    }

    const auto pair_start = Clock::now();
    rs.collect_trace = false;
    ilat::SessionResult untraced;
    if (!ilat::RunSpecSession(rs, &untraced, &error)) {
      return Fail("session " + plan[i] + ": " + error);
    }
    const double dt = Seconds(pair_start, Clock::now());
    layers.Add("untraced_session_s", dt);
    paired_s += dt;
    layers.Add("cells", 1);
  }
  // The paired untraced sessions are a control, not part of the traced run.
  layers.Add("wall_s", Seconds(start, Clock::now()) - paired_s);
  return WriteFile(outdir + "/layers.txt", layers.Render()) ? 0 : Fail("cannot write");
}

}  // namespace

// ---- pace ----

// One iteration of the pace kernel: dependent walks over random cycles of
// 1 MiB and 4 MiB (cache and memory latency, which neighbours on a shared
// host take away) and malloc/free churn of small blocks (the allocator).
// Fixed work, about 70 ms on an idle 2.1 GHz Xeon vCPU.
class PaceKernel {
 public:
  PaceKernel() : small_(Cycle(1u << 18)), large_(Cycle(1u << 20)), slots_(4096, nullptr) {}

  ~PaceKernel() {
    for (void* p : slots_) {
      std::free(p);
    }
  }

  double TimeOnce() {
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 1000000; ++i) {
      at_small_ = small_[at_small_];
    }
    for (int i = 0; i < 1000000; ++i) {
      at_large_ = large_[at_large_];
    }
    for (int i = 0; i < 1000000; ++i) {
      std::uint64_t r = Next();
      void*& slot = slots_[r & 4095];
      std::free(slot);
      slot = std::malloc(16 + ((r >> 12) & 255));
    }
    return Seconds(t0, Clock::now());
  }

  std::uint64_t sink() const { return at_small_ ^ at_large_; }

 private:
  std::uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }

  // A single random cycle through n slots, so every step misses the last.
  std::vector<std::uint32_t> Cycle(std::uint32_t n) {
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      order[i] = i;
    }
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(order[i], order[Next() % (i + 1)]);
    }
    std::vector<std::uint32_t> next(n);
    for (std::size_t i = 0; i < n; ++i) {
      next[order[i]] = order[(i + 1) % n];
    }
    return next;
  }

  std::uint64_t state_ = 12345;
  std::vector<std::uint32_t> small_;
  std::vector<std::uint32_t> large_;
  std::vector<void*> slots_;
  std::uint32_t at_small_ = 0;
  std::uint32_t at_large_ = 0;
};

int RunPace(double seconds, const std::string& out_path) {
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    return Fail("cannot write " + out_path);
  }
  PaceKernel kernel;
  Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  // A quarter of one core: often enough to follow the host's spells, seldom
  // enough that the probe's own memory traffic stays small.
  const auto period = std::chrono::milliseconds(250);
  for (Clock::time_point next = Clock::now(); next < end;
       next = std::max(next + period, Clock::now())) {
    std::this_thread::sleep_until(next);
    double took = kernel.TimeOnce();
    double at = std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
    std::fprintf(out, "%.6f %.9f\n", at, took);
    std::fflush(out);  // the probe is usually stopped by a signal
  }
  std::fclose(out);
  return kernel.sink() == 0xffffffffu ? 3 : 0;  // keeps the walks observable
}

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 3 && args[0] == "pace") {
    return RunPace(std::atof(args[1].c_str()), args[2]);
  }
  if (args.size() == 3 && args[0] == "e2e") {
    return RunE2e(args[1], args[2]);
  }
  if (args.size() == 4 && args[0] == "layers" && args[1] == "gui") {
    return RunLayersGui(args[2], args[3]);
  }
  if (args.size() >= 4 && args.size() % 2 == 0 && args[0] == "layers" &&
      args[1] == "campaign") {
    std::string journal_path;
    std::string resume_path;
    for (std::size_t i = 4; i + 1 < args.size(); i += 2) {
      if (args[i] == "--journal") {
        journal_path = args[i + 1];
      } else if (args[i] == "--resume") {
        resume_path = args[i + 1];
      } else {
        return Fail("unknown option " + args[i]);
      }
    }
    return RunLayersCampaign(args[2], args[3], journal_path, resume_path);
  }
  std::fprintf(stderr,
               "usage: perfbench_driver e2e PLAN OUTDIR\n"
               "       perfbench_driver layers campaign SPEC OUTDIR [--journal J] [--resume R]\n"
               "       perfbench_driver layers gui PLAN OUTDIR\n"
               "       perfbench_driver pace SECONDS OUTFILE\n");
  return 2;
}
