// perfbench_run — the measured program of the repo benchmark.
//
//   perfbench_run --workload NAME --input DIR --seconds S --trace 0|1
//                 [--part K --parts P] [--trace-out FILE] [--corrupt 0|1]
//
// Reads the inputs perfbench_gen wrote into DIR, runs one workload as a
// closed loop with one client for S seconds, checks every output against
// the Batagelj–Zaversnik (bz) oracle, and prints ONE JSON line of raw
// samples, counters and per-layer metrics; run.py turns it into the
// benchmark's metrics. README.md defines every number.
//
// --trace 0: the end-to-end pass only, with no span recording.
// --trace 1: an untraced pass for S/2 seconds, then the same ops again
//            with spans around every public call into the library, then
//            (churn workloads) a replay of the same batches through
//            LiveGraph + RepairEngine + Wal + write_checkpoint in
//            Service::apply's order. Spans go to --trace-out as a Chrome
//            trace-event file.
// --part K --parts P: this is process K of P. run.py splits one run
//            over several processes and pools their samples. Churn
//            workloads replay DIR/trace-K.txt; the static one takes the
//            K-th of P equal slices of the graph set. Each process
//            makes 1/P of the workload's timed set-ups and restarts.
// --corrupt 1: bumps one entry of every oracle table, so every check
//            must report a failed op (the benchmark's own self-test).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.h"
#include "api/session.h"
#include "graph/edge_list.h"
#include "live/checkpoint.h"
#include "live/live_graph.h"
#include "live/repair.h"
#include "live/service.h"
#include "live/wal.h"
#include "seq/kcore_seq.h"
#include "util/storage.h"
#include "workloads.h"

namespace {

using kcore::graph::EdgeUpdate;
using kcore::graph::Graph;
using kcore::graph::NodeId;
using Clock = std::chrono::steady_clock;
using Table = std::vector<NodeId>;
using Batch = std::vector<EdgeUpdate>;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// The reader sleeps this long between reads (paced, never spinning).
constexpr auto kReadPace = std::chrono::microseconds(10000);
// Correctness checks on the churn workloads: after the batch that brings
// the updates since the last check to this many (outside the timed
// region), and once at the end.
constexpr std::uint64_t kCheckEveryUpdates = 512;

// ---- spans -----------------------------------------------------------------

// One thread's spans, kept in memory and written at exit. A disabled
// tracer records nothing; the same code runs traced and untraced.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    std::int64_t parent;  // global id, -1 for none
    std::uint64_t op;
  };

  Tracer(bool on, unsigned tid, Clock::time_point epoch)
      : on_(on), tid_(tid), epoch_(epoch) {}

  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] unsigned tid() const { return tid_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Returns the span's global id (tid in the high bits), -1 when off.
  std::int64_t begin(const char* name, std::uint64_t op,
                     std::int64_t parent = -1) {
    if (!on_) return -1;
    spans_.push_back({name, now_us(), 0.0, parent, op});
    return (static_cast<std::int64_t>(tid_) << 32) |
           static_cast<std::int64_t>(spans_.size() - 1);
  }
  void end(std::int64_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id & 0xffffffff)].end_us = now_us();
  }
  // Total duration (ms) and count of the spans named `name`.
  [[nodiscard]] std::pair<double, std::uint64_t> total(
      std::string_view name) const {
    double ms = 0.0;
    std::uint64_t n = 0;
    for (const Span& s : spans_) {
      if (name == s.name) {
        ms += (s.end_us - s.start_us) / 1000.0;
        ++n;
      }
    }
    return {ms, n};
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  bool on_;
  unsigned tid_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t op, std::int64_t parent = -1)
      : t_(t), id_(t.begin(name, op, parent)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int64_t id_;
};

void write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  out << std::setprecision(12) << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Tracer* t : tracers) {
    for (std::size_t i = 0; i < t->spans().size(); ++i) {
      const Tracer::Span& s = t->spans()[i];
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << t->tid()
          << ",\"ts\":" << s.start_us << ",\"dur\":" << s.end_us - s.start_us
          << ",\"args\":{\"id\":"
          << ((static_cast<std::int64_t>(t->tid()) << 32) |
              static_cast<std::int64_t>(i))
          << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out.good()) throw std::runtime_error(path + ": cannot write trace");
}

// ---- the reference kernel ------------------------------------------------------

// The unit of the end-to-end times. A shared host's speed can swing by a
// third and more for minutes at a time (other tenants, clock scaling),
// and a wall time moves with it. So every timed op runs between two runs of a
// fixed kernel of the benchmark's own, on a private copy of the op's
// graph, and its time is also reported in "refs": its wall time over the
// mean of theirs. The kernel is kRefSweeps Jacobi h-index sweeps from
// the degrees, the neighbour-estimate reads the library's relaxations
// make. No library code runs in it, so a change to the library moves the
// op and not the unit.
constexpr int kRefSweeps = 4;

class RefKernel {
 public:
  explicit RefKernel(const Graph& g)
      : est_(g.num_nodes()), next_(g.num_nodes()) {
    offsets_.reserve(g.num_nodes() + std::size_t{1});
    offsets_.push_back(0);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto nb = g.neighbors(u);
      adjacency_.insert(adjacency_.end(), nb.begin(), nb.end());
      offsets_.push_back(adjacency_.size());
    }
  }

  // Runs the kernel once; returns its wall time in ms.
  double run_ms() {
    const auto t0 = Clock::now();
    const std::size_t n = est_.size();
    for (std::size_t u = 0; u < n; ++u) {
      est_[u] = static_cast<NodeId>(offsets_[u + 1] - offsets_[u]);
    }
    for (int sweep = 0; sweep < kRefSweeps; ++sweep) {
      for (std::size_t u = 0; u < n; ++u) {
        // The largest h <= est[u] with at least h neighbours at >= h.
        const NodeId k = est_[u];
        count_.assign(k + std::size_t{1}, 0);
        for (std::size_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
          ++count_[std::min(est_[adjacency_[i]], k)];
        }
        NodeId h = k;
        for (NodeId at_least = 0; h > 0; --h) {
          at_least += count_[h];
          if (at_least >= h) break;
        }
        next_[u] = h;
      }
      est_.swap(next_);
    }
    return ms_between(t0, Clock::now());
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> adjacency_;
  std::vector<NodeId> est_;
  std::vector<NodeId> next_;
  std::vector<NodeId> count_;
};

// One timed call: its wall time, the mean of the reference kernel's runs
// right before and right after it, and its time in refs.
struct Timed {
  double ms;
  double ref_ms;
  double refs;
};

template <class Call>
Timed timed(RefKernel& ref, Tracer& t, std::uint64_t op, std::int64_t parent,
            Call&& call) {
  double before = 0.0;
  {
    const Scope s(t, "ref.kernel", op, parent);
    before = ref.run_ms();
  }
  const auto t0 = Clock::now();
  std::forward<Call>(call)();
  const double ms = ms_between(t0, Clock::now());
  double after = 0.0;
  {
    const Scope s(t, "ref.kernel", op, parent);
    after = ref.run_ms();
  }
  const double ref_ms = 0.5 * (before + after);
  return {ms, ref_ms, ms / ref_ms};
}

// ---- run state ---------------------------------------------------------------

struct Result {
  std::vector<double> op_ms;       // one per decompose call / apply batch
  std::vector<double> op_refs;     // the same in refs
  std::vector<double> ref_ms;      // the reference kernel, one per op
  std::vector<double> read_us;     // one per reader read
  std::vector<double> setup_s;     // one per set-up
  std::vector<double> recover_ms;  // one per recovery
  std::vector<double> recover_refs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t updates = 0;  // churn: edge updates submitted
  double loop_s = 0.0;        // timed loop time, checks excluded
  bool exhausted = false;     // the trace ran out before the time did
  std::vector<std::string> errors;
  std::map<std::string, double> layer;

  void fail(std::string what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
  void add_op(const Timed& t) {
    op_ms.push_back(t.ms);
    op_refs.push_back(t.refs);
    ref_ms.push_back(t.ref_ms);
  }
  void add_recover(const Timed& t) {
    recover_ms.push_back(t.ms);
    recover_refs.push_back(t.refs);
  }
};

struct Options {
  const perfbench::Workload* workload = nullptr;
  std::string input;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
  bool corrupt = false;
  unsigned part = 0;
  unsigned parts = 1;
};

unsigned setup_reps(const Options& opt) {
  return perfbench::per_process(opt.workload->setup_reps, opt.parts);
}

unsigned recover_reps(const Options& opt) {
  return perfbench::per_process(opt.workload->recover_reps, opt.parts);
}

// The oracle: bz on `g`, with one entry bumped under --corrupt.
Table oracle_of(const Graph& g, const Options& opt) {
  Table t = kcore::seq::coreness_bz(g);
  if (opt.corrupt && !t.empty()) ++t[0];
  return t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Spreads a process's set-ups after the first ones over its untraced
// loop. A set-up's time moves with the host's speed, which swings from
// one second to the next; set-ups bunched at each process's start gave
// ten-run setup_s spreads of 0.29, and spread out like the ops they see
// the same swings. Called after every op, outside its timing, it makes
// set-up k once k / reps of the loop's seconds have passed; finish()
// makes the ones an exhausted trace left.
class SetUpSpread {
 public:
  SetUpSpread(unsigned first, unsigned reps, double seconds,
              std::function<void(unsigned)> set_up)
      : next_(first), reps_(reps), seconds_(seconds),
        set_up_(std::move(set_up)), start_(Clock::now()) {}

  void operator()(std::uint64_t /*op*/) {
    if (next_ < reps_ && ms_between(start_, Clock::now()) >=
                             next_ * seconds_ * 1000.0 / reps_) {
      set_up_(next_++);
    }
  }
  void finish() {
    while (next_ < reps_) set_up_(next_++);
  }

 private:
  unsigned next_;
  unsigned reps_;
  double seconds_;
  std::function<void(unsigned)> set_up_;
  Clock::time_point start_;
};

// ---- the paced reader ----------------------------------------------------

// What one read sees: a table pinned by `hold`, its epoch, and whether it
// is a final (exact) snapshot.
struct View {
  std::shared_ptr<const void> hold;
  const Table* coreness = nullptr;
  std::uint64_t epoch = 0;
  bool provisional = false;
};

// One reader thread: reads the coreness of a fixed node set, checks it
// only ever sees final snapshots with non-decreasing epochs.
class Reader {
 public:
  Reader(std::function<View()> source, const char* span_name,
         const std::vector<NodeId>& nodes, Tracer& tracer)
      : source_(std::move(source)),
        span_name_(span_name),
        nodes_(nodes),
        tracer_(tracer),
        thread_([this] { loop(); }) {}
  ~Reader() { stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }
  // Valid after stop().
  [[nodiscard]] const std::vector<double>& read_us() const { return read_us_; }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }

 private:
  void loop() {
    std::uint64_t last_epoch = 0;
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0;; ++i) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (cv_.wait_for(lock, kReadPace, [this] { return stopping_; })) break;
      }
      const Scope read(tracer_, "reader.read", i);
      const auto t0 = Clock::now();
      View view;
      {
        const Scope q(tracer_, span_name_, i, read.id());
        view = source_();
      }
      for (const NodeId u : nodes_) sink += (*view.coreness)[u];
      read_us_.push_back(ms_between(t0, Clock::now()) * 1000.0);
      if (view.provisional) {
        violations_.push_back("reader saw a provisional snapshot");
      } else if (view.epoch < last_epoch) {
        violations_.push_back("reader saw epoch " + std::to_string(view.epoch) +
                              " after " + std::to_string(last_epoch));
      }
      last_epoch = view.epoch;
    }
    sink_ = sink;
  }

  std::function<View()> source_;
  const char* span_name_;
  const std::vector<NodeId>& nodes_;
  Tracer& tracer_;
  std::vector<double> read_us_;
  std::vector<std::string> violations_;
  std::uint64_t sink_ = 0;  // keeps the coreness reads from being elided
  std::mutex mutex_;
  bool stopping_ = false;  // guarded by mutex_
  std::condition_variable cv_;
  std::thread thread_;  // last: started after every member it uses
};

void collect_reader(Reader& reader, Result& r) {
  reader.stop();
  r.read_us.insert(r.read_us.end(), reader.read_us().begin(),
                   reader.read_us().end());
  for (const std::string& v : reader.violations()) r.fail(v);
}

// ---- inputs ------------------------------------------------------------------

std::vector<NodeId> read_nodes(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error(path + ": cannot open");
  std::vector<NodeId> nodes;
  NodeId u = 0;
  while (in >> u) nodes.push_back(u);
  return nodes;
}

std::vector<Batch> read_batches(const std::string& path) {
  const kcore::graph::EdgeStream stream =
      kcore::graph::read_edge_stream_file(path);
  std::vector<Batch> batches;
  for (auto& b : kcore::graph::batch_by_window(stream, 0)) {
    batches.push_back(std::move(b.updates));
  }
  return batches;
}

// ---- static-decompose ------------------------------------------------------

kcore::api::RunOptions static_options() {
  kcore::api::RunOptions o;
  o.threads = 1;
  o.sched = kcore::api::SchedPolicy::kBound;
  return o;  // obs (metrics, trace, sampler) stays off
}

// The table readers of a static decomposition service see: the last
// verified report, republished after every call.
class Published {
 public:
  struct Entry {
    std::uint64_t epoch = 0;
    Table coreness;
  };
  explicit Published(Table initial) {
    current_ = std::make_shared<Entry>(Entry{0, std::move(initial)});
  }
  void publish(Table t) {
    auto e = std::make_shared<Entry>();
    e->coreness = std::move(t);
    const std::lock_guard<std::mutex> lock(mutex_);
    e->epoch = current_->epoch + 1;
    current_ = std::move(e);
  }
  [[nodiscard]] View view() const {
    std::shared_ptr<const Entry> e;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      e = current_;
    }
    return View{e, &e->coreness, e->epoch, false};
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const Entry> current_;  // guarded by mutex_
};

// One decompose call. Untraced it is exactly api::decompose; traced it is
// the same Session path split into its public steps.
kcore::api::DecomposeReport decompose_op(const Graph& g, Tracer& t,
                                         std::uint64_t op,
                                         std::int64_t parent) {
  if (!t.on()) return kcore::api::decompose(g, "bsp-async", static_options());
  kcore::api::DecomposeRequest request;
  request.graph = &g;
  request.protocol = "bsp-async";
  request.options = static_options();
  {
    const Scope s(t, "api.validate", op, parent);
    if (!kcore::api::validate(request).empty()) {
      throw std::runtime_error("bsp-async request does not validate");
    }
  }
  std::optional<kcore::api::Session> session;
  {
    const Scope s(t, "api.Session::prepare", op, parent);
    session.emplace(request);
    session->prepare();
  }
  const Scope s(t, "api.Session::run", op, parent);
  return session->run();
}

// The static workload's graphs with their bz tables and reference kernels.
struct GraphSet {
  std::vector<Graph> graphs;
  std::vector<Table> oracles;
  std::vector<RefKernel> refs;
};

// The decompose loop over the graph set, round robin: until `seconds` of
// loop time, or exactly `max_ops` calls when max_ops > 0. `after(op)`
// runs after each call, outside the timed region. Returns the number of
// calls made.
std::uint64_t static_pass(GraphSet& set, Published& pub, double seconds,
                          std::uint64_t max_ops, Tracer& t, Result& r,
                          std::vector<kcore::api::AsyncExtras>* extras,
                          const std::function<void(std::uint64_t)>& after = {}) {
  std::uint64_t ops = 0;
  double loop_ms = 0.0;
  while (max_ops > 0 ? ops < max_ops : loop_ms < seconds * 1000.0) {
    const std::size_t which = ops % set.graphs.size();
    const Graph& g = set.graphs[which];
    const Scope op_span(t, "static.op", ops);
    ++r.attempted;
    try {
      kcore::api::DecomposeReport report;
      const Timed op = timed(set.refs[which], t, ops, op_span.id(), [&] {
        const Scope d(t, "api.decompose", ops, op_span.id());
        report = decompose_op(g, t, ops, d.id());
      });
      r.add_op(op);
      loop_ms += op.ms;
      if (extras != nullptr) {
        if (const auto* x = std::get_if<kcore::api::AsyncExtras>(&report.extras)) {
          extras->push_back(*x);
        }
      }
      if (t.on()) {
        const Scope b(t, "seq.coreness_bz", ops, op_span.id());
        (void)kcore::seq::coreness_bz(g);
      }
      if (report.coreness != set.oracles[which]) {
        r.fail("decompose #" + std::to_string(ops) + " differs from bz");
      } else {
        pub.publish(std::move(report.coreness));
      }
    } catch (const std::exception& e) {
      r.fail(std::string("decompose threw: ") + e.what());
    }
    if (after) after(ops);
    ++ops;
  }
  r.loop_s += loop_ms / 1000.0;
  return ops;
}

std::string graph_path(const Options& opt, std::size_t i) {
  return opt.input + "/graph-" + std::to_string(i) + ".txt";
}

void run_static(const Options& opt, Result& r, Tracer& main_t) {
  const std::vector<NodeId> nodes = read_nodes(opt.input + "/nodes.txt");
  // This process's slice of the graph set.
  const std::size_t first = opt.part * opt.workload->graphs / opt.parts;
  const std::size_t count =
      std::max<std::size_t>(1, (opt.part + 1) * opt.workload->graphs / opt.parts - first);

  // Set-up: load an edge list. Each graph of the slice is loaded before
  // the loop; the other set-ups load one again during the loop (and drop
  // it), spread by SetUpSpread.
  GraphSet set;
  set.graphs.resize(count);
  std::vector<double> load_ms;
  const auto load = [&](std::size_t i) {
    const std::size_t which = i % count;
    const Scope s(main_t, "setup", i);
    const auto t0 = Clock::now();
    Graph g;
    {
      const Scope l(main_t, "graph.read_edge_list_file", which, s.id());
      g = kcore::graph::read_edge_list_file(graph_path(opt, first + which)).graph;
    }
    const double ms = ms_between(t0, Clock::now());
    r.setup_s.push_back(ms / 1000.0);
    load_ms.push_back(ms);
    return g;
  };
  for (std::size_t i = 0; i < count; ++i) set.graphs[i] = load(i);
  for (const Graph& g : set.graphs) {
    set.oracles.push_back(oracle_of(g, opt));
    set.refs.emplace_back(g);
    for (const NodeId u : nodes) {
      if (u >= g.num_nodes()) throw std::runtime_error("reader node out of range");
    }
  }

  Published pub(kcore::seq::coreness_bz(set.graphs[0]));
  Tracer off(false, 0, Clock::now());
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::uint64_t ops = 0;
  {
    Reader reader([&pub] { return pub.view(); }, "static.Published::view",
                  nodes, off);
    SetUpSpread spread(static_cast<unsigned>(count),
                       std::max(setup_reps(opt), static_cast<unsigned>(count)),
                       untraced_s, [&](unsigned i) { (void)load(i); });
    ops = static_pass(set, pub, untraced_s, 0, off, r, nullptr, std::ref(spread));
    spread.finish();
    collect_reader(reader, r);
  }
  r.layer["graph.load_ms"] = median(load_ms);

  if (opt.trace) {
    Result traced;
    std::vector<kcore::api::AsyncExtras> extras;
    static_pass(set, pub, 0, ops, main_t, traced, &extras);
    r.failed += traced.failed;
    for (auto& e : traced.errors) r.errors.push_back(e);
    const double n = static_cast<double>(ops);
    const double validate = main_t.total("api.validate").first / n;
    const double prepare = main_t.total("api.Session::prepare").first / n;
    const double run = main_t.total("api.Session::run").first / n;
    const double bz = main_t.total("seq.coreness_bz").first / n;
    r.layer["api.validate_ms"] = validate;
    r.layer["api.prepare_ms"] = prepare;
    r.layer["api.run_ms"] = run;
    r.layer["seq.bz_ms"] = bz;
    r.layer["par.async_over_bz"] = bz > 0 ? run / bz : 0.0;
    double relax = 0, reenq = 0, skipped = 0, run_ms = 0, nodes_seen = 0;
    for (std::size_t i = 0; i < extras.size(); ++i) {
      relax += static_cast<double>(extras[i].relaxations);
      reenq += static_cast<double>(extras[i].re_enqueues);
      skipped += static_cast<double>(extras[i].skipped_recomputes);
      run_ms += extras[i].run_ms;
      nodes_seen += set.graphs[i % count].num_nodes();
    }
    const double k = std::max<double>(1.0, static_cast<double>(extras.size()));
    r.layer["par.relaxations"] = relax / k;
    r.layer["par.re_enqueues"] = reenq / k;
    r.layer["par.skipped_recomputes"] = skipped / k;
    r.layer["par.relax_per_node"] = nodes_seen > 0 ? relax / nodes_seen : 0.0;
    r.layer["par.ns_per_relaxation"] = relax > 0 ? run_ms * 1e6 / relax : 0.0;
    const double untraced_ms = mean(r.op_ms);
    const double traced_ms = mean(traced.op_ms);
    r.layer["trace.overhead_ms"] = traced_ms - untraced_ms;
    r.layer["trace.overhead_frac"] =
        untraced_ms > 0 ? (traced_ms - untraced_ms) / untraced_ms : 0.0;
  }

  // Recovery of a static decomposition service: decompose again from the
  // graph in memory (loading it from a file is what setup_s times).
  for (unsigned i = 0; i < recover_reps(opt); ++i) {
    const std::size_t which = i % count;
    const Scope s(main_t, "recover", which);
    kcore::api::DecomposeReport report;
    r.add_recover(timed(set.refs[which], main_t, which, s.id(), [&] {
      report = kcore::api::decompose(set.graphs[which], "bsp-async",
                                     static_options());
    }));
    if (report.coreness != set.oracles[which]) {
      r.fail("restarted decompose differs from bz");
    }
  }
}

// ---- churn workloads -------------------------------------------------------

kcore::live::ServiceOptions service_options() {
  kcore::live::ServiceOptions o;
  o.threads = 1;
  o.sched = kcore::core::SchedPolicy::kBound;
  o.targeted_send = true;
  o.metrics = false;
  o.provisional_deadline_ms = 0;
  return o;
}

kcore::live::DurabilityOptions durability_of(const perfbench::Workload& w,
                                             kcore::util::MemStorage* s) {
  kcore::live::DurabilityOptions d;
  d.dir = "state";
  d.fsync = kcore::live::FsyncPolicy::kEveryBatch;
  d.checkpoint_every = w.checkpoint_every;
  d.keep_checkpoints = 2;
  d.storage = s;
  return d;
}

// A Service with its (in-memory) storage, which must outlive it.
struct Live {
  std::unique_ptr<kcore::util::MemStorage> storage;
  std::unique_ptr<kcore::live::Service> service;
};

Live make_live(const Graph& g, const perfbench::Workload& w) {
  Live l;
  if (w.durable) {
    l.storage = std::make_unique<kcore::util::MemStorage>();
    l.service = std::make_unique<kcore::live::Service>(
        g, service_options(), durability_of(w, l.storage.get()));
  } else {
    l.service = std::make_unique<kcore::live::Service>(g, service_options());
  }
  return l;
}

// Compare the service's published table against bz on its topology
// (outside the timed region). Returns the bz time in ms.
double check_service(const kcore::live::Service& svc, std::uint64_t epoch,
                     const Options& opt, Result& r, Tracer& t,
                     std::uint64_t op) {
  const Scope s(t, "check", op);
  const auto snap = svc.query();
  const Graph g = svc.graph().snapshot();
  const auto t0 = Clock::now();
  Table oracle;
  {
    const Scope b(t, "seq.coreness_bz", op, s.id());
    oracle = oracle_of(g, opt);
  }
  const double bz_ms = ms_between(t0, Clock::now());
  if (snap->provisional || snap->epoch != epoch) {
    r.fail("snapshot after batch " + std::to_string(op) + " has epoch " +
           std::to_string(snap->epoch) + ", want final epoch " +
           std::to_string(epoch));
  } else if (snap->coreness != oracle) {
    r.fail("coreness after batch " + std::to_string(op) + " differs from bz");
  }
  return bz_ms;
}

// Per-batch facts the traced pass records for the layer metrics.
struct BatchFacts {
  std::uint64_t wal_bytes = 0;
  std::uint64_t storage_ops = 0;
};

// The apply loop over batches [0, end): until `seconds` of loop time, or
// every batch when seconds == 0. `after(i)` runs after batch i, outside
// the timed region. Returns the end batch index.
std::size_t churn_pass(Live& live, const std::vector<Batch>& batches,
                       std::size_t end, double seconds, RefKernel& ref,
                       const Options& opt, Tracer& t, Result& r,
                       std::vector<double>* bz_ms,
                       std::vector<BatchFacts>* facts,
                       const std::function<void(std::size_t)>& after = {}) {
  kcore::live::Service& svc = *live.service;
  double loop_ms = 0.0;
  std::uint64_t since_check = 0;
  std::size_t i = 0;
  for (; i < end && (seconds == 0 || loop_ms < seconds * 1000.0); ++i) {
    const Scope op_span(t, "service.op", i);
    ++r.attempted;
    const std::uint64_t ops0 = live.storage ? live.storage->op_count() : 0;
    try {
      kcore::live::ApplyResult ar;
      const Timed op = timed(ref, t, i, op_span.id(), [&] {
        const Scope a(t, "live.Service::apply", i, op_span.id());
        ar = svc.apply(batches[i]);
      });
      r.add_op(op);
      loop_ms += op.ms;
      if (facts != nullptr) {
        facts->push_back(
            {ar.wal_bytes,
             live.storage ? live.storage->op_count() - ops0 : 0});
      }
    } catch (const std::exception& e) {
      r.fail("apply #" + std::to_string(i) + " threw: " + e.what());
    }
    if (after) after(i);
    r.updates += batches[i].size();
    since_check += batches[i].size();
    if (since_check >= kCheckEveryUpdates) {
      since_check = 0;
      const double ms = check_service(svc, i + 1, opt, r, t, i);
      if (bz_ms != nullptr) bz_ms->push_back(ms);
    }
  }
  const double ms = check_service(svc, i, opt, r, t, i);
  if (bz_ms != nullptr) bz_ms->push_back(ms);
  r.loop_s += loop_ms / 1000.0;
  return i;
}

// Service::apply's steps, made through the public calls of the layers
// below it, in its order: WAL append, net-effect coalescing, inserts
// (mutate + region raise) sorted by (u,v), removes, repair, publish copy,
// checkpoint cadence. Times each call under its own span.
class Replayer {
 public:
  Replayer(const Graph& g, const Table* warm, const perfbench::Workload& w,
           bool durable, Tracer& t)
      : w_(w), t_(t), graph_(g), engine_(graph_, repair_options()) {
    if (warm != nullptr) {
      engine_.warm_start(*warm);
    } else {
      (void)engine_.initialize();
    }
    engine_.copy_coreness(table_);
    if (durable) {
      storage_ = std::make_unique<kcore::util::MemStorage>();
      storage_->make_dir(kDir);
      wal_.emplace(kcore::live::Wal::create(*storage_, kDir + "/wal.log", 0,
                                            kcore::live::WalOptions{}));
      // The initial checkpoint is the Service constructor's, outside
      // apply(): untraced, so per-batch layer sums see only the cadence.
      Tracer off(false, 0, Clock::now());
      checkpoint(off, 0, -1);
    }
  }
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  void apply(const Batch& batch, std::uint64_t op) {
    const Scope op_span(t_, "replay.op", op);
    const std::int64_t p = op_span.id();
    if (wal_) {
      const Scope s(t_, "live.Wal::append", op, p);
      wal_bytes_ += wal_->append(kcore::live::WalBatch{epoch_, batch});
    }
    std::map<std::pair<NodeId, NodeId>, bool> final_present;
    {
      const Scope s(t_, "replay.coalesce", op, p);
      for (const EdgeUpdate& e : batch) {
        NodeId u = e.u;
        NodeId v = e.v;
        if (u >= graph_.num_nodes() || v >= graph_.num_nodes() || u == v) {
          continue;
        }
        if (u > v) std::swap(u, v);
        final_present[{u, v}] = e.op == kcore::graph::EdgeOp::kInsert;
      }
    }
    for (const auto& [edge, present] : final_present) {
      if (!present || graph_.has_edge(edge.first, edge.second)) continue;
      {
        const Scope s(t_, "live.LiveGraph::apply", op, p);
        graph_.apply({kcore::graph::EdgeOp::kInsert, edge.first, edge.second});
      }
      const Scope s(t_, "live.RepairEngine::note_insert", op, p);
      engine_.note_insert(edge.first, edge.second);
      ++inserts_;
    }
    for (const auto& [edge, present] : final_present) {
      if (present || !graph_.has_edge(edge.first, edge.second)) continue;
      {
        const Scope s(t_, "live.LiveGraph::apply", op, p);
        graph_.apply({kcore::graph::EdgeOp::kRemove, edge.first, edge.second});
      }
      const Scope s(t_, "live.RepairEngine::note_remove", op, p);
      engine_.note_remove(edge.first, edge.second);
      ++removes_;
    }
    {
      const Scope s(t_, "live.RepairEngine::repair", op, p);
      const kcore::live::RepairStats st = engine_.repair();
      raised_ += st.raised;
      relaxations_ += st.relaxations;
    }
    Table next;
    {
      const Scope s(t_, "live.RepairEngine::copy_coreness", op, p);
      engine_.copy_coreness(next);
    }
    for (std::size_t u = 0; u < next.size(); ++u) {
      if (next[u] > table_[u]) ++risen_;
    }
    table_ = std::move(next);
    ++epoch_;
    if (wal_ && ++since_checkpoint_ >= w_.checkpoint_every) {
      checkpoint(t_, op, p);
    }
  }

  [[nodiscard]] const Table& coreness() const { return table_; }
  [[nodiscard]] double raised() const { return static_cast<double>(raised_); }
  [[nodiscard]] double risen() const { return static_cast<double>(risen_); }
  [[nodiscard]] double inserts() const { return static_cast<double>(inserts_); }
  [[nodiscard]] double applied() const {
    return static_cast<double>(inserts_ + removes_);
  }
  [[nodiscard]] double relaxations() const {
    return static_cast<double>(relaxations_);
  }
  [[nodiscard]] double checkpoint_bytes() const {
    return static_cast<double>(checkpoint_bytes_);
  }

 private:
  static kcore::live::RepairOptions repair_options() {
    const auto s = service_options();
    return {s.threads, s.sched, s.targeted_send};
  }

  void checkpoint(Tracer& t, std::uint64_t op, std::int64_t parent) {
    const Scope c(t, "live.checkpoint", op, parent);
    {
      const Scope s(t, "live.Wal::sync", op, c.id());
      wal_->sync();
    }
    kcore::live::CheckpointData data;
    data.epoch = epoch_ - 1;
    data.wal_offset = wal_->end_offset();
    data.num_nodes = graph_.num_nodes();
    {
      const Scope s(t, "replay.collect_edges", op, c.id());
      for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
        for (const NodeId v : graph_.neighbors(u)) {
          if (u < v) data.edges.push_back({u, v});
        }
      }
    }
    data.coreness = table_;
    const Scope s(t, "live.write_checkpoint", op, c.id());
    const std::string path =
        kcore::live::write_checkpoint(*storage_, kDir, data, 2);
    checkpoint_bytes_ = storage_->file_size(path);
    since_checkpoint_ = 0;
  }

  inline static const std::string kDir = "state";
  const perfbench::Workload& w_;
  Tracer& t_;
  kcore::live::LiveGraph graph_;
  kcore::live::RepairEngine engine_;  // after graph_: it holds a reference
  Table table_;
  std::unique_ptr<kcore::util::MemStorage> storage_;
  std::optional<kcore::live::Wal> wal_;
  std::uint64_t epoch_ = 1;  // the epoch the next batch publishes
  std::uint64_t since_checkpoint_ = 0;
  std::uint64_t wal_bytes_ = 0;
  std::uint64_t checkpoint_bytes_ = 0;
  std::uint64_t inserts_ = 0, removes_ = 0, raised_ = 0, risen_ = 0;
  std::uint64_t relaxations_ = 0;
};

// Recovery through the layers' public calls, on the state `storage`
// holds: newest checkpoint, WAL scan, replay of the tail.
Table recover_by_layers(kcore::util::MemStorage& storage,
                        const perfbench::Workload& w, Tracer& t,
                        std::uint64_t op) {
  const Scope r(t, "replay.recover", op);
  kcore::live::CheckpointLoadResult ck;
  {
    const Scope s(t, "live.load_latest_checkpoint", op, r.id());
    ck = kcore::live::load_latest_checkpoint(storage, "state");
  }
  kcore::live::WalReadResult wal;
  {
    const Scope s(t, "live.Wal::read", op, r.id());
    wal = kcore::live::Wal::read(storage, "state/wal.log", 0);
  }
  if (!ck.data) throw std::runtime_error("no checkpoint to recover from");
  const Scope s(t, "replay.recover_tail", op, r.id());
  Tracer off(false, 0, Clock::now());
  Replayer rep(Graph::from_edges(ck.data->num_nodes, ck.data->edges),
               &ck.data->coreness, w, false, off);
  for (const auto& b : wal.batches) {
    if (b.epoch > ck.data->epoch) rep.apply(b.updates, b.epoch);
  }
  return rep.coreness();
}

void run_churn(const Options& opt, Result& r, Tracer& main_t,
               Tracer& reader_t) {
  const perfbench::Workload& w = *opt.workload;
  const std::vector<NodeId> nodes = read_nodes(opt.input + "/nodes.txt");
  const std::vector<Batch> batches = read_batches(
      opt.input + "/trace-" + std::to_string(opt.part) + ".txt");
  if (batches.size() <= w.recovery_batches) {
    throw std::runtime_error("trace too short");
  }
  const std::size_t usable = batches.size() - w.recovery_batches;

  // Set-up: load the edge list and construct a Service. The first set-up
  // builds the Service the loop uses; the others build one during the
  // loop (and drop it), spread by SetUpSpread.
  std::vector<double> load_ms;
  const auto set_up = [&](unsigned i, std::optional<Graph>& base, Live& live) {
    const Scope s(main_t, "setup", i);
    const auto t0 = Clock::now();
    {
      const Scope l(main_t, "graph.read_edge_list_file", 0, s.id());
      base.emplace(kcore::graph::read_edge_list_file(graph_path(opt, 0)).graph);
    }
    load_ms.push_back(ms_between(t0, Clock::now()));
    {
      const Scope c(main_t, "live.Service::Service", 0, s.id());
      live = make_live(*base, w);
    }
    r.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  };
  std::optional<Graph> base;
  Live live;
  set_up(0, base, live);
  for (const NodeId u : nodes) {
    if (u >= base->num_nodes()) throw std::runtime_error("reader node out of range");
  }
  RefKernel ref(*base);

  Tracer off(false, 0, Clock::now());
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<double> bz_ms;
  std::size_t done = 0;
  {
    kcore::live::Service& svc = *live.service;
    Reader reader(
        [&svc] {
          auto s = svc.query();
          return View{s, &s->coreness, s->epoch, s->provisional};
        },
        "live.Service::query", nodes, off);
    SetUpSpread spread(1, setup_reps(opt), untraced_s, [&](unsigned i) {
      std::optional<Graph> spare_base;
      Live spare;
      set_up(i, spare_base, spare);
    });
    done = churn_pass(live, batches, usable, untraced_s, ref, opt, off, r, &bz_ms,
                      nullptr, std::ref(spread));
    spread.finish();
    collect_reader(reader, r);
  }
  r.exhausted = done == usable;
  r.layer["graph.load_ms"] = median(load_ms);

  if (opt.trace) {
    // The same batches again, traced, on a fresh service; after each one
    // the same batch goes through the layers in Service::apply's order
    // (in lockstep, so both see the machine in the same state).
    Result traced;
    std::vector<BatchFacts> facts;
    Live again = make_live(*base, w);
    Replayer rep(*base, nullptr, w, w.durable, main_t);
    {
      kcore::live::Service& svc = *again.service;
      Reader reader(
          [&svc] {
            auto s = svc.query();
            return View{s, &s->coreness, s->epoch, s->provisional};
          },
          "live.Service::query", nodes, reader_t);
      churn_pass(again, batches, done, 0, ref, opt, main_t, traced, nullptr, &facts,
                 [&](std::size_t i) { rep.apply(batches[i], i); });
      reader.stop();
      r.layer["live.query_us"] =
          reader_t.total("live.Service::query").first * 1000.0 /
          std::max<double>(1.0, static_cast<double>(
                                    reader_t.total("live.Service::query").second));
    }
    r.failed += traced.failed;
    for (auto& e : traced.errors) r.errors.push_back(e);

    if (rep.coreness() != again.service->query()->coreness) {
      r.fail("layer-by-layer replay disagrees with Service");
    }

    const double n = static_cast<double>(std::max<std::size_t>(done, 1));
    auto per_batch = [&](std::string_view name) {
      return main_t.total(name).first / n;
    };
    const double wal = per_batch("live.Wal::append");
    const double mutate = per_batch("live.LiveGraph::apply");
    const double region = per_batch("live.RepairEngine::note_insert");
    const double note_remove = per_batch("live.RepairEngine::note_remove");
    const double repair = per_batch("live.RepairEngine::repair");
    const double copy = per_batch("live.RepairEngine::copy_coreness");
    const double ckpt = per_batch("live.checkpoint");
    const double apply = per_batch("live.Service::apply");
    r.layer["live.wal_append_ms"] = wal;
    r.layer["live.mutate_ms"] = mutate;
    r.layer["live.region_ms"] = region;
    r.layer["live.note_remove_ms"] = note_remove;
    r.layer["live.repair_ms"] = repair;
    r.layer["live.publish_copy_ms"] = copy;
    r.layer["live.apply_ms"] = apply;
    r.layer["live.apply_other_ms"] =
        apply - (wal + mutate + region + note_remove + repair + copy + ckpt);
    const auto [ckpt_ms, ckpts] = main_t.total("live.checkpoint");
    r.layer["live.checkpoint_ms"] = ckpts > 0 ? ckpt_ms / ckpts : 0.0;
    r.layer["live.checkpoint_bytes"] = rep.checkpoint_bytes();
    r.layer["live.raised_per_insert"] =
        rep.inserts() > 0 ? rep.raised() / rep.inserts() : 0.0;
    r.layer["live.raise_useful_frac"] =
        rep.raised() > 0 ? rep.risen() / rep.raised() : 0.0;
    r.layer["live.relaxations_per_update"] =
        rep.applied() > 0 ? rep.relaxations() / rep.applied() : 0.0;
    double wal_bytes = 0, storage_ops = 0, updates = 0;
    for (std::size_t i = 0; i < facts.size(); ++i) {
      wal_bytes += static_cast<double>(facts[i].wal_bytes);
      storage_ops += static_cast<double>(facts[i].storage_ops);
      updates += static_cast<double>(batches[i].size());
    }
    r.layer["live.wal_bytes_per_update"] = updates > 0 ? wal_bytes / updates : 0;
    r.layer["util.storage_ops_per_batch"] = storage_ops / n;
    const double untraced_ms = mean(r.op_ms);
    const double traced_ms = mean(traced.op_ms);
    r.layer["trace.overhead_ms"] = traced_ms - untraced_ms;
    r.layer["trace.overhead_frac"] =
        untraced_ms > 0 ? (traced_ms - untraced_ms) / untraced_ms : 0.0;
  }
  r.layer["seq.bz_ms"] = median(bz_ms);

  // Recovery, timed from one fixed shutdown state.
  kcore::live::Service& svc = *live.service;
  if (w.durable) {
    // Checkpoint, then leave a WAL tail of the next recovery_batches
    // batches for open() to replay.
    svc.checkpoint();
    for (std::size_t i = done; i < done + w.recovery_batches; ++i) {
      (void)svc.apply(batches[i]);
    }
    const Table before = svc.query()->coreness;
    const std::uint64_t epoch = svc.query()->epoch;
    live.service.reset();
    kcore::live::RecoveryInfo info;
    std::vector<double> load, read, replay;
    for (unsigned i = 0; i < recover_reps(opt); ++i) {
      {
        const Scope s(main_t, "recover", static_cast<std::uint64_t>(i));
        info = kcore::live::RecoveryInfo{};
        std::unique_ptr<kcore::live::Service> recovered;
        r.add_recover(timed(ref, main_t, i, s.id(), [&] {
          recovered = kcore::live::Service::open(
              service_options(), durability_of(w, live.storage.get()), &info);
        }));
        const auto snap = recovered->query();
        if (snap->coreness != before || snap->epoch != epoch) {
          r.fail("recovered state differs from the state before shutdown");
        }
      }
      if (opt.trace) {
        const std::size_t mark = main_t.spans().size();
        if (recover_by_layers(*live.storage, w, main_t,
                              static_cast<std::uint64_t>(i)) != before) {
          r.fail("layer-by-layer recovery differs from the state before shutdown");
        }
        for (std::size_t k = mark; k < main_t.spans().size(); ++k) {
          const auto& sp = main_t.spans()[k];
          const double ms = (sp.end_us - sp.start_us) / 1000.0;
          const std::string_view name = sp.name;
          if (name == "live.load_latest_checkpoint") load.push_back(ms);
          if (name == "live.Wal::read") read.push_back(ms);
          if (name == "replay.recover_tail") replay.push_back(ms);
        }
      }
    }
    r.layer["live.recover_load_ms"] = median(load);
    r.layer["live.recover_wal_read_ms"] = median(read);
    r.layer["live.recover_replay_ms"] = median(replay);
    r.layer["live.replayed_batches"] = static_cast<double>(info.replayed_batches);
    r.layer["live.replay_relaxations"] =
        static_cast<double>(info.replay_relaxations);
  } else {
    // No durable state: a restart converges a new Service from scratch on
    // the topology in memory (loading it from a file is what setup_s times).
    const Table before = svc.query()->coreness;
    const Graph topology = svc.graph().snapshot();
    live.service.reset();
    for (unsigned i = 0; i < recover_reps(opt); ++i) {
      const Scope s(main_t, "recover", static_cast<std::uint64_t>(i));
      std::optional<kcore::live::Service> restarted;
      r.add_recover(timed(ref, main_t, i, s.id(), [&] {
        restarted.emplace(topology, service_options());
      }));
      if (restarted->query()->coreness != before) {
        r.fail("restarted coreness differs from the state before shutdown");
      }
    }
  }
}

// ---- output ------------------------------------------------------------------

void put_array(std::ostream& o, const char* key, const std::vector<double>& v) {
  o << '"' << key << "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) o << (i ? "," : "") << v[i];
  o << ']';
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_result(const Options& opt, const Result& r) {
  std::ostringstream o;
  o << std::setprecision(17);
  o << "{\"workload\":\"" << opt.workload->name << "\",\"attempted\":"
    << r.attempted << ",\"failed\":" << r.failed << ",\"updates\":"
    << r.updates << ",\"loop_s\":" << r.loop_s << ",\"exhausted\":"
    << (r.exhausted ? "true" : "false") << ",\"peak_rss_mb\":" << peak_rss_mb()
    << ",\"samples\":{";
  put_array(o, "op_ms", r.op_ms);
  o << ',';
  put_array(o, "op_refs", r.op_refs);
  o << ',';
  put_array(o, "ref_ms", r.ref_ms);
  o << ',';
  put_array(o, "read_us", r.read_us);
  o << ',';
  put_array(o, "setup_s", r.setup_s);
  o << ',';
  put_array(o, "recover_ms", r.recover_ms);
  o << ',';
  put_array(o, "recover_refs", r.recover_refs);
  o << "},\"layer\":{";
  bool first = true;
  for (const auto& [k, v] : r.layer) {
    o << (first ? "" : ",") << '"' << k << "\":" << v;
    first = false;
  }
  o << "},\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    o << (i ? "," : "") << '"' << json_escape(r.errors[i]) << '"';
  }
  o << "]}";
  std::cout << o.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    std::string workload;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--input") {
        opt.input = value;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else if (flag == "--part") {
        opt.part = static_cast<unsigned>(std::stoul(value));
      } else if (flag == "--parts") {
        opt.parts = static_cast<unsigned>(std::stoul(value));
      } else if (flag == "--corrupt") {
        opt.corrupt = value == "1";
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (workload.empty() || opt.input.empty() || !(opt.seconds > 0) ||
        opt.parts < 1 ||
        opt.part >= opt.parts) {
      throw std::invalid_argument(
          "usage: perfbench_run --workload NAME --input DIR --seconds S "
          "--trace 0|1 [--part K --parts P] "
          "[--trace-out FILE] [--corrupt 0|1]");
    }
    opt.workload = &perfbench::workload_by_name(workload);

    const auto epoch = Clock::now();
    Tracer main_t(opt.trace, 0, epoch);
    Tracer reader_t(opt.trace, 1, epoch);
    Result r;
    if (opt.workload->kind == perfbench::Kind::kStatic) {
      run_static(opt, r, main_t);
    } else {
      run_churn(opt, r, main_t, reader_t);
    }
    if (opt.trace && !opt.trace_out.empty()) {
      write_chrome_trace(opt.trace_out, {&main_t, &reader_t});
    }
    print_result(opt, r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_run: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
