// kcore — command-line front end to the library, built on the
// kcore::api facade: protocols are selected by registry key, and every
// run option (delivery mode, fault plan, hosts, ...) is the shared
// RunOptions flag set parsed by api::run_options_from_args.
//
// Subcommands:
//   decompose  --input FILE [--algo <registry key>] [run options]
//              [--output FILE] [--summary] [--progress N] [--repeat N]
//   sweep      --input FILE [--algos a,b,..] [--thread-counts 1,2,..]
//              [--scheds lifo,bound] [--seeds 1,2,..] [--repeat N]
//              [run options]
//   generate   --family NAME [--n N] [--seed S] [--output FILE] [...]
//   stream     --input FILE --updates FILE [--window W] [--verify]
//              [--wal DIR [--recover]] [--fsync POLICY]
//              [--checkpoint-every N] [--metrics] [--json]
//   stats      --input FILE
//   dot        --input FILE [--output FILE] [--max-nodes N]
//   profiles   (list the built-in paper dataset profiles)
//   protocols  (the protocol registry with capability descriptors)
//
// decompose --repeat N holds one api::Session: prepare once, run N times,
// and report min/median/max wall-ms (single-shot timing is noise). sweep
// executes a declarative api::Plan over protocols × threads × seeds.
//
// Examples:
//   kcore generate --family ba --n 10000 --m 3 --output ba.txt
//   kcore decompose --input ba.txt --algo one-to-many --hosts 16 --summary
//   kcore decompose --input ba.txt --algo bsp-par --threads 4 --repeat 5
//   kcore decompose --input ba.txt --algo one-to-one --max-extra-delay 2
//   kcore sweep --input ba.txt --algos bz,bsp-async --thread-counts 1,2,4
//   kcore stream --input ba.txt --updates churn.txt --window 10 --verify
//   kcore dot --input ba.txt --output ba.dot
#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "api/api.h"
#include "api/cli_options.h"
#include "api/report_json.h"
#include "api/session.h"
#include "obs/obs.h"
#include "eval/datasets.h"
#include "graph/dot_export.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "graph/stats.h"
#include "live/service.h"
#include "seq/kcore_seq.h"
#include "util/args.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace kcore;

// Bounds for api::get_checked: integer flags are range-checked before
// the unsigned cast, so a negative value fails naming its flag instead
// of wrapping.
constexpr auto kMaxI64 = std::numeric_limits<std::int64_t>::max();
constexpr auto kMaxInt =
    static_cast<std::int64_t>(std::numeric_limits<int>::max());
constexpr auto kMaxNode = static_cast<std::int64_t>(graph::kInvalidNode) - 1;

int usage() {
  std::string algos;
  for (const auto& name : api::ProtocolRegistry::instance().names()) {
    if (!algos.empty()) algos += "|";
    algos += name;
  }
  std::cerr << "usage: kcore <subcommand> [options]\n\nsubcommands:\n"
            << "  decompose --input FILE [--algo " << algos << "]\n"
            << "            [run options] [--output FILE] [--summary] "
               "[--progress N]\n"
            << "            [--repeat N]   (prepare once, run N times, "
               "min/median/max wall-ms)\n"
            << "            [--json]       (full report as JSON on stdout)\n"
            << "            [--trace FILE] (Chrome trace-event JSON; load "
               "at ui.perfetto.dev)\n"
            << "  sweep     --input FILE [--algos a,b,..] "
               "[--thread-counts 1,2,..]\n"
            << "            [--scheds lifo,bound] [--seeds 1,2,..] "
               "[--repeat N]\n"
            << "            [run options] [--json]  (NDJSON: one report "
               "per run)\n"
            << "  stream    --input FILE --updates FILE (t op u v lines, "
               "op + or -)\n"
            << "            [--window W]   (batch events into W-tick "
               "windows; 0 = per timestamp)\n"
            << "            [--verify]     (check every epoch against a "
               "from-scratch bz run)\n"
            << "            [--wal DIR]    (durable: write-ahead log + "
               "checkpoints in DIR)\n"
            << "            [--fsync every-batch|every-n|none] "
               "[--fsync-every N]\n"
            << "            [--checkpoint-every N] [--keep-checkpoints N]\n"
            << "            [--recover]    (restart from DIR's newest "
               "checkpoint + WAL tail;\n"
            << "                            --input not needed; resumes "
               "--updates where it left\n"
            << "                            off — use the SAME --window "
               "as the original run)\n"
            << "            [--provisional-deadline MS] (publish sound "
               "upper-bound snapshots\n"
            << "                            when an apply overruns MS)\n"
            << "            [--metrics]    (print the live.* counters after "
               "the final line)\n"
            << "            [--json]       (NDJSON: one object per batch; "
               "the service\n"
            << "                            repairs on its one writer "
               "thread, so --threads,\n"
            << "                            --sched and --no-targeted-send "
               "are refused)\n"
            << "  generate  --family "
               "chain|cycle|clique|star|grid|er|ba|ws|rmat|regular|worst\n"
            << "            [--n N] [--m M] [--k K] [--beta B] [--seed S] "
               "--output FILE\n"
            << "  generate  --profile <paper profile name> [--scale X] "
               "[--seed S] --output FILE\n"
            << "  stats     --input FILE [--exact-diameter]\n"
            << "  dot       --input FILE [--output FILE] [--max-nodes N]\n"
            << "  profiles\n"
            << "  protocols\n\n"
            << api::run_options_flag_help() << "\n";
  return 2;
}

graph::Graph load(const util::Args& args) {
  const auto path = args.get("input");
  if (!path) throw util::IoError("--input FILE is required");
  return graph::read_edge_list_file(*path).graph;
}

/// Protocol-specific tail of the one-line run summary, from the report's
/// typed extras.
std::string detail_of(const api::DecomposeReport& report) {
  struct Visitor {
    const api::DecomposeReport& report;
    std::string operator()(std::monostate) const { return {}; }
    std::string operator()(const api::OneToOneExtras&) const {
      return "rounds=" + std::to_string(report.traffic.execution_time) +
             " messages=" + std::to_string(report.traffic.total_messages);
    }
    std::string operator()(const api::OneToManyExtras& extras) const {
      return "rounds=" + std::to_string(report.traffic.execution_time) +
             " estimates_shipped=" +
             std::to_string(extras.estimates_shipped_total);
    }
    std::string operator()(const api::BspExtras& extras) const {
      return "supersteps=" + std::to_string(extras.stats.supersteps) +
             " delivered=" + std::to_string(extras.stats.messages_delivered);
    }
    std::string operator()(const api::ParExtras& extras) const {
      std::string detail =
          "threads=" + std::to_string(extras.threads_used) +
          " shards=" + std::to_string(extras.shards) +
          " rounds=" + std::to_string(report.traffic.execution_time) +
          " messages=" + std::to_string(report.traffic.total_messages) +
          " run=" + util::fmt_double(extras.run_ms, 1) + "ms";
      if (extras.estimates_shipped_total > 0) {
        detail += " estimates_shipped=" +
                  std::to_string(extras.estimates_shipped_total);
      }
      return detail;
    }
    std::string operator()(const api::AsyncExtras& extras) const {
      return "threads=" + std::to_string(extras.threads_used) +
             " sched=" + std::string(api::to_string(extras.sched)) +
             " relaxations=" + std::to_string(extras.relaxations) +
             " skipped=" + std::to_string(extras.skipped_recomputes) +
             " steals=" + std::to_string(extras.steals) +
             " re_enqueues=" + std::to_string(extras.re_enqueues) +
             " detector_passes=" + std::to_string(extras.detector_passes) +
             " pop_scans=" + std::to_string(extras.pop_scans) +
             " run=" + util::fmt_double(extras.run_ms, 1) + "ms";
    }
  };
  return std::visit(Visitor{report}, report.extras);
}

void print_counters(const obs::MetricsSnapshot& metrics) {
  util::TableWriter counters({"counter", "value"});
  for (const auto& [name, value] : metrics.counters) {
    counters.add_row({name, util::fmt_grouped(value)});
  }
  counters.print(std::cout);
}

int cmd_decompose(const util::Args& args) {
  const graph::Graph g = load(args);
  const std::string algo = args.get_string("algo", "bz");
  if (!api::ProtocolRegistry::instance().contains(algo)) {
    std::cerr << "unknown --algo '" << algo << "'\n";
    return usage();
  }
  auto options = api::run_options_from_args(args);
  // --trace FILE turns on span recording; the stitched Chrome trace is
  // written after the (last) run.
  const auto trace_path = args.get("trace");
  if (trace_path.has_value()) options.obs.trace = true;

  // --progress N streams one estimate-span summary every N rounds. The
  // capability descriptor says whether the protocol streams at all.
  const auto& capabilities =
      api::ProtocolRegistry::instance().entry(algo).capabilities;
  const auto progress_every =
      api::get_checked(args, "progress", 0, kMaxI64);
  api::ProgressObserver observer;
  if (progress_every > 0 &&
      capabilities.observer == api::ObserverGranularity::kNone) {
    // Per-round observers have nothing to hook into this runtime; say so
    // up front instead of looking like a hung run.
    std::cerr << "note: --progress is ignored for " << algo
              << " (no per-round progress stream)\n";
  } else if (progress_every > 0) {
    observer = [&](const api::ProgressEvent& event) {
      if (event.round % static_cast<std::uint64_t>(progress_every) != 0) {
        return;
      }
      graph::NodeId lo = event.estimates.front();
      graph::NodeId hi = lo;
      for (const auto e : event.estimates) {
        lo = std::min(lo, e);
        hi = std::max(hi, e);
      }
      std::cerr << "round " << event.round << ": estimates in [" << lo
                << ", " << hi << "], " << event.messages << " messages\n";
    };
  }

  // One Session serves every repeat: the assignment/host/table derivation
  // happens once, each run() replays from it (warm-run reports are
  // bit-identical to one-shot decompose).
  const auto repeat =
      static_cast<int>(api::get_checked(args, "repeat", 1, kMaxInt));
  if (repeat < 1) {
    throw util::IoError("--repeat must be >= 1, got " +
                        std::to_string(repeat));
  }
  api::Session session(g, algo, options);
  std::vector<double> wall_ms;
  wall_ms.reserve(static_cast<std::size_t>(repeat));
  api::DecomposeReport report;
  for (int run = 0; run < repeat; ++run) {
    report = session.run(observer);
    KCORE_CHECK_MSG(report.traffic.converged,
                    "protocol did not converge within the round cap");
    wall_ms.push_back(report.elapsed_ms);
  }
  if (trace_path.has_value()) {
    KCORE_CHECK_MSG(report.telemetry != nullptr && report.telemetry->has_trace,
                    "run produced no trace");
    std::ofstream trace_out(*trace_path);
    KCORE_CHECK_MSG(trace_out.good(), "cannot open " << *trace_path);
    obs::write_chrome_trace(trace_out, *report.telemetry);
    std::cerr << "wrote " << *trace_path << " ("
              << report.telemetry->trace.size() << " worker tracks, "
              << report.telemetry->trace_dropped << " events dropped)\n";
  }
  if (args.has("json")) {
    // Machine-readable path: the full report (final repeat) on stdout,
    // nothing else.
    api::write_report_json(std::cout, report);
    return 0;
  }

  const std::string detail = detail_of(report);
  const auto coreness = std::move(report.coreness);

  if (const auto out_path = args.get("output")) {
    std::ofstream out(*out_path);
    KCORE_CHECK_MSG(out.good(), "cannot open " << *out_path);
    out << "# node coreness\n";
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      out << u << ' ' << coreness[u] << '\n';
    }
    std::cout << "wrote " << *out_path << "\n";
  }
  const auto summary = seq::summarize_coreness(coreness);
  std::cout << "algo=" << algo << " nodes=" << g.num_nodes()
            << " edges=" << g.num_edges() << " kmax=" << summary.k_max
            << " kavg=" << util::fmt_double(summary.k_avg);
  if (!detail.empty()) std::cout << ' ' << detail;
  std::cout << " time=" << util::fmt_double(report.elapsed_ms, 1) << "ms\n";
  if (repeat > 1) {
    // Shared aggregation with api::Plan — single-shot timing is noise.
    const auto summary_ms = util::SampleSummary::of(wall_ms);
    std::cout << "repeat=" << repeat << " wall-ms min/median/max="
              << util::fmt_double(summary_ms.min, 2) << "/"
              << util::fmt_double(summary_ms.median, 2) << "/"
              << util::fmt_double(summary_ms.max, 2)
              << " first=" << util::fmt_double(wall_ms.front(), 2)
              << " (prepare=" << util::fmt_double(session.prepare_ms(), 2)
              << "ms amortized after run 1)\n";
  }
  if (options.obs.metrics && report.telemetry != nullptr &&
      report.telemetry->has_metrics) {
    // Aggregated registry snapshot of the final repeat (counters sum
    // over all workers; histograms merge bucket-wise).
    const auto& metrics = report.telemetry->metrics;
    print_counters(metrics);
    if (!metrics.histograms.empty()) {
      util::TableWriter hists({"histogram", "count", "mean", "max"});
      for (const auto& hist : metrics.histograms) {
        hists.add_row({hist.name, util::fmt_grouped(hist.count),
                       util::fmt_double(hist.mean(), 1),
                       util::fmt_grouped(hist.max)});
      }
      hists.print(std::cout);
    }
  }
  if (args.has("summary")) {
    util::TableWriter table({"shell", "nodes"});
    for (std::size_t k = 0; k < summary.shell_sizes.size(); ++k) {
      if (summary.shell_sizes[k] > 0) {
        table.add_row({std::to_string(k),
                       std::to_string(summary.shell_sizes[k])});
      }
    }
    table.print(std::cout);
  }
  return 0;
}

int cmd_generate(const util::Args& args) {
  const auto out_path = args.get("output");
  if (!out_path) throw util::IoError("--output FILE is required");
  const auto seed =
      static_cast<std::uint64_t>(api::get_checked(args, "seed", 1, kMaxI64));
  const auto n = static_cast<graph::NodeId>(
      api::get_checked(args, "n", 1000, kMaxNode));
  // A per-node count (--m for ba, --k, --d).
  const auto node_count = [&args](const char* name, std::int64_t fallback) {
    return static_cast<graph::NodeId>(
        api::get_checked(args, name, fallback, kMaxNode));
  };
  // The generators' preconditions, refused by flag name before the call.
  const auto require = [](bool ok, const std::string& message) {
    if (!ok) throw util::IoError(message);
  };
  const auto min_n = [&](graph::NodeId min, const std::string& family) {
    require(n >= min, "--n must be at least " + std::to_string(min) +
                          " for --family " + family + ", got " +
                          std::to_string(n));
  };
  graph::Graph g;
  if (const auto profile = args.get("profile")) {
    const auto& spec = eval::dataset_by_name(*profile);
    g = spec.build(
        api::get_checked_double(args, "scale", 1.0, 0.0, eval::kMaxScale),
        seed);
  } else {
    const std::string family = args.get_string("family", "");
    namespace gen = graph::gen;
    if (family == "chain") {
      min_n(1, family);
      g = gen::chain(n);
    } else if (family == "cycle") {
      min_n(3, family);
      g = gen::cycle(n);
    } else if (family == "clique") {
      min_n(1, family);
      g = gen::clique(n);
    } else if (family == "star") {
      min_n(2, family);
      g = gen::star(n);
    } else if (family == "grid") {
      // side * side nodes must stay below graph::kInvalidNode.
      const auto side = static_cast<graph::NodeId>(
          api::get_checked(args, "side", 32, 1, 65535));
      g = gen::grid(side, side);
    } else if (family == "er") {
      min_n(2, family);
      const std::uint64_t max_edges =
          static_cast<std::uint64_t>(n) * (n - 1) / 2;
      const auto m = static_cast<std::uint64_t>(api::get_checked(
          args, "m",
          static_cast<std::int64_t>(
              std::min<std::uint64_t>(4 * std::uint64_t{n}, max_edges)),
          kMaxI64));
      require(m <= max_edges, "--m must be at most n(n-1)/2 = " +
                                  std::to_string(max_edges) + " for --n " +
                                  std::to_string(n) + ", got " +
                                  std::to_string(m));
      g = gen::erdos_renyi_gnm(n, m, seed);
    } else if (family == "ba") {
      const graph::NodeId m = node_count("m", 3);
      require(m >= 1, "--m must be at least 1 for --family ba, got 0");
      require(n > m, "--n must exceed --m for --family ba, got --n " +
                         std::to_string(n) + " --m " + std::to_string(m));
      g = gen::barabasi_albert(n, m, seed);
    } else if (family == "ws") {
      const graph::NodeId k = node_count("k", 6);
      require(k >= 2 && k % 2 == 0,
              "--k must be even and at least 2 for --family ws, got " +
                  std::to_string(k));
      require(k < n, "--k must be below --n for --family ws, got --k " +
                         std::to_string(k) + " --n " + std::to_string(n));
      g = gen::watts_strogatz(
          n, k, api::get_checked_double(args, "beta", 0.1, 0.0, 1.0), seed);
    } else if (family == "rmat") {
      gen::RmatParams p;
      p.scale = static_cast<std::uint32_t>(
          api::get_checked(args, "scale", 14, 1, 30));
      // A per-node count, like --m for ba.
      p.edge_factor = api::get_checked_double(
          args, "edge-factor", 8.0, 0.0, static_cast<double>(kMaxNode));
      g = gen::rmat(p, seed);
    } else if (family == "regular") {
      const graph::NodeId d = node_count("d", 4);
      require(d >= 1 && d < n, "--d must be in [1, --n) for --family "
                               "regular, got --d " +
                                   std::to_string(d) + " --n " +
                                   std::to_string(n));
      require(static_cast<std::uint64_t>(n) * d % 2 == 0,
              "--n times --d must be even for --family regular, got --n " +
                  std::to_string(n) + " --d " + std::to_string(d));
      g = gen::random_regular(n, d, seed);
    } else if (family == "worst") {
      min_n(5, family);
      g = gen::montresor_worst_case(n);
    } else {
      std::cerr << "unknown --family '" << family << "'\n";
      return usage();
    }
  }
  graph::write_edge_list_file(*out_path, g);
  std::cout << "wrote " << *out_path << ": " << g.num_nodes() << " nodes, "
            << g.num_edges() << " edges\n";
  return 0;
}

int cmd_stats(const util::Args& args) {
  const graph::Graph g = load(args);
  const auto degrees = graph::degree_summary(g);
  const auto components = graph::connected_components(g);
  const auto coreness = seq::coreness_bz(g);
  const auto summary = seq::summarize_coreness(coreness);
  const std::uint32_t diameter =
      args.has("exact-diameter") ? graph::exact_diameter(g)
                                 : graph::diameter_lower_bound(g, 1);
  util::TableWriter table({"metric", "value"});
  table.add_row({"nodes", util::fmt_grouped(g.num_nodes())});
  table.add_row({"edges", util::fmt_grouped(g.num_edges())});
  table.add_row({"min degree", std::to_string(degrees.min)});
  table.add_row({"max degree", std::to_string(degrees.max)});
  table.add_row({"avg degree", util::fmt_double(degrees.avg)});
  table.add_row({"components", std::to_string(components.num_components)});
  table.add_row({"largest component",
                 util::fmt_grouped(components.largest_size)});
  table.add_row({args.has("exact-diameter") ? "diameter" : "diameter (>=)",
                 std::to_string(diameter)});
  table.add_row({"kmax", std::to_string(summary.k_max)});
  table.add_row({"kavg", util::fmt_double(summary.k_avg)});
  if (args.has("metrics")) {
    // Triangle-based metrics are O(M^1.5)-ish — opt-in for big graphs.
    table.add_row({"triangles",
                   util::fmt_grouped(graph::triangle_count(g))});
    table.add_row({"avg clustering",
                   util::fmt_double(graph::average_clustering(g), 4)});
    table.add_row({"transitivity",
                   util::fmt_double(graph::transitivity(g), 4)});
    table.add_row({"assortativity",
                   util::fmt_double(graph::degree_assortativity(g), 4)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_dot(const util::Args& args) {
  const graph::Graph g = load(args);
  const auto coreness = seq::coreness_bz(g);
  graph::DotOptions options;
  options.max_nodes = static_cast<graph::NodeId>(
      api::get_checked(args, "max-nodes", 2000, kMaxNode));
  const std::string out_path = args.get_string("output", "graph.dot");
  graph::write_dot_file(out_path, g, coreness, options);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

int cmd_profiles() {
  util::TableWriter table({"profile", "substitutes", "paper t_avg",
                           "paper kmax"});
  for (const auto& spec : eval::dataset_registry()) {
    table.add_row({spec.name, spec.paper_name,
                   util::fmt_double(spec.paper.t_avg),
                   std::to_string(spec.paper.k_max)});
  }
  table.print(std::cout);
  return 0;
}

/// "mode,faults,comm" — the capability descriptor's consumed knobs as
/// one compact cell.
std::string knobs_cell(const api::Capabilities& capabilities) {
  std::string joined;
  for (const auto knob : api::consumed_knobs(capabilities)) {
    if (!joined.empty()) joined += ",";
    joined += knob;
  }
  return joined.empty() ? "-" : joined;
}

int cmd_protocols() {
  // Rendered straight from the registry's capability descriptors — the
  // same data that drives validate() and the README table.
  util::TableWriter table({"key", "paper", "execution", "consumes",
                           "progress", "extras", "description"});
  for (const auto& entry : api::ProtocolRegistry::instance().entries()) {
    const auto& caps = entry.capabilities;
    table.add_row({entry.name, entry.paper_section,
                   api::to_string(caps.execution), knobs_cell(caps),
                   api::to_string(caps.observer),
                   caps.deterministic_extras ? "deterministic"
                                             : "schedule-dep",
                   entry.summary});
  }
  table.print(std::cout);
  return 0;
}

int cmd_sweep(const util::Args& args) {
  const graph::Graph g = load(args);
  api::PlanSpec spec;
  spec.base = api::run_options_from_args(args);
  spec.repeats =
      static_cast<int>(api::get_checked(args, "repeat", 3, kMaxInt));
  if (spec.repeats < 1) {
    throw util::IoError("--repeat must be >= 1, got " +
                        std::to_string(spec.repeats));
  }

  spec.protocols = args.has("algos")
                       ? args.get_list("algos")
                       : api::ProtocolRegistry::instance().names();
  api::sweep_axes_from_args(args, spec);

  api::Plan plan(g, spec);
  const auto problems = plan.validate();
  if (!problems.empty()) {
    std::cerr << "invalid sweep:\n";
    for (const auto& problem : problems) std::cerr << "  " << problem << "\n";
    return 2;
  }

  if (args.has("json")) {
    // NDJSON: one compact report object per run, tagged with the cell
    // coordinates and repeat index — `python3 -m json.tool` validates a
    // single line, jq streams the lot.
    const auto results = plan.run(
        [](const api::PlanCell& cell, int repeat,
           const api::DecomposeReport& report) {
          util::JsonWriter w(std::cout);
          w.begin_object();
          w.member("algo", cell.protocol);
          w.member("threads", static_cast<std::uint64_t>(cell.threads));
          w.member("sched", api::to_string(cell.sched));
          w.member("seed", cell.seed);
          w.member("repeat", static_cast<std::int64_t>(repeat));
          w.key("report");
          api::write_report_json(w, report);
          w.end_object();
        });
    std::cerr << results.size() << " cells x " << spec.repeats
              << " repeats\n";
    return 0;
  }

  util::TableWriter table({"algo", "threads", "sched", "seed", "reps",
                           "prepare ms", "first ms", "warm med", "min",
                           "med", "max", "rounds", "messages"});
  const auto results = plan.run();
  const auto& registry = api::ProtocolRegistry::instance();
  for (const auto& cell : results) {
    const bool has_warm = cell.warm_wall_ms.count > 0;
    // "-" where the Plan collapsed the threads/sched axis (protocol has
    // no worker pool / no schedulable pool); "0" would read as "one
    // worker per hardware thread".
    const bool threaded = registry.contains(cell.cell.protocol) &&
                          registry.entry(cell.cell.protocol)
                              .capabilities.consumes_threads;
    const bool scheduled = registry.contains(cell.cell.protocol) &&
                           registry.entry(cell.cell.protocol)
                               .capabilities.consumes_sched;
    table.add_row(
        {cell.cell.protocol,
         threaded ? std::to_string(cell.cell.threads) : "-",
         scheduled ? std::string(api::to_string(cell.cell.sched)) : "-",
         std::to_string(cell.cell.seed), std::to_string(cell.repeats),
         util::fmt_double(cell.prepare_ms, 2),
         util::fmt_double(cell.first_wall_ms, 2),
         has_warm ? util::fmt_double(cell.warm_wall_ms.median, 2) : "-",
         util::fmt_double(cell.wall_ms.min, 2),
         util::fmt_double(cell.wall_ms.median, 2),
         util::fmt_double(cell.wall_ms.max, 2),
         std::to_string(cell.last.traffic.rounds_executed),
         util::fmt_grouped(cell.last.traffic.total_messages)});
  }
  table.print(std::cout);
  std::cout << results.size() << " cells x " << spec.repeats
            << " repeats (each cell prepared once; 'first ms' pays the "
               "prepare, 'warm med' is the amortized cost)\n";
  return 0;
}

int cmd_stream(const util::Args& args) {
  const auto updates_path = args.get("updates");
  if (!updates_path) throw util::IoError("--updates FILE is required");
  const graph::EdgeStream stream =
      graph::read_edge_stream_file(*updates_path);
  constexpr auto kMaxUnsigned =
      static_cast<std::int64_t>(std::numeric_limits<unsigned>::max());
  const auto window = static_cast<std::uint64_t>(
      api::get_checked(args, "window", 0, kMaxI64));
  const std::vector<graph::EdgeUpdateBatch> batches =
      graph::batch_by_window(stream, window);
  const bool verify = args.has("verify");
  const bool json = args.has("json");
  const bool recover = args.has("recover");

  // The service repairs on its one writer thread, so the relaxation
  // runtime's knobs have nothing to act on: refused by name, like any
  // knob aimed at a runtime that does not consume it.
  for (const char* knob : {"threads", "sched", "no-targeted-send"}) {
    if (args.has(knob)) {
      throw util::IoError("--" + std::string(knob) +
                          " does not apply to stream: the live service "
                          "repairs on its one writer thread");
    }
  }
  live::ServiceOptions options;
  options.metrics = args.has("metrics");
  options.provisional_deadline_ms =
      static_cast<std::uint64_t>(api::get_checked(
          args, "provisional-deadline",
          static_cast<std::int64_t>(options.provisional_deadline_ms),
          kMaxI64));

  // --wal DIR turns on durability (--checkpoint-dir is a synonym).
  live::DurabilityOptions durability;
  if (const auto dir = args.get("wal")) durability.dir = *dir;
  if (const auto dir = args.get("checkpoint-dir")) durability.dir = *dir;
  durability.fsync =
      live::parse_fsync_policy(args.get_string("fsync", "every-batch"));
  durability.fsync_every = static_cast<unsigned>(api::get_checked(
      args, "fsync-every", durability.fsync_every, kMaxUnsigned));
  durability.checkpoint_every = static_cast<std::uint64_t>(api::get_checked(
      args, "checkpoint-every",
      static_cast<std::int64_t>(durability.checkpoint_every), kMaxI64));
  durability.keep_checkpoints = static_cast<unsigned>(api::get_checked(
      args, "keep-checkpoints", durability.keep_checkpoints, kMaxUnsigned));
  if (recover && durability.dir.empty()) {
    throw util::IoError(
        "--recover needs --wal DIR (the state directory to recover from)");
  }

  // --recover rebuilds topology + coreness from the state directory, so
  // --input is not needed; a fresh run loads the base graph from --input.
  // The banner's start-up time covers the Service constructor or
  // Service::open, not the --input parse.
  std::unique_ptr<live::Service> service;
  live::RecoveryInfo recovery;
  std::size_t first_batch = 0;
  util::SteadyClock::time_point start_up = util::SteadyClock::now();
  if (recover) {
    service = live::Service::open(options, durability, &recovery);
    // Epochs count applies: batch i publishes epoch i+1, so the last
    // recovered epoch IS the number of stream batches already applied.
    // Resuming there (not at 0) is required for correctness: re-applying
    // an already-applied prefix would undo later inserts' removes.
    first_batch = static_cast<std::size_t>(recovery.recovered_epoch);
  } else {
    const graph::Graph g = load(args);
    start_up = util::SteadyClock::now();
    service = durability.dir.empty()
                  ? std::make_unique<live::Service>(g, options)
                  : std::make_unique<live::Service>(g, options, durability);
  }
  const double start_up_ms =
      util::ms_between(start_up, util::SteadyClock::now());
  const bool durable = service->durable();

  std::uint64_t mismatched_epochs = 0;
  if (recover && verify) {
    // Pin the recovered state itself before touching the stream again.
    const auto expected = seq::coreness_bz(service->graph().snapshot());
    if (service->query()->coreness != expected) ++mismatched_epochs;
  }

  if (!json) {
    const auto snapshot = service->query();
    std::cout << "graph: " << snapshot->num_nodes << " nodes, "
              << snapshot->num_edges << " edges; stream: "
              << stream.events.size() << " events in " << batches.size()
              << " batches (window "
              << (window == 0 ? std::string("per-timestamp")
                              : std::to_string(window))
              << ")\n"
              << "service: " << (recover ? "recovered" : "constructed")
              << " in " << util::fmt_double(start_up_ms, 2) << " ms";
    if (durable) {
      std::cout << "; wal=" << durability.dir
                << " fsync=" << live::to_string(durability.fsync)
                << " checkpoint-every=" << durability.checkpoint_every;
    }
    if (recover) {
      std::cout << "\nrecovered: epoch " << recovery.recovered_epoch
                << " (checkpoint " << recovery.checkpoint_file << " @ epoch "
                << recovery.checkpoint_epoch << ", "
                << recovery.replayed_batches << " WAL batches replayed, "
                << recovery.replay_dropped << " dropped";
      if (recovery.skipped_duplicate_batches > 0) {
        std::cout << ", " << recovery.skipped_duplicate_batches
                  << " duplicates skipped";
      }
      if (recovery.torn_bytes_truncated > 0) {
        std::cout << ", " << recovery.torn_bytes_truncated
                  << " torn bytes truncated";
      }
      std::cout << "; phases: load " << util::fmt_double(recovery.load_ms, 2)
                << "ms scan " << util::fmt_double(recovery.scan_ms, 2)
                << "ms build " << util::fmt_double(recovery.build_ms, 2)
                << "ms warm " << util::fmt_double(recovery.warm_ms, 2)
                << "ms replay " << util::fmt_double(recovery.replay_ms, 2)
                << "ms; table checked by "
                << (recovery.order_checked ? "the stored k-order"
                                           : "a bucket peel")
                << "); resuming at batch " << first_batch << "\n";
      if (verify) {
        std::cout << "verify: recovered snapshot "
                  << (mismatched_epochs == 0 ? "matches" : "MISMATCHES")
                  << " a from-scratch bz decomposition\n";
      }
    }
    std::cout << "\n\n";
    if (first_batch >= batches.size() && !batches.empty()) {
      std::cout << "stream already fully applied (" << batches.size()
                << " batches <= recovered epoch); nothing to do\n";
    }
  }

  std::vector<std::string> columns = {"batch", "events", "+ins", "-rem",
                                      "ignored", "rejected", "raised",
                                      "dropped", "apply ms", "epoch"};
  if (durable) {
    columns.push_back("walB");
    columns.push_back("ckpt");
  }
  util::TableWriter table(columns);
  std::uint64_t total_raised = 0;
  std::uint64_t total_dropped = 0;
  double total_apply_ms = 0.0;
  std::uint64_t total_wal_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_failures = 0;
  for (std::size_t i = first_batch; i < batches.size(); ++i) {
    const auto& batch = batches[i].updates;
    // The whole apply: the notes do the repair.
    const util::SteadyClock::time_point apply_start = util::SteadyClock::now();
    const live::ApplyResult result = service->apply(batch);
    const double apply_ms =
        util::ms_between(apply_start, util::SteadyClock::now());
    total_raised += result.repair.raised;
    total_dropped += result.repair.dropped;
    total_apply_ms += apply_ms;
    total_wal_bytes += result.wal_bytes;
    if (result.checkpointed) ++checkpoints;
    if (result.checkpoint_failed) ++checkpoint_failures;
    bool exact = true;
    if (verify) {
      const auto expected = seq::coreness_bz(service->graph().snapshot());
      exact = service->query()->coreness == expected;
      if (!exact) ++mismatched_epochs;
    }
    if (json) {
      util::JsonWriter w(std::cout);
      w.begin_object();
      w.member("batch", static_cast<std::uint64_t>(i));
      w.member("events", static_cast<std::uint64_t>(batch.size()));
      w.member("applied_inserts", result.applied_inserts);
      w.member("applied_removes", result.applied_removes);
      w.member("ignored", result.ignored_updates);
      w.member("rejected", result.rejected_updates);
      w.member("raised", result.repair.raised);
      w.member("dropped", result.repair.dropped);
      w.member("apply_ms", apply_ms, 3);
      w.member("epoch", result.epoch);
      if (durable) {
        w.member("wal_bytes", result.wal_bytes);
        w.member("checkpointed", result.checkpointed);
        if (result.checkpoint_failed) w.member("checkpoint_failed", true);
      }
      if (result.provisional_publishes > 0) {
        w.member("provisional_publishes", result.provisional_publishes);
      }
      if (verify) w.member("exact", exact);
      w.end_object();
    } else {
      std::vector<std::string> row = {
          std::to_string(i), std::to_string(batch.size()),
          std::to_string(result.applied_inserts),
          std::to_string(result.applied_removes),
          std::to_string(result.ignored_updates),
          std::to_string(result.rejected_updates),
          std::to_string(result.repair.raised),
          std::to_string(result.repair.dropped),
          util::fmt_double(apply_ms, 2),
          std::to_string(result.epoch)};
      if (durable) {
        row.push_back(std::to_string(result.wal_bytes));
        row.push_back(result.checkpoint_failed ? "FAIL"
                      : result.checkpointed    ? "yes"
                                               : "");
      }
      table.add_row(std::move(row));
    }
  }
  if (durable) {
    // Leave the directory recoverable at the exact final epoch: one last
    // checkpoint so a follow-up --recover replays nothing.
    service->checkpoint();
  }
  if (!json) {
    table.print(std::cout);
    const auto snapshot = service->query();
    std::cout << "\nfinal: epoch " << snapshot->epoch << ", "
              << snapshot->num_edges << " edges, kmax "
              << (snapshot->coreness.empty()
                      ? 0
                      : *std::max_element(snapshot->coreness.begin(),
                                          snapshot->coreness.end()))
              << "; across the stream " << total_raised << " raised, "
              << total_dropped << " dropped, "
              << util::fmt_double(total_apply_ms, 2) << " ms of apply\n";
    if (service->metrics_enabled()) {
      print_counters(service->metrics());
    }
    if (durable) {
      std::cout << "durability: " << total_wal_bytes << " WAL bytes, "
                << checkpoints << " cadence checkpoints + 1 final";
      if (checkpoint_failures > 0) {
        std::cout << ", " << checkpoint_failures
                  << " checkpoint FAILURES (WAL still has the data)";
      }
      std::cout << "\n";
    }
    if (verify) {
      std::cout << (mismatched_epochs == 0
                        ? "verify: every epoch matches a from-scratch bz "
                          "decomposition\n"
                        : "verify: MISMATCH\n");
    }
  }
  return mismatched_epochs == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    if (args.positional().empty()) return usage();
    const std::string& cmd = args.positional().front();
    int rc = 2;
    if (cmd == "decompose") {
      rc = cmd_decompose(args);
    } else if (cmd == "sweep") {
      rc = cmd_sweep(args);
    } else if (cmd == "stream") {
      rc = cmd_stream(args);
    } else if (cmd == "generate") {
      rc = cmd_generate(args);
    } else if (cmd == "stats") {
      rc = cmd_stats(args);
    } else if (cmd == "dot") {
      rc = cmd_dot(args);
    } else if (cmd == "profiles") {
      rc = cmd_profiles();
    } else if (cmd == "protocols") {
      rc = cmd_protocols();
    } else {
      std::cerr << "unknown subcommand '" << cmd << "'\n";
      return usage();
    }
    for (const auto& name : args.unused()) {
      std::cerr << "warning: unused option --" << name << "\n";
    }
    return rc;
  } catch (const util::IoError& e) {
    // Environmental failures (unreadable input, malformed stream lines,
    // unrecoverable state directories) are the user's to fix: one
    // actionable line, no CheckError context stack.
    std::cerr << "kcore: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
