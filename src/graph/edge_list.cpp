#include "graph/edge_list.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "util/check.h"

namespace kcore::graph {
namespace {

// Environmental failures (unreadable files, malformed data) surface as
// util::IoError: one user-facing line naming the source and the
// offending line number, which CLIs print verbatim and exit — not a
// CheckError stack-of-context meant for developers.
[[noreturn]] void throw_parse_error(const std::string& source,
                                    std::size_t line_no,
                                    const std::string& message) {
  throw util::IoError(source + " line " + std::to_string(line_no) + ": " +
                      message);
}

}  // namespace

LoadedGraph read_edge_list(std::istream& in, const std::string& source) {
  std::unordered_map<std::uint64_t, NodeId> dense_of;
  std::vector<std::uint64_t> original_ids;
  GraphBuilder builder;

  auto intern = [&](std::uint64_t file_id) -> NodeId {
    auto [it, inserted] =
        dense_of.try_emplace(file_id, static_cast<NodeId>(original_ids.size()));
    if (inserted) original_ids.push_back(file_id);
    return it->second;
  };

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip leading whitespace to classify the line.
    std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;               // blank
    if (line[start] == '#' || line[start] == '%') continue;  // comment
    std::istringstream fields(line.substr(start));
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    if (!(fields >> a >> b)) {
      throw_parse_error(source, line_no,
                        "malformed edge (expected 'u v'): '" + line + "'");
    }
    // Intern in reading order (argument evaluation order is unspecified).
    const NodeId ua = intern(a);
    const NodeId ub = intern(b);
    builder.add_edge(ua, ub);
  }
  // ensure isolated trailing ids (none possible from pair format) — but the
  // builder may have fewer nodes than interned ids if the last interned id
  // had the highest number; ensure_node covers all interned ids.
  builder.ensure_node(static_cast<NodeId>(original_ids.size() == 0
                                              ? 0
                                              : original_ids.size() - 1));
  return {builder.build(), std::move(original_ids)};
}

LoadedGraph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw util::IoError(path + ": cannot open edge list file");
  }
  return read_edge_list(in, path);
}

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "# kcore-dist edge list\n";
  out << "# nodes " << g.num_nodes() << " edges " << g.num_edges() << "\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
}

void write_edge_list_file(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  if (!out.good()) throw util::IoError(path + ": cannot open for writing");
  write_edge_list(out, g);
  out.flush();
  if (!out.good()) throw util::IoError(path + ": write failed");
}

EdgeStream read_edge_stream(std::istream& in, const std::string& source) {
  EdgeStream stream;
  std::string line;
  std::size_t line_no = 0;
  std::uint64_t last_time = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;                // blank
    if (line[start] == '#' || line[start] == '%') continue;  // comment
    std::istringstream fields(line.substr(start));
    std::uint64_t t = 0;
    std::string op;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    if (!(fields >> t >> op >> a >> b)) {
      throw_parse_error(source, line_no,
                        "malformed stream event (expected 't op u v'): '" +
                            line + "'");
    }
    if (op != "+" && op != "-") {
      throw_parse_error(source, line_no,
                        "unknown op '" + op + "' (expected '+' or '-')");
    }
    if (!stream.events.empty() && t < last_time) {
      throw_parse_error(source, line_no,
                        "timestamp goes backwards (" + std::to_string(t) +
                            " after " + std::to_string(last_time) + ")");
    }
    if (a > UINT32_MAX || b > UINT32_MAX) {
      throw_parse_error(source, line_no, "node id out of 32-bit range");
    }
    last_time = t;
    TimedEdgeUpdate event;
    event.time = t;
    event.update.op = op == "+" ? EdgeOp::kInsert : EdgeOp::kRemove;
    event.update.u = static_cast<NodeId>(a);
    event.update.v = static_cast<NodeId>(b);
    stream.events.push_back(event);
  }
  return stream;
}

EdgeStream read_edge_stream_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw util::IoError(path + ": cannot open edge stream file");
  }
  return read_edge_stream(in, path);
}

void write_edge_stream(std::ostream& out, const EdgeStream& stream) {
  out << "# kcore-dist edge stream (t op u v)\n";
  out << "# events " << stream.events.size() << "\n";
  for (const TimedEdgeUpdate& event : stream.events) {
    out << event.time << ' '
        << (event.update.op == EdgeOp::kInsert ? '+' : '-') << ' '
        << event.update.u << ' ' << event.update.v << '\n';
  }
}

void write_edge_stream_file(const std::string& path, const EdgeStream& stream) {
  std::ofstream out(path);
  if (!out.good()) throw util::IoError(path + ": cannot open for writing");
  write_edge_stream(out, stream);
  out.flush();
  if (!out.good()) throw util::IoError(path + ": write failed");
}

NetUpdates coalesce(std::span<const EdgeUpdate> batch, NodeId num_nodes,
                    const std::function<bool(NodeId, NodeId)>& has_edge) {
  NetUpdates net;
  std::map<std::pair<NodeId, NodeId>, bool> final_present;
  for (const EdgeUpdate& update : batch) {
    NodeId u = update.u;
    NodeId v = update.v;
    if (u >= num_nodes || v >= num_nodes) {
      ++net.rejected;
      continue;
    }
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    final_present[{u, v}] = update.op == EdgeOp::kInsert;
  }
  for (const auto& [edge, present] : final_present) {
    if (present == has_edge(edge.first, edge.second)) continue;
    (present ? net.inserts : net.removes).push_back({edge.first, edge.second});
  }
  net.ignored = batch.size() - net.rejected - net.inserts.size() -
                net.removes.size();
  return net;
}

std::vector<EdgeUpdateBatch> batch_by_window(const EdgeStream& stream,
                                             std::uint64_t window) {
  std::vector<EdgeUpdateBatch> batches;
  const std::size_t count = stream.events.size();
  // Ticks per batch; the membership test below is `time - t_begin <
  // span`, which cannot wrap the way `time < t_begin + span` does near
  // UINT64_MAX.
  const std::uint64_t span = window == 0 ? 1 : window;
  std::size_t i = 0;
  while (i < count) {
    const std::uint64_t t = stream.events[i].time;
    EdgeUpdateBatch batch;
    if (window == 0) {
      batch.t_begin = t;
    } else {
      // Anchor windows at the FIRST event's timestamp so a stream starting
      // at t=1000 doesn't open with hundreds of empty windows.
      const std::uint64_t t0 = stream.events.front().time;
      batch.t_begin = t0 + (t - t0) / window * window;
    }
    batch.t_end = batch.t_begin +
                  std::min<std::uint64_t>(span, UINT64_MAX - batch.t_begin);
    while (i < count && stream.events[i].time - batch.t_begin < span) {
      batch.updates.push_back(stream.events[i].update);
      ++i;
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace kcore::graph
