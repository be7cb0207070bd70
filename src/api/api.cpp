#include "api/api.h"

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "api/session.h"
#include "core/one_to_many.h"
#include "core/one_to_one.h"
#include "core/pregel_kcore.h"
#include "par/async_engine.h"
#include "par/runtime.h"
#include "seq/kcore_seq.h"
#include "util/check.h"

namespace kcore::api {

namespace {

// --- result -> report adapters ---------------------------------------------
// One mapping per protocol family.

DecomposeReport report_of(core::OneToOneResult result) {
  DecomposeReport report;
  report.coreness = std::move(result.coreness);
  report.traffic = std::move(result.traffic);
  report.extras = OneToOneExtras{std::move(result.last_send_round),
                                 std::move(result.activity_transitions)};
  return report;
}

DecomposeReport report_of(core::OneToManyResult result) {
  DecomposeReport report;
  report.coreness = std::move(result.coreness);
  report.traffic = std::move(result.traffic);
  report.extras =
      OneToManyExtras{result.estimates_shipped_total,
                      result.overhead_per_node,
                      std::move(result.estimates_shipped_by_host),
                      std::move(result.last_send_round_by_host)};
  return report;
}

DecomposeReport report_of(core::PregelKCoreResult result) {
  DecomposeReport report;
  report.coreness = std::move(result.coreness);
  // Map the BSP statistics onto the shared traffic shape (full BspStats
  // remain available in extras): supersteps play the role of rounds,
  // delivered messages the role of total traffic.
  report.traffic.total_messages = result.stats.messages_delivered;
  report.traffic.execution_time = result.stats.supersteps;
  report.traffic.rounds_executed = result.stats.supersteps;
  report.traffic.converged = result.stats.converged;
  report.extras = BspExtras{result.stats};
  return report;
}

DecomposeReport report_of(par::OneToManyParResult result, sim::HostId shards) {
  DecomposeReport report;
  ParExtras extras;
  extras.threads_used = result.threads_used;
  extras.shards = shards;
  extras.setup_ms = result.setup_ms;
  extras.run_ms = result.run_ms;
  extras.estimates_shipped_total = result.estimates_shipped_total;
  extras.overhead_per_node = result.overhead_per_node;
  report.coreness = std::move(result.coreness);
  report.traffic = std::move(result.traffic);
  report.extras = extras;
  report.telemetry = std::move(result.telemetry);
  return report;
}

DecomposeReport report_of(par::BspParResult result) {
  DecomposeReport report;
  report.coreness = std::move(result.coreness);
  report.traffic.total_messages = result.stats.messages_delivered;
  report.traffic.execution_time = result.stats.supersteps;
  report.traffic.rounds_executed = result.stats.supersteps;
  report.traffic.converged = result.stats.converged;
  ParExtras extras;
  extras.threads_used = result.threads_used;
  extras.shards = result.threads_used;  // bsp-par shards = workers
  extras.setup_ms = result.setup_ms;
  extras.run_ms = result.run_ms;
  extras.cross_shard_messages = result.stats.messages_cross_worker;
  report.extras = extras;
  report.telemetry = std::move(result.telemetry);
  return report;
}

DecomposeReport report_of(par::AsyncResult result, core::SchedPolicy sched) {
  DecomposeReport report;
  report.coreness = std::move(result.coreness);
  // No rounds to map: the async run reports re-activation notifications
  // as its traffic and always terminates at the exact fixed point.
  report.traffic.total_messages = result.stats.re_enqueues;
  report.traffic.converged = true;
  AsyncExtras extras;
  extras.threads_used = result.threads_used;
  extras.sched = sched;
  extras.relaxations = result.stats.relaxations;
  extras.steals = result.stats.steals;
  extras.re_enqueues = result.stats.re_enqueues;
  extras.detector_passes = result.stats.detector_passes;
  extras.skipped_recomputes = result.stats.skipped_recomputes;
  extras.pop_scans = result.stats.pop_scans;
  extras.setup_ms = result.setup_ms;
  extras.run_ms = result.run_ms;
  report.extras = extras;
  report.telemetry = std::move(result.telemetry);
  return report;
}

// --- prepared implementations ----------------------------------------------
// One PreparedProtocol per built-in. The constructor is the amortizable
// phase (the protocol layer's build step); run() is const and replays
// from immutable shared state, so any number of threads can execute one
// prepared instance concurrently. Per-run mutable state (estimate
// tables, worklists) comes from a ContextPool: each run leases a private
// context (allocating only when every pooled one is in use), so
// sequential warm runs stay allocation-free and concurrent runs never
// share a table.

/// A free-list of per-run contexts. acquire() hands out a pooled context
/// or mints a new one via the factory; the lease returns it on
/// destruction. The pool only grows to the peak concurrency ever seen.
template <typename Context>
class ContextPool {
 public:
  class Lease {
   public:
    Lease(ContextPool& pool, std::unique_ptr<Context> context)
        : pool_(&pool), context_(std::move(context)) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { pool_->release(std::move(context_)); }

    Context& operator*() const { return *context_; }

   private:
    ContextPool* pool_;
    std::unique_ptr<Context> context_;
  };

  template <typename Factory>
  [[nodiscard]] Lease acquire(Factory&& make) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        auto context = std::move(free_.back());
        free_.pop_back();
        return Lease(*this, std::move(context));
      }
    }
    return Lease(*this, make());
  }

 private:
  void release(std::unique_ptr<Context> context) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(context));
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<Context>> free_;
};

class PreparedSequential final : public PreparedProtocol {
 public:
  using Fn = std::vector<graph::NodeId> (*)(const graph::Graph&);
  explicit PreparedSequential(Fn fn) : fn_(fn) {}

  DecomposeReport run(const DecomposeRequest& request,
                      const ProgressObserver& /*observer*/) const override {
    DecomposeReport report;
    report.coreness = fn_(*request.graph);
    report.traffic.converged = true;
    return report;
  }

 private:
  Fn fn_;
};

class PreparedOneToOne final : public PreparedProtocol {
 public:
  explicit PreparedOneToOne(const DecomposeRequest& request)
      : nodes_(core::make_one_to_one_nodes(*request.graph,
                                           request.options.targeted_send)) {}

  DecomposeReport run(const DecomposeRequest& request,
                      const ProgressObserver& observer) const override {
    // Copy the pristine nodes; the engine consumes its (private) copy.
    return report_of(core::run_one_to_one_prepared(*request.graph, nodes_,
                                                   request.options, observer));
  }

 private:
  const std::vector<core::OneToOneNode> nodes_;
};

class PreparedOneToMany final : public PreparedProtocol {
 public:
  explicit PreparedOneToMany(const DecomposeRequest& request)
      : hosts_(core::make_one_to_many_hosts(*request.graph,
                                            request.options)) {}

  DecomposeReport run(const DecomposeRequest& request,
                      const ProgressObserver& observer) const override {
    return report_of(core::run_one_to_many_prepared(*request.graph, hosts_,
                                                    request.options, observer));
  }

 private:
  const std::vector<core::OneToManyHost> hosts_;
};

class PreparedBsp final : public PreparedProtocol {
 public:
  explicit PreparedBsp(const DecomposeRequest& request)
      : owner_(core::assign_nodes(request.graph->num_nodes(),
                                  request.options.num_hosts,
                                  request.options.assignment,
                                  request.options.seed)) {}

  DecomposeReport run(const DecomposeRequest& request,
                      const ProgressObserver& observer) const override {
    const RunOptions& options = request.options;
    return report_of(core::run_pregel_kcore_prepared(
        *request.graph, owner_, options.num_hosts, options.targeted_send,
        observer, options.max_rounds));
  }

 private:
  const std::vector<bsp::WorkerId> owner_;
};

class PreparedOneToManyPar final : public PreparedProtocol {
 public:
  explicit PreparedOneToManyPar(const DecomposeRequest& request)
      : hosts_(core::make_one_to_many_hosts(*request.graph,
                                            request.options)) {}

  DecomposeReport run(const DecomposeRequest& request,
                      const ProgressObserver& observer) const override {
    // The runner copies the pristine hosts into a private engine; the
    // prepared hosts are only read.
    return report_of(par::run_one_to_many_prepared(*request.graph, hosts_,
                                                   request.options, observer),
                     request.options.num_hosts);
  }

 private:
  const std::vector<core::OneToManyHost> hosts_;
};

class PreparedBspPar final : public PreparedProtocol {
 public:
  explicit PreparedBspPar(const DecomposeRequest& request)
      : num_nodes_(request.graph->num_nodes()),
        prepared_(par::prepare_bsp_par(*request.graph, request.options)) {}

  DecomposeReport run(const DecomposeRequest& request,
                      const ProgressObserver& observer) const override {
    const auto lease = contexts_.acquire([this] {
      return std::make_unique<par::BspParRunContext>(num_nodes_);
    });
    return report_of(par::run_bsp_par_prepared(*request.graph, prepared_,
                                               *lease, request.options,
                                               observer));
  }

 private:
  graph::NodeId num_nodes_;
  const par::BspParPrepared prepared_;
  mutable ContextPool<par::BspParRunContext> contexts_;
};

class PreparedBspAsync final : public PreparedProtocol {
 public:
  explicit PreparedBspAsync(const DecomposeRequest& request)
      : num_nodes_(request.graph->num_nodes()),
        prepared_(par::prepare_bsp_async(*request.graph, request.options)) {}

  DecomposeReport run(const DecomposeRequest& request,
                      const ProgressObserver& /*observer*/) const override {
    const auto lease = contexts_.acquire([this] {
      return std::make_unique<par::AsyncRunContext>(prepared_, num_nodes_);
    });
    return report_of(par::run_bsp_async_prepared(*request.graph, prepared_,
                                                 *lease, request.options),
                     request.options.sched);
  }

 private:
  graph::NodeId num_nodes_;
  const par::AsyncPrepared prepared_;
  mutable ContextPool<par::AsyncRunContext> contexts_;
};

template <typename Prepared>
ProtocolRegistry::Preparer make_request_preparer() {
  return [](const DecomposeRequest& request) {
    return std::unique_ptr<PreparedProtocol>(new Prepared(request));
  };
}

/// "bz, peeling, ..." — the one source of the key list used by every
/// unknown-protocol diagnostic.
std::string joined_keys(const ProtocolRegistry& registry) {
  std::string joined;
  for (const auto& name : registry.names()) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

/// "a and b" / "a, b and c" — prose list of the protocols whose
/// capabilities set `flag`, for the knob diagnostics.
std::string consumers_of(const ProtocolRegistry& registry,
                         bool Capabilities::* flag) {
  std::vector<std::string> names;
  for (const auto& entry : registry.entries()) {
    if (entry.capabilities.*flag) names.push_back(entry.name);
  }
  if (names.empty()) return "no registered protocol";
  std::string joined;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) joined += (i + 1 == names.size()) ? " and " : ", ";
    joined += names[i];
  }
  return joined;
}

}  // namespace

const char* to_string(ExecutionKind kind) {
  switch (kind) {
    case ExecutionKind::kSequential:
      return "sequential";
    case ExecutionKind::kSimulated:
      return "simulated";
    case ExecutionKind::kThreadedRounds:
      return "threaded-rounds";
    case ExecutionKind::kAsync:
      return "async";
  }
  return "?";
}

const char* to_string(ObserverGranularity granularity) {
  switch (granularity) {
    case ObserverGranularity::kNone:
      return "none";
    case ObserverGranularity::kPerRound:
      return "per-round";
  }
  return "?";
}

std::optional<ExecutionKind> parse_execution_kind(std::string_view name) {
  if (name == "sequential") return ExecutionKind::kSequential;
  if (name == "simulated") return ExecutionKind::kSimulated;
  if (name == "threaded-rounds") return ExecutionKind::kThreadedRounds;
  if (name == "async") return ExecutionKind::kAsync;
  return std::nullopt;
}

std::vector<std::string_view> consumed_knobs(
    const Capabilities& capabilities) {
  std::vector<std::string_view> knobs;
  if (capabilities.consumes_delivery_mode) knobs.push_back("mode");
  if (capabilities.consumes_fault_plan) knobs.push_back("faults");
  if (capabilities.consumes_comm_policy) knobs.push_back("comm");
  if (capabilities.consumes_assignment) knobs.push_back("assignment");
  if (capabilities.consumes_hosts) knobs.push_back("hosts");
  if (capabilities.consumes_threads) knobs.push_back("threads");
  if (capabilities.consumes_sched) knobs.push_back("sched");
  if (capabilities.consumes_targeted_send) knobs.push_back("targeted-send");
  if (capabilities.consumes_max_rounds) knobs.push_back("max-rounds");
  if (capabilities.consumes_obs) knobs.push_back("obs");
  return knobs;
}

ProtocolRegistry::ProtocolRegistry() {
  // The eight built-ins with their capability descriptors. Every
  // validate() rule, CLI table row and README capability row derives
  // from these — there is no other per-protocol knowledge in the facade.
  Capabilities sequential;  // consumes nothing, streams nothing

  Capabilities one_to_one;
  one_to_one.execution = ExecutionKind::kSimulated;
  one_to_one.consumes_delivery_mode = true;
  one_to_one.consumes_fault_plan = true;
  one_to_one.consumes_targeted_send = true;
  one_to_one.consumes_max_rounds = true;
  one_to_one.observer = ObserverGranularity::kPerRound;

  Capabilities one_to_many;
  one_to_many.execution = ExecutionKind::kSimulated;
  one_to_many.consumes_delivery_mode = true;
  one_to_many.consumes_fault_plan = true;
  one_to_many.consumes_comm_policy = true;
  one_to_many.consumes_assignment = true;
  one_to_many.consumes_hosts = true;
  one_to_many.consumes_max_rounds = true;
  one_to_many.observer = ObserverGranularity::kPerRound;

  Capabilities bsp;
  bsp.execution = ExecutionKind::kSimulated;
  bsp.consumes_assignment = true;
  bsp.consumes_hosts = true;  // num_hosts = BSP workers
  bsp.consumes_targeted_send = true;
  bsp.consumes_max_rounds = true;
  bsp.observer = ObserverGranularity::kPerRound;

  Capabilities one_to_many_par;
  one_to_many_par.execution = ExecutionKind::kThreadedRounds;
  one_to_many_par.consumes_comm_policy = true;
  one_to_many_par.consumes_assignment = true;
  one_to_many_par.consumes_hosts = true;
  one_to_many_par.consumes_threads = true;
  one_to_many_par.consumes_max_rounds = true;
  one_to_many_par.consumes_obs = true;
  one_to_many_par.observer = ObserverGranularity::kPerRound;

  Capabilities bsp_par;
  bsp_par.execution = ExecutionKind::kThreadedRounds;
  bsp_par.consumes_assignment = true;
  bsp_par.consumes_threads = true;
  bsp_par.consumes_targeted_send = true;
  bsp_par.consumes_max_rounds = true;
  bsp_par.consumes_obs = true;
  bsp_par.observer = ObserverGranularity::kPerRound;

  Capabilities bsp_async;
  bsp_async.execution = ExecutionKind::kAsync;
  bsp_async.consumes_assignment = true;
  bsp_async.consumes_threads = true;
  bsp_async.consumes_sched = true;
  bsp_async.consumes_targeted_send = true;
  bsp_async.consumes_obs = true;
  bsp_async.observer = ObserverGranularity::kNone;
  bsp_async.deterministic_extras = false;

  add({std::string(kProtocolBz), "[3]",
       "sequential Batagelj–Zaveršnik bucket baseline", sequential,
       [](const DecomposeRequest&) {
         return std::unique_ptr<PreparedProtocol>(
             new PreparedSequential(&seq::coreness_bz));
       }});
  add({std::string(kProtocolPeeling), "Def. 1",
       "naive iterated-peeling oracle (differential testing)", sequential,
       [](const DecomposeRequest&) {
         return std::unique_ptr<PreparedProtocol>(
             new PreparedSequential(&seq::coreness_peeling));
       }});
  add({std::string(kProtocolOneToOne), "§3.1",
       "one-to-one protocol: every node is a host (Algorithms 1+2)",
       one_to_one, make_request_preparer<PreparedOneToOne>()});
  add({std::string(kProtocolOneToMany), "§3.2",
       "one-to-many protocol: hosts own node partitions (Algorithms 3-5)",
       one_to_many, make_request_preparer<PreparedOneToMany>()});
  add({std::string(kProtocolBsp), "§6",
       "Pregel/BSP vertex-program port with vote-to-halt termination", bsp,
       make_request_preparer<PreparedBsp>()});
  add({std::string(kProtocolOneToManyPar), "§3.2 (par)",
       "one-to-many protocol on real worker threads (src/par engine)",
       one_to_many_par, make_request_preparer<PreparedOneToManyPar>()});
  add({std::string(kProtocolBspPar), "§6 (par)",
       "shared-memory BSP port: threads over a shared atomic estimate table",
       bsp_par, make_request_preparer<PreparedBspPar>()});
  add({std::string(kProtocolBspAsync), "§4/§3.3 (async)",
       "chaotic relaxation: work-stealing threads, no barriers, concurrent "
       "quiescence detector",
       bsp_async, make_request_preparer<PreparedBspAsync>()});
}

ProtocolRegistry& ProtocolRegistry::instance() {
  static ProtocolRegistry registry;
  return registry;
}

void ProtocolRegistry::add(Entry entry) {
  KCORE_CHECK_MSG(!entry.name.empty(), "protocol key must be non-empty");
  KCORE_CHECK_MSG(!contains(entry.name),
                  "protocol '" << entry.name << "' is already registered");
  KCORE_CHECK_MSG(entry.prepare != nullptr,
                  "protocol '" << entry.name << "' needs a preparer");
  entries_.push_back(std::move(entry));
}

bool ProtocolRegistry::contains(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return true;
  }
  return false;
}

const ProtocolRegistry::Entry& ProtocolRegistry::entry(
    std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e;
  }
  throw util::CheckError("unknown protocol '" + std::string(name) +
                         "'; registered: " + joined_keys(*this));
}

std::vector<std::string> ProtocolRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(entries_.size());
  for (const Entry& entry : entries_) result.push_back(entry.name);
  return result;
}

std::vector<std::string> validate(const DecomposeRequest& request) {
  std::vector<std::string> problems;
  if (request.graph == nullptr) {
    problems.push_back("request.graph must be non-null");
  } else if (request.graph->num_nodes() == 0) {
    problems.push_back("graph must have at least one node");
  }
  const auto& registry = ProtocolRegistry::instance();
  if (!registry.contains(request.protocol)) {
    problems.push_back("unknown protocol '" + request.protocol +
                       "'; registered: " + joined_keys(registry));
  }
  for (auto& problem : request.options.validate()) {
    problems.push_back(std::move(problem));
  }
  if (!registry.contains(request.protocol)) return problems;

  // The capability pass: a non-default value for a knob the protocol
  // does not consume is an error, not a silent no-op — the report would
  // otherwise look as if the knob had been honored (a fault plan with no
  // channel to break, a broadcast policy with no host-to-host flushes, a
  // thread count on a single-threaded simulator). Each rule derives from
  // the descriptor; no protocol names appear here.
  const Capabilities& caps =
      registry.entry(request.protocol).capabilities;
  const RunOptions& options = request.options;
  if (options.mode != sim::DeliveryMode::kCycleRandomOrder &&
      !caps.consumes_delivery_mode) {
    problems.push_back(
        "protocol '" + request.protocol +
        "' has no simulated delivery schedule; --mode " +
        std::string(to_string(options.mode)) + " only applies to " +
        consumers_of(registry, &Capabilities::consumes_delivery_mode));
  }
  if (options.faults.enabled() && !caps.consumes_fault_plan) {
    problems.push_back(
        "protocol '" + request.protocol +
        "' has no channel-fault model; drop max_extra_delay / "
        "duplicate_probability (only " +
        consumers_of(registry, &Capabilities::consumes_fault_plan) +
        " simulate faulty channels)");
  }
  if (options.comm != CommPolicy::kPointToPoint &&
      !caps.consumes_comm_policy) {
    problems.push_back(
        "protocol '" + request.protocol +
        "' has no host-to-host comm channels; --comm " +
        std::string(to_string(options.comm)) + " only applies to " +
        consumers_of(registry, &Capabilities::consumes_comm_policy));
  }
  if (options.threads != 0 && !caps.consumes_threads) {
    problems.push_back(
        "protocol '" + request.protocol +
        "' does not run on a worker pool; --threads only applies to " +
        consumers_of(registry, &Capabilities::consumes_threads));
  }
  if (options.sched != core::SchedPolicy::kLifo && !caps.consumes_sched) {
    problems.push_back(
        "protocol '" + request.protocol +
        "' has a fixed schedule; --sched " +
        std::string(to_string(options.sched)) + " only applies to " +
        consumers_of(registry, &Capabilities::consumes_sched));
  }
  if (options.obs.any() && !caps.consumes_obs) {
    problems.push_back(
        "protocol '" + request.protocol +
        "' has no instrumented worker loops; --metrics / --trace / "
        "--sample-period only apply to " +
        consumers_of(registry, &Capabilities::consumes_obs));
  }
  return problems;
}

DecomposeReport decompose(const DecomposeRequest& request,
                          const ProgressObserver& observer) {
  // The one-shot path is a Session that lives for exactly one run:
  // validate, prepare, run — identical state derivation, identical
  // report, with the prepare cost billed to this run's setup phase.
  Session session(request);
  return session.run(observer);
}

DecomposeReport decompose(const graph::Graph& g, std::string_view protocol,
                          const RunOptions& options,
                          const ProgressObserver& observer) {
  DecomposeRequest request;
  request.graph = &g;
  request.protocol = std::string(protocol);
  request.options = options;
  return decompose(request, observer);
}

}  // namespace kcore::api
