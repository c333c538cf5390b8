#include "service/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "algo/bw_generic.hpp"
#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "core/json.hpp"
#include "graph/families.hpp"

namespace lcl::service {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_bytes, opts_.cache_shards),
      pool_(core::BatchOptions{std::max(1, opts_.threads)}),
      start_(std::chrono::steady_clock::now()) {
  opts_.threads = std::max(1, opts_.threads);
  opts_.max_queue = std::max(1, opts_.max_queue);
  workers_.reserve(static_cast<std::size_t>(opts_.threads));
  for (int i = 0; i < opts_.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() {
  drain();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::string Server::handle_line(const std::string& line) {
  bool has_id = false;
  std::int64_t id = 0;
  std::string response;
  try {
    const Request req = parse_request(line);
    has_id = req.has_id;
    id = req.id;
    response = execute(req);
  } catch (const ProtocolError& e) {
    if (e.has_id()) {
      has_id = true;
      id = e.id();
    }
    response = render_error(has_id, id, e.code(), e.what());
  } catch (const std::exception& e) {
    response = render_error(has_id, id, ErrorCode::kInternal, e.what());
  }
  served_.fetch_add(1, std::memory_order_relaxed);
  return response;
}

std::future<std::string> Server::submit(std::string line) {
  return submit(std::move(line), std::function<void()>());
}

std::future<std::string> Server::submit(std::string line,
                                        std::function<void()> on_done) {
  std::promise<std::string> done;
  std::future<std::string> fut = done.get_future();
  const char* reject = nullptr;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (draining_ || stop_) {
      reject = "server draining";
    } else if (queue_.size() >=
               static_cast<std::size_t>(opts_.max_queue)) {
      reject = "admission queue full";
    } else {
      queue_.push_back(Pending{std::move(line), std::move(done),
                               std::move(on_done),
                               std::chrono::steady_clock::now()});
    }
  }
  if (reject != nullptr) {
    // Backpressure is O(1): the rejected line is never parsed, so the
    // response carries no id (pipe/socket ordering still correlates).
    rejected_.fetch_add(1, std::memory_order_relaxed);
    done.set_value(render_error(
        false, 0, ErrorCode::kOverloaded,
        std::string(reject) + " (depth " + std::to_string(opts_.max_queue) +
            ")"));
    if (on_done) on_done();  // rejection completes inline
  } else {
    queue_cv_.notify_one();
  }
  return fut;
}

void Server::worker_loop() {
  for (;;) {
    Pending item;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    std::string response;
    const double age_ms = ms_since(item.admitted);
    if (opts_.timeout_ms >= 0 && age_ms >= opts_.timeout_ms) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      response = render_error(
          false, 0, ErrorCode::kTimeout,
          "request expired in queue (limit " +
              std::to_string(opts_.timeout_ms) + " ms)");
    } else {
      if (opts_.before_execute) opts_.before_execute();
      response = handle_line(item.line);
    }
    item.done.set_value(std::move(response));
    if (item.notify) item.notify();
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void Server::drain() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  draining_ = true;
  idle_cv_.wait(lock,
                [this] { return queue_.empty() && in_flight_ == 0; });
}

ServerStats Server::stats() const {
  ServerStats s;
  s.uptime_ms = ms_since(start_);
  s.cache = cache_.stats();
  s.served = served_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    s.in_flight = in_flight_;
    s.queue_depth = queue_.size();
  }
  s.threads = opts_.threads;
  return s;
}

std::string Server::execute(const Request& req) {
  switch (req.type) {
    case Request::Type::kClassify: return run_classify(req);
    case Request::Type::kSolve: return run_solve(req);
    case Request::Type::kInfo: return run_info(req);
  }
  throw ProtocolError(ErrorCode::kInternal, "unreachable request type");
}

std::string Server::run_classify(const Request& req) {
  const auto entry = cache_.get_or_compute(request_table(req));
  return envelope_prefix(req.has_id, req.id) + entry->classify_body;
}

std::string Server::run_solve(const Request& req) {
  const algo::SolverSpec* spec = algo::find_solver(req.solver);
  if (spec == nullptr) {
    throw ProtocolError(ErrorCode::kUnknownSolver,
                        "unknown solver \"" + req.solver + "\" (known: " +
                            join_names(algo::solver_names()) + ")");
  }
  const graph::Family* family = graph::find_family(req.family);
  if (family == nullptr) {
    throw ProtocolError(ErrorCode::kUnknownFamily,
                        "unknown family \"" + req.family + "\" (known: " +
                            join_names(graph::family_names()) + ")");
  }
  if (spec->compatible && !spec->compatible(*family)) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "solver \"" + req.solver +
                            "\" is not compatible with family \"" +
                            req.family + "\"");
  }

  algo::SolverConfig config;
  config.seed = req.seed;
  for (const auto& [key, words] : req.options) {
    const algo::OptionSpec* opt = spec->find_option(key);
    if (opt == nullptr) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "solver \"" + req.solver +
                              "\" has no option \"" + key + "\"");
    }
    if (opt->is_list) {
      config.set(key, words);
    } else if (words.size() == 1) {
      config.set(key, words[0]);
    } else {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "option \"" + key + "\" is a scalar");
    }
  }

  // Table-driven solvers get the memoized per-problem context: the
  // cache entry's canonical table goes straight into the program
  // factory, so a warm solve skips sampling + canonicalization (and
  // the response can report the cached landscape prediction).
  std::shared_ptr<const CacheEntry> entry;
  algo::SolverSpec run_spec = *spec;
  if (spec->name == "bw_generic") {
    entry = cache_.get_or_compute(request_table(req));
    const problems::BwTable table = entry->canonical;
    run_spec.factory = [table](const graph::Tree& tree,
                               const algo::SolverConfig&)
        -> std::unique_ptr<local::Program> {
      return std::make_unique<algo::BwGenericProgram>(tree, table);
    };
  }
  const std::int64_t max_rounds =
      req.max_rounds > 0 ? req.max_rounds : 8 * req.n + 4096;
  const auto n = static_cast<graph::NodeId>(req.n);
  // make_solver_job validates the options and dry-builds the cell on a
  // tiny instance, so a misconfigured solve is rejected here instead of
  // failing on a worker after the full-size build. The job refers to
  // `run_spec`, which outlives it: run_all below blocks until it ends.
  core::BatchJob job;
  try {
    job = core::make_solver_job(req.solver + "@" + req.family,
                                static_cast<double>(n), req.seed, run_spec,
                                config, req.family, n,
                                static_cast<int>(req.delta), max_rounds);
  } catch (const std::invalid_argument& e) {
    throw ProtocolError(ErrorCode::kBadRequest, e.what());
  }

  // Concurrent solves queue in the pool in arrival order; while only one
  // runs, the pool's idle workers help with its large rounds.
  const std::vector<core::MeasuredRun> results =
      pool_.run_all({std::move(job)});
  const core::MeasuredRun& r = results.at(0);

  std::string out = envelope_prefix(req.has_id, req.id);
  out += "\"ok\":true,\"type\":\"solve\",\"solver\":\"";
  out += json_escape(req.solver);
  out += "\",\"family\":\"" + json_escape(req.family);
  out += "\",\"n\":" + std::to_string(r.n);
  if (entry != nullptr) {
    out += ",\"key\":\"" + json_escape(entry->key) + "\"";
    out += ",\"predicted\":\"" +
           problems::to_string(entry->cls.predicted) + "\"";
  }
  out += ",\"status\":\"";
  out += core::to_string(r.status);
  out += "\",\"certified\":";
  out += r.ok() ? "true" : "false";
  if (!r.check_reason.empty()) {
    out += ",\"check_reason\":\"" + json_escape(r.check_reason) + "\"";
  }
  out += ",\"node_averaged\":" +
         core::json::format_number(r.node_averaged, "%.17g");
  out += ",\"worst_case\":" + std::to_string(r.worst_case);
  out += ",\"term_p50\":" + std::to_string(r.term.p50);
  out += ",\"term_p90\":" + std::to_string(r.term.p90);
  out += ",\"term_p99\":" + std::to_string(r.term.p99);
  out += "}";
  return out;
}

std::string Server::run_info(const Request& req) {
  const ServerStats s = stats();
  std::string out = envelope_prefix(req.has_id, req.id);
  out += "\"ok\":true,\"type\":\"info\"";
  out += ",\"uptime_ms\":" + core::json::format_number(s.uptime_ms, "%.3f");
  out += ",\"cache_entries\":" + std::to_string(s.cache.entries);
  out += ",\"cache_bytes\":" + std::to_string(s.cache.bytes);
  out += ",\"cache_budget_bytes\":" +
         std::to_string(cache_.byte_budget());
  out += ",\"cache_hits\":" + std::to_string(s.cache.hits);
  out += ",\"cache_misses\":" + std::to_string(s.cache.misses);
  out += ",\"cache_evictions\":" + std::to_string(s.cache.evictions);
  out += ",\"served\":" + std::to_string(s.served);
  out += ",\"rejected\":" + std::to_string(s.rejected);
  out += ",\"in_flight\":" + std::to_string(s.in_flight);
  out += ",\"queue_depth\":" + std::to_string(s.queue_depth);
  out += ",\"threads\":" + std::to_string(s.threads);
  out += "}";
  return out;
}

}  // namespace lcl::service
