#include "serve/server.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <iterator>
#include <utility>

#include "obs/obs.hpp"
#include "serve/net.hpp"

namespace focv::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), session_(options_.session) {}

Server::~Server() { stop(); }

bool Server::start(std::string& error) {
  listen_fd_ = net::listen_tcp(options_.port, error);
  if (listen_fd_ < 0) return false;
  port_ = net::bound_port(listen_fd_);

  pool_ = std::make_unique<runtime::ThreadPool>(options_.jobs);
  if (!options_.snapshot_path.empty()) {
    obs::SnapshotPublisher::Options pub;
    pub.min_period_s = options_.snapshot_period_s;
    pub.json_path = options_.snapshot_path;
    pub.prometheus_path = options_.snapshot_path + ".prom";
    publisher_ = std::make_unique<obs::SnapshotPublisher>(obs::metrics(), std::move(pub));
  }

  started_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  dispatcher_thread_ = std::thread([this] { dispatcher_loop(); });
  return true;
}

void Server::request_stop() {
  stop_requested_.store(true);
  queue_cv_.notify_all();
}

void Server::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;

  // 1. Refuse new work: readers answer `shutting_down` from here on.
  shutting_down_.store(true);
  net::shutdown_fd(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  net::close_fd(listen_fd_);
  listen_fd_ = -1;

  // 2. Drain: the dispatcher exits once the admission queue and the
  // in-flight table are both empty.
  {
    std::lock_guard guard(queue_mutex_);
    dispatcher_stop_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_thread_.joinable()) dispatcher_thread_.join();
  pool_->wait_idle();

  // 3. Tear down connections (unblocks parked readers), join readers.
  {
    std::lock_guard guard(conn_mutex_);
    for (const auto& conn : connections_) {
      conn->open.store(false);
      net::shutdown_fd(conn->fd);
    }
  }
  for (std::thread& reader : reader_threads_) {
    if (reader.joinable()) reader.join();
  }
  {
    std::lock_guard guard(conn_mutex_);
    for (const auto& conn : connections_) net::close_fd(conn->fd);
    connections_.clear();
    reader_threads_.clear();
  }

  // 4. Flush telemetry so the final request counts are on disk.
  if (publisher_ != nullptr) publisher_->publish();
}

void Server::accept_loop() {
  while (!shutting_down_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (shutting_down_.load()) break;
      continue;  // transient (EINTR / client vanished mid-handshake)
    }
    net::tune_stream(fd);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    if (obs::enabled()) {
      static const obs::CounterId id = obs::metrics().counter("serve.connections");
      obs::metrics().add(id, 1.0);
    }
    std::lock_guard guard(conn_mutex_);
    connections_.push_back(conn);
    reader_threads_.emplace_back([this, conn] { reader_loop(conn); });
  }
}

void Server::respond(Connection& conn, const std::string& payload) {
  std::lock_guard guard(conn.write_mutex);
  if (!conn.open.load()) return;
  if (!net::write_frame(conn.fd, payload)) conn.open.store(false);
}

void Server::observe_latency(Clock::time_point enqueued) {
  if (!obs::enabled()) return;
  static const obs::HistogramId id =
      obs::metrics().histogram("serve.latency_ms", {1e-3, 1e5, 32});
  obs::metrics().observe(id, ms_since(enqueued));
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  std::string payload;
  while (conn->open.load()) {
    const int got = net::read_frame(conn->fd, kMaxRequestFrame, payload);
    if (got == 0) break;  // client closed cleanly
    if (got < 0) {
      // Oversize or truncated frame: the stream is unsynchronized, so
      // answer (best effort) and drop the connection.
      if (conn->open.load()) {
        respond(*conn, error_response("null", errc::kBadFrame,
                                      "unreadable frame (oversize or truncated)"));
      }
      break;
    }
    const Clock::time_point received = Clock::now();
    if (obs::enabled()) {
      static const obs::CounterId id = obs::metrics().counter("serve.requests");
      obs::metrics().add(id, 1.0);
    }

    Request request;
    std::string error;
    if (!parse_request(payload, request, error)) {
      respond(*conn, error);
      continue;
    }
    if (request.op == "shutdown") {
      if (options_.allow_shutdown_op) {
        respond(*conn, ok_response(request.id_json, "{\"stopping\":true}"));
        request_stop();
      } else {
        respond(*conn, error_response(request.id_json, errc::kBadRequest,
                                      "the shutdown op is disabled"));
      }
      continue;
    }

    CanonicalRequest canon;
    if (!session_.canonicalize(request, canon, error)) {
      respond(*conn, error);
      continue;
    }

    // Warm path: answered from the response cache on the reader thread,
    // no queue, no pool hop. This is the p50 the serve_load bench pins.
    if (canon.cacheable()) {
      std::string cached;
      if (session_.cache_lookup(canon.key, cached)) {
        respond(*conn, ok_response(request.id_json, cached));
        observe_latency(received);
        continue;
      }
    }

    if (shutting_down_.load()) {
      respond(*conn, error_response(request.id_json, errc::kShuttingDown,
                                    "server is shutting down"));
      continue;
    }

    Pending pending;
    pending.conn = conn;
    pending.canon = std::move(canon);
    pending.enqueued = received;
    double deadline_ms = request.deadline_ms;
    if (deadline_ms <= 0.0) deadline_ms = options_.default_deadline_ms;
    if (deadline_ms > 0.0) {
      pending.has_deadline = true;
      pending.deadline = received + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double, std::milli>(deadline_ms));
    }
    pending.request = std::move(request);

    // The bound covers everything admitted and unanswered — queued,
    // coalesced or executing — not just the queue, which the dispatcher
    // drains continuously; a queue-only bound would let the worker
    // backlog grow without limit.
    bool admitted = false;
    if (admitted_.load() < options_.queue_depth) {
      admitted_.fetch_add(1);
      {
        std::lock_guard guard(queue_mutex_);
        queue_.push_back(std::move(pending));
      }
      admitted = true;
    }
    if (admitted) {
      queue_cv_.notify_one();
    } else {
      // Explicit load shedding: a bounded backlog plus an `overloaded`
      // reply beats an unbounded one that blows every deadline.
      if (obs::enabled()) {
        static const obs::CounterId id = obs::metrics().counter("serve.overloaded");
        obs::metrics().add(id, 1.0);
      }
      respond(*conn, error_response(pending.request.id_json, errc::kOverloaded,
                                    "server at capacity (queue_depth=" +
                                        std::to_string(options_.queue_depth) +
                                        " admitted requests)"));
    }
  }
  conn->open.store(false);
}

void Server::dispatcher_loop() {
  std::vector<Pending> drained;
  while (true) {
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait_for(lock, std::chrono::milliseconds(50),
                         [&] { return !queue_.empty() || dispatcher_stop_; });
      if (dispatcher_stop_ && queue_.empty() && inflight_count_.load() == 0) break;
      drained.assign(std::make_move_iterator(queue_.begin()),
                     std::make_move_iterator(queue_.end()));
      queue_.clear();
    }
    housekeeping();
    if (!drained.empty()) process_drained(drained);
    drained.clear();
  }
  housekeeping();
}

void Server::note_deadline_expired() {
  if (obs::enabled()) {
    static const obs::CounterId id = obs::metrics().counter("serve.deadline_exceeded");
    obs::metrics().add(id, 1.0);
  }
  const Clock::time_point now = Clock::now();
  deadline_events_.push_back(now);
  const auto window =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
          options_.storm_window_s));
  while (!deadline_events_.empty() && deadline_events_.front() < now - window) {
    deadline_events_.pop_front();
  }
  // Edge-triggered: one anomaly (and so one flight-recorder dump) per
  // storm, re-armed once the window drains to half the threshold.
  if (!storm_active_ && deadline_events_.size() >= options_.storm_threshold) {
    storm_active_ = true;
    obs::anomaly("serve.deadline_storm", 0.0,
                 {{"expired_in_window", static_cast<double>(deadline_events_.size())},
                  {"window_s", options_.storm_window_s},
                  {"queue_depth", static_cast<double>(options_.queue_depth)}});
  } else if (storm_active_ && deadline_events_.size() < options_.storm_threshold / 2) {
    storm_active_ = false;
  }
}

void Server::process_drained(std::vector<Pending>& drained) {
  // New distinct computations, grouped for batching by (op, env).
  std::vector<WorkItem> items;
  const Clock::time_point now = Clock::now();

  for (Pending& pending : drained) {
    if (pending.has_deadline && now > pending.deadline) {
      note_deadline_expired();
      respond(*pending.conn,
              error_response(pending.request.id_json, errc::kDeadlineExceeded,
                             "deadline expired before execution"));
      admitted_.fetch_sub(1);
      continue;
    }
    Waiter waiter{std::move(pending.conn), pending.request.id_json, pending.enqueued};
    if (pending.canon.cacheable()) {
      // A computation for this key may have completed between admission
      // and here — the cache answer is byte-identical by contract.
      std::string cached;
      if (session_.cache_lookup(pending.canon.key, cached)) {
        respond(*waiter.conn, ok_response(waiter.id_json, cached));
        observe_latency(waiter.enqueued);
        admitted_.fetch_sub(1);
        continue;
      }
      std::lock_guard guard(inflight_mutex_);
      auto [it, inserted] = inflight_.try_emplace(pending.canon.key);
      it->second.push_back(std::move(waiter));
      if (!inserted) {
        // Single-flight: coalesced onto the in-flight computation.
        if (obs::enabled()) {
          static const obs::CounterId id = obs::metrics().counter("serve.coalesced");
          obs::metrics().add(id, 1.0);
        }
        continue;
      }
    }
    WorkItem item;
    item.request = std::move(pending.request);
    item.key = std::move(pending.canon.key);
    item.group = std::move(pending.canon.batch_group);
    if (item.key.empty()) item.waiters.push_back(std::move(waiter));
    items.push_back(std::move(item));
  }
  if (items.empty()) return;

  // Group compatible work (same op + environment) into one pool
  // dispatch: one task warms the environment once and runs its batch
  // back to back instead of bouncing N tasks across workers.
  std::stable_sort(items.begin(), items.end(),
                   [](const WorkItem& a, const WorkItem& b) { return a.group < b.group; });

  std::size_t i = 0;
  while (i < items.size()) {
    const std::string group = items[i].group;
    std::size_t j = i + 1;
    if (options_.batching && !group.empty()) {
      while (j < items.size() && j - i < options_.max_batch && items[j].group == group) {
        ++j;
      }
    }
    auto batch = std::make_shared<std::vector<WorkItem>>(
        std::make_move_iterator(items.begin() + static_cast<std::ptrdiff_t>(i)),
        std::make_move_iterator(items.begin() + static_cast<std::ptrdiff_t>(j)));
    inflight_count_.fetch_add(1);
    if (obs::enabled()) {
      static const obs::CounterId batches = obs::metrics().counter("serve.batches");
      static const obs::HistogramId size =
          obs::metrics().histogram("serve.batch_size", {1.0, 1024.0, 16});
      obs::metrics().add(batches, 1.0);
      obs::metrics().observe(size, static_cast<double>(batch->size()));
    }
    pool_->submit([this, batch] {
      for (WorkItem& item : *batch) execute_item(item);
      inflight_count_.fetch_sub(1);
      queue_cv_.notify_all();  // the draining dispatcher may be waiting
    });
    i = j;
  }
}

void Server::execute_item(WorkItem& item) {
  const ComputeResult result = session_.compute(item.request);
  if (result.ok && !item.key.empty()) session_.cache_insert(item.key, result.result_json);

  std::vector<Waiter> waiters;
  if (item.key.empty()) {
    waiters = std::move(item.waiters);
  } else {
    // Cache first, then retire the single-flight entry: a request
    // arriving in between hits the cache, so no computation is lost.
    std::lock_guard guard(inflight_mutex_);
    const auto it = inflight_.find(item.key);
    if (it != inflight_.end()) {
      waiters = std::move(it->second);
      inflight_.erase(it);
    }
  }
  if (obs::enabled()) {
    static const obs::CounterId ok = obs::metrics().counter("serve.responses_ok");
    static const obs::CounterId err = obs::metrics().counter("serve.responses_error");
    obs::metrics().add(result.ok ? ok : err, static_cast<double>(waiters.size()));
  }
  for (const Waiter& waiter : waiters) {
    respond(*waiter.conn, result.render(waiter.id_json));
    observe_latency(waiter.enqueued);
  }
  admitted_.fetch_sub(waiters.size());
}

void Server::housekeeping() {
  if (obs::enabled()) {
    static const obs::GaugeId depth = obs::metrics().gauge("serve.queue_depth");
    static const obs::GaugeId inflight = obs::metrics().gauge("serve.inflight");
    std::size_t queued = 0;
    {
      std::lock_guard guard(queue_mutex_);
      queued = queue_.size();
    }
    obs::metrics().set(depth, static_cast<double>(queued));
    obs::metrics().set(inflight, static_cast<double>(inflight_count_.load()));
  }
  if (publisher_ != nullptr) publisher_->maybe_publish();
}

}  // namespace focv::serve
