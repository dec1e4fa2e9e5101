// serve_hot and serve_cold: open-loop load against an in-process
// serve::Server (jobs=2) over two loopback connections, one generator
// thread each.
//
// Requests are due on a seeded schedule at the offered rate and every
// latency is timed from the request's due time, so a stall on either
// side counts against every request it delays. Each run
// measures the nominal rate first, then searches a fixed geometric rate
// ladder for the highest rung whose p99 meets the workload's limit with
// no growing backlog. Every ok response is checked byte-for-byte against
// SessionState::compute on a second, private session.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "env/profiles.hpp"
#include "fleet/fleet.hpp"
#include "fleet_pipeline.hpp"
#include "mppt/registry.hpp"
#include "node/curve_cache.hpp"
#include "node/harvester_node.hpp"
#include "node/sizing.hpp"
#include "obs/obs.hpp"
#include "pv/cell_library.hpp"
#include "sched/options.hpp"
#include "sched/prepared_trace.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace sv = focv::serve;

constexpr int kServerJobs = 2;
constexpr int kConnections = 2;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Offered rates and the latency limit, fixed from a calibration run on
/// a 4-core Xeon VM (README.md): the nominal rate is about half the
/// highest sustainable one, and the ladder spans well below and above
/// it in steps much finer than the benchmark's bound.
struct Tuning {
  double nominal_per_s;
  double p99_limit_ms;
  double ladder_lo_per_s;
  double ladder_hi_per_s;
};
constexpr double kLadderStep = 1.04;
constexpr Tuning kHot{30000.0, 2.0, 10000.0, 150000.0};
constexpr Tuning kCold{64.0, 1000.0, 30.0, 300.0};

const char* const kEnvs[] = {"office", "office_sunday", "semi_mobile", "outdoor"};

/// One distinct request: its body after the id, op and canonical key.
struct Key {
  std::string op;
  std::string rest;  ///< request JSON after `{"id":N,`
  std::string canonical;
};

std::string request_payload(const Key& key, std::uint64_t id) {
  return "{\"id\":" + std::to_string(id) + "," + key.rest;
}

/// Keys and the request order of one workload, generated from the seed.
/// The hot mix draws from a fixed key set warmed during set-up; the cold
/// mix hands out a fresh key for every request except 2 in 22, which
/// repeat a key sent within the last second. Sim environments and
/// controllers and fleet sizes are dealt from shuffled decks, so every
/// run sends the same shares of each and the seed varies their order and
/// parameters.
class Mix {
 public:
  Mix(bool hot, std::uint64_t seed, sv::SessionState& session)
      : hot_(hot),
        rng_(focv::splitmix64(seed ^ 0x5e5e)),
        gaps_(focv::splitmix64(seed ^ 0x9a95)),
        session_(session) {
    // Env warm-up requests of the set-up: never part of either mix.
    for (const char* env : kEnvs) warm_.push_back(*add(sim_key(env, "direct")));
    if (hot_) {
      for (int i = 0; i < 8; ++i) hot_sizing_.push_back(fresh(&Mix::fresh_sizing));
      for (int i = 0; i < 16; ++i) hot_sim_.push_back(fresh(&Mix::fresh_sim));
    }
  }

  [[nodiscard]] const std::vector<Key>& keys() const { return keys_; }
  [[nodiscard]] const std::vector<std::uint32_t>& warm_keys() const { return warm_; }
  [[nodiscard]] std::vector<std::uint32_t> hot_keys() const {
    std::vector<std::uint32_t> all = hot_sizing_;
    all.insert(all.end(), hot_sim_.begin(), hot_sim_.end());
    return all;
  }

  /// Due times [s from the phase start] of `n` requests at `rate` per
  /// second: gaps drawn uniformly in [0.5, 1.5] / rate. Jittered rather
  /// than constant spacing, so that waits tied to the spacing (a response
  /// held until the connection's next request) are not rounded to one
  /// fixed step; bounded rather than Poisson, so bursts stay mild.
  std::vector<double> schedule(std::size_t n, double rate) {
    std::vector<double> due(n);
    double t = 0.0;
    for (double& d : due) {
      d = t;
      t += (0.5 + gaps_.uniform()) / rate;
    }
    return due;
  }

  /// The key index of each of `n` requests sent at `rate` per second.
  std::vector<std::uint32_t> next(std::size_t n, double rate) {
    std::vector<std::uint32_t> order;
    order.reserve(n);
    if (hot_) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto& pool = rng_.uniform() < 0.5 ? hot_sizing_ : hot_sim_;
        order.push_back(pool[rng_.below(pool.size())]);
      }
      return order;
    }
    // Blocks of 22 requests with the ops at fixed offsets: 17 fresh sim,
    // 2 fresh sizing and 1 fresh fleet keys and 2 repeats, so the offered
    // work is the same in every second of every run and the seed varies
    // only the keys. A repeat names a key sent within the last second.
    static constexpr int kBlock[22] = {0, 0, 0, 3, 0, 1, 0, 0, 0, 0, 2,
                                       0, 0, 0, 3, 0, 1, 0, 0, 0, 0, 0};
    const auto window = static_cast<std::size_t>(std::max(1.0, rate));
    for (std::size_t i = 0; order.size() < n; ++i) {
      const int slot = kBlock[i % std::size(kBlock)];
      if (slot == 3 && !order.empty()) {
        const std::size_t span = std::min(window, order.size());
        order.push_back(order[order.size() - 1 - rng_.below(span)]);
      } else {
        order.push_back(fresh(slot == 1   ? &Mix::fresh_sizing
                              : slot == 2 ? &Mix::fresh_fleet
                                          : &Mix::fresh_sim));
      }
    }
    return order;
  }

 private:
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng_.below(i)]);
  }
  /// Next card of a shuffled deck of `size` cards, reshuffled when empty.
  std::size_t deal(std::vector<std::size_t>& deck, std::size_t size) {
    if (deck.empty()) {
      for (std::size_t i = 0; i < size; ++i) deck.push_back(i);
      shuffle(deck);
    }
    const std::size_t card = deck.back();
    deck.pop_back();
    return card;
  }
  double draw(double lo, double hi) {
    return std::round((lo + (hi - lo) * rng_.uniform()) * 1e9) / 1e9;
  }

  static Key sim_key(const std::string& env, const std::string& spec) {
    sv::Json body = sv::Json::object();
    body.set("op", sv::Json::string("sim"));
    body.set("env", sv::Json::string(env));
    body.set("spec", sv::Json::string(spec));
    return {"sim", body.dump().substr(1), ""};
  }
  Key fresh_sim() {
    struct Template {
      const char* name;
      const char* param;
      double lo, hi;
    };
    static constexpr Template kSpecs[] = {
        {"focv", "k", 0.50, 0.70},       {"fixed", "v", 2.6, 3.4},
        {"pilot", "k", 0.50, 0.70},      {"pando", "step", 0.02, 0.10},
        {"inccond", "step", 0.02, 0.10}, {"graddesc", "lr", 0.02, 0.10},
        {"periodic", "k", 0.50, 0.70},   {"photo", "gain_err", 0.95, 1.15},
        {"direct", "drop", 0.15, 0.35},
    };
    const std::size_t card = deal(sim_deck_, std::size(kEnvs) * std::size(kSpecs));
    const Template& t = kSpecs[card % std::size(kSpecs)];
    return sim_key(kEnvs[card / std::size(kSpecs)],
                   std::string(t.name) + "[" + t.param + "=" +
                       sv::Json::format_number(draw(t.lo, t.hi)) + "]");
  }
  /// The paper's node (S&H FOCV at the office desk) sized for a drawn
  /// report period. Sizing cost differs ~400x across environments and
  /// controllers, so drawing those too would make the offered work a
  /// function of the seed.
  Key fresh_sizing() {
    sv::Json body = sv::Json::object();
    body.set("op", sv::Json::string("sizing"));
    body.set("env", sv::Json::string("office"));
    body.set("spec", sv::Json::string("focv"));
    body.set("report_period_s", sv::Json::number(draw(30.0, 600.0)));
    return {"sizing", body.dump().substr(1), ""};
  }
  Key fresh_fleet() {
    const double nodes = 1000.0 * static_cast<double>(1 + deal(fleet_deck_, 4));
    sv::Json policies = sv::Json::array();
    for (const auto& [spec, weight] : {std::pair{"focv", 0.70}, std::pair{"fixed", 0.15},
                                       std::pair{"pilot", 0.15}}) {
      sv::Json p = sv::Json::object();
      p.set("spec", sv::Json::string(spec));
      p.set("weight", sv::Json::number(weight));
      policies.push_back(std::move(p));
    }
    sv::Json body = sv::Json::object();
    body.set("op", sv::Json::string("fleet"));
    body.set("nodes", sv::Json::number(nodes));
    body.set("seed", sv::Json::number(static_cast<double>(rng_.below(1u << 30))));
    body.set("policies", std::move(policies));
    return {"fleet", body.dump().substr(1), ""};
  }

  /// A key never sent before: draws again on the rare collision.
  std::uint32_t fresh(Key (Mix::*make)()) {
    for (;;) {
      if (const auto k = add((this->*make)())) return *k;
    }
  }

  /// Register a key; nullopt when its canonical key was already sent.
  std::optional<std::uint32_t> add(Key key) {
    sv::Request request;
    std::string error;
    sv::CanonicalRequest canon;
    if (!sv::parse_request(request_payload(key, 0), request, error) ||
        !session_.canonicalize(request, canon, error)) {
      throw std::runtime_error("generated an invalid request: " + error);
    }
    if (!sent_.insert(canon.key).second) return std::nullopt;
    key.canonical = canon.key;
    keys_.push_back(std::move(key));
    return static_cast<std::uint32_t>(keys_.size() - 1);
  }

  bool hot_;
  focv::Rng rng_;
  focv::Rng gaps_;
  sv::SessionState& session_;
  std::vector<Key> keys_;
  std::set<std::string> sent_;
  std::vector<std::uint32_t> warm_, hot_sizing_, hot_sim_;
  std::vector<std::size_t> sim_deck_, fleet_deck_;
};

/// One loopback connection, closed on destruction.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    std::string error;
    fd_ = sv::net::connect_tcp(port, error);
    if (fd_ < 0) throw std::runtime_error("connect: " + error);
  }
  ~Connection() { sv::net::close_fd(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// Send `payloads` pipelined on one connection and collect the answers
/// (set-up warm-up and the closed-loop transport probe use this).
std::vector<std::string> exchange(std::uint16_t port, const std::vector<std::string>& payloads) {
  Connection conn(port);
  for (const std::string& p : payloads) {
    if (!sv::net::write_frame(conn.fd(), p)) throw std::runtime_error("send failed");
  }
  std::vector<std::string> out(payloads.size());
  for (std::string& r : out) {
    if (sv::net::read_frame(conn.fd(), 64u << 20, r) != 1) throw std::runtime_error("recv failed");
  }
  return out;
}

/// Parse the id of a response envelope; -1 when it is not one.
long long response_id(const std::string& payload) {
  static const std::string kPrefix = std::string("{\"schema\":\"") + sv::kSchema + "\",\"id\":";
  if (payload.compare(0, kPrefix.size(), kPrefix) != 0) return -1;
  char* end = nullptr;
  const long long id = std::strtoll(payload.c_str() + kPrefix.size(), &end, 10);
  return end == payload.c_str() + kPrefix.size() ? -1 : id;
}

bool response_ok(const std::string& payload) {
  const std::size_t comma = payload.find(',', payload.find("\"id\":"));
  return comma != std::string::npos && payload.compare(comma, 10, ",\"ok\":true") == 0;
}

struct PhaseOutcome {
  Clock::time_point start;          ///< phase start
  std::vector<double> due_s;        ///< due time of each request after start
  double duration_s = 0.0;          ///< send window: n / rate
  std::vector<double> latency_ms;   ///< from due time; +inf when not ok or lost
  std::vector<double> lateness_ms;  ///< send time - due time
  std::vector<std::string> payloads;
  std::uint64_t ok = 0, errors = 0, lost = 0, mismatched = 0;
  std::uint64_t bytes_in = 0, bytes_out = 0;
  bool growing = false;             ///< in-flight requests grew over the window
  [[nodiscard]] std::size_t size() const { return latency_ms.size(); }
};

/// Run one open-loop phase: request i is due at start + due_s[i] on
/// connection i % 2. `expected[key]` (hot) checks ok payloads inline;
/// otherwise payloads are kept for the caller to check.
PhaseOutcome run_phase(std::uint16_t port, const std::vector<Key>& keys,
                       const std::vector<std::uint32_t>& order,
                       const std::vector<double>& due_s, double rate,
                       const std::vector<std::string>* expected, double limit_s, double drain_s) {
  const std::size_t n = order.size();
  PhaseOutcome out;
  out.duration_s = static_cast<double>(n) / rate;
  out.latency_ms.assign(n, kInf);
  out.lateness_ms.assign(n, 0.0);
  if (expected == nullptr) out.payloads.resize(n);

  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kConnections; ++c) conns.push_back(std::make_unique<Connection>(port));
  std::atomic<std::uint64_t> sent{0}, received{0}, errors{0}, mismatched{0};
  std::atomic<std::uint64_t> bytes_in{0}, bytes_out{0};
  std::vector<std::uint8_t> seen(n, 0);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  out.start = start;
  out.due_s = due_s;
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const auto due = [&](std::size_t i) { return at(due_s[i]); };

  const auto sender = [&](int c) {
    std::uint64_t bytes = 0;
    for (std::size_t i = static_cast<std::size_t>(c); i < n; i += kConnections) {
      const Clock::time_point when = due(i);
      if (Clock::now() < when) std::this_thread::sleep_until(when);
      const std::string payload = request_payload(keys[order[i]], i);
      out.lateness_ms[i] = seconds_since(when) * 1e3;
      if (!sv::net::write_frame(conns[static_cast<std::size_t>(c)]->fd(), payload)) break;
      bytes += payload.size() + 4;
      sent.fetch_add(1, std::memory_order_relaxed);
    }
    bytes_in.fetch_add(bytes);
  };
  const auto receiver = [&](int c) {
    const std::size_t expect = (n + kConnections - 1 - static_cast<std::size_t>(c)) / kConnections;
    std::string payload;
    std::uint64_t bytes = 0;
    for (std::size_t got = 0; got < expect; ++got) {
      if (sv::net::read_frame(conns[static_cast<std::size_t>(c)]->fd(), 64u << 20, payload) != 1) {
        break;
      }
      const Clock::time_point now = Clock::now();
      bytes += payload.size() + 4;
      const long long id = response_id(payload);
      // Only ids sent on this connection: each receiver touches its own
      // slots of the shared vectors.
      if (id < 0 || static_cast<std::size_t>(id) >= n || id % kConnections != c ||
          seen[static_cast<std::size_t>(id)]) {
        errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const auto i = static_cast<std::size_t>(id);
      seen[i] = 1;
      received.fetch_add(1, std::memory_order_relaxed);
      if (!response_ok(payload)) {
        errors.fetch_add(1, std::memory_order_relaxed);
        if (expected == nullptr) out.payloads[i] = std::move(payload);
        continue;
      }
      if (expected != nullptr) {
        if (payload != sv::ok_response(std::to_string(id), (*expected)[order[i]])) {
          mismatched.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      } else {
        out.payloads[i] = std::move(payload);
      }
      out.latency_ms[i] = seconds_between(due(i), now) * 1e3;
    }
    bytes_out.fetch_add(bytes);
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(receiver, c);
  std::vector<std::thread> senders;
  for (int c = 0; c < kConnections; ++c) senders.emplace_back(sender, c);

  // In-flight requests sampled over the send window: a backlog that
  // keeps growing marks the rate unsustainable even if the requests
  // that did complete were fast.
  std::vector<double> inflight;
  const Clock::time_point window_end = at(out.duration_s);
  while (Clock::now() < window_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    inflight.push_back(static_cast<double>(sent.load()) - static_cast<double>(received.load()));
  }
  for (std::thread& t : senders) t.join();
  const Clock::time_point drain_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(drain_s));
  while (received.load() < n && Clock::now() < drain_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (const auto& conn : conns) sv::net::shutdown_fd(conn->fd());  // unblocks lost reads
  for (std::thread& t : threads) t.join();

  if (inflight.size() >= 6) {
    // Growing: the last third of the window holds more requests in
    // flight than the first by more than a quarter of what a server at
    // exactly the latency limit would hold (Little's law), so bursts of
    // slow requests at a sustainable rate do not count.
    const std::size_t third = inflight.size() / 3;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < third; ++i) {
      first += inflight[i];
      last += inflight[inflight.size() - 1 - i];
    }
    out.growing = (last - first) / static_cast<double>(third) > std::max(3.0, 0.25 * rate * limit_s);
  }
  out.errors = errors.load();
  out.mismatched = mismatched.load();
  out.lost = n - received.load();
  out.bytes_in = bytes_in.load();
  out.bytes_out = bytes_out.load();
  for (const double l : out.latency_ms) out.ok += std::isfinite(l) ? 1 : 0;
  return out;
}

/// The in-process server of a run, set up as a user would: start it and
/// warm every environment (serve_hot also warms its keys).
struct Served {
  std::unique_ptr<sv::Server> server;
  double setup_s = 0.0;
};

Served start_server(const Mix& mix, bool hot) {
  const Clock::time_point t = Clock::now();
  Served s;
  sv::ServerOptions options;
  options.jobs = kServerJobs;
  s.server = std::make_unique<sv::Server>(options);
  std::string error;
  if (!s.server->start(error)) throw std::runtime_error("server start: " + error);
  std::vector<std::string> warm;
  for (const std::uint32_t k : mix.warm_keys()) warm.push_back(request_payload(mix.keys()[k], k));
  for (const std::string& r : exchange(s.server->port(), warm)) {
    if (!response_ok(r)) throw std::runtime_error("environment warm-up failed: " + r);
  }
  if (hot) {
    std::vector<std::string> keys;
    for (const std::uint32_t k : mix.hot_keys()) keys.push_back(request_payload(mix.keys()[k], k));
    for (const std::string& r : exchange(s.server->port(), keys)) {
      if (!response_ok(r)) throw std::runtime_error("key warm-up failed: " + r);
    }
  }
  s.setup_s = seconds_since(t);
  return s;
}

/// One-shot SessionState::compute of distinct keys on the private
/// session, on `threads` threads; result and wall per key.
struct Replayed {
  std::vector<sv::ComputeResult> result;
  std::vector<double> compute_ms;
  std::vector<std::uint8_t> done;
};

void replay(sv::SessionState& session, const std::vector<Key>& keys,
            const std::vector<std::uint32_t>& which, int threads, Replayed& out) {
  out.result.resize(keys.size());
  out.compute_ms.resize(keys.size(), 0.0);
  out.done.resize(keys.size(), 0);
  std::vector<std::uint32_t> todo;
  for (const std::uint32_t k : which) {
    if (!out.done[k]) {
      out.done[k] = 1;
      todo.push_back(k);
    }
  }
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < todo.size(); i = next.fetch_add(1)) {
      const std::uint32_t k = todo[i];
      sv::Request request;
      std::string error;
      if (!sv::parse_request(request_payload(keys[k], 0), request, error)) continue;
      const Clock::time_point t = Clock::now();
      out.result[k] = session.compute(request);
      out.compute_ms[k] = seconds_since(t) * 1e3;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
}

/// Check every ok payload of a phase against the one-shot result.
void verify(const PhaseOutcome& phase, const std::vector<std::uint32_t>& order,
            const Replayed& expected, Result& result, const char* what) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < phase.size(); ++i) {
    if (!std::isfinite(phase.latency_ms[i])) continue;
    const sv::ComputeResult& r = expected.result[order[i]];
    if (!r.ok || phase.payloads[i] != r.render(std::to_string(i))) ++bad;
  }
  result.check(bad == 0, std::string(what) + ": " + std::to_string(bad) +
                             " ok responses differ from SessionState::compute", bad);
}

/// Every request counts as attempted. At the nominal rate any request
/// not answered ok counts as failed; ladder rungs probe past capacity on
/// purpose, so there only wrong answers do.
void account(const PhaseOutcome& phase, bool nominal, Result& result) {
  result.attempt(phase.size());
  if (nominal) result.fail(phase.size() - phase.ok - phase.mismatched);
  result.check(phase.mismatched == 0,
               std::to_string(phase.mismatched) + " responses differ from SessionState::compute",
               phase.mismatched);
}

std::vector<double> by_op(const PhaseOutcome& phase, const std::vector<Key>& keys,
                          const std::vector<std::uint32_t>& order, const char* op) {
  std::vector<double> out;
  for (std::size_t i = 0; i < phase.size(); ++i) {
    if (keys[order[i]].op == op) out.push_back(phase.latency_ms[i]);
  }
  return out;
}

sv::SessionState::Options session_options() { return sv::ServerOptions{}.session; }

void warm_private(sv::SessionState& session, const Mix& mix) {
  Replayed warm;
  replay(session, mix.keys(), mix.warm_keys(), 4, warm);
}

/// One-shot results of the hot keys; receivers compare ok payloads
/// against them as they arrive.
std::vector<std::string> hot_expectation(sv::SessionState& session, const Mix& mix,
                                         Replayed& expected, Result& result) {
  replay(session, mix.keys(), mix.hot_keys(), 1, expected);
  std::vector<std::string> json(mix.keys().size());
  for (const std::uint32_t k : mix.hot_keys()) {
    result.check(expected.result[k].ok, "one-shot compute of a hot key failed");
    json[k] = expected.result[k].result_json;
  }
  return json;
}

double nominal_seconds(const Args& args) { return (args.smoke ? 0.5 : 0.4) * args.seconds; }

/// Distinct keys of `order` in first-sent order.
std::vector<std::uint32_t> distinct(const std::vector<std::uint32_t>& order) {
  std::vector<std::uint32_t> out;
  std::set<std::uint32_t> seen;
  for (const std::uint32_t k : order) {
    if (seen.insert(k).second) out.push_back(k);
  }
  return out;
}

void untraced(const Args& args, bool hot, Result& result) {
  const Tuning& tune = hot ? kHot : kCold;
  const double limit_s = tune.p99_limit_ms / 1e3;
  sv::SessionState oneshot(session_options());
  Mix mix(hot, args.seed, oneshot);

  std::vector<double> setup;
  Served served;
  for (int i = 0; i < 5; ++i) {
    if (served.server) served.server->stop();
    served = start_server(mix, hot);
    setup.push_back(served.setup_s);
  }
  const std::uint16_t port = served.server->port();

  warm_private(oneshot, mix);
  Replayed expected;
  std::vector<std::string> expected_json;
  if (hot) expected_json = hot_expectation(oneshot, mix, expected, result);
  const std::vector<std::string>* inline_check = hot ? &expected_json : nullptr;
  const double drain_s = hot ? 1.0 : 4.0;

  const std::vector<std::uint32_t> order = mix.next(
      static_cast<std::size_t>(std::ceil(tune.nominal_per_s * nominal_seconds(args))),
      tune.nominal_per_s);
  const PhaseOutcome nominal =
      run_phase(port, mix.keys(), order, mix.schedule(order.size(), tune.nominal_per_s),
                tune.nominal_per_s, inline_check, limit_s, drain_s);
  account(nominal, true, result);

  // Rate ladder: bisection over fixed geometric rungs for the highest
  // one whose p99 meets the limit with no growing backlog.
  std::vector<double> rungs;
  for (double r = tune.ladder_lo_per_s; r <= tune.ladder_hi_per_s; r *= kLadderStep) {
    rungs.push_back(r);
  }
  const int probes =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(rungs.size()) + 1.0)));
  const double rung_s = std::max(0.25, (args.seconds - nominal.duration_s) / probes);
  int pass = -1;
  int fail = static_cast<int>(rungs.size());
  double best_rate = 0.0;
  std::vector<std::pair<std::vector<std::uint32_t>, PhaseOutcome>> ladder;
  std::string path;
  while (fail - pass > 1) {
    const int mid = (pass + fail) / 2;
    const double rate = rungs[static_cast<std::size_t>(mid)];
    std::vector<std::uint32_t> rung_order =
        mix.next(static_cast<std::size_t>(std::ceil(rate * rung_s)), rate);
    PhaseOutcome rung =
        run_phase(port, mix.keys(), rung_order, mix.schedule(rung_order.size(), rate), rate,
                  inline_check, limit_s, std::max(drain_s, 2.0 * rung_s));
    account(rung, false, result);
    const double p99 = quantile(rung.latency_ms, 0.99);
    const bool ok = p99 <= tune.p99_limit_ms && !rung.growing;
    path += ' ';
    path += fmt(std::round(rate)) + (ok ? "+(p99 " : "-(p99 ") +
            fmt(std::round(p99 * 10.0) / 10.0) + (rung.growing ? " ms, growing)" : " ms)");
    if (ok) {
      pass = mid;
      best_rate = static_cast<double>(rung.ok) / rung.duration_s;
    } else {
      fail = mid;
    }
    if (!hot) ladder.emplace_back(std::move(rung_order), std::move(rung));
  }
  if (pass < 0) path += " (no rung met the limit)";
  served.server->stop();

  if (!hot) {
    // Cold payloads are checked after the load against one-shot computes
    // of every distinct key sent. The nominal stream's keys go first, on
    // as many threads as the server has workers: their times give
    // serial_rate_per_s.
    replay(oneshot, mix.keys(), order, kServerJobs, expected);
    std::vector<std::uint32_t> all;
    for (const auto& [o, _] : ladder) all.insert(all.end(), o.begin(), o.end());
    replay(oneshot, mix.keys(), all, 4, expected);
    verify(nominal, order, expected, result, "nominal phase");
    for (const auto& [o, rung] : ladder) verify(rung, o, expected, result, "ladder rung");
  }

  double one_shot_ms = 0.0;
  std::uint64_t digest = fnv1a("");
  for (const std::uint32_t k : order) {
    one_shot_ms += expected.compute_ms[k];
    digest = fnv1a(expected.result[k].result_json, digest);
  }
  result.metric("setup_s", median(setup));
  result.metric("peak_rss_mib", peak_rss_mib());
  result.metric("p50_ms", quantile(nominal.latency_ms, 0.50));
  result.metric("p99_ms", quantile(nominal.latency_ms, 0.99));
  result.metric("max_rate_per_s", best_rate);
  result.metric("serial_rate_per_s", static_cast<double>(order.size()) / (one_shot_ms / 1e3));
  result.metric("sim_p50_ms", median(by_op(nominal, mix.keys(), order, "sim")));
  result.metric("sizing_p50_ms", median(by_op(nominal, mix.keys(), order, "sizing")));
  result.note("nominal " + fmt(tune.nominal_per_s) + " req/s for " + fmt(nominal.duration_s) +
              " s: " + std::to_string(nominal.size()) + " requests, " +
              std::to_string(nominal.ok) + " ok, " + std::to_string(nominal.errors) +
              " error responses, " + std::to_string(nominal.lost) + " lost; p99 limit " +
              fmt(tune.p99_limit_ms) + " ms");
  result.note("max_qps_at_slo = " + fmt(best_rate) + " req/s; ladder" + path + " (" +
              fmt(rung_s) + " s rungs, step " + fmt(kLadderStep) + ")");
  result.note("gen.lateness_p99_ms = " + fmt(quantile(nominal.lateness_ms, 0.99)));
  result.note("digest = " + hex(digest));
}

// --- traced run ------------------------------------------------------

/// One session environment rebuilt the way SessionState::warm builds
/// it, so its layers can be timed and called directly.
struct EnvLayer {
  std::shared_ptr<const focv::env::LightTrace> trace;
  std::unique_ptr<focv::sched::PreparedTrace> prepared;
  std::unique_ptr<focv::node::SizingContext> sizing;
  std::unique_ptr<focv::node::CurveCache> master;
};

focv::env::LightTrace session_trace(std::size_t e) {
  switch (e) {
    case 0: return focv::env::office_desk_mixed();
    case 1: return focv::env::desk_sunday_blinds_closed();
    case 2: return focv::env::semi_mobile_day();
    default: return focv::env::outdoor_day({});
  }
}

std::size_t env_index(const std::string& name) {
  for (std::size_t e = 0; e < std::size(kEnvs); ++e) {
    if (name == kEnvs[e]) return e;
  }
  throw std::runtime_error("unknown environment " + name);
}

std::vector<EnvLayer> build_layers(SpanLog& spans, int parent, Result& result) {
  const focv::pv::SingleDiodeModel& cell = focv::pv::sanyo_am1815();
  const sv::SessionState::Options options = session_options();
  std::vector<EnvLayer> envs(std::size(kEnvs));
  double build_s = 0.0, prepare_s = 0.0, warm_s = 0.0;
  std::uint64_t evals = 0;
  for (std::size_t e = 0; e < envs.size(); ++e) {
    Clock::time_point t = Clock::now();
    envs[e].trace = std::make_shared<const focv::env::LightTrace>(session_trace(e));
    Clock::time_point u = Clock::now();
    spans.add("env.trace_build", t, u, parent);
    build_s += seconds_between(t, u);

    focv::env::SegmentationOptions seg;
    seg.ratio_band = focv::sched::EventOptions{}.lux_ratio_band;
    seg.floor = focv::node::CurveCache::kDarkLux;
    t = Clock::now();
    envs[e].prepared = std::make_unique<focv::sched::PreparedTrace>(*envs[e].trace, cell, seg);
    u = Clock::now();
    spans.add("sched.prepare", t, u, parent);
    prepare_s += seconds_between(t, u);
    envs[e].sizing = std::make_unique<focv::node::SizingContext>(*envs[e].trace, cell);

    t = Clock::now();
    focv::node::CurveCache::Options cache_options;
    cache_options.surrogate_points = options.surrogate_points;
    envs[e].master =
        std::make_unique<focv::node::CurveCache>(cell, options.temperature_k, cache_options);
    double lo = 0.0, hi = 0.0;
    for (const double lux : envs[e].prepared->eq_lux()) {
      if (lux < focv::node::CurveCache::kDarkLux) continue;
      if (hi == 0.0) lo = hi = lux;
      lo = std::min(lo, lux);
      hi = std::max(hi, lux);
    }
    if (hi > 0.0) envs[e].master->warm_range(lo, hi);
    u = Clock::now();
    spans.add("node.curve_warm", t, u, parent);
    warm_s += seconds_between(t, u);
    evals += envs[e].master->model_evals();
  }
  result.metric("env.trace_build_s", build_s);
  result.metric("sched.prepare_s", prepare_s);
  result.metric("node.curve_warm_s", warm_s);
  result.metric("node.curve_model_evals", static_cast<double>(evals));
  return envs;
}

sv::Request parsed(const Key& key) {
  sv::Request request;
  std::string error;
  if (!sv::parse_request(request_payload(key, 0), request, error)) {
    throw std::runtime_error("unparsable generated request");
  }
  return request;
}

double mean_finite(const std::vector<double>& values) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const double v : values) {
    if (std::isfinite(v)) {
      sum += v;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

void traced(const Args& args, bool hot, Result& result, SpanLog& spans) {
  const Tuning& tune = hot ? kHot : kCold;
  const double limit_s = tune.p99_limit_ms / 1e3;
  const int root = spans.begin(hot ? "serve_hot" : "serve_cold");
  const std::vector<EnvLayer> envs = build_layers(spans, root, result);

  sv::SessionState oneshot(session_options());
  Mix mix(hot, args.seed, oneshot);
  warm_private(oneshot, mix);
  Replayed expected;
  std::vector<std::string> expected_json;
  if (hot) expected_json = hot_expectation(oneshot, mix, expected, result);
  const std::vector<std::string>* inline_check = hot ? &expected_json : nullptr;
  const double drain_s = hot ? 1.0 : 4.0;
  const std::vector<std::uint32_t> order = mix.next(
      static_cast<std::size_t>(std::ceil(tune.nominal_per_s * nominal_seconds(args))),
      tune.nominal_per_s);

  // The same request stream twice at the nominal rate, each on a fresh
  // server: telemetry off, then on (for the server's own counters).
  const std::vector<double> due_s = mix.schedule(order.size(), tune.nominal_per_s);
  Served plain_server = start_server(mix, hot);
  const PhaseOutcome plain = run_phase(plain_server.server->port(), mix.keys(), order, due_s,
                                       tune.nominal_per_s, inline_check, limit_s, drain_s);
  plain_server.server->stop();
  account(plain, true, result);

  Served served = start_server(mix, hot);
  const std::uint16_t port = served.server->port();
  focv::obs::reset_all();
  focv::obs::set_enabled(true);
  const PhaseOutcome phase = run_phase(port, mix.keys(), order, due_s, tune.nominal_per_s,
                                       inline_check, limit_s, drain_s);
  focv::obs::set_enabled(false);
  account(phase, true, result);
  const focv::obs::MetricsRegistry& m = focv::obs::metrics();
  const double requests = m.counter_value("serve.requests");
  double batch_mean = 0.0;
  for (const focv::obs::HistogramSnapshot& h : m.snapshot().histograms) {
    if (h.name == "serve.batch_size") batch_mean = h.mean();
  }
  const sv::Json stats = [&] {
    sv::Json out;
    sv::Json::parse(exchange(port, {"{\"op\":\"stats\",\"id\":0}"}).front(), out);
    return out.find("result") != nullptr ? *out.find("result") : sv::Json::object();
  }();

  // Closed-loop probe on the idle server: requests of the phase again,
  // one at a time, all answered from the response cache.
  std::vector<std::size_t> probe;
  for (std::size_t i = 0; i < phase.size() && probe.size() < 200; ++i) {
    if (std::isfinite(phase.latency_ms[i])) probe.push_back(i);
  }
  std::vector<double> probe_us;
  {
    Connection conn(port);
    std::string reply;
    for (const std::size_t i : probe) {
      const Clock::time_point t = Clock::now();
      if (!sv::net::write_frame(conn.fd(), request_payload(mix.keys()[order[i]], i)) ||
          sv::net::read_frame(conn.fd(), 64u << 20, reply) != 1) {
        throw std::runtime_error("transport probe failed");
      }
      probe_us.push_back(seconds_since(t) * 1e6);
    }
  }
  served.server->stop();

  // One-shot computes of every distinct key of the phase, after the load.
  const std::vector<std::uint32_t> keys = distinct(order);
  if (!hot) {
    replay(oneshot, mix.keys(), keys, kServerJobs, expected);
    verify(plain, order, expected, result, "untraced phase");
    verify(phase, order, expected, result, "traced phase");
  }
  std::vector<double> compute_sim, compute_sizing, compute_fleet;
  for (const std::uint32_t k : keys) {
    const std::string& op = mix.keys()[k].op;
    (op == "sim" ? compute_sim : op == "sizing" ? compute_sizing : compute_fleet)
        .push_back(expected.compute_ms[k]);
  }

  // Reader-path stages replayed on the phase's payloads (and the probe's).
  for (const std::uint32_t k : keys) oneshot.cache_insert(mix.keys()[k].canonical, expected.result[k].result_json);
  const int replay_root = spans.begin("serve.replay", root);
  struct Stages {
    std::vector<double> parse, canon, lookup, render;
  };
  const auto stages = [&](const std::vector<std::size_t>& which) {
    Stages st;
    for (const std::size_t i : which) {
      const Key& key = mix.keys()[order[i]];
      const std::string payload = request_payload(key, i);
      sv::Request request;
      std::string error, cached;
      sv::CanonicalRequest canon;
      Clock::time_point t = Clock::now();
      sv::parse_request(payload, request, error);
      Clock::time_point u = Clock::now();
      spans.add("serve.parse", t, u, replay_root, i);
      st.parse.push_back(seconds_between(t, u) * 1e6);
      t = u;
      oneshot.canonicalize(request, canon, error);
      u = Clock::now();
      spans.add("serve.canonicalize", t, u, replay_root, i);
      st.canon.push_back(seconds_between(t, u) * 1e6);
      t = u;
      oneshot.cache_lookup(canon.key, cached);
      u = Clock::now();
      spans.add("serve.cache_lookup", t, u, replay_root, i);
      st.lookup.push_back(seconds_between(t, u) * 1e6);
      t = u;
      const std::string rendered = expected.result[order[i]].render(request.id_json);
      u = Clock::now();
      spans.add("serve.render", t, u, replay_root, i);
      st.render.push_back(seconds_between(t, u) * 1e6);
    }
    return st;
  };
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < phase.size() && sample.size() < 4000; ++i) sample.push_back(i);
  const Stages on_phase = stages(sample);
  const Stages on_probe = stages(probe);
  spans.end(replay_root);
  const double transport_us = median(probe_us) - median(on_probe.parse) -
                              median(on_probe.canon) - median(on_probe.lookup) -
                              median(on_probe.render);

  // Per request: latency = queue wait + compute (first sight of a key
  // only; later ones are cache hits or coalesced) + transport.
  std::vector<double> queue_ms;
  std::set<std::uint32_t> computed;
  double busy_ms = 0.0;
  for (std::size_t i = 0; i < phase.size(); ++i) {
    const bool first = computed.insert(order[i]).second;
    const double compute_ms = first && !hot ? expected.compute_ms[order[i]] : 0.0;
    busy_ms += compute_ms;
    if (!std::isfinite(phase.latency_ms[i])) continue;
    queue_ms.push_back(std::max(0.0, phase.latency_ms[i] - compute_ms - transport_us / 1e3));
    if (i < 4000) {
      const Clock::time_point due =
          phase.start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(phase.due_s[i]));
      spans.add("serve.request", due,
                due + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(phase.latency_ms[i])),
                root, i);
    }
  }

  // Direct calls into the layers under the session, on the phase's keys.
  const focv::pv::SingleDiodeModel& cell = focv::pv::sanyo_am1815();
  const sv::SessionState::Options options = session_options();
  std::vector<double> simulate_ms, sizing_ms, spec_us;
  std::vector<std::unique_ptr<focv::node::CurveCache>> leases(envs.size());
  for (const std::uint32_t k : keys) {
    const Key& key = mix.keys()[k];
    if (key.op == "fleet" || (key.op == "sim" ? simulate_ms.size() >= 36 : sizing_ms.size() >= 12)) {
      continue;
    }
    const sv::Request request = parsed(key);
    const std::size_t e = env_index(request.body.string_or("env", ""));
    Clock::time_point t = Clock::now();
    const std::string spec =
        focv::mppt::Registry::instance().canonical(request.body.string_or("spec", "focv"));
    const auto controller = focv::mppt::Registry::instance().make(spec);
    spec_us.push_back(seconds_since(t) * 1e6);
    if (key.op == "sim") {
      if (!leases[e]) {
        leases[e] = std::make_unique<focv::node::CurveCache>(
            cell, options.temperature_k,
            focv::node::CurveCache::Options{focv::node::PowerModel::kSurrogate,
                                            options.surrogate_points});
        leases[e]->seed_entries(*envs[e].master);
      }
      focv::node::NodeConfig config;
      config.use_cell(cell);
      config.use_controller(spec);
      config.stepper = focv::node::Stepper::kEvent;
      config.surrogate_points = options.surrogate_points;
      config.temperature_k = options.temperature_k;
      t = Clock::now();
      const focv::node::NodeReport report =
          focv::node::simulate_node(*envs[e].trace, config, leases[e].get(), envs[e].prepared.get());
      spans.add("node.simulate", t, Clock::now(), root, k);
      simulate_ms.push_back(seconds_since(t) * 1e3);
      result.check(std::isfinite(report.net_energy()), "direct 24 h node run");
    } else {
      focv::node::SizingQuery query;
      query.use_cell(cell);
      query.scenario_trace = envs[e].trace;
      query.use_controller(spec);
      query.load.report_period = request.body.number_or("report_period_s", 60.0);
      query.temperature_k = options.temperature_k;
      t = Clock::now();
      const focv::node::SizingResult sized =
          focv::node::size_for_energy_neutrality(query, *envs[e].sizing, 0.1, 64.0);
      spans.add("node.sizing", t, Clock::now(), root, k);
      sizing_ms.push_back(seconds_since(t) * 1e3);
      result.check(std::isfinite(sized.area_factor), "direct sizing");
    }
  }

  // Fleet ops through the traced fleet pipeline, byte-checked against
  // the served result.
  std::map<std::string, double> self;
  TracedFleet sum;
  double fleet_wall = 0.0, fleet_compute = 0.0, slow = 0.0, flips = 0.0;
  int fleet_ops = 0;
  for (const std::uint32_t k : keys) {
    if (mix.keys()[k].op != "fleet" || fleet_ops >= 6) continue;
    ++fleet_ops;
    const sv::Request request = parsed(mix.keys()[k]);
    focv::fleet::FleetSpec spec;
    spec.node_count = static_cast<std::size_t>(request.body.number_or("nodes", 100.0));
    spec.root_seed = static_cast<std::uint64_t>(request.body.number_or("seed", 2024.0));
    spec.use_cell(cell);
    for (std::size_t e = 0; e < envs.size(); ++e) spec.add_environment(kEnvs[e], envs[e].trace, 1.0);
    for (const sv::Json& p : request.body.find("policies")->items()) {
      spec.add_policy(focv::mppt::Registry::instance().canonical(p.string_or("spec", "")),
                      p.number_or("weight", 1.0));
    }
    spec.base.stepper = focv::node::Stepper::kEvent;
    spec.base.surrogate_points = options.surrogate_points;
    spec.base.temperature_k = options.temperature_k;
    spec.engine = focv::fleet::FleetEngine::kSoa;
    focv::obs::reset_all();
    focv::obs::set_enabled(true);
    const TracedFleet run = traced_fleet(spec, /*analyze_load=*/true, spans, root, k);
    focv::obs::set_enabled(false);
    result.attempt(1);
    result.check(run.json == expected.result[k].result_json,
                 "traced fleet pipeline equals the served fleet result byte-for-byte");
    for (const auto& [name, s] : spans.self_seconds(run.root)) self[name] += s;
    fleet_wall += spans.duration(run.root);
    fleet_compute += expected.compute_ms[k] / 1e3;
    sum.nodes += run.nodes;
    sum.batch_intervals += run.batch_intervals;
    sum.steps += run.steps;
    sum.events += run.events;
    slow += focv::obs::metrics().counter_value("fleet.soa.slow_advances");
    flips += focv::obs::metrics().counter_value("fleet.soa.store_flips");
  }
  spans.end(root);

  if (fleet_ops > 0) {
    double layers = 0.0;
    for (const auto& [name, s] : self) {
      if (name != span::kRun) layers += s;
    }
    result.metric("fleet.plan_s", self[span::kPlan]);
    result.metric("sched.batch_intervals", static_cast<double>(sum.batch_intervals));
    result.metric("fleet.request_fixed_share",
                  (self[span::kPrepare] + self[span::kWarm] + self[span::kPlan]) / fleet_wall);
    result.metric("fleet.draw_ns_per_node",
                  self[span::kDraw] / static_cast<double>(sum.nodes) * 1e9);
    result.metric("fleet.kernel_s", self[span::kKernel]);
    result.metric("fleet.kernel_ns_per_interval",
                  self[span::kKernel] / static_cast<double>(sum.steps) * 1e9);
    result.metric("fleet.intervals", static_cast<double>(sum.steps));
    result.metric("fleet.soa.slow_advances", slow);
    result.metric("fleet.soa.store_flips", flips);
    result.metric("fleet.soa.slow_useful_ratio", slow > 0.0 ? flips / slow : 0.0);
    result.metric("fleet.report_s", self[span::kReport]);
    result.metric("fleet.json_s", self[span::kJson]);
    result.metric("fleet.events", static_cast<double>(sum.events));
    result.metric("trace.residual_share", (fleet_compute - layers) / fleet_compute);
    result.note("fleet ops through the traced pipeline: " + std::to_string(fleet_ops) +
                ", layer self times against one-shot compute " + fmt(fleet_compute) + " s:");
    for (const auto& [name, s] : self) result.note("  " + name + " " + fmt(s) + " s");
  }

  const double hits = stats.number_or("cache_hits", 0.0);
  const double misses = stats.number_or("cache_misses", 0.0);
  result.metric("serve.protocol.parse_us", median(on_phase.parse));
  result.metric("serve.protocol.render_us", median(on_phase.render));
  result.metric("serve.session.canonicalize_us", median(on_phase.canon));
  result.metric("serve.session.cache_lookup_us", median(on_phase.lookup));
  result.metric("serve.session.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  result.metric("serve.session.cache_entries", stats.number_or("cached_responses", 0.0));
  result.metric("serve.transport_us", transport_us);
  result.metric("serve.requests", static_cast<double>(phase.size()));
  result.metric("serve.bytes_in", static_cast<double>(phase.bytes_in) / static_cast<double>(phase.size()));
  result.metric("serve.bytes_out", static_cast<double>(phase.bytes_out) / static_cast<double>(phase.size()));
  result.metric("serve.compute_ms.sim", median(compute_sim));
  result.metric("serve.compute_ms.sizing", median(compute_sizing));
  result.metric("serve.compute_ms.fleet", median(compute_fleet));
  result.metric("node.simulate_ms", median(simulate_ms));
  result.metric("node.sizing_ms", median(sizing_ms));
  result.metric("mppt.spec_us", median(spec_us));
  result.metric("serve.queue_wait_ms.p50", quantile(queue_ms, 0.50));
  result.metric("serve.queue_wait_ms.p99", quantile(queue_ms, 0.99));
  result.metric("serve.server.coalesced_share",
                requests > 0.0 ? m.counter_value("serve.coalesced") / requests : 0.0);
  result.metric("serve.server.batch_size_mean", batch_mean);
  result.metric("serve.server.overloaded_share",
                requests > 0.0 ? m.counter_value("serve.overloaded") / requests : 0.0);
  result.metric("serve.server.deadline_exceeded", m.counter_value("serve.deadline_exceeded"));
  result.metric("runtime.pool.utilization", busy_ms / (phase.duration_s * 1e3 * kServerJobs));
  result.metric("gen.lateness_p99_ms", quantile(plain.lateness_ms, 0.99));
  result.metric("trace_overhead", mean_finite(phase.latency_ms) / mean_finite(plain.latency_ms));
  result.note("traced phase: " + std::to_string(phase.size()) + " requests at " +
              fmt(tune.nominal_per_s) + " req/s, server counted " + fmt(requests));
  std::uint64_t digest = fnv1a("");
  for (const std::uint32_t k : order) digest = fnv1a(expected.result[k].result_json, digest);
  result.note("digest = " + hex(digest));
}

}  // namespace

void run_serve(const Args& args, bool hot, Result& result, SpanLog& spans) {
  if (args.trace) {
    traced(args, hot, result, spans);
  } else {
    untraced(args, hot, result);
  }
}

}  // namespace perfbench
