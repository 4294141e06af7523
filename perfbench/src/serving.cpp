// serve-mixed: an analytics_engine<graph_csr> with default options and the
// registry's storage tier on, serving eight rmat-16 tenants with Zipf
// popularity.  Open-loop Poisson reads (SSSP through sssp_cold_job /
// sssp_warm_job, BFS through bfs_batch_job, PPR) with bursts of batchable
// BFS, while a scheduled writer publishes small deltas to the most popular
// tenant, whose standing min-plus query absorbs every publish.  The tier's
// resident budget is a quarter of the tenants' bytes, and the registry
// enforces it when something is published, so demote -> spill -> promote
// stays on the request path for the whole run.  A closed loop at the end
// measures the completion rate the engine sustains.
//
// perfbench/README.md gives the source of every share and cadence.
// Threads: the generator (main thread), the scheduled writer and the
// completion collector; set-up loads tenants on up to nproc threads.

#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "client.hpp"

namespace pb {

namespace {

namespace eng = e::engine;
namespace alg = e::algorithms;
namespace res = e::residual;
using graph_csr = e::graph::graph_csr;
using engine_t = eng::analytics_engine<graph_csr>;
using dyn_t = e::graph::dynamic_graph_t<>;
using algebra_t = res::min_plus_algebra<W>;
using standing_t = res::standing_query<graph_csr, algebra_t>;

/// A request that never reached a good terminal state missed every limit.
constexpr double kMissedMs = 1e6;

/// A run whose generator sent its p99 request later than this behind
/// schedule measured the generator, not the engine: it is marked invalid.
constexpr double kLateBoundMs = 25.0;

/// Tenants whose graphs the direct calls run on, the most popular first.
constexpr std::size_t kDirectGraphs = 4;
/// Reads the saturating closed loop keeps outstanding: half the engine's
/// default admission bound (max_queued 64), so it is never refused.
constexpr std::int64_t kSaturationWindow = 32;

enum req_type : int { kSssp = 0, kBfs = 1, kPpr = 2 };
char const* const kTypeNames[] = {"sssp", "bfs", "ppr"};

struct config {
  int scale = 16;
  int num_tenants = 8;
  /// Most reads miss the result cache (eight tenants' keys), so a request
  /// holds one of the engine's two runners for about 14 ms at the median;
  /// the saturating closed loop completes 110-230 reads/s on a shared
  /// 4-vCPU host, so 50 q/s stays well below capacity.
  double nominal_qps = 50.0;
  double write_every_s = 1.0;
  int delta_edges = 24;        ///< undirected edges (48 directed) a publish
  double burst_every_s = 1.0;
  /// A quarter of the engine's default admission bound (max_queued 64), so
  /// a burst never by itself comes near filling the queue.
  int burst_size = 16;
  std::size_t hot_sources = 16;  ///< SSSP's hot pool
  std::size_t num_sources = 4096;
};

/// Zipf(1) over ranks 0..n-1, rank 0 the most popular.
class zipf {
 public:
  explicit zipf(std::size_t n) {
    double acc = 0;
    for (std::size_t r = 0; r < n; ++r)
      cdf_.push_back(acc += 1.0 / static_cast<double>(r + 1));
    for (auto& c : cdf_)
      c /= acc;
  }
  std::size_t operator()(double u) const {
    auto const it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct tenant {
  std::string name;
  coo_t input;                 ///< generated edge list (benchmark input)
  std::unique_ptr<dyn_t> dyn;  ///< the live tenant's mutable graph
  std::vector<V> sources;      ///< giant-component sources, hot pool first
};

struct request {
  clk::time_point due{};
  int type = 0;
  int tenant = 0;
  V src = 0;
  int phase = 0;  ///< 0 nominal, -1 saturation
  bool traced = false;
  // filled by the generator / collector
  eng::job_ptr job;
  std::shared_ptr<void const> kept;  ///< result kept for verification
  clk::time_point sent{}, done{};
  double submit_us = 0;
  bool promoted = false;  ///< tier_promotions rose during submit (--trace 1)
  bool ok = false;
  eng::job_status status = eng::job_status::queued;
  std::uint64_t epoch = 0;
  double queue_ms = 0, run_ms = 0;  ///< the engine's own record
};

/// Everything the three threads share.
struct shared_state {
  std::mutex inbox_mutex;
  std::vector<request*> inbox;
  std::atomic<std::int64_t> outstanding{0};
  std::atomic<bool> stop{false};
  /// Set by the generator when a phase does not drain: the collector (the
  /// only thread that touches in-flight jobs) cancels what it still holds.
  std::atomic<bool> cancel_outstanding{false};
  // verification sampling (collector + generator)
  std::mutex keep_mutex;
  std::vector<request*> keep;
  std::set<std::tuple<int, std::uint64_t, int>> kept_keys;
  pool_occupancy pool;  ///< sampled by the collector (--trace 1)
};

/// Epochs whose snapshots are kept for the serial comparison.
bool verify_epoch(std::uint64_t ep) { return ep % 4 == 1 && ep <= 25; }

bool good(eng::job_status s) {
  return s == eng::job_status::completed || s == eng::job_status::cache_hit;
}

/// Keep at most one result per (tenant, epoch, type) on the verified
/// epochs, for the serial comparison after the run.
bool maybe_keep(shared_state& sh, request* r) {
  if (r->phase != 0 || !verify_epoch(r->epoch))
    return false;
  std::lock_guard<std::mutex> guard(sh.keep_mutex);
  if (!sh.kept_keys.insert({r->tenant, r->epoch, r->type}).second)
    return false;
  sh.keep.push_back(r);
  return true;
}

/// Record a terminal request and release its job handle: a finished job
/// can still hold its graph snapshot, which would keep the registry from
/// demoting it.  Only sampled results are kept, for verification.
void finish(shared_state& sh, request* r, clk::time_point when) {
  r->done = when;
  r->status = r->job->status();
  r->ok = good(r->status);
  r->epoch = r->job->graph_epoch();
  r->queue_ms = r->job->queue_ms();
  r->run_ms = r->job->run_ms();
  if (r->ok && maybe_keep(sh, r))
    r->kept = r->job->result();
  r->job.reset();
}

clk::duration from_ms(double ms) {
  return std::chrono::duration_cast<clk::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

class server {
 public:
  server(options const& opt, config const& cfg, result& out)
      : opt_(opt), cfg_(cfg), out_(out), tr_(opt.trace),
        rng_(opt.seed * 0x9e3779b97f4a7c15ull + 17),
        tenant_pop_(static_cast<std::size_t>(cfg.num_tenants)) {}

  void run();

 private:
  using request_list = std::vector<std::unique_ptr<request>>;
  struct phase_stats {
    samples lat, late;
    std::uint64_t sent = 0, failed = 0;
  };

  void make_inputs();
  void setup_once(samples& sort_s, samples& csr_s);
  eng::job_ptr submit(request const& r);
  std::unique_ptr<request> draw(clk::time_point due, int phase, int type);
  clk::time_point next_start() const;
  request_list schedule(clk::time_point t0, double rate, double seconds);
  void send(request& r, phase_stats& ps, clk::time_point& free_at);
  void drain();
  phase_stats run_phase(request_list& reqs);
  double saturate(clk::time_point t0, double seconds);
  void writer_loop();
  void collector_loop();
  void verify();
  void emit_layers(phase_stats const& nom, eng::engine_stats_snapshot const& s0,
                   eng::engine_stats_snapshot const& s1, client_stats const& cs,
                   double bytes, double edges);

  options const& opt_;
  config const cfg_;
  result& out_;
  tracer tr_;
  std::mt19937_64 rng_;
  std::vector<tenant> tenants_;
  std::vector<int> by_rank_;  ///< tenant index by popularity rank
  zipf tenant_pop_;
  int live_ = 0;  ///< the most popular tenant: publishes, standing query
  std::string spill_;
  std::uint64_t tier_budget_ = 0;
  std::unique_ptr<engine_t> engine_;
  std::shared_ptr<standing_t> standing_;
  shared_state sh_;
  clk::time_point open_t0_{};  ///< origin of the writer's schedule

  // writer results
  samples publish_ms_, lag_ms_, write_late_ms_;
  std::mutex pins_mutex_;
  std::map<std::pair<int, std::uint64_t>, eng::pinned_graph<graph_csr>> pins_;
  request_list all_;  ///< every request of the run
};

void server::make_inputs() {
  tenants_.resize(static_cast<std::size_t>(cfg_.num_tenants));
  double bytes = 0;
  for (int i = 0; i < cfg_.num_tenants; ++i) {
    auto& t = tenants_[static_cast<std::size_t>(i)];
    t.name = "tenant-" + std::to_string(i);
    t.input = rmat_input(cfg_.scale,
                         opt_.seed * 1000 + static_cast<std::uint64_t>(i));
    bytes += static_cast<double>(t.input.num_rows + 1) * sizeof(e::edge_t) +
             static_cast<double>(t.input.row_indices.size()) *
                 (sizeof(V) + sizeof(W));
  }
  // Popularity: a seeded permutation of the tenants, Zipf(1) over ranks.
  by_rank_.resize(tenants_.size());
  std::iota(by_rank_.begin(), by_rank_.end(), 0);
  std::shuffle(by_rank_.begin(), by_rank_.end(), rng_);
  live_ = by_rank_.front();
  // A quarter of the tenants' CSR bytes, counted before deduplication.
  tier_budget_ = static_cast<std::uint64_t>(bytes / 4.0);
}

/// Graph build -> engine -> every tenant published -> the standing query
/// converged.  The live tenant is ingested into a dynamic
/// graph; the others are built as CSR and published as they are, on up to
/// nproc threads (the registry is thread-safe), as a server restoring its
/// tenants would.
void server::setup_once(samples& sort_s, samples& csr_s) {
  standing_.reset();
  engine_.reset();
  pins_.clear();
  for (auto& t : tenants_)
    t.dyn.reset();
  if (!spill_.empty())
    std::filesystem::remove_all(spill_);
  eng::engine_options eo;
  spill_ = opt_.scratch + "/spill";
  eo.tier_spill_dir = spill_;
  eo.tier_budget_bytes = tier_budget_;
  std::uint64_t const req = tr_.next_id();
  auto const t0 = clk::now();
  engine_ = std::make_unique<engine_t>(eo);
  std::mutex mutex;  // guards the samples, pins_ and `error`
  std::exception_ptr error;
  std::atomic<std::size_t> next{0};
  auto load = [&] {
    try {
      for (std::size_t i; (i = next.fetch_add(1)) < tenants_.size();) {
        auto& t = tenants_[i];
        auto const& c = t.input;
        if (static_cast<int>(i) == live_) {
          t.dyn = std::make_unique<dyn_t>(c.num_rows);
          for (std::size_t k = 0; k < c.row_indices.size(); ++k)
            t.dyn->add_edge(c.row_indices[k], c.column_indices[k],
                            c.values[k]);
          auto pin = engine_->registry().publish(t.name, *t.dyn);
          std::lock_guard<std::mutex> guard(mutex);
          pins_[{live_, pin.epoch}] = std::move(pin);
        } else {
          coo_t coo = c;
          auto const a = clk::now();
          e::graph::sort_and_deduplicate(coo);
          auto const b = clk::now();
          graph_csr g;
          g.set_csr(e::graph::build_csr(coo));
          auto const d = clk::now();
          engine_->registry().publish(t.name, std::move(g));
          std::lock_guard<std::mutex> guard(mutex);
          sort_s.add(ms_since(a, b) / 1000.0);
          csr_s.add(ms_since(b, d) / 1000.0);
        }
      }
    } catch (...) {
      std::lock_guard<std::mutex> guard(mutex);
      error = std::current_exception();
    }
  };
  std::vector<std::thread> loaders;
  std::size_t const threads = std::min<std::size_t>(
      tenants_.size(), std::max(1u, std::thread::hardware_concurrency()));
  for (std::size_t k = 1; k < threads; ++k)
    loaders.emplace_back(load);
  load();
  for (auto& th : loaders)
    th.join();
  if (error)
    std::rethrow_exception(error);
  auto const t1 = clk::now();
  tenant const& live = tenants_[static_cast<std::size_t>(live_)];
  V const s0 = live.sources.front();
  standing_ = engine_->submit_standing(
      live.name, algebra_t{},
      [s0](auto& st, auto const&) { res::seed_source(st, s0); });
  if (!standing_)
    throw std::runtime_error("submit_standing returned null");
  auto const t2 = clk::now();
  tr_.record("request", "setup", req, 0, t0, t2, req);
  tr_.record("graph", "ingest_publish", req, req, t0, t1);
  tr_.record("residual", "standing_initial", req, req, t1, t2);
}

eng::job_ptr server::submit(request const& r) {
  eng::job_desc d;
  d.graph = tenants_[static_cast<std::size_t>(r.tenant)].name;
  d.algorithm = kTypeNames[r.type];
  d.params = "src=" + std::to_string(r.src);
  d.record_trace = r.traced;
  auto& en = *engine_;
  V const src = r.src;
  switch (r.type) {
    case kSssp:
      return en.submit(d, eng::sssp_cold_job<graph_csr>(e::execution::par, src),
                       eng::sssp_warm_job<graph_csr>(e::execution::par, src));
    case kBfs:
      return en.submit_batch(
          d, eng::bfs_batch_job<graph_csr>(e::execution::par, src));
    default:
      // The engine has no PPR job; this is the repository's serving
      // example's PPR request (examples/analytics_server.cpp).
      return en.submit(d, [src](graph_csr const& g, eng::job_context&)
                              -> std::shared_ptr<void const> {
        return std::make_shared<alg::ppr_result const>(
            alg::personalized_pagerank(g, src));
      });
  }
}

/// One read drawn from the seeded generator: the tenant by Zipf rank; SSSP
/// sources from the hot pool, BFS and PPR sources from all of the tenant's
/// sources.  type < 0 draws the type too, in equal thirds.
std::unique_ptr<request> server::draw(clk::time_point due, int phase,
                                      int type) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  auto r = std::make_unique<request>();
  r->due = due;
  r->phase = phase;
  r->tenant = by_rank_[tenant_pop_(u(rng_))];
  r->type = type >= 0 ? type : std::min(2, static_cast<int>(u(rng_) * 3.0));
  auto const& srcs = tenants_[static_cast<std::size_t>(r->tenant)].sources;
  std::size_t const span =
      r->type == kSssp ? std::min(cfg_.hot_sources, srcs.size()) : srcs.size();
  r->src = srcs[std::min(static_cast<std::size_t>(
                             u(rng_) * static_cast<double>(span)),
                         span - 1)];
  return r;
}

/// Phases start half a write period after a publish is due, so a phase of
/// whole periods overlaps the same number of publishes at the same offsets.
clk::time_point server::next_start() const {
  double const period_ms = cfg_.write_every_s * 1000.0;
  double const now_ms =
      ms_since(open_t0_) + 5.0;  // leave the generator a moment
  double const k = std::ceil(now_ms / period_ms - 0.5);
  return open_t0_ + from_ms((k + 0.5) * period_ms);
}

/// Nominal-phase reads at `rate` per second in all for `seconds` from
/// `t0`: a burst of batchable BFS requests every `burst_every_s`, a
/// quarter period after a publish, and Poisson arrivals for the rest; the
/// bursts count towards the BFS third, so the whole traffic keeps equal
/// thirds.
server::request_list server::schedule(clk::time_point t0, double rate,
                                      double seconds) {
  request_list reqs;
  double const burst_rate =
      static_cast<double>(cfg_.burst_size) / cfg_.burst_every_s;
  double const poisson_rate = rate - burst_rate;
  double const bfs_share = (rate / 3.0 - burst_rate) / poisson_rate;
  std::exponential_distribution<double> gap(poisson_rate);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  auto at = [t0](double s) { return t0 + from_ms(s * 1000.0); };
  double next_burst = cfg_.write_every_s * 0.75;
  for (double t = gap(rng_); t < seconds; t += gap(rng_)) {
    while (next_burst <= t) {
      for (int k = 0; k < cfg_.burst_size; ++k)
        reqs.push_back(draw(at(next_burst), 0, kBfs));
      next_burst += cfg_.burst_every_s;
    }
    double const x = u(rng_);
    int const type = x < bfs_share               ? kBfs
                     : x < (1.0 + bfs_share) / 2 ? kSssp
                                                 : kPpr;
    reqs.push_back(draw(at(t), 0, type));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i)
    reqs[i]->traced = opt_.trace && i % 2 == 0;
  return reqs;
}

/// Submit one request now and hand it to the collector.  The generator's
/// lateness counts from when it was free to send: time it spent blocked in
/// the previous submit (a tier promotion) is the engine's latency, not the
/// generator falling behind.
void server::send(request& r, phase_stats& ps, clk::time_point& free_at) {
  std::uint64_t promos = 0;
  if (opt_.trace)
    promos = engine_->stats().tier_promotions;
  r.sent = clk::now();
  r.job = submit(r);
  auto const after = clk::now();
  r.submit_us = ms_since(r.sent, after) * 1000.0;
  if (opt_.trace)
    r.promoted = engine_->stats().tier_promotions > promos;
  ps.late.add(ms_since(std::max(r.due, free_at), r.sent));
  free_at = after;
  ++ps.sent;
  if (r.job->done()) {
    finish(sh_, &r, after);  // cache hit or refusal: terminal at submit
  } else {
    sh_.outstanding.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> guard(sh_.inbox_mutex);
    sh_.inbox.push_back(&r);
  }
}

/// Wait for every sent request to retire; cancel what is left after 10 s.
void server::drain() {
  auto const give_up = clk::now() + std::chrono::seconds(10);
  while (sh_.outstanding.load() > 0 && clk::now() < give_up)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  if (sh_.outstanding.load() > 0) {
    sh_.cancel_outstanding.store(true);
    while (sh_.outstanding.load() > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    sh_.cancel_outstanding.store(false);
  }
}

/// Send a schedule on time, then wait for every request to retire.
server::phase_stats server::run_phase(request_list& reqs) {
  phase_stats ps;
  clk::time_point free_at{};
  for (auto& rp : reqs) {
    std::this_thread::sleep_until(rp->due);
    send(*rp, ps, free_at);
  }
  drain();
  for (auto& rp : reqs) {
    request const& r = *rp;
    ps.lat.add(r.ok ? ms_since(r.due, r.done) : kMissedMs);
    if (!r.ok)
      ++ps.failed;
    if (opt_.trace) {
      // The request (due -> observed terminal) and, inside it, the submit
      // call and the engine's own queue/run record placed after it.
      std::uint64_t const id = tr_.next_id();
      tr_.record("request", kTypeNames[r.type], id, 0, r.due,
                 r.ok ? r.done : clk::now(), id);
      auto const sub_end = r.sent + from_ms(r.submit_us / 1000.0);
      tr_.record(r.promoted ? "tier" : "engine_submit", "submit", id, id,
                 r.sent, sub_end);
      if (r.status == eng::job_status::completed) {
        auto const q_end = sub_end + from_ms(r.queue_ms);
        tr_.record("engine_queue", "queue", id, id, sub_end, q_end);
        tr_.record("engine_run", kTypeNames[r.type], id, id, q_end,
                   q_end + from_ms(r.run_ms));
      }
    }
  }
  return ps;
}

/// Closed loop: keep kSaturationWindow reads outstanding for `seconds`
/// from `t0`; returns the rate at which they completed.
double server::saturate(clk::time_point t0, double seconds) {
  request_list reqs;
  phase_stats ps;
  clk::time_point free_at{};
  std::this_thread::sleep_until(t0);
  auto const end = t0 + from_ms(seconds * 1000.0);
  while (clk::now() < end) {
    if (sh_.outstanding.load() >= kSaturationWindow) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    reqs.push_back(draw(clk::now(), -1, -1));
    send(*reqs.back(), ps, free_at);
  }
  drain();
  double completed = 0;
  for (auto const& r : reqs)
    completed += r->ok && r->done <= end ? 1.0 : 0.0;
  for (auto& r : reqs)
    all_.push_back(std::move(r));
  return completed / seconds;
}

void server::collector_loop() {
  std::vector<request*> outstanding;
  while (!sh_.stop.load(std::memory_order_relaxed) || !outstanding.empty() ||
         sh_.outstanding.load() > 0) {
    {
      std::lock_guard<std::mutex> guard(sh_.inbox_mutex);
      outstanding.insert(outstanding.end(), sh_.inbox.begin(),
                         sh_.inbox.end());
      sh_.inbox.clear();
    }
    auto const now = clk::now();
    bool const cancel = sh_.cancel_outstanding.load();
    std::size_t kept = 0;
    for (request* r : outstanding) {
      if (cancel)
        r->job->cancel();
      if (r->job->done()) {
        finish(sh_, r, now);
        // Release: the generator reads r's fields once it sees 0.
        sh_.outstanding.fetch_sub(1, std::memory_order_release);
      } else {
        outstanding[kept++] = r;
      }
    }
    outstanding.resize(kept);
    if (opt_.trace)
      sh_.pool.sample();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// Scheduled small-delta publishes to the live tenant every
/// `write_every_s` until stopped; after each, wait for the standing query
/// to absorb the epoch.
void server::writer_loop() {
  std::mt19937_64 rng(opt_.seed * 31 + 7);
  tenant& t = tenants_[static_cast<std::size_t>(live_)];
  std::uniform_int_distribution<V> pick(0, t.dyn->num_vertices() - 1);
  for (int k = 1;; ++k) {
    auto const due = open_t0_ + from_ms(k * cfg_.write_every_s * 1000.0);
    // Sleep in short slices so a stop request ends the writer promptly.
    while (clk::now() < due && !sh_.stop.load(std::memory_order_relaxed))
      std::this_thread::sleep_until(
          std::min(due, clk::now() + std::chrono::milliseconds(20)));
    if (sh_.stop.load(std::memory_order_relaxed))
      return;
    write_late_ms_.add(ms_since(due));
    for (int d = 0; d < cfg_.delta_edges; ++d) {
      V const a = pick(rng), b = pick(rng);
      if (a == b)
        continue;
      // Weight 1 is the floor of the weight range, so an existing edge is
      // never worsened: every publish is an insert-only delta.
      t.dyn->add_edge(a, b, 1.0f);
      t.dyn->add_edge(b, a, 1.0f);
    }
    std::uint64_t const req = tr_.next_id();
    auto const ta = clk::now();
    auto pin = engine_->registry().publish(t.name, *t.dyn);
    auto const tb = clk::now();
    standing_->wait_processed(pin.epoch);
    auto const tc = clk::now();
    publish_ms_.add(ms_since(ta, tb));
    lag_ms_.add(ms_since(tb, tc));
    tr_.record("request", "write", req, 0, ta, tc, req);
    tr_.record("registry", "publish", req, req, ta, tb);
    tr_.record("residual", "absorb", req, req, tb, tc);
    if (verify_epoch(pin.epoch)) {
      std::lock_guard<std::mutex> guard(pins_mutex_);
      pins_[{live_, pin.epoch}] = std::move(pin);
    }
  }
}

/// Compare kept results with serial runs on the epoch they pinned: the
/// live tenant's pins from publish, the static tenants' only epoch from a
/// lookup after the run (holding pins during it would block demotion).
void server::verify() {
  bool corrupted = !opt_.corrupt;
  for (request* r : sh_.keep) {
    auto it = pins_.find({r->tenant, r->epoch});
    if (it == pins_.end() && r->tenant != live_) {
      auto pin = engine_->registry().lookup(
          tenants_[static_cast<std::size_t>(r->tenant)].name);
      if (pin.epoch == r->epoch)
        it = pins_.emplace(std::make_pair(r->tenant, pin.epoch),
                           std::move(pin)).first;
    }
    if (it == pins_.end()) {
      out_.fail(std::string("no pinned snapshot for a kept ") +
                kTypeNames[r->type] + " result");
      continue;
    }
    graph_csr const& g = *it->second.graph;
    auto const& res = r->kept;
    bool ok = res != nullptr;
    bool const corrupt = !corrupted;  // self-check: corrupt the first one
    corrupted = true;
    if (ok) {
      switch (r->type) {
        case kSssp: {
          auto d = static_cast<alg::sssp_result<W> const*>(res.get())->distances;
          if (corrupt) d[static_cast<std::size_t>(r->src)] += 1.0f;
          ok = d == alg::dijkstra(g, r->src).distances;
          break;
        }
        case kBfs: {
          auto d = static_cast<eng::bfs_lanes_result<V> const*>(res.get())->depths;
          if (corrupt) d[static_cast<std::size_t>(r->src)] += 1;
          ok = d == alg::bfs_serial(g, r->src).depths;
          break;
        }
        default: {
          auto x = static_cast<alg::ppr_result const*>(res.get())->estimate;
          if (corrupt) x[0] += 1e-3;
          ok = x == alg::personalized_pagerank(g, r->src).estimate;
          break;
        }
      }
    }
    if (!ok)
      out_.fail(std::string(kTypeNames[r->type]) + " request on " +
                tenants_[static_cast<std::size_t>(r->tenant)].name +
                " epoch " + std::to_string(r->epoch) +
                " differs from the serial run");
  }
  out_.note("verified_requests", static_cast<double>(sh_.keep.size()));
}

void server::run() {
  make_inputs();
  // Phase lengths: the open-loop and saturation phases are whole write
  // periods, so a phase of a given length overlaps the same number of
  // publishes at the same offsets.
  double const s = opt_.seconds;
  double const direct_s = std::max(1.0, 0.25 * s);
  double const sat_s = std::max(1.0, std::round(0.2 * s));
  double const nominal_s = std::max(1.0, std::floor(s - direct_s - sat_s));

  // Direct calls on CSR+CSC builds of the most popular tenants' edge
  // lists: the four per-algorithm metrics, measured as in rmat-analytics
  // and pooled over kDirectGraphs graphs, so that one seed's graph does not
  // decide them; half before set-up starts the engine and half after the
  // open-loop phases have stopped it, so that a slow spell of the host at
  // either end does not either.  Their components give those tenants'
  // query sources too.
  struct direct_graph {
    graph_pp g;
    components comps;
    std::vector<V> sources;  ///< the closed loop's: the tenant's first 64
  };
  std::vector<direct_graph> direct;
  for (std::size_t k = 0; k < std::min(kDirectGraphs, tenants_.size()); ++k) {
    tenant& t = tenants_[static_cast<std::size_t>(by_rank_[k])];
    direct_graph d{e::graph::from_coo<graph_pp>(t.input), {}, {}};
    d.comps = components_of(d.g.csr());
    t.sources = giant_component_sources(d.comps, cfg_.num_sources, opt_.seed);
    d.sources.assign(t.sources.begin(), t.sources.begin() + 64);
    direct.push_back(std::move(d));
  }
  double const serving_bytes = csr_bytes(direct.front().g.csr());
  double const serving_edges =
      static_cast<double>(direct.front().g.csr().column_indices.size());
  client_stats cs;
  auto const direct_calls = [&] {
    for (auto const& d : direct)
      closed_loop(d.g, d.comps.labels, d.sources,
                  direct_s / 2 / static_cast<double>(direct.size()), opt_,
                  tr_, cs, out_);
  };
  direct_calls();

  samples setup_s, setup_wall_s, sort_s, csr_s;
  for (int rep = 0; rep < 3; ++rep) {
    double const cpu0 = process_cpu_ms();
    auto const t0 = clk::now();
    setup_once(sort_s, csr_s);
    setup_wall_s.add(ms_since(t0) / 1000.0);
    setup_s.add((process_cpu_ms() - cpu0) / 1000.0);
  }
  // The other tenants' sources, from the graphs set-up published.
  for (auto& t : tenants_) {
    t.input = coo_t{};
    if (t.sources.empty())
      t.sources = giant_component_sources(
          components_of(engine_->registry().lookup(t.name).graph->csr()),
          cfg_.num_sources, opt_.seed);
  }

  std::thread collector([this] { collector_loop(); });
  open_t0_ = clk::now();
  std::thread writer([this] { writer_loop(); });
  struct stop_and_join {  // on every path out of this scope
    shared_state& sh;
    std::thread& a;
    std::thread& b;
    ~stop_and_join() {
      sh.stop.store(true);
      a.join();
      b.join();
    }
  };
  std::optional<stop_and_join> joiner(std::in_place, sh_, writer, collector);

  auto const stats_open = engine_->stats();
  auto nominal = schedule(next_start(), cfg_.nominal_qps, nominal_s);
  double const cpu0 = process_cpu_ms();
  phase_stats const nom = run_phase(nominal);
  double const nominal_cpu_ms = process_cpu_ms() - cpu0;
  auto const stats_nominal = engine_->stats();
  // Capacity: the rate at which a closed loop keeping kSaturationWindow
  // reads outstanding completes them.  The window is half the admission
  // bound, so no read is refused and the backlog cannot grow.
  double const sustained = saturate(next_start(), sat_s);
  joiner.reset();
  direct_calls();

  // Nominal-phase accounting: the saturation phase's requests do not
  // count.  A refused or expired request is a failed operation, not a
  // wrong answer: it counts in `failed` and leaves `correct` to the output
  // checks.
  out_.attempted += nom.sent;
  out_.failed += nom.failed;
  double const late_p99 = nom.late.pct(99.0);
  bool const valid = late_p99 <= kLateBoundMs;
  if (!valid)
    std::fprintf(stderr,
                 "perfbench: run invalid: the generator fell %.1f ms behind "
                 "its schedule at p99\n",
                 late_p99);
  out_.note("valid", valid ? "true" : "false");
  for (auto& r : nominal)
    all_.push_back(std::move(r));
  verify();

  out_.e2e("setup_s", setup_s.median(), "s");
  out_.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  emit_algorithm_metrics(cs, out_);
  // Reads and the scheduled writes together, per completed read.
  double const done = static_cast<double>(nom.sent - nom.failed);
  out_.e2e("request_cpu_ms", done > 0 ? nominal_cpu_ms / done : 0.0, "ms");
  out_.wall("setup_wall_s", setup_wall_s.median(), "s");
  out_.wall("latency_p50_ms", nom.lat.median(), "ms");
  out_.wall("latency_p99_ms", nom.lat.pct(99.0), "ms");
  out_.wall("sustained_qps", sustained, "1/s");

  out_.note_samples("latency_ms", nom.lat);
  {
    std::map<std::string, samples> by_type;
    for (auto const& r : all_)
      if (r->phase == 0)
        by_type[kTypeNames[r->type]].add(
            r->ok ? ms_since(r->due, r->done) : kMissedMs);
    for (auto const& [type, lat] : by_type)
      out_.note_samples("latency_ms." + type, lat);
  }
  out_.note_samples("setup_s", setup_s);
  out_.note_samples("publish_ms", publish_ms_);
  out_.note_samples("writer_late_ms", write_late_ms_);
  out_.note_samples("standing_lag_ms", lag_ms_);
  out_.note("graph", "{\"tenants\":" + std::to_string(cfg_.num_tenants) +
                         ",\"vertices\":" + std::to_string(1 << cfg_.scale) +
                         ",\"edges\":" + result::num(serving_edges) +
                         ",\"csr_mb\":" +
                         result::num(serving_bytes / 1048576.0) +
                         ",\"tier_budget_mb\":" +
                         result::num(static_cast<double>(tier_budget_) /
                                     1048576.0) + "}");

  if (opt_.trace) {
    out_.layer("graph.sort_dedup_s", sort_s.median(), "s");
    out_.layer("graph.build_csr_s", csr_s.median(), "s");
    out_.layer("gen.late_ms_p99", late_p99, "ms");
    emit_layers(nom, stats_open, stats_nominal, cs, serving_bytes,
                serving_edges);
  }

  standing_.reset();
  engine_.reset();
  pins_.clear();
  std::filesystem::remove_all(spill_);
}

/// The per-layer metrics of the nominal phase (--trace 1).
void server::emit_layers(phase_stats const& nom, eng::engine_stats_snapshot const& s0,
                         eng::engine_stats_snapshot const& s1, client_stats const& cs,
                         double bytes, double edges) {
  samples submit_us, queue_ms, run_ms, promote_ms;
  std::map<std::string, samples> traced_lat, untraced_lat;
  for (auto const& rp : all_) {
    request const& r = *rp;
    if (r.phase != 0)
      continue;
    submit_us.add(r.submit_us);
    if (r.promoted)
      promote_ms.add(r.submit_us / 1000.0);
    if (r.status == eng::job_status::completed) {
      queue_ms.add(r.queue_ms);
      run_ms.add(r.run_ms);
    }
    if (r.ok)
      (r.traced ? traced_lat : untraced_lat)[kTypeNames[r.type]].add(
          ms_since(r.due, r.done));
  }
  auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  out_.layer("graph.bytes_per_edge", edges > 0 ? bytes / edges : 0.0,
             "B/edge");
  emit_shared_layer_metrics(cs, edges, sh_.pool, tr_, opt_, out_);
  out_.layer("engine.submit_us_p50", submit_us.median(), "us");
  out_.layer("engine.queue_ms_p50", queue_ms.median(), "ms");
  out_.layer("engine.queue_ms_p99", queue_ms.pct(99.0), "ms");
  out_.layer("engine.run_ms_p50", run_ms.median(), "ms");
  out_.layer("engine.rejected", delta(s0.rejected, s1.rejected), "count");
  out_.layer("engine.deadline_expired",
             delta(s0.deadline_expired, s1.deadline_expired), "count");
  double const hits = delta(s0.cache_hits, s1.cache_hits);
  double const lookups = hits + delta(s0.cache_misses, s1.cache_misses);
  double const enacted = delta(s0.jobs_enacted, s1.jobs_enacted);
  double const batches = delta(s0.batches, s1.batches);
  out_.layer("engine.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
             "share");
  out_.layer("engine.warm_ratio",
             enacted > 0 ? delta(s0.warm_start_hits, s1.warm_start_hits) /
                               enacted
                         : 0.0,
             "share");
  out_.layer("engine.delta_fallbacks",
             delta(s0.delta_fallbacks, s1.delta_fallbacks), "count");
  out_.layer("engine.batch_avg_size",
             batches > 0 ? delta(s0.batched_jobs, s1.batched_jobs) / batches
                         : 0.0,
             "count");
  out_.layer("engine.edge_passes_saved",
             delta(s0.edge_passes_saved, s1.edge_passes_saved), "count");
  out_.layer("engine.enacted_per_request",
             nom.sent ? enacted / static_cast<double>(nom.sent) : 0.0,
             "ratio");
  out_.layer("registry.publish_ms_p50", publish_ms_.median(), "ms");
  {
    double const cold = delta(s0.residual_edges_cold_estimate,
                              s1.residual_edges_cold_estimate);
    double const touched =
        delta(s0.residual_edges_touched, s1.residual_edges_touched);
    out_.layer("residual.pass_ratio", cold > 0 ? touched / cold : 0.0,
               "ratio");
    out_.layer("residual.fallbacks",
               delta(s0.residual_fallbacks, s1.residual_fallbacks), "count");
    out_.layer("residual.edges_touched", touched, "count");
    out_.layer("residual.lag_ms_p50", lag_ms_.median(), "ms");
  }
  out_.layer("tier.promote_submit_ms_p50", promote_ms.median(), "ms");
  out_.layer("tier.promotions", delta(s0.tier_promotions, s1.tier_promotions),
             "count");
  out_.layer("tier.demotions", delta(s0.tier_demotions, s1.tier_demotions),
             "count");
  out_.layer("tier.resident_mb",
             static_cast<double>(s1.tier_resident_bytes) / 1048576.0, "MB");
  out_.layer("tier.spilled_mb",
             static_cast<double>(s1.tier_spilled_bytes) / 1048576.0, "MB");
  out_.layer("trace.overhead_pct", overhead_pct(traced_lat, untraced_lat),
             "%");
}

}  // namespace

void run_serving(options const& opt, result& out) {
  config cfg;
  if (opt.tiny) {
    cfg.scale = 9;
    cfg.hot_sources = 4;
    cfg.num_sources = 64;
  }
  server(opt, cfg, out).run();
}

}  // namespace pb
