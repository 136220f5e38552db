// serve-mix: a daemon in this process (serve_on_socket on a unix socket,
// the engine configured as `zipr-cli serve` builds it, its cache budget
// below the working set) and two closed-loop clients calling
// submit_over_socket with a seeded stream of three request kinds:
//
//   fresh  -- the next pool binary in pool order: the cold path;
//   repeat -- an exact resend of one of the client's recent requests: a
//             cache hit;
//   edit   -- the client's newest fresh binary with one data byte changed:
//             the delta path.
//
// The mix is a rule, not a measurement: one path per kind, so each kind is
// a third of the stream. The cache budget is a third of the working set
// (input plus output bytes of every pool binary). Fresh requests cycle
// through the pool, and LRU with any budget below the working set misses
// every one of them; the fraction only sets how much recent traffic the
// cache holds. A repeat reaches back `recent` requests: as many mean-sized
// entries as the client's share of the budget holds, so repeats reach as
// far back as the cache can on average keep and a few find their artifact
// evicted, as LRU makes them.
//
// The pool is the corpus CBs plus two x1-x4 synthetics of each scale.
// Latency is what the client observes, grouped by the kind the stream
// generated (never by the source the engine reports). The operation whose
// median is op_ms_p50 is a fresh request: the median over the whole mix
// falls in the gap between the sub-0.1 ms hits and edits and the cold
// rewrites, where a few percent of traffic moving across it shifts the
// figure by a quarter. Repeat and edit medians are printed as named
// figures; op_ms_tail and throughput cover the whole mix.
//
// The socket loop serves a fixed number of connections per call, so the
// server runs in epochs of kEpoch requests;
// clients take a ticket per request, and leftover tickets at the end are
// drained with empty connections so every server call returns.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <tuple>

#include "batch/worker_pool.h"
#include "serve/socket.h"
#include "support/rng.h"
#include "workloads.h"
#include "zelf/io.h"

namespace perfbench {

using namespace zipr;

namespace {

constexpr int kClients = 2;
constexpr long kEpoch = 256;
constexpr std::size_t kBudgetFraction = 3;  ///< cache budget = working set / 3
// Client-observed p99: a 20 s run has about 20000 requests, 6700 fresh.
constexpr double kTailPct = 99;

enum Kind : int { kFresh = 0, kRepeat = 1, kEdit = 2, kKinds = 3 };

/// How to rebuild a request's input: a pool binary, optionally with one
/// data byte XORed. Inputs are rebuilt for verification instead of kept.
/// The edited byte is the first at or after `offset` (wrapping) whose
/// aligned 8-byte word points into text neither before nor after the edit:
/// such words are pointer-scan pins, and an edit that moves a pin is a
/// different program rather than a data change (one such edit made the
/// rewrite fail with a pin/sled collision).
struct Recipe {
  std::size_t pool = 0;
  bool edited = false;
  std::size_t offset = 0;  ///< byte offset into the edited segment
  std::uint8_t mask = 0;
  bool operator<(const Recipe& o) const {
    return std::tie(pool, edited, offset, mask) < std::tie(o.pool, o.edited, o.offset, o.mask);
  }
};

struct Sample {
  Kind kind = kFresh;
  Recipe recipe;
  double client_ms = 0;
  double engine_ms = 0;
  std::uint64_t output_digest = 0;
  bool ok = false;
  std::string error;
};

Bytes build_input(const std::vector<Bytes>& pool, const Recipe& r) {
  if (!r.edited) return pool[r.pool];
  auto img = zelf::read_image(pool[r.pool]);
  if (!img.ok()) return {};
  const zelf::Segment& text = img->text();
  auto in_text = [&](std::uint64_t v) { return v >= text.vaddr && v - text.vaddr < text.bytes.size(); };
  // Every data byte of the non-executable segments, in segment order.
  std::vector<std::pair<zelf::Segment*, std::size_t>> bytes;
  for (auto& seg : img->segments)
    if (!seg.executable())
      for (std::size_t off = 0; off < seg.bytes.size(); ++off) bytes.emplace_back(&seg, off);
  for (std::size_t step = 0; step < bytes.size(); ++step) {
    auto [seg, off] = bytes[(r.offset + step) % bytes.size()];
    const std::uint64_t addr = seg->vaddr + off;
    const std::uint64_t word = (addr & ~std::uint64_t{7}) - seg->vaddr;
    if (addr < seg->vaddr + word || word + 8 > seg->bytes.size()) continue;
    std::uint64_t before = 0;
    std::memcpy(&before, seg->bytes.data() + word, 8);
    seg->bytes[off] ^= r.mask;
    std::uint64_t after = 0;
    std::memcpy(&after, seg->bytes.data() + word, 8);
    if (!in_text(before) && !in_text(after)) return zelf::write_image(*img);
    seg->bytes[off] ^= r.mask;
  }
  return {};
}

/// Connect and close at once: the server counts it as one (failed)
/// exchange, which is how leftover epoch tickets are spent.
void empty_connection(const std::string& path) {
  for (int attempt = 0; attempt < 2000; ++attempt) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return;
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), std::min(path.size(), sizeof addr.sun_path - 1));
    const bool connected = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    ::close(fd);
    if (connected) return;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Tickets for the current server epoch.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  long tickets = 0;
  long completed = 0;
  bool stop = false;
};

struct Client {
  std::vector<Sample> samples;
  std::vector<Recipe> recent;        ///< any kind, for repeats
  std::vector<std::size_t> recent_fresh;  ///< pool ids, for edits
};

}  // namespace

void run_serve_mix(const RunConfig& cfg, Report& report) {
  WarnCounter warns;
  std::vector<Subject> subjects;  // the pool, with golden polls
  std::vector<Bytes> pool;
  std::vector<std::pair<std::string, std::uint64_t>> entries;
  const std::vector<cgc::CbSpec>& specs = corpus_specs();
  for (std::size_t i = 0; i < specs.size(); ++i)
    entries.emplace_back(specs[i].name, pick_entry(specs[i].name,
                                                   derive_seed(cfg.seed, 100 + i), {},
                                                   report.skipped));
  for (int scale = 1; scale <= 4; ++scale) {
    std::vector<std::uint64_t> taken;  // the two copies are distinct entries
    for (int copy = 0; copy < 2; ++copy) {
      const std::string kind = synthetic_kind(scale);
      taken.push_back(pick_entry(
          kind, derive_seed(cfg.seed, 40 + 2 * static_cast<std::uint64_t>(scale) + copy), taken,
          report.skipped));
      entries.emplace_back(kind, taken.back());
    }
  }
  const double setup_s = timed_setup([&] {
    subjects.clear();
    for (const auto& [kind, index] : entries) subjects.push_back(pool_subject(kind, index, 2));
  });
  const RewriteOptions options;  // zipr-cli submit's defaults
  std::size_t working_set = 0;
  for (const Subject& s : subjects) {
    pool.push_back(zelf::write_image(s.program.image));
    working_set += 2 * pool.back().size();  // input + output, roughly
  }
  std::vector<bool> editable(pool.size(), false);
  std::vector<std::size_t> editable_pool;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    Recipe probe;
    probe.pool = i;
    probe.edited = true;
    probe.mask = 1;
    editable[i] = !build_input(pool, probe).empty();
    if (editable[i]) editable_pool.push_back(i);
  }
  if (editable_pool.empty()) {
    std::fprintf(stderr, "serve-mix: no pool binary has an editable data byte\n");
    std::exit(2);
  }

  serve::ServeOptions sopts;  // zipr-cli serve's defaults ...
  sopts.cache_bytes = working_set / kBudgetFraction;  // ... with a budget below the working set
  const std::size_t mean_entry = working_set / pool.size();
  const std::size_t recent = std::max<std::size_t>(1, sopts.cache_bytes / (kClients * mean_entry));
  serve::ServeEngine engine(sopts);
  const std::string socket_path = cfg.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";

  Gate gate;
  std::atomic<std::size_t> fresh_cursor{0};
  std::vector<Client> clients(kClients);
  auto client_loop = [&](int c) {
    Rng rng(derive_seed(cfg.seed, 10 + static_cast<std::uint64_t>(c)));
    Client& me = clients[static_cast<std::size_t>(c)];
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(gate.mu);
        gate.cv.wait(lock, [&] { return gate.tickets > 0 || gate.stop; });
        if (gate.stop) return;
        --gate.tickets;
      }
      // Draw the request and build its bytes before the clock starts.
      Kind kind = static_cast<Kind>(rng.next() % kKinds);
      if (me.recent_fresh.empty()) kind = kFresh;
      Recipe recipe;
      if (kind == kFresh) {
        recipe.pool = fresh_cursor.fetch_add(1) % pool.size();
      } else if (kind == kRepeat) {
        recipe = me.recent[rng.next() % me.recent.size()];
      } else {
        // The newest recent fresh binary that has an editable data byte;
        // failing that, any editable pool binary.
        recipe.pool = editable_pool[rng.next() % editable_pool.size()];
        for (std::size_t id : me.recent_fresh)
          if (editable[id]) recipe.pool = id;
        recipe.edited = true;
        recipe.offset = static_cast<std::size_t>(rng.next());
        recipe.mask = static_cast<std::uint8_t>(1 + rng.next() % 255);
      }
      const Bytes input = build_input(pool, recipe);

      Sample s;
      s.kind = kind;
      s.recipe = recipe;
      const Clock::time_point t0 = Clock::now();
      Result<serve::SubmitReply> reply = serve::submit_over_socket(socket_path, input, options);
      // The listener is re-bound between epochs; a connect that lands in
      // that gap is retried (for up to about a second) and its wait stays
      // in the latency.
      for (int retry = 0; retry < 20000 && !reply.ok() &&
                          reply.error().message.rfind("connect ", 0) == 0;
           ++retry) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        reply = serve::submit_over_socket(socket_path, input, options);
      }
      s.client_ms = ms_since(t0);
      s.ok = reply.ok();
      if (reply.ok()) {
        s.engine_ms = reply->wall_ms;
        s.output_digest = digest(reply->output);
      } else {
        s.error = reply.error().message;
      }
      me.samples.push_back(std::move(s));
      me.recent.push_back(recipe);
      if (me.recent.size() > recent) me.recent.erase(me.recent.begin());
      if (kind == kFresh) {
        me.recent_fresh.push_back(recipe.pool);
        if (me.recent_fresh.size() > recent) me.recent_fresh.erase(me.recent_fresh.begin());
      }
      {
        std::lock_guard<std::mutex> lock(gate.mu);
        ++gate.completed;
      }
      gate.cv.notify_all();
    }
  };

  // ---- timed window ----
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
  // Stops the clients after their current request; returns the tickets
  // of the running epoch nobody took.
  auto stop_clients = [&] {
    {
      std::lock_guard<std::mutex> lock(gate.mu);
      gate.stop = true;
    }
    gate.cv.notify_all();
    for (auto& t : threads) t.join();
    threads.clear();
    std::lock_guard<std::mutex> lock(gate.mu);
    return gate.tickets;
  };
  const Clock::time_point window_start = Clock::now();
  const auto deadline = window_start + std::chrono::duration<double>(cfg.seconds);
  while (!threads.empty()) {
    if (Clock::now() >= deadline) {
      stop_clients();
      break;
    }
    Status server_status;
    serve::SocketServerOptions server;
    server.path = socket_path;
    server.max_requests = kEpoch;
    std::thread server_thread([&] { server_status = serve::serve_on_socket(engine, server); });
    bool epoch_done = false;
    {
      std::unique_lock<std::mutex> lock(gate.mu);
      gate.tickets = kEpoch;
      gate.completed = 0;
      gate.cv.notify_all();
      epoch_done = gate.cv.wait_until(lock, deadline, [&] { return gate.completed == kEpoch; });
    }
    if (!epoch_done) {
      const long leftover = stop_clients();
      for (long i = 0; i < leftover; ++i) empty_connection(socket_path);
    }
    server_thread.join();
    if (!server_status.ok()) {
      report.checks.check(false, "server error", server_status.error().message);
      if (!threads.empty()) stop_clients();
    }
  }
  const double window_s = seconds_since(window_start);
  const serve::ServeStats stats = engine.stats();

  // ---- checks, after the clock: every reply against a direct rewrite ----
  std::map<Recipe, std::uint64_t> expected;
  std::vector<Sample> all;
  for (auto& c : clients)
    for (auto& s : c.samples) {
      if (s.ok) expected[s.recipe] = 0;
      all.push_back(std::move(s));
    }
  std::vector<Recipe> recipes;
  for (const auto& [r, d] : expected) recipes.push_back(r);
  std::vector<std::uint64_t> digests(recipes.size(), 0);
  batch::parallel_for(static_cast<int>(cfg.nproc), recipes.size(), [&](std::size_t i) {
    auto out = direct_rewrite(build_input(pool, recipes[i]), options);
    if (out.ok()) digests[i] = digest(*out);
  });
  for (std::size_t i = 0; i < recipes.size(); ++i) expected[recipes[i]] = digests[i];
  std::vector<double> client_ms[3], engine_ms[3], wait_ms, all_ms;
  for (const Sample& s : all) {
    if (!s.ok) {
      report.checks.check(false, "serve error reply", s.error);
      continue;
    }
    report.checks.check(s.output_digest == expected[s.recipe] && s.output_digest != 0,
                        "reply differs from a direct rewrite", subjects[s.recipe.pool].name);
    client_ms[s.kind].push_back(s.client_ms);
    engine_ms[s.kind].push_back(s.engine_ms);
    wait_ms.push_back(s.client_ms - s.engine_ms);
    all_ms.push_back(s.client_ms);
  }
  // Output quality over the pool binaries that were served fresh.
  std::vector<double> file_r, exec_r, mem_r;
  std::vector<bool> served(pool.size(), false);
  for (const auto& r : recipes) served[r.pool] = served[r.pool] || !r.edited;
  std::uint64_t poll_insns = 0;
  const Clock::time_point poll_t0 = Clock::now();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (!served[i]) continue;
    auto out = rewrite(subjects[i].program.image, options);
    if (!out.ok()) continue;  // already counted against the reply
    PollOutcome o = poll_check(subjects[i], out->image);
    report.checks.check(o.functional, "poll divergence", subjects[i].name);
    file_r.push_back(o.file_ratio);
    exec_r.push_back(o.exec_ratio);
    mem_r.push_back(o.mem_ratio);
    poll_insns += o.insns;
  }
  const double poll_s = seconds_since(poll_t0);

  auto& e = report.end_to_end;
  e["setup_s"] = {setup_s, "s"};
  e["op_ms_p50"] = {median(client_ms[kFresh]), "ms"};
  e["op_ms_tail"] = {percentile(all_ms, kTailPct), "ms"};
  e["throughput_per_s"] = {static_cast<double>(all_ms.size()) / window_s, "1/s"};
  add_ratios(report, file_r, exec_r, mem_r);
  auto& n = report.named;
  n["serve_fresh_ms_p50"] = {median(client_ms[kFresh]), "ms"};
  n["serve_fresh_ms_tail"] = {percentile(client_ms[kFresh], kTailPct), "ms"};
  n["serve_repeat_ms_p50"] = {median(client_ms[kRepeat]), "ms"};
  n["serve_edit_ms_p50"] = {median(client_ms[kEdit]), "ms"};
  n["serve_requests_per_s"] = e["throughput_per_s"];
  n["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  char buf[300];
  std::snprintf(buf, sizeof buf,
                "%d closed-loop clients, fresh/repeat/edit in thirds over a pool of %zu, "
                "repeats reach back %zu; %zu/%zu/%zu requests; tails are p%g of %zu and of the "
                "fresh ones; cache %zu of %zu working-set bytes, %llu evictions",
                kClients, pool.size(), recent, client_ms[kFresh].size(),
                client_ms[kRepeat].size(), client_ms[kEdit].size(), kTailPct, all_ms.size(),
                sopts.cache_bytes, working_set,
                static_cast<unsigned long long>(stats.cache.evictions));
  report.notes.push_back(buf);
  std::vector<std::uint64_t> fresh_outputs;
  for (const auto& [r, d] : expected)
    if (!r.edited) fresh_outputs.push_back(d);
  add_output_digest(report, fresh_outputs);

  if (!cfg.trace) return;

  auto& p = report.per_layer;
  p["serve.engine_fresh_ms_p50"] = {median(engine_ms[kFresh]), "ms"};
  p["serve.engine_repeat_ms_p50"] = {median(engine_ms[kRepeat]), "ms"};
  p["serve.engine_edit_ms_p50"] = {median(engine_ms[kEdit]), "ms"};
  p["serve.wait_ms_p50"] = {median(wait_ms), "ms"};
  const double requests = static_cast<double>(std::max<std::uint64_t>(1, stats.requests));
  p["serve.cache_hit_ratio"] = {static_cast<double>(stats.cache_hits) / requests, "ratio"};
  p["serve.delta_hit_ratio"] = {
      client_ms[kEdit].empty() ? 0.0
                               : static_cast<double>(stats.delta_hits) /
                                     static_cast<double>(client_ms[kEdit].size()),
      "ratio"};
  p["serve.evictions"] = {static_cast<double>(stats.cache.evictions), "count"};
  p["vm.poll_insns_per_s"] = {static_cast<double>(poll_insns) / poll_s, "1/s"};

  // The pool's binaries through the traced replay: the cold path's layers.
  Tracer tracer;
  LayerCounts counts;
  std::vector<double> untraced_ms;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    Recipe r;
    r.pool = i;
    auto out = replay_pair(pool[i], options, tracer, i + 1, counts, warns, untraced_ms);
    // Against the served reply's direct rewrite, or a fresh one if the
    // window never served this binary unedited.
    auto it = expected.find(r);
    auto direct = it == expected.end() ? direct_rewrite(pool[i], options) : Result<Bytes>(Bytes{});
    const std::uint64_t want = it != expected.end() ? it->second : direct.ok() ? digest(*direct) : 0;
    report.checks.check(out.ok() && want != 0 && digest(*out) == want, "replay mismatch",
                        subjects[i].name);
  }
  finish_trace(cfg, tracer, counts, untraced_ms, report);
}

}  // namespace perfbench
