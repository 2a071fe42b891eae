// serve-mix: `xoridx_cli serve --max-inflight 2 --threads 2` with its
// default memo and profile-cache budget, driven over TCP by two
// connections of this one process in a closed loop (each connection
// sends its next command only after the previous reply completes), as
// the daemon's callers — DSE tools waiting on each reply — do.
//
// The run is a series of rounds, each on a freshly started daemon. Every
// round sends the same multiset of commands over small-scale Table-2
// explores; the seed sets their order, their split across the two
// connections and which requests are repeated:
//   - cold:    (kernel, cache) with base,perm:2 — builds a new profile;
//   - overlap: the same (kernel, cache) with perm — hits the profile
//              cache, misses the memo;
//   - repeat:  an exact repeat of one of the connection's own earlier
//              requests — a memo replay;
//   - metrics: the OpenMetrics command, interleaved.
// The first round is a warm-up: counted in success_pct, excluded from
// the timing figures.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "workloads/workload.hpp"
#include "xoridx/api.hpp"
#include "xoridx/serve.hpp"

namespace perfbench {
namespace {

using namespace xoridx;

constexpr std::uint32_t caches[] = {1024, 4096, 16384};
constexpr int connections = 2;
constexpr int repeats_per_connection = 10;
constexpr int metrics_per_connection = 2;
constexpr double reply_timeout_s = 60;
// 3 measured rounds x 80 explores keep at least 10 latencies beyond p95.
constexpr std::size_t min_measured_rounds = 3;

// ------------------------------------------------------------- daemon

/// One `xoridx_cli serve` process on an ephemeral loopback port. It dies
/// with the harness (PR_SET_PDEATHSIG) and is stopped with SIGTERM.
class Daemon {
 public:
  Daemon(const std::string& cli, const std::string& log_path) {
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                             0644);
      if (log >= 0) ::dup2(log, STDERR_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      const char* argv[] = {cli.c_str(),  "serve",          "--listen",
                            "127.0.0.1:0", "--max-inflight", "2",
                            "--threads",   "2",              nullptr};
      ::execv(cli.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(out[1]);
    out_ = out[0];
    // "listening on 127.0.0.1:PORT"
    std::string line;
    const double deadline = now_s() + 30;
    while (line.find('\n') == std::string::npos && now_s() < deadline) {
      pollfd p{out_, POLLIN, 0};
      if (::poll(&p, 1, 1000) <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(out_, buf, sizeof buf);
      if (n <= 0) break;
      line.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t colon = line.rfind(':');
    if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
      stop();
      throw std::runtime_error("daemon did not start: " + line);
    }
    port_ = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int pid() const { return pid_; }

  /// utime + stime of the daemon so far, in seconds.
  [[nodiscard]] double cpu_s() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)), {});
    std::istringstream fields(stat.substr(stat.rfind(')') + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i)
      if (i == 14 || i == 15) ticks += std::stod(field);
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// SIGTERM, then SIGKILL if it has not exited within 10 s; reaps it.
  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      const double deadline = now_s() + 10;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (now_s() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        ::usleep(1000);
      }
      pid_ = -1;
    }
    if (out_ >= 0) ::close(out_);
    out_ = -1;
  }

 private:
  int pid_ = -1;
  int out_ = -1;
  std::uint16_t port_ = 0;
};

/// A blocking NDJSON client connection — a plain client with default
/// socket options, as a DSE tool would open.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    timeval tv{static_cast<time_t>(reply_timeout_s), 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to the daemon");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// --------------------------------------------------------------- plan

struct Command {
  enum class Kind { cold, overlap, repeat, metrics } kind = Kind::cold;
  std::size_t kernel = 0;
  std::uint32_t cache = 0;
  bool perm_only = false;  ///< strategies ["perm"] instead of base,perm:2
};

std::string explore_line(const Command& c, const std::string& id,
                         const std::vector<std::string>& kernels) {
  return "{\"cmd\":\"explore\",\"id\":\"" + id +
         "\",\"traces\":[{\"workload\":\"" + kernels[c.kernel] +
         "\",\"scale\":\"small\"}],\"caches\":[" + std::to_string(c.cache) +
         "],\"strategies\":" +
         (c.perm_only ? "[\"perm\"]" : "[\"base\",\"perm:2\"]") + "}";
}

/// The per-connection command sequences of one round.
std::vector<std::vector<Command>> plan_round(std::mt19937_64& rng,
                                             std::size_t kernels) {
  const auto uniform = [&rng](std::size_t lo, std::size_t hi) {  // [lo, hi]
    return lo + static_cast<std::size_t>(rng() % (hi - lo + 1));
  };
  std::vector<std::pair<std::size_t, std::uint32_t>> pairs;
  for (std::size_t k = 0; k < kernels; ++k)
    for (const std::uint32_t c : caches) pairs.emplace_back(k, c);
  std::shuffle(pairs.begin(), pairs.end(), rng);

  std::vector<std::vector<Command>> plan(connections);
  for (int conn = 0; conn < connections; ++conn) {
    std::vector<Command>& seq = plan[conn];
    const std::size_t share = pairs.size() / connections;
    for (std::size_t i = conn * share; i < (conn + 1) * share; ++i)
      seq.push_back({Command::Kind::cold, pairs[i].first, pairs[i].second,
                     false});
    // Each overlap goes somewhere after its cold request.
    for (std::size_t i = conn * share; i < (conn + 1) * share; ++i) {
      const auto cold = std::find_if(seq.begin(), seq.end(), [&](auto& c) {
        return c.kind == Command::Kind::cold && c.kernel == pairs[i].first &&
               c.cache == pairs[i].second;
      });
      const std::size_t at =
          uniform(static_cast<std::size_t>(cold - seq.begin()) + 1, seq.size());
      seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(at),
                 {Command::Kind::overlap, pairs[i].first, pairs[i].second,
                  true});
    }
    // Repeats of distinct earlier requests of this connection.
    std::vector<std::size_t> originals(seq.size());
    std::iota(originals.begin(), originals.end(), 0);
    std::shuffle(originals.begin(), originals.end(), rng);
    originals.resize(repeats_per_connection);
    std::vector<Command> chosen;
    for (const std::size_t i : originals) chosen.push_back(seq[i]);
    for (Command c : chosen) {
      const auto original = std::find_if(seq.begin(), seq.end(), [&](auto& o) {
        return o.kind != Command::Kind::repeat && o.kernel == c.kernel &&
               o.cache == c.cache && o.perm_only == c.perm_only;
      });
      const std::size_t at = uniform(
          static_cast<std::size_t>(original - seq.begin()) + 1, seq.size());
      c.kind = Command::Kind::repeat;
      seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(at), c);
    }
    for (int m = 0; m < metrics_per_connection; ++m)
      seq.insert(seq.begin() +
                     static_cast<std::ptrdiff_t>(uniform(0, seq.size())),
                 {Command::Kind::metrics, 0, 0, false});
  }
  return plan;
}

// ---------------------------------------------------------- execution

/// What one command's reply showed, timed on the client side.
struct Outcome {
  Command::Kind kind = Command::Kind::cold;
  bool ok = false;
  double sent_s = 0;
  double accepted_s = 0;    ///< explore: "accepted" event
  double first_cell_s = 0;  ///< explore: first "cell" event
  double done_s = 0;        ///< last event of the reply
  bool memo_hit = false;
  std::uint64_t profiles_built = 0;
  std::uint64_t profiles_shared = 0;
  std::vector<std::string> rows;  ///< rows that matched the reference
};

Outcome run_command(Connection& conn, const Command& c, const std::string& id,
                    const std::vector<std::string>& kernels,
                    const Reference& ref) {
  Outcome out;
  out.kind = c.kind;
  out.sent_s = now_s();
  const bool explore = c.kind != Command::Kind::metrics;
  if (!conn.send_line(explore ? explore_line(c, id, kernels)
                              : std::string("{\"cmd\":\"metrics\"}")))
    return out;
  std::string line;
  std::size_t cells = 0;
  std::size_t jobs = 0;
  bool rows_ok = true;
  while (conn.read_line(line)) {
    const double t = now_s();
    const api::Result<serve::JsonValue> event = serve::parse_json(line);
    if (!event.ok()) return out;
    const serve::JsonValue* kind = event->find("event");
    if (kind == nullptr || !kind->is_string()) return out;
    const std::string& name = kind->as_string();
    if (!explore) {
      const serve::JsonValue* body = event->find("body");
      out.done_s = t;
      out.ok = name == "metrics" && body != nullptr && body->is_string() &&
               body->as_string().find("# EOF") != std::string::npos;
      return out;
    }
    if (name == "accepted") {
      out.accepted_s = t;
      if (const serve::JsonValue* j = event->find("jobs")) jobs = j->as_int();
    } else if (name == "cell") {
      if (cells++ == 0) out.first_cell_s = t;
      const serve::JsonValue* state = event->find("state");
      const serve::JsonValue* csv = event->find("csv");
      if (state == nullptr || state->as_string() != "done" || csv == nullptr ||
          !ref.matches(csv->as_string()))
        rows_ok = false;
      else
        out.rows.push_back(csv->as_string());
    } else if (name == "done") {
      out.done_s = t;
      const auto count = [&](const char* key) -> std::uint64_t {
        const serve::JsonValue* v = event->find(key);
        return v == nullptr ? 0 : static_cast<std::uint64_t>(v->as_int());
      };
      const serve::JsonValue* memo = event->find("memo_hit");
      out.memo_hit = memo != nullptr && memo->as_bool();
      out.profiles_built = count("profiles_built");
      out.profiles_shared = count("profiles_shared");
      out.ok = rows_ok && count("failed") == 0 && count("cancelled") == 0 &&
               cells == jobs && jobs == (c.perm_only ? 1u : 2u);
      return out;
    } else {
      return out;  // "error": rejected or invalid
    }
  }
  return out;  // connection lost or reply timed out
}

struct Round {
  double setup_s = 0;
  double wall_s = 0;
  double daemon_cpu_s = 0;
  double daemon_rss_mb = 0;
  std::vector<Outcome> outcomes;
};

Round run_round(const Options& o, const std::vector<std::vector<Command>>& plan,
                std::size_t round, const std::vector<std::string>& kernels,
                const Reference& ref) {
  Round r;
  double t0 = now_s();
  Daemon daemon(o.cli, o.work_dir + "/serve.log");
  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < connections; ++c)
    conns.push_back(std::make_unique<Connection>(daemon.port()));
  r.setup_s = now_s() - t0;

  std::vector<std::vector<Outcome>> per_conn(connections);
  t0 = now_s();
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < connections; ++c)
      clients.emplace_back([&, c] {
        for (std::size_t i = 0; i < plan[c].size(); ++i)
          per_conn[c].push_back(run_command(
              *conns[c], plan[c][i],
              std::string("r") + std::to_string(round) + "c" +
                  std::to_string(c) + "-" + std::to_string(i),
              kernels, ref));
      });
  }
  r.wall_s = now_s() - t0;
  r.daemon_cpu_s = daemon.cpu_s();
  r.daemon_rss_mb = peak_rss_mb(daemon.pid());
  conns.clear();
  daemon.stop();
  for (auto& outcomes : per_conn)
    r.outcomes.insert(r.outcomes.end(), outcomes.begin(), outcomes.end());
  return r;
}

Reference record_pool(const std::vector<std::string>& kernels) {
  api::ExplorationRequest request;
  for (const std::string& name : kernels) {
    workloads::Workload w =
        workloads::make_workload(name, workloads::Scale::small);
    request.traces.push_back(api::TraceRef::memory(w.name, std::move(w.data)));
  }
  for (const std::uint32_t c : caches) request.geometries.emplace_back(c, 4);
  request.strategies = api::parse_strategies("base,perm:2,perm").value();
  std::ostringstream csv;
  api::CsvSink sink(csv);
  request.sink = &sink;
  if (!api::Explorer::explore(request).ok())
    throw std::runtime_error("pool exploration failed while recording");
  Reference ref;
  for (const std::string& row : csv_rows(csv.str())) ref.add(row);
  return ref;
}

}  // namespace

Result run_serve_mix(const Options& o) {
  Result result;
  const std::vector<std::string>& kernels =
      workloads::workload_names(workloads::Suite::table2);
  const std::string ref_path = o.reference_dir + "/serve-mix.csv";
  if (o.record) {
    const Reference ref = record_pool(kernels);
    ref.save(ref_path);
    result.notes.push_back("recorded " + std::to_string(ref.size()) +
                           " rows to " + ref_path);
    return result;
  }
  const Reference ref = Reference::load(ref_path);
  std::mt19937_64 rng(o.seed);

  // Untraced: warm-up + measured rounds. Traced: warm-up, then rounds
  // alternating tracing off and on (the overhead figure).
  std::vector<Round> rounds;
  Tracer tracer;
  std::vector<double> walls_off, walls_on;
  const double start = now_s();
  for (std::size_t i = 0;; ++i) {
    const bool traced = o.trace && i > 0 && i % 2 == 0;
    tracer.set_enabled(traced);
    rounds.push_back(run_round(o, plan_round(rng, kernels.size()), i, kernels,
                               ref));
    const Round& r = rounds.back();
    if (i > 0) (traced ? walls_on : walls_off).push_back(r.wall_s);
    if (traced) {
      for (const Outcome& out : r.outcomes) {
        const bool explore = out.kind != Command::Kind::metrics;
        const std::uint64_t id = tracer.add(
            explore ? "serve.request" : "serve.metrics", out.sent_s, out.done_s);
        if (explore && out.ok) {
          tracer.add("serve.wait_accept", out.sent_s, out.accepted_s, id);
          tracer.add("serve.wait_first_cell", out.accepted_s,
                     out.first_cell_s, id);
        }
      }
    }
    std::vector<double> measured;
    for (std::size_t k = 1; k < rounds.size(); ++k)
      measured.push_back(rounds[k].wall_s);
    const bool enough = o.trace ? walls_on.size() >= 2 && walls_off.size() >= 2
                                : measured.size() >= min_measured_rounds;
    if (enough && now_s() - start + median(measured) > o.seconds) break;
  }

  // Every command of every round, warm-up included, counts toward
  // success; timing figures come from the measured rounds only.
  std::set<std::string> distinct_rows;
  std::vector<double> latencies_ms, accept_ms, first_cell_ms, metrics_ms;
  std::vector<double> setups, walls, busy, rss, built, shared;
  std::uint64_t explores = 0, memo_hits = 0, simulated = 0;
  double measured_wall = 0;
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    const Round& r = rounds[k];
    setups.push_back(r.setup_s);
    std::uint64_t round_built = 0, round_shared = 0;
    for (const Outcome& out : r.outcomes) {
      ++result.attempted;
      if (!out.ok) ++result.failed;
      distinct_rows.insert(out.rows.begin(), out.rows.end());
      round_built += out.profiles_built;
      round_shared += out.profiles_shared;
      if (k == 0 || !out.ok) continue;
      if (out.kind == Command::Kind::metrics) {
        metrics_ms.push_back(1e3 * (out.done_s - out.sent_s));
        continue;
      }
      ++explores;
      memo_hits += out.memo_hit ? 1 : 0;
      if (!out.memo_hit)
        for (const std::string& row : out.rows)
          simulated += std::stoull(csv_field(row, 5));
      latencies_ms.push_back(1e3 * (out.done_s - out.sent_s));
      accept_ms.push_back(1e3 * (out.accepted_s - out.sent_s));
      first_cell_ms.push_back(1e3 * (out.first_cell_s - out.sent_s));
    }
    if (k == 0) continue;
    walls.push_back(r.wall_s);
    measured_wall += r.wall_s;
    busy.push_back(100.0 * r.daemon_cpu_s / (r.wall_s * connections));
    rss.push_back(r.daemon_rss_mb);
    built.push_back(static_cast<double>(round_built));
    shared.push_back(static_cast<double>(round_shared));
  }
  const auto measured_rounds = static_cast<std::uint64_t>(walls.size());
  std::string round_walls;
  for (const double w : walls) {
    if (!round_walls.empty()) round_walls += ' ';
    round_walls += std::to_string(w);
  }
  result.notes.push_back("measured round walls (s): " + round_walls);

  if (!o.trace) {
    result.set("setup_s", median(setups), "s", setups.size());
    result.set("wall_s", median(walls), "s", measured_rounds);
    result.set("requests_per_s", static_cast<double>(explores) / measured_wall,
               "1/s", explores);
    result.set("maccesses_per_s",
               static_cast<double>(simulated) / measured_wall / 1e6, "M/s",
               explores - memo_hits);
    result.set("latency_p50_ms", median(latencies_ms), "ms",
               latencies_ms.size());
    if (const auto p95 = percentile(latencies_ms, 0.95))
      result.set("latency_p95_ms", *p95, "ms", latencies_ms.size());
    else
      result.notes.push_back(
          "latency_p95_ms refused: fewer than 10 samples beyond p95 (" +
          std::to_string(latencies_ms.size()) + " samples)");
    result.set("peak_rss_mb", median(rss), "MB", measured_rounds);
    result.set("success_pct",
               100.0 * static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted),
               "%", result.attempted);
    const std::vector<std::string> rows(distinct_rows.begin(),
                                        distinct_rows.end());
    const auto [removed, optimize_rows] = mean_percent_removed(rows);
    result.set("misses_removed_pct", removed, "%", optimize_rows);
    result.notes.push_back(
        "peak_rss_mb is the daemon's VmHWM, median over measured rounds; "
        "maccesses_per_s counts the accesses of cells the daemon computed "
        "(memo replays excluded); "
        "misses_removed_pct is the mean over the distinct optimize cells "
        "served");
    return result;
  }

  result.set("serve.accept_ms_p50", median(accept_ms), "ms",
             accept_ms.size());
  result.set("serve.first_cell_ms_p50", median(first_cell_ms), "ms",
             first_cell_ms.size());
  result.set("serve.metrics_cmd_ms_p50", median(metrics_ms), "ms",
             metrics_ms.size());
  result.set("serve.memo_hit_pct",
             explores == 0 ? 0
                           : 100.0 * static_cast<double>(memo_hits) /
                                 static_cast<double>(explores),
             "%", explores);
  result.set("serve.profiles_built", median(built), "count", measured_rounds);
  result.set("serve.profiles_shared", median(shared), "count",
             measured_rounds);
  result.set("serve.busy_pct", median(busy), "%", measured_rounds);
  result.set("trace.overhead_pct",
             100.0 * (median(walls_on) - median(walls_off)) /
                 median(walls_off),
             "%", walls_on.size() + walls_off.size());
  result.notes.push_back(
      "serve.* figures are client-side, per measured round; "
      "serve.profiles_* are per-round totals from the done events; "
      "serve.busy_pct is daemon CPU over round wall x 2 engine threads");
  if (!o.trace_out.empty() && !tracer.write_chrome_trace(o.trace_out))
    result.notes.push_back("could not write " + o.trace_out);
  return result;
}

}  // namespace perfbench
