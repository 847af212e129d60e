// socket_serve: an open-loop load client against a real `pcnd serve`.
//
// The client is one thread on two connections.  Before timing starts it
// registers kTerminals terminals on a kRegion x kRegion torus (one
// LocationUpdate each, sent as fast as the sockets take them), then sends
// a fixed kRate frames/s for --seconds: four LocationUpdate for every
// PageSubmit, pages round-robin over the fleet so no terminal ever has
// two pages queued.  Every frame is encoded before timing starts; a
// terminal's frames always use connection terminal % 2, so its updates
// arrive in sequence order.
//
// A page's verdict latency runs from its due time (not its send time) to
// the arrival of its PageOutcome.  The client wakes at most every
// kQuantumNs, releases every frame that has fallen due, and records how
// late it released them; a run whose median lateness exceeds one slot
// measured the generator, not the daemon, and fails.
//
// Untraced runs spawn `pcnd serve --slot-us 1000 --threads 2 --sla 8`
// without an admin socket (its live-stats walk and per-slot tick would
// add work to every slot) and read its exit summary.  Traced runs host
// Pcnd + SocketServer in this process with cmd_serve's slot loop, so each
// call can be timed, after an untraced half for trace_overhead_pct.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "pcn/daemon/daemon.hpp"
#include "pcn/daemon/socket_server.hpp"
#include "pcn/proto/messages.hpp"

namespace perfbench {
namespace {

using pcn::proto::PageOutcomeKind;

constexpr std::uint64_t kTerminals = 100'000;
constexpr int kRegion = 64;
constexpr double kRate = 300'000.0;  ///< frames/s, below the knee (README)
constexpr int kUpdatesPerPage = 4;
constexpr int kConnections = 2;
constexpr std::int64_t kSlotNs = 1'000'000;  ///< --slot-us 1000
constexpr std::int64_t kQuantumNs = 100'000;
/// Pages still without a verdict this long after the last due time are
/// missing.
constexpr std::int64_t kGraceNs = 500'000'000;
constexpr int kSetupReps = 3;
/// Slots the spawned pcnd runs before and after the timed window.
constexpr std::int64_t kSetupBudgetSlots = 1500;
constexpr std::int64_t kTailSlots = 800;
constexpr std::uint64_t kProbeBit = std::uint64_t{1} << 62;
const char* const kSocket = "pcnd.sock";

// --- the generated inputs ---------------------------------------------------

/// One connection's frames, length-prefixed and concatenated, with the
/// end offset of each and its index in the whole schedule; frame i falls
/// due index[i] * gap_ns after the window starts.
struct Stream {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> end;
  std::vector<std::uint32_t> index;
  double gap_ns = 0.0;

  std::size_t size() const { return end.size(); }
  std::int64_t due_ns(std::size_t i) const {
    return static_cast<std::int64_t>(double(index[i]) * gap_ns);
  }
  void add(const std::vector<std::uint8_t>& frame, std::int64_t at) {
    const auto length = static_cast<std::uint32_t>(frame.size());
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(length >> (8 * i)));
    }
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    end.push_back(static_cast<std::uint32_t>(bytes.size()));
    index.push_back(static_cast<std::uint32_t>(at));
  }
};

struct Page {
  std::uint64_t terminal = 0;
  std::int64_t due_ns = 0;
};

struct Plan {
  Stream registration[kConnections];
  Stream timed[kConnections];
  std::vector<Page> pages;  ///< index = page_id - 1
  std::int64_t updates = 0;
  std::int64_t frames = 0;  ///< timed frames
  std::int64_t duration_ns = 0;
};

Plan make_plan(std::uint64_t seed, double rate, double seconds) {
  Plan plan;
  std::uint64_t rng = seed;
  std::vector<pcn::geometry::Cell> cell(kTerminals);
  std::vector<std::uint64_t> sequence(kTerminals, 0);
  for (std::uint64_t t = 0; t < kTerminals; ++t) {
    cell[t].q = static_cast<std::int64_t>(next_random(&rng) % kRegion);
    cell[t].r = static_cast<std::int64_t>(next_random(&rng) % kRegion);
    pcn::proto::LocationUpdate update;
    update.terminal_id = t;
    update.sequence = ++sequence[t];
    update.cell = cell[t];
    update.containment_radius = 1;
    plan.registration[t % kConnections].add(pcn::proto::encode(update), 0);
  }
  plan.frames = static_cast<std::int64_t>(rate * seconds);
  plan.duration_ns = static_cast<std::int64_t>(seconds * 1e9);
  const double gap_ns = 1e9 / rate;
  for (Stream& stream : plan.timed) stream.gap_ns = gap_ns;
  std::uint64_t next_page_terminal = 0;
  for (std::int64_t i = 0; i < plan.frames; ++i) {
    if (i % (kUpdatesPerPage + 1) == kUpdatesPerPage) {
      const std::uint64_t t = next_page_terminal;
      next_page_terminal = (next_page_terminal + 1) % kTerminals;
      plan.pages.push_back({t, static_cast<std::int64_t>(double(i) * gap_ns)});
      const pcn::proto::PageSubmit submit{plan.pages.size(), t};
      plan.timed[t % kConnections].add(pcn::proto::encode(submit), i);
    } else {
      // A random-walk step of a random terminal, wrapped to the torus.
      const std::uint64_t t = next_random(&rng) % kTerminals;
      const pcn::geometry::Cell step =
          pcn::geometry::hex_directions()[next_random(&rng) % 6];
      cell[t].q = (cell[t].q + step.q + kRegion) % kRegion;
      cell[t].r = (cell[t].r + step.r + kRegion) % kRegion;
      pcn::proto::LocationUpdate update;
      update.terminal_id = t;
      update.sequence = ++sequence[t];
      update.cell = cell[t];
      update.containment_radius = 1;
      plan.timed[t % kConnections].add(pcn::proto::encode(update), i);
      ++plan.updates;
    }
  }
  return plan;
}

// --- sockets and the daemon process ------------------------------------------

int connect_unix(const char* path, std::int64_t timeout_ns) {
  const std::int64_t give_up = now_ns() + timeout_ns;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path);
  while (true) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      return fd;
    }
    ::close(fd);
    if (now_ns() > give_up) {
      throw std::runtime_error(std::string("cannot connect to ") + path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// A spawned `pcnd serve`; killed and reaped on destruction.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, std::int64_t slots) {
    ::unlink(kSocket);
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe() failed");
    const std::string slots_arg = std::to_string(slots);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork() failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      const int null = ::open("/dev/null", O_WRONLY);
      ::dup2(null, STDERR_FILENO);
      ::close(out[0]);
      ::execl(binary.c_str(), binary.c_str(), "serve", "--socket", kSocket,
              "--slot-us", "1000", "--threads", "2", "--sla", "8", "--slots",
              slots_arg.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out[1]);
    stdout_fd_ = out[0];
  }
  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    ::unlink(kSocket);
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  int pid() const { return pid_; }

  /// Waits for a normal exit and returns its stdout ("" on failure).
  std::string wait_for_exit(std::int64_t timeout_ns) {
    const std::int64_t give_up = now_ns() + timeout_ns;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ns() > give_up) return "";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    std::string text;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(stdout_fd_, buf, sizeof(buf))) > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? text : "";
  }

 private:
  int pid_ = -1;
  int stdout_fd_ = -1;
};

// --- the open-loop client -----------------------------------------------------

struct Verdict {
  bool seen = false;
  PageOutcomeKind kind = PageOutcomeKind::kServed;
  std::int64_t queue_delay = 0;
  double latency_ms = 0.0;
};

struct LoadStats {
  std::vector<Verdict> verdicts;  ///< index = page_id - 1
  std::vector<double> late_ms;    ///< one per release batch
  std::int64_t bad_outcomes = 0;  ///< undecodable, unknown or duplicate
  std::int64_t probes_served = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< client thread CPU
  /// (pcnd CPU seconds, frames released so far), sampled every second
  /// while frames are still falling due and once after the last.
  std::vector<std::pair<double, std::int64_t>> daemon_cpu;
};

class Client {
 public:
  explicit Client(const char* path) {
    for (int c = 0; c < kConnections; ++c) {
      conns_[c].fd = connect_unix(path, 5'000'000'000);
    }
  }
  ~Client() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends every registration frame plus one probe page per connection
  /// and waits for the probes' verdicts: a served probe proves every
  /// earlier frame on its connection was ingested and applied.
  bool register_fleet(const Plan& plan, LoadStats* stats) {
    Stream probes[kConnections];
    for (int c = 0; c < kConnections; ++c) {
      probes[c] = plan.registration[c];
      // The connection's last registered terminal.
      const std::uint64_t terminal =
          kTerminals - kConnections + static_cast<std::uint64_t>(c);
      probes[c].add(pcn::proto::encode(pcn::proto::PageSubmit{
                        kProbeBit | std::uint64_t(c), terminal}),
                    0);
    }
    const Stream* streams[kConnections] = {&probes[0], &probes[1]};
    run(streams, nullptr, now_ns(), 2'000'000'000, stats, true);
    return stats->probes_served == kConnections;
  }

  /// Plays the timed streams from `start_ns` and collects verdicts;
  /// samples the CPU time of process `daemon_pid` (when not 0).
  void play(const Plan& plan, std::int64_t start_ns, LoadStats* stats,
            int daemon_pid) {
    stats->verdicts.assign(plan.pages.size(), Verdict{});
    const Stream* streams[kConnections] = {&plan.timed[0], &plan.timed[1]};
    const double cpu_before = thread_cpu_s();
    daemon_pid_ = daemon_pid;
    run(streams, &plan, start_ns, plan.duration_ns + kGraceNs, stats, false);
    daemon_pid_ = 0;
    stats->cpu_s = thread_cpu_s() - cpu_before;
    stats->wall_s = double(now_ns() - start_ns) * 1e-9;
  }

 private:
  struct Conn {
    int fd = -1;
    std::size_t released = 0;  ///< frames whose due time has passed
    std::size_t sent = 0;      ///< bytes the socket accepted
    std::vector<std::uint8_t> rx;
  };

  void run(const Stream* const* streams, const Plan* plan,
           std::int64_t start_ns, std::int64_t limit_ns, LoadStats* stats,
           bool registration) {
    for (Conn& conn : conns_) {
      conn.released = 0;
      conn.sent = 0;
    }
    const std::size_t pages = plan == nullptr ? 0 : plan->pages.size();
    std::size_t answered = 0;
    std::int64_t probes = 0;
    std::int64_t next_sample_ns = 0;
    while (true) {
      const std::int64_t now = now_ns() - start_ns;
      bool all_sent = true;
      std::int64_t released = 0;
      bool want_write = false;
      std::int64_t next_due = limit_ns;
      for (int c = 0; c < kConnections; ++c) {
        Conn& conn = conns_[c];
        const Stream& stream = *streams[c];
        const std::size_t first = conn.released;
        while (conn.released < stream.size() &&
               stream.due_ns(conn.released) <= now) {
          ++conn.released;
        }
        if (conn.released > first && !registration) {
          stats->late_ms.push_back(double(now - stream.due_ns(first)) * 1e-6);
        }
        const std::size_t target =
            conn.released == 0 ? 0 : stream.end[conn.released - 1];
        while (conn.sent < target) {
          const ssize_t n =
              ::send(conn.fd, stream.bytes.data() + conn.sent,
                     target - conn.sent, MSG_NOSIGNAL | MSG_DONTWAIT);
          if (n > 0) {
            conn.sent += static_cast<std::size_t>(n);
          } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else if (n < 0 && errno == EINTR) {
            continue;
          } else {
            throw std::runtime_error("send to pcnd failed");
          }
        }
        want_write = want_write || conn.sent < target;
        released += std::int64_t(conn.released);
        all_sent = all_sent && conn.released == stream.size() &&
                   conn.sent == stream.bytes.size();
        if (conn.released < stream.size()) {
          next_due = std::min(next_due, stream.due_ns(conn.released));
        }
      }
      // One sample per second while frames fall due, and one when the
      // last frame has gone out.
      if (daemon_pid_ > 0 && now >= next_sample_ns) {
        stats->daemon_cpu.emplace_back(proc_cpu_s(daemon_pid_), released);
        next_sample_ns = all_sent ? limit_ns + 1 : next_sample_ns + 1'000'000'000;
      }
      for (int c = 0; c < kConnections; ++c) {
        receive(c, plan, start_ns, stats, &answered, &probes);
      }
      const bool done = registration ? probes == kConnections
                                     : all_sent && answered == pages;
      if (done || now_ns() - start_ns >= limit_ns) break;

      // Sleep until the next frame falls due (at least one quantum, so a
      // release batch is never a single frame), or a verdict arrives.
      const std::int64_t wake =
          all_sent ? limit_ns : std::max(next_due, now + kQuantumNs);
      const std::int64_t wait = std::max<std::int64_t>(
          0, wake - (now_ns() - start_ns));
      pollfd fds[kConnections];
      for (int c = 0; c < kConnections; ++c) {
        fds[c].fd = conns_[c].fd;
        fds[c].events = short(POLLIN | (want_write ? POLLOUT : 0));
        fds[c].revents = 0;
      }
      const timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                             static_cast<long>(wait % 1'000'000'000)};
      ::ppoll(fds, kConnections, &timeout, nullptr);
    }
    stats->probes_served += registration ? probes : 0;
  }

  /// Reads whatever the connection has and records each PageOutcome.
  void receive(int c, const Plan* plan, std::int64_t start_ns,
               LoadStats* stats, std::size_t* answered, std::int64_t* probes) {
    Conn& conn = conns_[c];
    std::uint8_t buf[65536];
    while (true) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n <= 0) break;
      conn.rx.insert(conn.rx.end(), buf, buf + n);
    }
    const std::int64_t arrival = now_ns() - start_ns;
    std::size_t offset = 0;
    while (conn.rx.size() - offset >= 4) {
      const std::uint32_t length =
          std::uint32_t{conn.rx[offset]} | std::uint32_t{conn.rx[offset + 1]} << 8 |
          std::uint32_t{conn.rx[offset + 2]} << 16 |
          std::uint32_t{conn.rx[offset + 3]} << 24;
      if (conn.rx.size() - offset - 4 < length) break;
      const std::span<const std::uint8_t> frame(conn.rx.data() + offset + 4,
                                                length);
      offset += 4 + length;
      pcn::proto::PageOutcome outcome;
      try {
        outcome = pcn::proto::decode_page_outcome(frame);
      } catch (const pcn::proto::DecodeError&) {
        ++stats->bad_outcomes;
        continue;
      }
      if ((outcome.page_id & kProbeBit) != 0) {
        if (outcome.outcome == PageOutcomeKind::kServed) ++*probes;
        continue;
      }
      const std::uint64_t index = outcome.page_id - 1;
      if (plan == nullptr || outcome.page_id == 0 ||
          index >= plan->pages.size() ||
          plan->pages[index].terminal != outcome.terminal_id ||
          outcome.terminal_id % kConnections != std::uint64_t(c) ||
          stats->verdicts[index].seen) {
        ++stats->bad_outcomes;
        continue;
      }
      Verdict& verdict = stats->verdicts[index];
      verdict.seen = true;
      verdict.kind = outcome.outcome;
      verdict.queue_delay = static_cast<std::int64_t>(outcome.queue_delay_slots);
      verdict.latency_ms = double(arrival - plan->pages[index].due_ns) * 1e-6;
      ++*answered;
    }
    conn.rx.erase(conn.rx.begin(), conn.rx.begin() + std::ptrdiff_t(offset));
  }

  Conn conns_[kConnections];
  int daemon_pid_ = 0;
};

// --- one measured window ------------------------------------------------------

struct Window {
  LoadStats load;
  double setup_s = 0.0;            ///< median over the set-up reps
  double cpu_us_per_frame = 0.0;   ///< pcnd CPU, median over the seconds
  double peak_rss_mb = 0.0;
  int threads = 0;
  std::int64_t updates_applied = 0;  ///< timed updates the daemon applied
  double terminal_slots_per_s = 0.0;
};

/// `pcnd serve --slots N` prints this line when its N slots are done.
bool parse_summary(const std::string& text, std::int64_t* slots,
                   std::int64_t* updates) {
  long long s = 0, u = 0, served = 0, dropped = 0, expired = 0;
  const std::size_t at = text.find("pcnd serve:");
  if (at == std::string::npos) return false;
  if (std::sscanf(text.c_str() + at,
                  "pcnd serve: %lld slots, %lld updates, %lld pages served, "
                  "%lld dropped, %lld expired",
                  &s, &u, &served, &dropped, &expired) != 5) {
    return false;
  }
  *slots = s;
  *updates = u;
  return true;
}

/// The untraced measurement: kSetupReps spawn + register rounds (the last
/// daemon kept), then the timed window against it.
Window run_subprocess(const Options& options, const Plan& plan, int reps) {
  Window window;
  std::vector<double> setup_s;
  std::unique_ptr<DaemonProcess> daemon;
  std::unique_ptr<Client> client;
  const std::int64_t window_slots = plan.duration_ns / kSlotNs;
  const std::int64_t slots = kSetupBudgetSlots + window_slots + kTailSlots;
  std::int64_t spawned = 0;
  for (int rep = 0; rep < reps; ++rep) {
    client.reset();
    daemon.reset();
    spawned = now_ns();
    daemon = std::make_unique<DaemonProcess>(options.pcnd, slots);
    client = std::make_unique<Client>(kSocket);
    LoadStats registration;
    if (!client->register_fleet(plan, &registration)) {
      throw std::runtime_error("fleet registration did not complete");
    }
    setup_s.push_back(double(now_ns() - spawned) * 1e-9);
  }
  window.setup_s = median(setup_s);
  if (now_ns() - spawned > kSetupBudgetSlots * kSlotNs / 2) {
    throw std::runtime_error("set-up used more than half its slot budget");
  }

  const int pid = daemon->pid();
  const std::int64_t start = now_ns() + kSlotNs;
  client->play(plan, start, &window.load, pid);
  // Median over the window's seconds, so a burst of interference from
  // other tenants of a shared host moves a few samples, not the mean.
  std::vector<double> per_second;
  const auto& samples = window.load.daemon_cpu;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const std::int64_t frames = samples[i].second - samples[i - 1].second;
    if (frames > 0) {
      per_second.push_back((samples[i].first - samples[i - 1].first) * 1e6 /
                           double(frames));
    }
  }
  window.cpu_us_per_frame = median(std::move(per_second));
  window.peak_rss_mb = proc_peak_rss_mb(pid);
  window.threads = proc_threads(pid);

  const std::string summary =
      daemon->wait_for_exit((slots + 30'000) * kSlotNs);
  const std::int64_t lifetime_ns = now_ns() - spawned;
  std::int64_t slots_run = 0;
  std::int64_t updates = 0;
  if (!parse_summary(summary, &slots_run, &updates)) {
    throw std::runtime_error("pcnd serve did not exit with its summary");
  }
  window.updates_applied = updates - std::int64_t(kTerminals);
  window.terminal_slots_per_s =
      double(kTerminals) * double(slots_run) / (double(lifetime_ns) * 1e-9);
  return window;
}

// --- the in-process, traced measurement ----------------------------------------

/// Pcnd + SocketServer in this process, driven by cmd_serve's slot loop
/// with each call timed.
class InProcessServer {
 public:
  InProcessServer() : daemon_(config()), server_(&daemon_, kSocket) {
    server_.start();
    loop_ = std::thread([this] { serve(); });
  }
  ~InProcessServer() { stop(); }
  InProcessServer(const InProcessServer&) = delete;
  InProcessServer& operator=(const InProcessServer&) = delete;

  void stop() {
    if (!loop_.joinable()) return;
    stop_.store(true);
    loop_.join();
    server_.stop();
    ::unlink(kSocket);
  }
  void record(bool on) { record_.store(on); }
  pcn::daemon::Pcnd& daemon() { return daemon_; }
  /// Samples taken while recording; read after stop().
  const std::vector<double>& run_slot_us() const { return run_slot_us_; }
  const std::vector<double>& flush_us() const { return flush_us_; }

  static pcn::daemon::PcndConfig config() {
    pcn::daemon::PcndConfig config;  // pcnd serve defaults, as flagged
    config.threads = 2;
    config.sla_delay_slots = 8;
    config.collect_outcomes = true;
    return config;
  }

 private:
  void serve() {
    while (!stop_.load()) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::nanoseconds(kSlotNs);
      const std::int64_t t0 = now_ns();
      daemon_.run_slots(1);
      const std::int64_t t1 = now_ns();
      server_.flush_outcomes();
      const std::int64_t t2 = now_ns();
      if (record_.load(std::memory_order_relaxed)) {
        run_slot_us_.push_back(double(t1 - t0) * 1e-3);
        flush_us_.push_back(double(t2 - t1) * 1e-3);
      }
      std::this_thread::sleep_until(deadline);
    }
  }

  pcn::daemon::Pcnd daemon_;
  pcn::daemon::SocketServer server_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> record_{false};
  std::vector<double> run_slot_us_;
  std::vector<double> flush_us_;
  std::thread loop_;  ///< last: joined before the members it uses die
};

// --- replays of the recorded stream, per layer --------------------------------

template <typename Fn>
void for_each_frame(const Plan& plan, Fn&& fn) {
  for (const Stream& stream : plan.timed) {
    std::size_t begin = 0;
    for (const std::uint32_t end : stream.end) {
      fn(std::span<const std::uint8_t>(stream.bytes.data() + begin + 4,
                                       end - begin - 4));
      begin = end;
    }
  }
}

pcn::daemon::DaemonRequest to_request(std::span<const std::uint8_t> frame) {
  pcn::daemon::DaemonRequest request;
  if (pcn::proto::peek_type(frame) == pcn::proto::MessageType::kPageSubmit) {
    const pcn::proto::PageSubmit submit = pcn::proto::decode_page_submit(frame);
    request.kind = pcn::daemon::DaemonRequest::Kind::kPage;
    request.page_id = submit.page_id;
    request.terminal_id = submit.terminal_id;
  } else {
    request.update = pcn::proto::decode_location_update(frame);
  }
  return request;
}

void replay_layers(const Plan& plan, Report* report) {
  // proto: peek_type + decode_* over the recorded frame mix.
  std::int64_t frames = 0;
  std::int64_t pages = 0;
  std::int64_t bytes = 0;
  std::int64_t start = now_ns();
  for_each_frame(plan, [&](std::span<const std::uint8_t> frame) {
    const pcn::daemon::DaemonRequest request = to_request(frame);
    pages += request.kind == pcn::daemon::DaemonRequest::Kind::kPage ? 1 : 0;
    ++frames;
    bytes += std::int64_t(frame.size());
  });
  const double decode_ns = double(now_ns() - start) / double(frames);
  report->check(pages == std::int64_t(plan.pages.size()) &&
                    frames - pages == plan.updates,
                "proto replay decoded every recorded frame as sent");

  std::int64_t encoded = 0;
  start = now_ns();
  for (std::size_t i = 0; i < plan.pages.size(); ++i) {
    pcn::proto::PageOutcome outcome;
    outcome.page_id = i + 1;
    outcome.terminal_id = plan.pages[i].terminal;
    outcome.queue_depth = 1;
    encoded += std::int64_t(pcn::proto::encode(outcome).size());
  }
  const double encode_ns =
      double(now_ns() - start) / double(std::max<std::size_t>(1, plan.pages.size()));

  // request ring: Pcnd::submit of the recorded request stream from one
  // thread, in ring-sized chunks drained by an (untimed) slot.
  std::vector<pcn::daemon::DaemonRequest> requests;
  requests.reserve(std::size_t(frames));
  for_each_frame(plan, [&](std::span<const std::uint8_t> frame) {
    requests.push_back(to_request(frame));
  });
  pcn::daemon::PcndConfig config = InProcessServer::config();
  config.collect_outcomes = false;
  pcn::daemon::Pcnd daemon(config);
  const std::size_t chunk = config.ring_capacity / 2;
  std::int64_t submit_ns = 0;
  std::int64_t rejected = 0;
  for (std::size_t begin = 0; begin < requests.size(); begin += chunk) {
    const std::size_t end = std::min(requests.size(), begin + chunk);
    start = now_ns();
    for (std::size_t i = begin; i < end; ++i) {
      rejected += daemon.submit(requests[i]) ? 0 : 1;
    }
    submit_ns += now_ns() - start;
    daemon.run_slots(1);
  }
  report->check(rejected == 0, "ring replay: no submit rejected");
  report->metric("proto.decode_ns", decode_ns, "ns");
  report->metric("proto.encode_outcome_ns", encode_ns, "ns");
  report->metric("proto.frame_bytes", double(bytes) / double(frames), "bytes");
  report->metric("ring.submit_ns", double(submit_ns) / double(requests.size()),
                 "ns");
  report->note(format("replays: %lld frames decoded, %zu outcomes encoded "
                      "(%lld bytes), %zu requests submitted",
                      static_cast<long long>(frames), plan.pages.size(),
                      static_cast<long long>(encoded), requests.size()));
}

// --- scoring -----------------------------------------------------------------

struct Score {
  std::vector<double> latency_ms;  ///< missing verdicts as +inf
  /// Median over the window's 1-second intervals (by due time) of each
  /// interval's p99, so one stalled second on a shared host moves one
  /// medianed value rather than the whole window's tail (the knee's
  /// limit).
  double p99_ms = 0.0;
  std::int64_t served = 0;
  std::int64_t missing = 0;
  std::int64_t failed = 0;  ///< frames without their effect
  double late_p50_ms = 0.0;
  double late_p99_ms = 0.0;
};

Score score(const Plan& plan, const Window& window) {
  Score s;
  for (const Verdict& v : window.load.verdicts) {
    s.latency_ms.push_back(v.seen ? v.latency_ms
                                  : std::numeric_limits<double>::infinity());
    s.missing += v.seen ? 0 : 1;
    s.served += v.seen && v.kind == PageOutcomeKind::kServed ? 1 : 0;
  }
  std::vector<std::vector<double>> by_second(
      static_cast<std::size_t>((plan.duration_ns + 999'999'999) / 1'000'000'000));
  for (std::size_t i = 0; i < s.latency_ms.size(); ++i) {
    by_second[static_cast<std::size_t>(plan.pages[i].due_ns / 1'000'000'000)]
        .push_back(s.latency_ms[i]);
  }
  std::vector<double> p99s;
  for (std::vector<double>& second : by_second) {
    if (!second.empty()) p99s.push_back(quantile(std::move(second), 0.99));
  }
  s.p99_ms = median(std::move(p99s));
  const std::int64_t pages = std::int64_t(plan.pages.size());
  s.failed = std::max<std::int64_t>(0, plan.updates - window.updates_applied) +
             (pages - s.served);
  s.late_p50_ms = quantile(window.load.late_ms, 0.50);
  s.late_p99_ms = quantile(window.load.late_ms, 0.99);
  return s;
}

void check_window(const Plan& plan, const Window& window, const Score& s,
                  const char* label, Report* report) {
  report->check(s.missing == 0 && window.load.bad_outcomes == 0,
                format("%s: every PageSubmit got exactly one PageOutcome with "
                       "its page_id/terminal_id (%zu pages, %lld missing, "
                       "%lld unexpected)",
                       label, plan.pages.size(),
                       static_cast<long long>(s.missing),
                       static_cast<long long>(window.load.bad_outcomes)));
  report->check(window.updates_applied == plan.updates,
                format("%s: the daemon applied all %lld timed updates "
                       "(%lld) — no frame rejected or undecoded",
                       label, static_cast<long long>(plan.updates),
                       static_cast<long long>(window.updates_applied)));
  // A generator bottleneck leaves the client behind for the rest of the
  // run, so its median lateness crosses one slot; a host stall (vCPU
  // steal on a shared machine) delays a burst of releases, which shows in
  // the p99 and max but does not make the run the generator's.
  report->check(s.late_p50_ms <= double(kSlotNs) * 1e-6,
                format("%s: load client kept up (release lateness p50 %.3f "
                       "ms, limit one slot; p99 %.3f ms, max %.3f ms)",
                       label, s.late_p50_ms, s.late_p99_ms,
                       window.load.late_ms.empty()
                           ? 0.0
                           : *std::max_element(window.load.late_ms.begin(),
                                               window.load.late_ms.end())));
}

}  // namespace

int run_socket_serve(const Options& options, Report* report) {
  if (options.pcnd.empty()) {
    throw std::runtime_error("socket_serve needs --pcnd");
  }
  if (options.knee) {
    // Steps the offered rate; each step is a fresh daemon and a short
    // window.  The knee is the highest rate whose verdict p99 stays
    // under kKneeLimitMs with the backlog flat (the last quarter's median
    // latency within 2x the first quarter's) and the client on time.  The
    // sweep stops after two failing steps in a row, so one stalled second
    // on a shared host does not end it early.
    constexpr double kKneeLimitMs = 5.0;
    double knee = 0.0;
    int failing = 0;
    for (double rate = 200'000; rate <= 800'000 && failing < 2;
         rate += 50'000) {
      const Plan plan = make_plan(options.seed, rate, options.seconds);
      const Window window = run_subprocess(options, plan, 1);
      const Score s = score(plan, window);
      const std::size_t quarter = s.latency_ms.size() / 4;
      const double first = median(std::vector<double>(
          s.latency_ms.begin(), s.latency_ms.begin() + std::ptrdiff_t(quarter)));
      const double last = median(std::vector<double>(
          s.latency_ms.end() - std::ptrdiff_t(quarter), s.latency_ms.end()));
      const double p99 = s.p99_ms;
      const bool ok = p99 <= kKneeLimitMs && last <= 2.0 * first &&
                      s.late_p50_ms <= 1.0 && s.failed == 0;
      report->note(format("knee step %6.0f frames/s: verdict p50 %.3f ms p99 "
                          "%.3f ms, first/last-quarter median %.3f/%.3f ms, "
                          "client late p50 %.3f ms, cpu %.2f us/frame -> %s",
                          rate, median(s.latency_ms), p99, first, last,
                          s.late_p50_ms, window.cpu_us_per_frame,
                          ok ? "ok" : "over"));
      failing = ok ? 0 : failing + 1;
      if (ok) knee = rate;
    }
    report->note(format("knee (verdict p99 <= %.1f ms, flat backlog): %.0f "
                        "frames/s",
                        kKneeLimitMs, knee));
    report->metric("knee_frames_per_s", knee, "1/s");
    report->attempted = 1;
    return 0;
  }

  // Trace mode splits the time: an untraced half, then the traced half.
  const double seconds = options.trace ? options.seconds / 2.0 : options.seconds;
  const Plan plan = make_plan(options.seed, kRate, seconds);
  const Window window =
      run_subprocess(options, plan, options.trace ? 1 : kSetupReps);
  const Score s = score(plan, window);
  check_window(plan, window, s, "pcnd serve", report);
  report->attempted = plan.frames;
  report->failed = s.failed;

  report->metric("setup_s", window.setup_s, "s");
  report->metric("peak_rss_mb", window.peak_rss_mb, "MB");
  report->metric("verdict_p50_ms", median(s.latency_ms), "ms");
  report->metric("verdict_p90_ms", quantile(s.latency_ms, 0.90), "ms");
  report->metric("cpu_us_per_frame", window.cpu_us_per_frame, "us");
  report->metric("success_share", 1.0 - double(s.failed) / double(plan.frames),
                 "share");
  report->metric("terminal_slots_per_s", window.terminal_slots_per_s, "1/s");
  std::vector<double> delay_slots;
  for (const Verdict& v : window.load.verdicts) {
    if (v.seen) delay_slots.push_back(double(v.queue_delay + 1));
  }
  report->metric("verdict_delay_p99_slots", quantile(delay_slots, 0.99),
                 "slots");
  report->note(format("%lld frames at %.0f/s over %.1f s, %zu pages; verdict "
                      "latency from due time, %zu samples, p99 %.3f ms "
                      "(median of per-second p99s %.3f ms); pcnd %d threads",
                      static_cast<long long>(plan.frames), kRate, seconds,
                      plan.pages.size(), s.latency_ms.size(),
                      quantile(s.latency_ms, 0.99), s.p99_ms, window.threads));
  if (!options.trace) return 0;

  // --- traced half: the same plan against an in-process server -----------
  Window traced;
  InProcessServer server;
  pcn::obs::MetricsSnapshot at_start;
  pcn::obs::MetricsSnapshot at_end;
  {
    Client client(kSocket);
    if (!client.register_fleet(plan, &traced.load)) {
      throw std::runtime_error("in-process fleet registration did not complete");
    }
    pcn::daemon::Pcnd& daemon = server.daemon();
    const std::int64_t start = now_ns() + kSlotNs;
    const std::int64_t applied_before = daemon.metrics_registry().snapshot()
                                            .counter_value("daemon.update.applied");
    at_start = daemon.metrics_registry().snapshot();
    server.record(true);
    client.play(plan, start, &traced.load, 0);
    server.record(false);
    // Wait (bounded) for the slots that apply the window's last updates.
    const std::int64_t give_up = now_ns() + kGraceNs;
    do {
      at_end = daemon.metrics_registry().snapshot();
      traced.updates_applied =
          at_end.counter_value("daemon.update.applied") - applied_before;
      std::this_thread::sleep_for(std::chrono::nanoseconds(kSlotNs));
    } while (traced.updates_applied < plan.updates && now_ns() < give_up);
  }
  server.stop();
  const Score ts = score(plan, traced);
  check_window(plan, traced, ts, "in-process serve", report);

  pcn::daemon::Pcnd& daemon = server.daemon();
  const auto count = [&](const char* name) {
    return double(at_end.counter_value(name));
  };
  const double ingest = histogram_mean(at_start, at_end, "daemon.phase.ingest_us");
  const double apply = histogram_mean(at_start, at_end, "daemon.phase.apply_us");
  const double drain = histogram_mean(at_start, at_end, "daemon.phase.drain_us");
  const double finalize = histogram_mean(at_start, at_end, "daemon.phase.finalize_us");
  const pcn::obs::GaugeSample* outbox = at_end.find_gauge("daemon.socket.outbox_bytes");
  const pcn::obs::GaugeSample* effective_m = at_end.find_gauge("daemon.plan.effective_m");
  std::vector<double> served_delay;
  for (const Verdict& v : traced.load.verdicts) {
    if (v.seen && v.kind == PageOutcomeKind::kServed) {
      served_delay.push_back(double(v.queue_delay));
    }
  }
  const double latency_untraced = median(s.latency_ms);
  report->metric("socket.flush_us.p50", median(server.flush_us()), "us");
  report->metric("socket.flush_us.p99", quantile(server.flush_us(), 0.99), "us");
  report->metric("socket.frames_in", count("daemon.socket.frames_in"), "count");
  report->metric("socket.frames_out", count("daemon.socket.frames_out"), "count");
  report->metric("socket.decode_errors", count("daemon.socket.decode_errors"), "count");
  report->metric("socket.rejected_ring_full", count("daemon.socket.rejected_ring_full"), "count");
  report->metric("socket.outbox_bytes_hwm", outbox == nullptr ? 0.0 : outbox->value, "bytes");
  report->metric("socket.threads", double(window.threads), "count");
  report->metric("daemon.run_slot_us.p50", median(server.run_slot_us()), "us");
  report->metric("daemon.run_slot_us.p99", quantile(server.run_slot_us(), 0.99), "us");
  report->metric("daemon.phase.ingest_us", ingest, "us");
  report->metric("daemon.phase.apply_us", apply, "us");
  report->metric("daemon.phase.drain_us", drain, "us");
  report->metric("daemon.phase.finalize_us", finalize, "us");
  report->metric("daemon.slot_overhead_us",
                 mean(server.run_slot_us()) - (ingest + apply + drain + finalize), "us");
  report->metric("daemon.terminals", double(daemon.terminal_count()), "count");
  report->metric("daemon.update.applied", count("daemon.update.applied"), "count");
  report->metric("daemon.update.stale", count("daemon.update.stale"), "count");
  report->metric("daemon.page.queued", count("daemon.page.queued"), "count");
  report->metric("daemon.page.served", count("daemon.page.served"), "count");
  report->metric("daemon.page.dropped", count("daemon.page.dropped"), "count");
  report->metric("daemon.page.evicted", count("daemon.page.evicted"), "count");
  report->metric("daemon.page.expired", count("daemon.page.expired"), "count");
  report->metric("daemon.page.duplicate", count("daemon.page.duplicate"), "count");
  report->metric("queue.max_depth", double(daemon.max_queue_depth()), "count");
  const double queued = count("daemon.page.queued");
  report->metric("queue.served_per_queued",
                 queued == 0.0 ? 0.0 : count("daemon.page.served") / queued, "share");
  report->metric("queue_delay_p99_slots", quantile(served_delay, 0.99), "slots");
  report->metric("fail_share", double(ts.failed) / double(plan.frames), "share");
  report->metric("plan.effective_m", effective_m == nullptr ? 0.0 : effective_m->value, "count");
  report->metric("plan.widen", count("daemon.plan.widen"), "count");
  report->metric("plan.narrow", count("daemon.plan.narrow"), "count");
  report->metric("client.late_p99_ms", ts.late_p99_ms, "ms");
  report->metric("client.late_max_ms",
                 traced.load.late_ms.empty()
                     ? 0.0
                     : *std::max_element(traced.load.late_ms.begin(),
                                         traced.load.late_ms.end()),
                 "ms");
  report->metric("client.cpu_share", traced.load.cpu_s / traced.load.wall_s, "share");
  report->metric("verdict.samples", double(ts.latency_ms.size()), "count");
  report->metric("verdict_p99_ms", quantile(s.latency_ms, 0.99), "ms");
  report->metric("trace_overhead_pct",
                 (median(ts.latency_ms) / latency_untraced - 1.0) * 100.0, "%");
  replay_layers(plan, report);
  return 0;
}

}  // namespace perfbench
