// Closed-loop TopK load generator for the serve-daemon.
//
// Each connection is a client that keeps DEPTH requests in flight: a
// reply frees its slot and the next request goes out at once, so a
// request is due when its slot freed and is timed from then. One process
// and one thread hold every load connection. run.py drives it over
// stdin, one command a line:
//
//   step NAME DEPTH SECONDS   run one step, drain, print JSON;
//                             NAME_lat.f64 holds (due - start, latency
//                             from due or +inf when the request failed)
//                             per request, NAME_late.f64 the generator's
//                             own delay from due to building the frame,
//                             NAME_host.f64 a (time - start, steal ticks
//                             and all ticks of the --cpus, daemon ticks)
//                             sample every 0.25 s
//   quit                      write replies.tsv (and, traced,
//                             request_spans.tsv) and exit
//
// Plan file lines: "connections N", "k N", "seed N" and
// "target TENANT QUERIES_FILE", where each line of QUERIES_FILE is
// "WEIGHT<tab>QUERY TEXT": a request picks a query with probability
// proportional to its weight.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "serve/protocol.h"
#include "tool.h"

namespace perfbench {
namespace {

using simrankpp::FrameHeader;
using simrankpp::FrameType;
using simrankpp::WireCode;

// request_id = step << 24 | index within the step.
constexpr uint32_t kIndexBits = 24;
constexpr uint16_t kUnanswered = 0xffff;
// Replies still owed this long after a step ends are counted as failed
// and the connections are reopened so a late reply cannot land in the
// next step.
constexpr double kDrainSeconds = 10.0;
constexpr double kSampleSeconds = 0.25;

struct Target {
  std::string tenant;
  std::vector<std::string> queries;
  // Cumulative query weights, normalised to end at 1.
  std::vector<double> cdf;
};

struct Plan {
  size_t connections = 4;
  uint16_t k = 10;
  uint64_t seed = 1;
  std::vector<Target> targets;
};

struct Request {
  double due = 0.0;
  // When the generator built and queued the frame; later than `due` by
  // the generator's own delay.
  double attempt = 0.0;
  double sent = 0.0;
  double done = 0.0;
  uint64_t digest = 0;
  uint32_t query = 0;
  uint16_t target = 0;
  uint16_t code = kUnanswered;
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_offset = 0;
  uint64_t queued_bytes = 0;
  uint64_t sent_bytes = 0;
  // (stream offset of a frame's last byte, request index), oldest first.
  std::vector<std::pair<uint64_t, uint32_t>> unsent;
  size_t unsent_head = 0;
  std::string in;
  // When each free request slot of this connection freed, oldest first.
  std::deque<double> free_at;
};

bool ReadPlan(const std::string& path, Plan* plan) {
  std::ifstream in(path);
  if (!in) return false;
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "connections") {
      fields >> plan->connections;
    } else if (key == "k") {
      fields >> plan->k;
    } else if (key == "seed") {
      fields >> plan->seed;
    } else if (key == "target") {
      Target target;
      std::string file;
      fields >> target.tenant >> file;
      std::ifstream queries(file);
      double total = 0.0;
      for (std::string line; std::getline(queries, line);) {
        const size_t tab = line.find('\t');
        const double weight = std::strtod(line.c_str(), nullptr);
        if (tab == std::string::npos || !(weight > 0.0)) return false;
        total += weight;
        target.cdf.push_back(total);
        target.queries.push_back(line.substr(tab + 1));
      }
      if (target.queries.empty()) return false;
      for (double& c : target.cdf) c /= total;
      plan->targets.push_back(std::move(target));
    } else if (!key.empty()) {
      return false;
    }
  }
  return !plan->targets.empty() && plan->connections > 0;
}

int Connect(const std::string& host, uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  int one = 1;
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// Sends what `conn` has queued without blocking; stamps `sent` on every
// request whose last byte went out. False on a transport error.
bool Flush(Conn* conn, std::vector<Request>* requests) {
  while (conn->out_offset < conn->out.size()) {
    ssize_t n = send(conn->fd, conn->out.data() + conn->out_offset,
                     conn->out.size() - conn->out_offset,
                     MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    conn->out_offset += static_cast<size_t>(n);
    conn->sent_bytes += static_cast<uint64_t>(n);
  }
  const double now = Now();
  while (conn->unsent_head < conn->unsent.size() &&
         conn->unsent[conn->unsent_head].first <= conn->sent_bytes) {
    (*requests)[conn->unsent[conn->unsent_head].second].sent = now;
    ++conn->unsent_head;
  }
  if (conn->out_offset == conn->out.size()) {
    conn->out.clear();
    conn->out_offset = 0;
    conn->unsent.clear();
    conn->unsent_head = 0;
  }
  return true;
}

// Reads every complete reply frame available on `conn`; each reply of
// this step frees a request slot. False on a transport error or an
// undecodable frame.
bool Receive(Conn* conn, uint32_t step, std::vector<Request>* requests,
             size_t* answered) {
  char buf[65536];
  for (;;) {
    ssize_t n = recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    conn->in.append(buf, static_cast<size_t>(n));
  }
  const double now = Now();
  size_t offset = 0;
  for (;;) {
    std::string_view rest(conn->in.data() + offset, conn->in.size() - offset);
    FrameHeader header;
    simrankpp::FrameDecode decode = simrankpp::DecodeFrameHeader(
        rest, simrankpp::kMaxFramePayloadBytes, &header);
    if (decode == simrankpp::FrameDecode::kNeedMoreData) break;
    if (decode != simrankpp::FrameDecode::kOk) return false;
    if (rest.size() < simrankpp::kFrameHeaderBytes + header.payload_bytes) {
      break;
    }
    const uint32_t id = header.request_id;
    const uint32_t index = id & ((1u << kIndexBits) - 1);
    if ((id >> kIndexBits) == step && index < requests->size() &&
        (*requests)[index].code == kUnanswered) {
      Request& request = (*requests)[index];
      request.done = now;
      request.code = header.code;
      if (header.type == static_cast<uint8_t>(FrameType::kTopKResponse)) {
        request.digest = Digest(rest.substr(simrankpp::kFrameHeaderBytes,
                                            header.payload_bytes));
      } else if (header.code == 0) {
        request.code = static_cast<uint16_t>(WireCode::kInternal);
      }
      ++*answered;
      conn->free_at.push_back(now);
    }
    offset += simrankpp::kFrameHeaderBytes + header.payload_bytes;
  }
  conn->in.erase(0, offset);
  return true;
}

long long CpuTicks(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  long long utime = 0;
  long long stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::atoll(field.c_str());
    if (i == 15) stime = std::atoll(field.c_str());
  }
  return utime + stime;
}

// Steal ticks and all ticks (user .. steal) so far of the CPUs in
// `cpus`, from their "cpuN" lines of /proc/stat.
std::pair<long long, long long> HostTicks(const std::vector<int>& cpus) {
  std::ifstream in("/proc/stat");
  long long steal = 0;
  long long total = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 ||
        line[3] < '0' || line[3] > '9' ||
        std::find(cpus.begin(), cpus.end(), std::atoi(line.c_str() + 3)) ==
            cpus.end()) {
      continue;
    }
    std::istringstream fields(line.substr(line.find(' ')));
    long long value = 0;
    for (int i = 0; i < 8 && fields >> value; ++i) total += value;
    steal += value;
  }
  return {steal, total};
}

struct StepSpec {
  uint32_t index = 0;
  // Requests each connection keeps in flight.
  size_t depth = 1;
  double seconds = 0.0;
  double t0 = 0.0;
  int pid = 0;
  std::vector<int> cpus;
};

// Runs one step: until it ends every connection keeps spec.depth
// requests in flight, then the replies are awaited (up to
// kDrainSeconds). Until the step ends, appends a host sample to
// `samples` every kSampleSeconds.
void RunStep(const Plan& plan, const StepSpec& spec, std::vector<Conn>* conns,
             std::vector<Request>* requests, std::vector<double>* samples,
             bool* transport_ok) {
  std::mt19937_64 rng(plan.seed * 0x9e3779b97f4a7c15ull + spec.index);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double end = spec.t0 + spec.seconds;
  const double deadline = end + kDrainSeconds;
  // Tolerates rounding in the sum of sample periods.
  const double last_sample = end + 1e-6;
  double next_sample = spec.t0;
  size_t answered = 0;
  for (Conn& conn : *conns) conn.free_at.assign(spec.depth, spec.t0);
  std::vector<pollfd> pfds(conns->size());
  for (;;) {
    double now = Now();
    if (now >= next_sample && next_sample <= last_sample) {
      const auto [steal, total] = HostTicks(spec.cpus);
      samples->insert(samples->end(),
                      {now - spec.t0, static_cast<double>(steal),
                       static_cast<double>(total),
                       static_cast<double>(CpuTicks(spec.pid))});
      next_sample += kSampleSeconds;
    }
    const bool step_done =
        now >= end || requests->size() >= (1u << kIndexBits);
    for (Conn& conn : *conns) {
      while (!step_done && now >= spec.t0 && !conn.free_at.empty()) {
        Request request;
        request.due = conn.free_at.front();
        conn.free_at.pop_front();
        request.attempt = now;
        request.target = static_cast<uint16_t>(
            plan.targets.size() == 1
                ? 0
                : std::min<size_t>(plan.targets.size() - 1,
                                   static_cast<size_t>(unit(rng) *
                                                       plan.targets.size())));
        const Target& target = plan.targets[request.target];
        request.query = static_cast<uint32_t>(std::min<size_t>(
            target.queries.size() - 1,
            std::lower_bound(target.cdf.begin(), target.cdf.end(),
                             unit(rng)) -
                target.cdf.begin()));
        const uint32_t id = (spec.index << kIndexBits) |
                            static_cast<uint32_t>(requests->size());
        const size_t before = conn.out.size();
        simrankpp::AppendTopKRequestFrame(
            {target.tenant, target.queries[request.query], plan.k}, id,
            &conn.out);
        conn.queued_bytes += conn.out.size() - before;
        conn.unsent.emplace_back(conn.queued_bytes,
                                 static_cast<uint32_t>(requests->size()));
        requests->push_back(request);
      }
      if (!Flush(&conn, requests)) *transport_ok = false;
    }
    // The sample at `end` closes the last window.
    const bool sampled = next_sample > last_sample;
    if (!*transport_ok ||
        (step_done && sampled && answered == requests->size()) ||
        now > deadline) {
      for (Conn& conn : *conns) conn.free_at.clear();
      return;
    }
    for (size_t i = 0; i < conns->size(); ++i) {
      const Conn& conn = (*conns)[i];
      pfds[i] = {conn.fd,
                 static_cast<short>(POLLIN | (conn.out_offset < conn.out.size()
                                                  ? POLLOUT
                                                  : 0)),
                 0};
    }
    // Busy-polls until the step ends: a sleeping thread on a busy virtual
    // machine is woken up milliseconds late, which latency from due would
    // charge to the daemon. The generator has its CPU to itself.
    double wake = step_done ? deadline : now;
    if (!sampled) wake = std::min(wake, next_sample);
    double wait = wake - Now();
    timespec ts{};
    if (wait > 0.0) {
      ts.tv_sec = static_cast<time_t>(wait);
      ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) *
                                     1e9);
    }
    if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      *transport_ok = false;
      for (Conn& conn : *conns) conn.free_at.clear();
      return;
    }
    for (size_t i = 0; i < conns->size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) &&
          !Receive(&(*conns)[i], spec.index, requests, &answered)) {
        *transport_ok = false;
      }
    }
  }
}

bool WriteDoubles(const std::string& path, const std::vector<double>& values) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return false;
  bool ok = std::fwrite(values.data(), sizeof(double), values.size(), out) ==
            values.size();
  return std::fclose(out) == 0 && ok;
}

struct ReplyStat {
  uint64_t count = 0;
  double max_sent = 0.0;
  double min_done = 1e300;
};

}  // namespace

int RunLoad(int argc, char** argv) {
  const std::string host = Flag(argc, argv, "--host", "127.0.0.1");
  const auto port = static_cast<uint16_t>(
      std::strtoul(Flag(argc, argv, "--port", "0"), nullptr, 10));
  const int pid = std::atoi(Flag(argc, argv, "--pid", "0"));
  const std::string out_dir = Flag(argc, argv, "--out", ".");
  const bool trace = std::atoi(Flag(argc, argv, "--trace", "0")) != 0;
  // The CPUs the request path runs on: their steal marks host stalls.
  std::vector<int> cpus;
  for (std::istringstream list(Flag(argc, argv, "--cpus", "0"));;) {
    int cpu = 0;
    if (!(list >> cpu)) break;
    cpus.push_back(cpu);
    list.ignore(1, ',');
  }
  Plan plan;
  if (!ReadPlan(Flag(argc, argv, "--plan", ""), &plan)) {
    std::fprintf(stderr, "perfbench_tool load: bad plan\n");
    return 2;
  }
  std::vector<Conn> conns(plan.connections);
  auto open_all = [&]() {
    for (Conn& conn : conns) {
      if (conn.fd >= 0) close(conn.fd);
      conn = Conn();
      conn.fd = Connect(host, port);
      if (conn.fd < 0) return false;
    }
    return true;
  };
  if (!open_all()) {
    std::fprintf(stderr, "perfbench_tool load: cannot connect\n");
    return 1;
  }

  // (target, query, digest) of every OK reply -> count and the interval
  // bounds the answer check needs.
  std::map<std::tuple<uint16_t, uint32_t, uint64_t>, ReplyStat> replies;
  std::vector<std::string> spans;
  uint32_t step_index = 0;
  for (std::string line; std::getline(std::cin, line);) {
    std::istringstream fields(line);
    std::string command;
    fields >> command;
    if (command == "quit") break;
    if (command != "step") {
      std::fprintf(stderr, "perfbench_tool load: bad command %s\n",
                   line.c_str());
      return 2;
    }
    std::string name;
    StepSpec spec;
    fields >> name >> spec.depth >> spec.seconds;
    if (!fields || spec.depth == 0 || !(spec.seconds > 0.0)) {
      std::fprintf(stderr, "perfbench_tool load: bad step %s\n",
                   line.c_str());
      return 2;
    }
    spec.index = ++step_index & 0xff;
    spec.t0 = Now() + 0.002;
    spec.pid = pid;
    spec.cpus = cpus;
    std::vector<Request> requests;
    std::vector<double> samples;
    bool all_ok = true;
    RunStep(plan, spec, &conns, &requests, &samples, &all_ok);
    const double finished = Now();

    const double end = spec.t0 + spec.seconds;
    std::vector<double> latency;
    std::vector<double> lateness;
    std::map<uint16_t, uint64_t> codes;
    uint64_t issued = 0;
    uint64_t ok = 0;
    uint64_t unanswered = 0;
    double rtt_sum = 0.0;
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& r = requests[i];
      ++issued;
      lateness.push_back(r.attempt - r.due);
      latency.push_back(r.due - spec.t0);
      latency.push_back(r.code == 0 ? r.done - r.due : HUGE_VAL);
      if (trace) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%u\t%u\t%u\t%.9f\t%.9f\t%.9f\t%u",
                      (spec.index << kIndexBits) | static_cast<uint32_t>(i),
                      r.target, r.query, r.due, r.sent, r.done, r.code);
        spans.emplace_back(buf);
      }
      if (r.code == kUnanswered) {
        ++unanswered;
        continue;
      }
      if (r.code != 0) {
        ++codes[r.code];
        continue;
      }
      ++ok;
      rtt_sum += r.done - r.sent;
      ReplyStat& stat = replies[{r.target, r.query, r.digest}];
      ++stat.count;
      stat.max_sent = std::max(stat.max_sent, r.sent);
      stat.min_done = std::min(stat.min_done, r.done);
    }
    if (unanswered > 0 || !all_ok) {
      if (!open_all()) {
        std::fprintf(stderr, "perfbench_tool load: cannot reconnect\n");
        return 1;
      }
    }
    const std::string lat_file = out_dir + "/" + name + "_lat.f64";
    const std::string late_file = out_dir + "/" + name + "_late.f64";
    const std::string host_file = out_dir + "/" + name + "_host.f64";
    if (!WriteDoubles(lat_file, latency) ||
        !WriteDoubles(late_file, lateness) ||
        !WriteDoubles(host_file, samples)) {
      std::fprintf(stderr, "perfbench_tool load: cannot write %s\n",
                   out_dir.c_str());
      return 1;
    }
    std::string code_json;
    for (const auto& [code, count] : codes) {
      code_json += (code_json.empty() ? "\"" : ",\"") + std::to_string(code) +
                   "\":" + std::to_string(count);
    }
    std::printf(
        "{\"name\":\"%s\",\"depth\":%zu,\"seconds\":%.6f,\"t0\":%.9f,"
        "\"t_end\":%.9f,\"finished\":%.9f,\"issued\":%llu,\"ok\":%llu,"
        "\"unanswered\":%llu,\"rtt_sum_s\":%.9f,"
        "\"transport_ok\":%s,\"codes\":{%s},\"lat_file\":\"%s\","
        "\"late_file\":\"%s\",\"host_file\":\"%s\"}\n",
        name.c_str(), spec.depth, spec.seconds, spec.t0, end, finished,
        static_cast<unsigned long long>(issued),
        static_cast<unsigned long long>(ok),
        static_cast<unsigned long long>(unanswered), rtt_sum,
        all_ok ? "true" : "false", code_json.c_str(), lat_file.c_str(),
        late_file.c_str(), host_file.c_str());
    std::fflush(stdout);
  }

  std::FILE* out = std::fopen((out_dir + "/replies.tsv").c_str(), "w");
  if (out == nullptr) return 1;
  for (const auto& [key, stat] : replies) {
    std::fprintf(out, "%u\t%u\t%016llx\t%llu\t%.9f\t%.9f\n", std::get<0>(key),
                 std::get<1>(key),
                 static_cast<unsigned long long>(std::get<2>(key)),
                 static_cast<unsigned long long>(stat.count), stat.max_sent,
                 stat.min_done);
  }
  bool written = std::fclose(out) == 0;
  if (trace) {
    // Spans stay in memory during the run and are written only here.
    std::FILE* span_out =
        std::fopen((out_dir + "/request_spans.tsv").c_str(), "w");
    if (span_out == nullptr) return 1;
    std::fputs("id\ttarget\tquery\tdue\tsent\tdone\tcode\n", span_out);
    for (const std::string& span : spans) {
      std::fputs(span.c_str(), span_out);
      std::fputc('\n', span_out);
    }
    written = std::fclose(span_out) == 0 && written;
  }
  for (Conn& conn : conns) {
    if (conn.fd >= 0) close(conn.fd);
  }
  return written ? 0 : 1;
}

}  // namespace perfbench
