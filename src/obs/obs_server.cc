#include "src/obs/obs_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/obs/exporters.h"
#include "src/obs/trace.h"

namespace cdpipe {
namespace obs {
namespace {

Counter* RequestsCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("obs.server_requests");
  return counter;
}

std::string HttpResponse(int status, const char* reason,
                         const char* content_type, const std::string& body) {
  std::string out = StrFormat(
      "HTTP/1.0 %d %s\r\n"
      "Content-Type: %s\r\n"
      "Content-Length: %zu\r\n"
      "Connection: close\r\n"
      "\r\n",
      status, reason, content_type, body.size());
  out += body;
  return out;
}

/// Event count for /events without a valid ?n=.
constexpr size_t kDefaultEvents = 100;

/// Parses "n=K" out of a raw query string; returns kDefaultEvents when
/// absent or malformed.
size_t ParseEventCount(const std::string& query) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const std::string param = query.substr(pos, end - pos);
    if (param.rfind("n=", 0) == 0) {
      const long parsed = std::atol(param.c_str() + 2);
      if (parsed > 0) return static_cast<size_t>(parsed);
      return kDefaultEvents;
    }
    pos = end + 1;
  }
  return kDefaultEvents;
}

}  // namespace

ObsServer::ObsServer() : ObsServer(Options()) {}

ObsServer::ObsServer(Options options) : options_(std::move(options)) {
  if (options_.metrics == nullptr) options_.metrics = &MetricsRegistry::Global();
  if (options_.journal == nullptr) options_.journal = &EventJournal::Global();
  if (options_.health == nullptr) options_.health = &HealthRegistry::Global();
  if (options_.watchdog != nullptr) {
    options_.stall_deadline_seconds =
        options_.watchdog->options().stall_deadline_seconds;
  }
}

ObsServer::~ObsServer() { Stop(); }

Status ObsServer::Start() {
  if (running_.load(std::memory_order_relaxed)) return Status::OK();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status(StatusCode::kUnavailable,
                  StrFormat("obs server: socket() failed: %s",
                            std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("obs server: bad host '%s'", options_.host.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string message = StrFormat(
        "obs server: bind(%s:%u) failed: %s", options_.host.c_str(),
        static_cast<unsigned>(options_.port), std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status(StatusCode::kUnavailable, message);
  }
  if (::listen(listen_fd_, 16) != 0) {
    const std::string message = StrFormat("obs server: listen() failed: %s",
                                          std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status(StatusCode::kUnavailable, message);
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_relaxed);
  } else {
    port_.store(options_.port, std::memory_order_relaxed);
  }

  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&ObsServer::AcceptLoop, this);
  CDPIPE_LOG(Info) << "obs server listening on " << options_.host << ":"
                   << port();
  return Status::OK();
}

void ObsServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // shutdown() unblocks the accept() in the loop thread; close() releases
  // the fd once the thread has observed running_ == false.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void ObsServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      CDPIPE_LOG(Warning) << "obs server: accept() failed: "
                          << std::strerror(errno);
      break;
    }
    // Bound how long a slow or silent client can hold the single-threaded
    // accept loop hostage.
    timeval timeout{};
    timeout.tv_sec = 2;
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

    // Read until the end of the request head (body-less GETs only).
    std::string request;
    char buffer[2048];
    while (request.find("\r\n\r\n") == std::string::npos &&
           request.size() < (64u << 10)) {
      const ssize_t n = ::recv(conn, buffer, sizeof(buffer), 0);
      if (n <= 0) break;
      request.append(buffer, static_cast<size_t>(n));
    }

    const std::string response = HandleRequest(request);
    size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t n =
          ::send(conn, response.data() + sent, response.size() - sent, 0);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::close(conn);
  }
}

std::string ObsServer::HandleRequest(const std::string& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  RequestsCounter()->Increment();

  const size_t line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  const size_t method_end = line.find(' ');
  if (method_end == std::string::npos) {
    return HttpResponse(400, "Bad Request", "text/plain; charset=utf-8",
                        "malformed request line\n");
  }
  const std::string method = line.substr(0, method_end);
  const size_t target_end = line.find(' ', method_end + 1);
  const std::string target =
      target_end == std::string::npos
          ? line.substr(method_end + 1)
          : line.substr(method_end + 1, target_end - method_end - 1);

  if (method != "GET") {
    return HttpResponse(405, "Method Not Allowed",
                        "text/plain; charset=utf-8", "GET only\n");
  }
  return RouteGet(target);
}

std::string ObsServer::RouteGet(const std::string& path_and_query) {
  const size_t query_pos = path_and_query.find('?');
  const std::string path = path_and_query.substr(0, query_pos);
  const std::string query = query_pos == std::string::npos
                                ? std::string()
                                : path_and_query.substr(query_pos + 1);

  if (path == "/metrics") {
    return HttpResponse(200, "OK", "text/plain; version=0.0.4; charset=utf-8",
                        ToPrometheusText(options_.metrics->Snapshot()));
  }
  if (path == "/healthz") {
    // Liveness: the fact that this handler runs is the signal.
    return HttpResponse(200, "OK", "application/json",
                        "{\"status\":\"ok\"}\n");
  }
  if (path == "/readyz") {
    const std::vector<SubsystemHealth> subsystems = options_.health->Snapshot(
        options_.stall_deadline_seconds, Tracer::NowMicros());
    bool ready;
    if (options_.watchdog != nullptr) {
      ready = options_.watchdog->ready();
    } else {
      ready = true;
      for (const SubsystemHealth& s : subsystems) ready = ready && !s.stalled;
    }
    // An overloaded ingest admission queue also flips readiness: load
    // balancers should steer traffic away while the backlog drains.  The
    // gauge is reset when the run's AdmissionController is destroyed.
    const bool ingest_overloaded =
        options_.metrics->GetGauge("ingest.load_state")->Value() >= 2.0;
    if (ready && !ingest_overloaded) {
      return HttpResponse(200, "OK", "application/json",
                          HealthToJson(subsystems, true));
    }
    // 503 carries a short plaintext reason (which subsystem stalled, or
    // overload) instead of the JSON body — probe logs capture one line.
    return HttpResponse(503, "Service Unavailable",
                        "text/plain; charset=utf-8",
                        NotReadyReason(subsystems, ingest_overloaded));
  }
  if (path == "/events") {
    const size_t n = ParseEventCount(query);
    return HttpResponse(200, "OK", "application/json",
                        options_.journal->TailToJson(n));
  }
  if (path == "/trace") {
    return HttpResponse(200, "OK", "application/json",
                        Tracer::Global().ToChromeTraceJson());
  }
  return HttpResponse(404, "Not Found", "text/plain; charset=utf-8",
                      "unknown path; try /metrics /healthz /readyz /events"
                      " /trace\n");
}

}  // namespace obs
}  // namespace cdpipe
