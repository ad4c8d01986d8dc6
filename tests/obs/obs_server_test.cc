#include "src/obs/obs_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "src/obs/decision.h"
#include "src/obs/event_journal.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"

namespace cdpipe {
namespace obs {
namespace {

/// Minimal HTTP client for the loopback tests: one request, reads to EOF.
std::string HttpGet(uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class ObsServerTest : public ::testing::Test {
 protected:
  ObsServerTest() : journal_(64) {
    options_.metrics = &metrics_;
    options_.journal = &journal_;
    options_.health = &health_;
    options_.stall_deadline_seconds = 5.0;
  }

  MetricsRegistry metrics_;
  EventJournal journal_;
  HealthRegistry health_;
  ObsServer::Options options_;
};

TEST_F(ObsServerTest, RoutesMetricsEndpoint) {
  metrics_.GetCounter("unit.requests")->Add(3);
  ObsServer server(options_);
  const std::string response =
      server.HandleRequest("GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("cdpipe_unit_requests 3"), std::string::npos);
}

TEST_F(ObsServerTest, RoutesHealthAndReadiness) {
  ObsServer server(options_);
  const std::string healthz =
      server.HandleRequest("GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(healthz.find("200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos);

  health_.GetHeartbeat("engine")->Beat();
  const std::string readyz =
      server.HandleRequest("GET /readyz HTTP/1.0\r\n\r\n");
  EXPECT_NE(readyz.find("200 OK"), std::string::npos);
  EXPECT_NE(readyz.find("\"ready\":true"), std::string::npos);
  EXPECT_NE(readyz.find("\"name\":\"engine\""), std::string::npos);
}

TEST_F(ObsServerTest, ReadyzReturns503WhenSubsystemStalls) {
  // Tight deadline + a busy heartbeat that went silent = not ready.
  options_.stall_deadline_seconds = 1e-9;
  Heartbeat* engine = health_.GetHeartbeat("engine");
  engine->BeginWork();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ObsServer server(options_);
  const std::string readyz =
      server.HandleRequest("GET /readyz HTTP/1.0\r\n\r\n");
  EXPECT_NE(readyz.find("503 Service Unavailable"), std::string::npos)
      << readyz;
  // The 503 body is a one-line plaintext reason naming the stalled
  // subsystem — no JSON parser needed on the probe side.
  EXPECT_NE(readyz.find("text/plain"), std::string::npos) << readyz;
  EXPECT_NE(readyz.find("not ready:"), std::string::npos) << readyz;
  EXPECT_NE(readyz.find("stalled=engine"), std::string::npos) << readyz;
  EXPECT_NE(readyz.find("busy=1"), std::string::npos) << readyz;
  EXPECT_EQ(readyz.find("\"ready\""), std::string::npos) << readyz;
  engine->EndWork();
}

TEST_F(ObsServerTest, ReadyzReturns503WhileIngestOverloaded) {
  health_.GetHeartbeat("engine")->Beat();
  metrics_.GetGauge("ingest.load_state")->Set(2.0);
  ObsServer server(options_);
  const std::string overloaded =
      server.HandleRequest("GET /readyz HTTP/1.0\r\n\r\n");
  EXPECT_NE(overloaded.find("503 Service Unavailable"), std::string::npos)
      << overloaded;
  EXPECT_NE(overloaded.find("ingest overloaded"), std::string::npos)
      << overloaded;

  // Back under the watermarks (or the controller destroyed): ready again,
  // and the 200 body is the unchanged JSON shape.
  metrics_.GetGauge("ingest.load_state")->Set(1.0);
  const std::string recovered =
      server.HandleRequest("GET /readyz HTTP/1.0\r\n\r\n");
  EXPECT_NE(recovered.find("200 OK"), std::string::npos) << recovered;
  EXPECT_NE(recovered.find("\"ready\":true"), std::string::npos) << recovered;
}

TEST_F(ObsServerTest, ReadyzFollowsAttachedWatchdog) {
  Watchdog::Options watchdog_options;
  watchdog_options.stall_deadline_seconds = 0.001;
  watchdog_options.health = &health_;
  watchdog_options.journal = &journal_;
  Watchdog watchdog(watchdog_options);

  Heartbeat* engine = health_.GetHeartbeat("engine");
  engine->BeginWork();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  watchdog.PollOnce();
  ASSERT_FALSE(watchdog.ready());

  options_.watchdog = &watchdog;
  ObsServer server(options_);
  const std::string readyz =
      server.HandleRequest("GET /readyz HTTP/1.0\r\n\r\n");
  EXPECT_NE(readyz.find("503 Service Unavailable"), std::string::npos);
  engine->EndWork();
}

TEST_F(ObsServerTest, RoutesEventsWithCountParameter) {
  for (int i = 0; i < 5; ++i) {
    journal_.Append(Decision::kIngest, CorrelationId{1, i}, "e2e");
  }
  ObsServer server(options_);
  const std::string all =
      server.HandleRequest("GET /events HTTP/1.0\r\n\r\n");
  EXPECT_NE(all.find("\"appended\":5"), std::string::npos) << all;
  EXPECT_NE(all.find("\"kind\":\"ingest\""), std::string::npos);

  const std::string two =
      server.HandleRequest("GET /events?n=2 HTTP/1.0\r\n\r\n");
  // Only the newest two events: entities 3 and 4.
  EXPECT_EQ(two.find("\"entity\":2"), std::string::npos) << two;
  EXPECT_NE(two.find("\"entity\":3"), std::string::npos);
  EXPECT_NE(two.find("\"entity\":4"), std::string::npos);
}

TEST_F(ObsServerTest, RejectsUnknownPathAndMethod) {
  ObsServer server(options_);
  EXPECT_NE(server.HandleRequest("GET /nope HTTP/1.0\r\n\r\n")
                .find("404 Not Found"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("POST /metrics HTTP/1.0\r\n\r\n")
                .find("405 Method Not Allowed"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("garbage").find("400 Bad Request"),
            std::string::npos);
}

TEST_F(ObsServerTest, ServesOverRealSockets) {
  journal_.Append(Decision::kTrainStep, CorrelationId{1, 1}, "rows=10");
  metrics_.GetCounter("socket.test")->Increment();
  ObsServer server(options_);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0)
      << "ephemeral port must be resolved after Start";

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("cdpipe_socket_test 1"), std::string::npos);

  const std::string events = HttpGet(server.port(), "/events?n=10");
  EXPECT_NE(events.find("\"kind\":\"train_step\""), std::string::npos);

  const std::string trace = HttpGet(server.port(), "/trace");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);

  EXPECT_GE(server.requests_served(), 3u);
  server.Stop();
  // Stop is idempotent and the port refuses connections afterwards.
  server.Stop();
  EXPECT_EQ(HttpGet(server.port(), "/healthz"), "");
}

TEST_F(ObsServerTest, StartFailsOnBadHost) {
  options_.host = "not-an-ip";
  ObsServer server(options_);
  EXPECT_FALSE(server.Start().ok());
}

}  // namespace
}  // namespace obs
}  // namespace cdpipe
