// Tests for the vpartd service layer: protocol robustness (truncated /
// oversized / malformed frames, disconnects, deadlines, drain under
// load) and the determinism contract — results served concurrently by
// any worker count are bit-identical to direct library calls.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/gen/netlist_gen.h"
#include "src/part/core/multistart.h"
#include "src/part/core/partitioner.h"
#include "src/part/engine.h"
#include "src/part/evo/evo_partitioner.h"
#include "src/part/kway/recursive_bisection.h"
#include "src/part/ml/ml_partitioner.h"
#include "src/part/nlevel/nlevel_partitioner.h"
#include "src/service/client.h"
#include "src/service/framing.h"
#include "src/service/instance_cache.h"
#include "src/service/json.h"
#include "src/service/protocol.h"
#include "src/service/server.h"
#include "src/util/histogram.h"
#include "src/util/shutdown.h"
#include "src/util/thread_pool.h"

namespace vlsipart::service {
namespace {

ServiceConfig test_config(std::size_t workers) {
  ServiceConfig config;
  // TCP port 0 (kernel-assigned) avoids unix-path length/cleanup issues
  // in parallel ctest runs.
  config.endpoint.tcp_port = 0;
  config.workers = workers;
  config.queue_capacity = 32;
  config.idle_timeout_ms = 2000;
  return config;
}

SubmitRequest tiny_request(std::uint64_t seed = 1,
                           const std::string& engine = "flat") {
  SubmitRequest req;
  req.instance.preset = "tiny";
  req.instance.scale = 0.5;
  req.k = 2;
  req.engine = engine;
  req.starts = 2;
  req.vcycles = 0;
  req.seed = seed;
  req.include_parts = true;
  return req;
}

/// Reference result computed with direct library calls — deliberately
/// not through run_engine(), so it stays an independent check of the
/// service's engine wiring.
void direct_reference(const SubmitRequest& req, Weight& cut,
                      std::vector<PartId>& parts) {
  const Hypergraph h = generate_netlist(
      preset(req.instance.preset).scaled(req.instance.scale));
  FmConfig fm;
  if (req.engine == "clip") {
    fm.clip = true;
    fm.exclude_oversized = true;
  }
  if (req.k != 2) {
    KwayConfig config;
    config.k = req.k;
    config.tolerance = req.tolerance;
    config.use_ml = req.engine == "ml";
    config.fm = fm;
    config.starts_per_level = req.starts;
    config.seed = req.seed;
    const KwayResult r = recursive_bisection(h, config);
    cut = r.cut;
    parts = r.parts;
    return;
  }
  PartitionProblem problem;
  problem.graph = &h;
  problem.balance = BalanceConstraint::from_tolerance(
      h.total_vertex_weight(), req.tolerance);
  MultistartResult r;
  if (req.engine == "ml") {
    MlPartitioner engine{MlConfig{}};
    r = run_hmetis_like(problem, engine, req.starts, req.vcycles, req.seed);
  } else if (req.engine == "nlevel") {
    NlevelPartitioner engine{NlevelConfig{}};
    r = run_multistart(problem, engine, req.starts, req.seed);
  } else if (req.engine == "evo") {
    EvoConfig config;
    config.population = req.population;
    config.generations = req.generations;
    EvoPartitioner engine(config);
    r = run_multistart(problem, engine, req.starts, req.seed);
  } else {
    FlatFmPartitioner engine(fm);
    r = run_multistart(problem, engine, req.starts, req.seed);
  }
  cut = r.best_cut;
  parts = r.best_parts;
}

class ServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override { reset_shutdown_for_test(); }
  void TearDown() override {
    if (server_ != nullptr) server_->stop();
    reset_shutdown_for_test();
  }

  Endpoint start(ServiceConfig config) {
    server_ = std::make_unique<PartitionService>(std::move(config));
    server_->start();
    return server_->bound_endpoint();
  }

  std::unique_ptr<PartitionService> server_;
};

// ---------------------------------------------------------------------
// Determinism: same request set, serial vs concurrent, 1/2/8 workers,
// all bit-identical to direct library calls.

TEST_F(ServiceFixture, ServiceDeterminismAcrossWorkerCounts) {
  std::vector<SubmitRequest> requests;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    requests.push_back(tiny_request(seed, "flat"));
    requests.push_back(tiny_request(seed, "clip"));
  }
  requests.push_back(tiny_request(3, "ml"));
  requests.push_back(tiny_request(2, "nlevel"));
  SubmitRequest evo = tiny_request(4, "evo");
  evo.starts = 1;
  evo.population = 3;
  evo.generations = 2;
  requests.push_back(evo);
  // k = 4 recursive bisection, with the ML and the CLIP bisector.
  for (const char* engine : {"ml", "clip"}) {
    SubmitRequest kway = tiny_request(5, engine);
    kway.k = 4;
    kway.tolerance = 0.10;
    requests.push_back(kway);
  }

  std::vector<Weight> want_cut(requests.size());
  std::vector<std::vector<PartId>> want_parts(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    direct_reference(requests[i], want_cut[i], want_parts[i]);
  }

  for (const std::size_t workers : {1u, 2u, 8u}) {
    ServiceConfig config = test_config(workers);
    // Cold server each round, and cold results within the round: the
    // comparison is about execution, not about replaying a cache.
    const Endpoint endpoint = start(std::move(config));

    // Serial: one client, one request at a time.
    for (std::size_t i = 0; i < requests.size(); ++i) {
      SubmitRequest req = requests[i];
      req.use_result_cache = false;
      ServiceClient client;
      ASSERT_TRUE(client.connect(endpoint)) << client.error();
      const PartitionReply reply = client.submit_and_wait(req);
      ASSERT_TRUE(reply.ok) << reply.error << ": " << reply.message;
      EXPECT_EQ(reply.cut, want_cut[i]) << "workers=" << workers;
      EXPECT_EQ(reply.parts, want_parts[i]) << "workers=" << workers;
    }

    // Concurrent: every request in flight at once from its own client.
    std::vector<PartitionReply> replies(requests.size());
    std::vector<std::thread> threads;
    threads.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      threads.emplace_back([&, i] {
        SubmitRequest req = requests[i];
        req.use_result_cache = false;
        ServiceClient client;
        if (!client.connect(endpoint)) return;
        replies[i] = client.submit_and_wait(req);
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(replies[i].ok)
          << "workers=" << workers << ": " << replies[i].error;
      EXPECT_EQ(replies[i].cut, want_cut[i]) << "workers=" << workers;
      EXPECT_EQ(replies[i].parts, want_parts[i]) << "workers=" << workers;
    }

    server_->stop();
    server_.reset();
    reset_shutdown_for_test();
  }
}

TEST_F(ServiceFixture, ServiceResultCacheHitReturnsIdenticalResult) {
  const Endpoint endpoint = start(test_config(2));
  ServiceClient client;
  ASSERT_TRUE(client.connect(endpoint));
  const PartitionReply cold = client.submit_and_wait(tiny_request(7));
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(cold.cache, "none");
  const PartitionReply warm = client.submit_and_wait(tiny_request(7));
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.cache, "result");
  EXPECT_EQ(warm.cut, cold.cut);
  EXPECT_EQ(warm.parts, cold.parts);
  // Different seed = different request hash = no stale hit.
  const PartitionReply other = client.submit_and_wait(tiny_request(8));
  ASSERT_TRUE(other.ok);
  EXPECT_NE(other.cache, "result");
}

// A job shares its answer with the result cache; evicting the cache
// entry must not take the answer from the job that computed it.
TEST_F(ServiceFixture, EvictedAnswerStaysFetchable) {
  ServiceConfig config = test_config(1);
  config.result_cache_capacity = 1;
  const Endpoint endpoint = start(config);
  ServiceClient client;
  ASSERT_TRUE(client.connect(endpoint)) << client.error();
  const PartitionReply first = client.submit_and_wait(tiny_request(31));
  ASSERT_TRUE(first.ok) << first.error << ": " << first.message;
  ASSERT_FALSE(first.parts.empty());
  // Job B takes the one cache slot.
  ASSERT_TRUE(client.submit_and_wait(tiny_request(32)).ok);
  JsonValue stats;
  ASSERT_TRUE(client.stats(stats));
  EXPECT_EQ(stats.find("results_resident")->as_int(), 1);

  const PartitionReply again = client.fetch_result(first.job);
  ASSERT_TRUE(again.ok) << again.error << ": " << again.message;
  EXPECT_EQ(again.job, first.job);
  EXPECT_EQ(again.cut, first.cut);
  EXPECT_EQ(again.parts, first.parts);
  // A's entry really was evicted: resubmitting it runs the engine again.
  const PartitionReply rerun = client.submit_and_wait(tiny_request(31));
  ASSERT_TRUE(rerun.ok);
  EXPECT_NE(rerun.cache, "result");
  EXPECT_EQ(rerun.parts, first.parts);
}

// Front-end equivalence: a vpartd submit answers exactly what
// run_engine() answers for the same spec, also for a seed above 2^53,
// which a double on the wire would round.
TEST_F(ServiceFixture, SubmitReturnsRunEnginePartsExactly) {
  std::vector<SubmitRequest> requests;
  for (const std::uint64_t seed : {std::uint64_t{1}, (std::uint64_t{1} << 53) + 1}) {
    for (const EngineInfo& info : engine_registry()) {
      SubmitRequest req = tiny_request(seed, info.name);
      req.population = 3;
      req.generations = 2;
      requests.push_back(req);
    }
    for (const char* engine : {"ml", "flat", "clip"}) {
      SubmitRequest req = tiny_request(seed, engine);
      req.k = 4;
      req.tolerance = 0.10;
      requests.push_back(req);
    }
  }
  const Endpoint endpoint = start(test_config(2));
  ServiceClient client;
  ASSERT_TRUE(client.connect(endpoint)) << client.error();
  const Hypergraph h = generate_netlist(preset("tiny").scaled(0.5));
  for (const SubmitRequest& req : requests) {
    EngineSpec spec;
    spec.engine = req.engine;
    spec.k = req.k;
    spec.tolerance = req.tolerance;
    spec.starts = req.starts;
    spec.vcycles = req.vcycles;
    spec.seed = req.seed;
    spec.evo.population = req.population;
    spec.evo.generations = req.generations;
    const EngineResult want = run_engine(spec, h);
    ASSERT_TRUE(want.error.empty()) << want.error;
    const PartitionReply reply = client.submit_and_wait(req);
    ASSERT_TRUE(reply.ok) << reply.error << ": " << reply.message;
    EXPECT_EQ(reply.parts, want.parts)
        << req.engine << " k=" << req.k << " seed=" << req.seed;
    EXPECT_EQ(reply.cut, want.cut)
        << req.engine << " k=" << req.k << " seed=" << req.seed;
  }
}

// ---------------------------------------------------------------------
// Failure paths.

TEST_F(ServiceFixture, ServiceRejectsMalformedJson) {
  const Endpoint endpoint = start(test_config(1));
  std::string error;
  Socket sock = connect_endpoint(endpoint, 2000, &error);
  ASSERT_TRUE(sock.valid()) << error;
  ASSERT_TRUE(write_frame(sock.fd(), "{\"op\": nonsense"));
  std::string payload;
  ASSERT_EQ(read_frame(sock.fd(), payload, 1 << 20, 5000),
            FrameStatus::kOk);
  JsonValue response;
  ASSERT_TRUE(parse_json(payload, response, nullptr));
  EXPECT_FALSE(response.find("ok")->as_bool(true));
  EXPECT_EQ(response.find("error")->as_string(), "bad_json");
  // The connection survives a malformed request: a valid one succeeds.
  ASSERT_TRUE(write_frame(sock.fd(), R"({"op":"ping"})"));
  ASSERT_EQ(read_frame(sock.fd(), payload, 1 << 20, 5000),
            FrameStatus::kOk);
  ASSERT_TRUE(parse_json(payload, response, nullptr));
  EXPECT_TRUE(response.find("ok")->as_bool(false));
}

TEST_F(ServiceFixture, ServiceRejectsOversizedPayload) {
  ServiceConfig config = test_config(1);
  config.max_payload = 1024;
  const Endpoint endpoint = start(std::move(config));
  std::string error;
  Socket sock = connect_endpoint(endpoint, 2000, &error);
  ASSERT_TRUE(sock.valid()) << error;
  // Hand-roll a frame header announcing 1 MiB against the 1 KiB cap.
  const std::uint32_t announced = 1u << 20;
  unsigned char header[4] = {
      static_cast<unsigned char>(announced >> 24),
      static_cast<unsigned char>(announced >> 16),
      static_cast<unsigned char>(announced >> 8),
      static_cast<unsigned char>(announced)};
  ASSERT_EQ(::send(sock.fd(), header, 4, 0), 4);
  std::string payload;
  ASSERT_EQ(read_frame(sock.fd(), payload, 1 << 20, 5000),
            FrameStatus::kOk);
  JsonValue response;
  ASSERT_TRUE(parse_json(payload, response, nullptr));
  EXPECT_EQ(response.find("error")->as_string(), "oversized");
  // Server closes the connection after an oversized announcement.
  ASSERT_EQ(read_frame(sock.fd(), payload, 1 << 20, 5000),
            FrameStatus::kClosed);
}

TEST_F(ServiceFixture, ServiceSurvivesTruncatedFrame) {
  const Endpoint endpoint = start(test_config(1));
  {
    std::string error;
    Socket sock = connect_endpoint(endpoint, 2000, &error);
    ASSERT_TRUE(sock.valid()) << error;
    // Announce 100 bytes, send 3, hang up mid-frame.
    const unsigned char partial[7] = {0, 0, 0, 100, '{', '"', 'o'};
    ASSERT_EQ(::send(sock.fd(), partial, 7, 0), 7);
  }  // RAII close = truncation
  // The server must shrug it off and keep serving.
  ServiceClient client;
  ASSERT_TRUE(client.connect(endpoint));
  const PartitionReply reply = client.submit_and_wait(tiny_request());
  EXPECT_TRUE(reply.ok) << reply.error;
}

TEST_F(ServiceFixture, ServiceSurvivesDisconnectMidResponse) {
  const Endpoint endpoint = start(test_config(1));
  {
    std::string error;
    Socket sock = connect_endpoint(endpoint, 2000, &error);
    ASSERT_TRUE(sock.valid()) << error;
    SubmitRequest req = tiny_request();
    req.include_parts = true;
    ASSERT_TRUE(write_frame(sock.fd(), submit_to_json(req).dump()));
    std::string payload;
    ASSERT_EQ(read_frame(sock.fd(), payload, 1 << 20, 5000),
              FrameStatus::kOk);
    JsonValue submitted;
    ASSERT_TRUE(parse_json(payload, submitted, nullptr));
    ASSERT_TRUE(submitted.find("ok")->as_bool(false));
    // Ask for the result but vanish before reading the response.  The
    // server's send hits a dead peer (EPIPE, suppressed) and must not
    // die or leak the connection slot.
    JsonValue fetch = JsonValue::object();
    fetch.set("op", JsonValue::string("result"));
    fetch.set("job", *submitted.find("job"));
    fetch.set("wait", JsonValue::boolean(true));
    ASSERT_TRUE(write_frame(sock.fd(), fetch.dump()));
  }  // RAII close while the job may still be running
  ServiceClient client;
  ASSERT_TRUE(client.connect(endpoint));
  const PartitionReply reply = client.submit_and_wait(tiny_request(2));
  EXPECT_TRUE(reply.ok) << reply.error;
}

TEST_F(ServiceFixture, ServiceExpiresDeadlinedJobs) {
  // One worker pinned on a slow job; a zero-tolerance deadline behind it
  // must expire rather than run.
  const Endpoint endpoint = start(test_config(1));
  ServiceClient blocker;
  ASSERT_TRUE(blocker.connect(endpoint));
  SubmitRequest slow = tiny_request(1, "ml");
  slow.instance.preset = "small";
  slow.starts = 8;
  slow.vcycles = 2;
  slow.use_result_cache = false;
  const std::int64_t slow_job = blocker.submit(slow);
  ASSERT_GT(slow_job, 0);

  ServiceClient client;
  ASSERT_TRUE(client.connect(endpoint));
  SubmitRequest hurried = tiny_request(2);
  hurried.deadline_ms = 1;  // already elapsed by pickup time
  const PartitionReply reply = client.submit_and_wait(hurried);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.state, "expired");
  EXPECT_EQ(reply.error, "expired");
  // The slow job itself still completes.
  const PartitionReply slow_reply = blocker.fetch_result(slow_job);
  EXPECT_TRUE(slow_reply.ok) << slow_reply.error;
}

TEST_F(ServiceFixture, ServiceShedsLoadWhenQueueFull) {
  ServiceConfig config = test_config(1);
  config.queue_capacity = 1;
  const Endpoint endpoint = start(std::move(config));
  ServiceClient client;
  ASSERT_TRUE(client.connect(endpoint));
  SubmitRequest slow = tiny_request(1, "ml");
  slow.instance.preset = "small";
  slow.starts = 8;
  slow.use_result_cache = false;
  std::vector<std::int64_t> jobs;
  bool shed = false;
  for (int i = 0; i < 8; ++i) {
    SubmitRequest req = slow;
    req.seed = static_cast<std::uint64_t>(100 + i);
    const std::int64_t job = client.submit(req);
    if (job < 0) {
      EXPECT_EQ(client.error(), "overloaded");
      shed = true;
    } else {
      jobs.push_back(job);
    }
  }
  EXPECT_TRUE(shed) << "queue of 1 never overflowed across 8 rapid submits";
  for (const std::int64_t job : jobs) {
    const PartitionReply reply = client.fetch_result(job);
    EXPECT_TRUE(reply.ok) << reply.error;
  }
}

// ---------------------------------------------------------------------
// Drain under load: stop() finishes in-flight jobs, and their cuts match
// direct library calls.

TEST_F(ServiceFixture, ServiceDrainUnderLoadCompletesInFlight) {
  const Endpoint endpoint = start(test_config(2));
  std::vector<SubmitRequest> requests;
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    SubmitRequest req = tiny_request(seed);
    req.use_result_cache = false;
    requests.push_back(req);
  }
  std::vector<ServiceClient> clients(requests.size());
  std::vector<std::int64_t> jobs(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(clients[i].connect(endpoint));
    jobs[i] = clients[i].submit(requests[i]);
    ASSERT_GT(jobs[i], 0);
  }
  // Drain with everything still queued/running; stop() must block until
  // every admitted job is terminal, then let waiting fetches complete.
  std::thread drain([this] { server_->stop(); });
  std::vector<PartitionReply> replies(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    replies[i] = clients[i].fetch_result(jobs[i]);
  }
  drain.join();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(replies[i].ok) << replies[i].error;
    Weight want_cut = 0;
    std::vector<PartId> want_parts;
    direct_reference(requests[i], want_cut, want_parts);
    EXPECT_EQ(replies[i].cut, want_cut);
    EXPECT_EQ(replies[i].parts, want_parts);
  }
  // Post-drain submits are refused.
  ServiceClient late;
  if (late.connect(endpoint)) {
    EXPECT_LT(late.submit(requests[0]), 0);
  }
}

TEST_F(ServiceFixture, ServiceStatsReportActivity) {
  const Endpoint endpoint = start(test_config(2));
  ServiceClient client;
  ASSERT_TRUE(client.connect(endpoint));
  ASSERT_TRUE(client.submit_and_wait(tiny_request(21)).ok);
  ASSERT_TRUE(client.submit_and_wait(tiny_request(21)).ok);  // cache hit
  JsonValue stats;
  ASSERT_TRUE(client.stats(stats));
  EXPECT_TRUE(stats.find("ok")->as_bool());
  EXPECT_EQ(stats.find("completed")->as_int(), 2);
  EXPECT_EQ(stats.find("result_cache_hits")->as_int(), 1);
  EXPECT_GE(stats.find("instance_cache_hits")->as_int(), 1);
  const JsonValue* latency = stats.find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->find("count")->as_int(), 2);
  EXPECT_GE(latency->find("p99_s")->as_number(), 0.0);
}

// Each job's thread budget splits the usable CPUs among the workers.
// Above one thread it only exercises helper threads on multi-core hosts.
TEST_F(ServiceFixture, ServiceStatsReportJobThreads) {
  for (const std::size_t workers : {1u, 2u, 8u}) {
    const Endpoint endpoint = start(test_config(workers));
    const std::size_t want = std::max<std::size_t>(1, usable_cpus() / workers);
    EXPECT_EQ(server_->job_threads(), want) << "workers=" << workers;
    ServiceClient client;
    ASSERT_TRUE(client.connect(endpoint));
    JsonValue stats;
    ASSERT_TRUE(client.stats(stats));
    ASSERT_NE(stats.find("job_threads"), nullptr);
    EXPECT_EQ(stats.find("job_threads")->as_int(),
              static_cast<std::int64_t>(want))
        << "workers=" << workers;
    server_->stop();
    server_.reset();
    reset_shutdown_for_test();
  }
}

// ---------------------------------------------------------------------
// Component-level pieces.

TEST(ServiceJson, RoundTripsAndRejectsGarbage) {
  JsonValue obj = JsonValue::object();
  obj.set("op", JsonValue::string("submit"));
  obj.set("k", JsonValue::integer(2));
  obj.set("tol", JsonValue::number(0.02));
  JsonValue arr = JsonValue::array();
  arr.push(JsonValue::integer(1));
  arr.push(JsonValue::boolean(false));
  obj.set("xs", std::move(arr));
  const std::string text = obj.dump();
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(parse_json(text, parsed, &error)) << error;
  EXPECT_EQ(parsed.dump(), text);

  JsonValue out;
  EXPECT_FALSE(parse_json("{\"a\":}", out, &error));
  EXPECT_FALSE(parse_json("{} garbage", out, &error));
  EXPECT_FALSE(parse_json("{\"a\":1e999}", out, &error));
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  EXPECT_FALSE(parse_json(deep, out, &error));
  EXPECT_TRUE(parse_json(R"("é😀")", out, &error)) << error;
}

TEST(ServiceProtocol, ParseSubmitValidates) {
  JsonValue good;
  ASSERT_TRUE(parse_json(
      R"({"op":"submit","instance":{"preset":"tiny"},"k":4,
          "engine":"clip","starts":3,"seed":9})",
      good, nullptr));
  SubmitRequest req;
  std::string error;
  ASSERT_TRUE(parse_submit(good, req, &error)) << error;
  EXPECT_EQ(req.k, 4u);
  EXPECT_EQ(req.engine, "clip");
  EXPECT_EQ(req.starts, 3u);
  EXPECT_EQ(req.seed, 9u);

  const auto expect_reject = [](const char* text) {
    JsonValue bad;
    ASSERT_TRUE(parse_json(text, bad, nullptr)) << text;
    SubmitRequest out;
    std::string why;
    EXPECT_FALSE(parse_submit(bad, out, &why)) << text;
    EXPECT_FALSE(why.empty());
  };
  expect_reject(R"({"op":"submit"})");
  expect_reject(R"({"op":"submit","instance":{}})");
  expect_reject(
      R"({"op":"submit","instance":{"preset":"tiny","hgr_path":"x"}})");
  expect_reject(
      R"({"op":"submit","instance":{"preset":"tiny"},"engine":"magic"})");
  expect_reject(
      R"({"op":"submit","instance":{"preset":"tiny"},"k":1})");
  expect_reject(
      R"({"op":"submit","instance":{"preset":"tiny"},"tolerance":2})");
  expect_reject(
      R"({"op":"submit","instance":{"preset":"tiny"},"deadline_ms":-5})");
}

TEST(ServiceJson, AsIntFallsBackOutsideInt64Range) {
  EXPECT_EQ(JsonValue::number(1e300).as_int(7), 7);
  EXPECT_EQ(JsonValue::number(-1e300).as_int(7), 7);
  EXPECT_EQ(JsonValue::number(0x1p63).as_int(7), 7);
  EXPECT_EQ(JsonValue::number(-0x1p63).as_int(7),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(JsonValue::number(std::numeric_limits<double>::quiet_NaN())
                .as_int(7),
            7);
  EXPECT_EQ(JsonValue::number(-3.99).as_int(7), -3);
}

TEST(ServiceProtocol, IntegerFieldsRejectFractionsAndHugeValues) {
  const auto why_rejected = [](const std::string& member) {
    JsonValue request;
    const std::string text =
        R"({"op":"submit","instance":{"preset":"tiny"},)" + member + "}";
    EXPECT_TRUE(parse_json(text, request, nullptr)) << text;
    SubmitRequest out;
    std::string why;
    EXPECT_FALSE(parse_submit(request, out, &why)) << text;
    return why;
  };
  EXPECT_EQ(why_rejected(R"("k":2.5)"), "k must be an integer in [2, 64]");
  EXPECT_EQ(why_rejected(R"("k":1e300)"), "k must be an integer in [2, 64]");
  EXPECT_EQ(why_rejected(R"("k":-1e300)"), "k must be an integer in [2, 64]");
  EXPECT_EQ(why_rejected(R"("starts":3.99)"),
            "starts must be an integer in [1, 4096]");
  EXPECT_EQ(why_rejected(R"("vcycles":1e19)"),
            "vcycles must be an integer in [0, 64]");

  // An integral number written with a fraction or exponent is still an
  // integer.
  JsonValue request;
  ASSERT_TRUE(parse_json(
      R"({"op":"submit","instance":{"preset":"tiny"},"k":4.0,"starts":2e0})",
      request, nullptr));
  SubmitRequest out;
  std::string error;
  ASSERT_TRUE(parse_submit(request, out, &error)) << error;
  EXPECT_EQ(out.k, 4u);
  EXPECT_EQ(out.starts, 2u);
}

TEST(ServiceJson, IntegersStayExactAndValuesRoundTrip) {
  JsonValue arr = JsonValue::array();
  arr.push(JsonValue::integer(std::numeric_limits<std::int64_t>::min()));
  arr.push(JsonValue::integer(std::numeric_limits<std::int64_t>::max()));
  arr.push(JsonValue::unsigned_integer(
      std::numeric_limits<std::uint64_t>::max()));
  arr.push(JsonValue::unsigned_integer((std::uint64_t{1} << 53) + 1));
  arr.push(JsonValue::number(0.1));
  arr.push(JsonValue::number(-2.5e-300));
  arr.push(JsonValue::number(1e17));
  arr.push(JsonValue::number(9.5e15));
  arr.push(JsonValue::string("tab\t \"q\" \x01"));
  arr.push(JsonValue());
  const std::string text = arr.dump();
  EXPECT_EQ(text,
            "[-9223372036854775808,9223372036854775807,"
            "18446744073709551615,9007199254740993,0.1,-2.5e-300,1e+17,"
            "9500000000000000,\"tab\\t \\\"q\\\" \\u0001\",null]");
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(parse_json(text, parsed, &error)) << error;
  EXPECT_EQ(parsed.dump(), text);
  const std::vector<JsonValue>& items = parsed.items();
  ASSERT_EQ(items.size(), 10u);
  EXPECT_EQ(items[0].as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(items[1].as_int(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(items[2].as_uint(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(items[2].as_int(7), 7);  // above INT64_MAX
  EXPECT_EQ(items[3].as_uint(), (std::uint64_t{1} << 53) + 1);
  EXPECT_EQ(items[4].as_number(), 0.1);
  EXPECT_EQ(items[5].as_number(), -2.5e-300);
  EXPECT_EQ(items[6].as_number(), 1e17);
  EXPECT_EQ(items[8].as_string(), "tab\t \"q\" \x01");

  // 2^64 is no integer any more: it reads as a double.
  ASSERT_TRUE(parse_json("18446744073709551616", parsed, &error)) << error;
  EXPECT_TRUE(parsed.is_number());
  EXPECT_EQ(parsed.as_uint(), std::nullopt);
  EXPECT_EQ(parsed.as_number(), 0x1p64);
  // Not JSON numbers.
  for (const char* bad : {"+1", "01", ".5", "1.", "1e", "-", "--1", "1e+"}) {
    EXPECT_FALSE(parse_json(bad, parsed, &error)) << bad;
  }
}

TEST(ServiceProtocol, SeedsRoundTripExactly) {
  for (const std::uint64_t seed :
       {(std::uint64_t{1} << 53) + 1, std::numeric_limits<std::uint64_t>::max()}) {
    SubmitRequest req = tiny_request(seed);
    req.instance.gen_seed = seed;
    JsonValue wire;
    std::string error;
    ASSERT_TRUE(parse_json(submit_to_json(req).dump(), wire, &error))
        << error;
    SubmitRequest back;
    ASSERT_TRUE(parse_submit(wire, back, &error)) << error;
    EXPECT_EQ(back.seed, seed);
    EXPECT_EQ(back.instance.gen_seed, seed);
  }

  const auto why_rejected = [](const std::string& seed,
                               const std::string& gen_seed) {
    JsonValue request;
    const std::string text =
        R"({"op":"submit","instance":{"preset":"tiny","gen_seed":)" +
        gen_seed + R"(},"seed":)" + seed + "}";
    EXPECT_TRUE(parse_json(text, request, nullptr)) << text;
    SubmitRequest out;
    std::string why;
    EXPECT_FALSE(parse_submit(request, out, &why)) << text;
    return why;
  };
  for (const char* bad : {"-1", "1.5", "1e300", "18446744073709551616"}) {
    EXPECT_EQ(why_rejected(bad, "0"),
              "seed must be an integer in [0, 18446744073709551615]")
        << bad;
    EXPECT_EQ(why_rejected("1", bad),
              "gen_seed must be an integer in [0, 18446744073709551615]")
        << bad;
  }
}

TEST(ServiceProtocol, DefaultsLiveInSubmitRequest) {
  // An absent member keeps SubmitRequest's default: a bare submit parses
  // to SubmitRequest{} in every field but the instance it names.
  JsonValue bare;
  ASSERT_TRUE(parse_json(R"({"op":"submit","instance":{"preset":"tiny"}})",
                         bare, nullptr));
  SubmitRequest parsed;
  std::string error;
  ASSERT_TRUE(parse_submit(bare, parsed, &error)) << error;
  SubmitRequest expected;
  expected.instance.preset = "tiny";
  EXPECT_EQ(parsed, expected);

  // And those defaults are the engine front door's.
  const SubmitRequest request;
  const EngineSpec spec;
  EXPECT_EQ(request.k, spec.k);
  EXPECT_EQ(request.tolerance, spec.tolerance);
  EXPECT_EQ(request.engine, spec.engine);
  EXPECT_EQ(request.starts, spec.starts);
  EXPECT_EQ(request.vcycles, spec.vcycles);
  EXPECT_EQ(request.seed, spec.seed);
  EXPECT_EQ(request.population, spec.evo.population);
  EXPECT_EQ(request.generations, spec.evo.generations);
}

TEST(ServiceProtocol, DeadlineIsAnExactInteger) {
  for (const char* bad : {"-5", "2.5", "1e300"}) {
    JsonValue request;
    ASSERT_TRUE(parse_json(
        std::string(R"({"op":"submit","instance":{"preset":"tiny"},)") +
            R"("deadline_ms":)" + bad + "}",
        request, nullptr));
    SubmitRequest out;
    std::string why;
    EXPECT_FALSE(parse_submit(request, out, &why)) << bad;
    EXPECT_EQ(why,
              "deadline_ms must be an integer in [0, 9223372036854775807]");
  }
}

TEST(ServiceProtocol, ResultCacheKeySensitivity) {
  const SubmitRequest base = tiny_request(5);
  const std::uint64_t h = 12345;
  const std::uint64_t key = result_cache_key(base, h);
  EXPECT_EQ(result_cache_key(base, h), key);
  EXPECT_NE(result_cache_key(base, h + 1), key);

  // Flip every member of the wire body except the four that cannot
  // change the answer; each flip must change the key.  A member added to
  // SubmitRequest later is covered without editing this test.
  const JsonValue body = submit_to_json(base);
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < body.members().size(); ++i) {
    const std::string& name = body.members()[i].first;
    if (name == "op" || name == "instance" || name == "include_parts" ||
        name == "deadline_ms" || name == "use_result_cache") {
      continue;
    }
    JsonValue mutated = JsonValue::object();
    for (std::size_t j = 0; j < body.members().size(); ++j) {
      const auto& [member, value] = body.members()[j];
      if (j != i) {
        mutated.set(member, value);
      } else if (value.is_string()) {
        mutated.set(member, JsonValue::string(value.as_string() == "clip"
                                                  ? "flat"
                                                  : "clip"));
      } else if (value.is_bool()) {
        mutated.set(member, JsonValue::boolean(!value.as_bool()));
      } else if (value.as_number() == static_cast<double>(value.as_int())) {
        mutated.set(member, JsonValue::integer(value.as_int() + 1));
      } else {
        mutated.set(member, JsonValue::number(value.as_number() / 2.0));
      }
    }
    SubmitRequest changed;
    std::string error;
    ASSERT_TRUE(parse_submit(mutated, changed, &error))
        << name << ": " << error;
    EXPECT_NE(result_cache_key(changed, h), key) << name;
    ++flipped;
  }
  EXPECT_GE(flipped, 8u);  // k tolerance engine starts vcycles population
                           // generations seed

  // instance / include_parts / deadlines / cache opts do NOT affect the
  // key (the instance enters only through its content hash).
  SubmitRequest changed = base;
  changed.instance.preset = "small";
  changed.include_parts = !base.include_parts;
  changed.deadline_ms = 99;
  changed.use_result_cache = false;
  EXPECT_EQ(result_cache_key(changed, h), key);
}

TEST(ServiceInstanceCache, SingleFlightAndEviction) {
  InstanceCache cache(1);
  InstanceSpec tiny;
  tiny.preset = "tiny";
  bool hit = true;
  const auto first = cache.get(tiny, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(first, nullptr);
  EXPECT_GT(first->graph.num_vertices(), 0u);
  EXPECT_NE(first->content_hash, 0u);
  const auto again = cache.get(tiny, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.get(), first.get());  // same resident object

  InstanceSpec small;
  small.preset = "small";
  cache.get(small, &hit);  // capacity 1: evicts tiny
  EXPECT_EQ(cache.resident(), 1u);
  cache.get(tiny, &hit);
  EXPECT_FALSE(hit);  // rebuilt after eviction

  InstanceSpec bad;
  bad.hgr_path = "/nonexistent/file.hgr";
  EXPECT_THROW(cache.get(bad, &hit), std::exception);
  EXPECT_THROW(cache.get(bad, &hit), std::exception);  // retried, not stuck
}

TEST(ServiceInstanceCache, ContentHashSeesStructure) {
  InstanceSpec a;
  a.preset = "tiny";
  InstanceSpec b;
  b.preset = "tiny";
  b.gen_seed = 77;  // different generator stream
  InstanceCache cache(4);
  bool hit = false;
  const auto ia = cache.get(a, &hit);
  const auto ib = cache.get(b, &hit);
  EXPECT_NE(ia->content_hash, ib->content_hash);
  EXPECT_EQ(hypergraph_content_hash(ia->graph), ia->content_hash);
}

TEST(ServiceHistogram, QuantilesAreConservativeAndOrderFree) {
  LatencyHistogram a;
  LatencyHistogram b;
  const double samples[] = {1e-6, 5e-6, 2e-3, 0.5, 3e-3, 8e-5};
  for (const double s : samples) a.record(s);
  for (int i = 5; i >= 0; --i) b.record(samples[i]);
  EXPECT_EQ(a.count(), 6u);
  EXPECT_EQ(a.quantile(0.5), b.quantile(0.5));
  EXPECT_EQ(a.quantile(0.99), b.quantile(0.99));
  EXPECT_GE(a.quantile(0.99), 0.5);  // never under-states
  EXPECT_DOUBLE_EQ(a.max_seconds(), 0.5);
  LatencyHistogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count(), 12u);
  EXPECT_EQ(merged.quantile(0.5), a.quantile(0.5));
}

TEST(ServiceFraming, EndpointParse) {
  Endpoint ep;
  std::string error;
  ASSERT_TRUE(Endpoint::parse("unix:/tmp/x.sock", ep, &error));
  EXPECT_TRUE(ep.is_unix());
  EXPECT_EQ(ep.unix_path, "/tmp/x.sock");
  ASSERT_TRUE(Endpoint::parse("tcp:7077", ep, &error));
  EXPECT_FALSE(ep.is_unix());
  EXPECT_EQ(ep.tcp_port, 7077);
  ASSERT_TRUE(Endpoint::parse("/tmp/bare.sock", ep, &error));
  EXPECT_TRUE(ep.is_unix());
  EXPECT_FALSE(Endpoint::parse("tcp:notaport", ep, &error));
  EXPECT_FALSE(Endpoint::parse("tcp:99999", ep, &error));
  EXPECT_FALSE(Endpoint::parse("", ep, &error));
}

}  // namespace
}  // namespace vlsipart::service
