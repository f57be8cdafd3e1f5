// Service-layer latency bench: cold one-shot requests vs cache-hit
// resubmission against an in-process vpartd, plus a concurrent
// offered-load sweep.
//
// "Cold" measures the full first-contact path: connect, frame, parse,
// instance generation, engine run, response.  "Warm" resubmits the
// identical request, which the deterministic result cache answers
// without re-running the engine — the speedup column is the service's
// value proposition for repeated-query workloads (parameter sweeps,
// dashboards, CI).  The acceptance bar is >= 5x.
//
//   --cases ibm01       presets to serve
//   --runs 8            warm resubmissions / cold samples per case
//   --scale 0.3         instance scale
//   --threads 2         server worker count
//   --seed 1            base request seed
//   --json PATH         append JSON-lines rows (BENCH_service.json)
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/util/histogram.h"
#include "src/util/shutdown.h"

using namespace vlsipart;
using namespace vlsipart::bench;
using namespace vlsipart::service;

namespace {

SubmitRequest case_request(const std::string& name, const BenchOptions& opt,
                           std::uint64_t seed) {
  SubmitRequest req;
  req.instance.preset = name;
  req.instance.scale = opt.scale;
  req.engine = "ml";
  req.starts = 2;
  req.vcycles = 1;
  req.seed = seed;
  return req;
}

}  // namespace

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01",
                                         /*default_runs=*/8,
                                         /*default_scale=*/0.3,
                                         {"threads"});
  ServiceConfig config;
  config.endpoint.tcp_port = 0;  // kernel-assigned loopback port
  config.workers = opt.threads;
  config.queue_capacity = 256;
  PartitionService server(std::move(config));
  server.start();
  const Endpoint endpoint = server.bound_endpoint();

  TextTable table({"case", "cold ms", "warm ms", "speedup", "conc rps",
                   "conc p95 ms"});
  for (const std::string& name : opt.cases) {
    // Cold one-shots: a fresh generator seed per sample defeats both
    // caches, so each request pays instance build + engine run.
    LatencyHistogram cold;
    for (std::size_t i = 0; i < opt.runs; ++i) {
      SubmitRequest req = case_request(name, opt, opt.seed);
      req.instance.gen_seed = 1000 + i;
      req.use_result_cache = false;
      ServiceClient client;
      if (!client.connect(endpoint)) {
        std::fprintf(stderr, "bench_service: %s\n", client.error().c_str());
        return 1;
      }
      const WallTimer timer;
      const PartitionReply reply = client.submit_and_wait(req);
      if (!reply.ok) {
        std::fprintf(stderr, "bench_service: cold request failed: %s\n",
                     reply.error.c_str());
        return 1;
      }
      cold.record(timer.elapsed());
    }

    // Warm resubmissions: identical request, answered from the result
    // cache after one priming run.
    const SubmitRequest warm_req = case_request(name, opt, opt.seed);
    {
      ServiceClient client;
      if (!client.connect(endpoint)) return 1;
      const PartitionReply prime = client.submit_and_wait(warm_req);
      if (!prime.ok) {
        std::fprintf(stderr, "bench_service: priming failed: %s\n",
                     prime.error.c_str());
        return 1;
      }
    }
    LatencyHistogram warm;
    for (std::size_t i = 0; i < opt.runs; ++i) {
      ServiceClient client;
      if (!client.connect(endpoint)) return 1;
      const WallTimer timer;
      const PartitionReply reply = client.submit_and_wait(warm_req);
      if (!reply.ok || reply.cache != "result") {
        std::fprintf(stderr,
                     "bench_service: warm request not served from cache "
                     "(cache=%s error=%s)\n",
                     reply.cache.c_str(), reply.error.c_str());
        return 1;
      }
      warm.record(timer.elapsed());
    }

    // Offered load: 2x runs concurrent clients with mixed (cachable)
    // seeds — throughput and tail latency under contention.
    const std::size_t concurrent = opt.runs * 2;
    std::vector<double> latencies(concurrent, -1.0);
    std::vector<std::thread> threads;
    threads.reserve(concurrent);
    const WallTimer sweep_timer;
    for (std::size_t i = 0; i < concurrent; ++i) {
      threads.emplace_back([&, i] {
        SubmitRequest req =
            case_request(name, opt, opt.seed + (i % 4));
        ServiceClient client;
        if (!client.connect(endpoint)) return;
        const WallTimer timer;
        const PartitionReply reply = client.submit_and_wait(req);
        if (reply.ok) latencies[i] = timer.elapsed();
      });
    }
    for (std::thread& t : threads) t.join();
    const double sweep_wall = sweep_timer.elapsed();
    LatencyHistogram conc;
    std::size_t ok = 0;
    for (const double s : latencies) {
      if (s >= 0.0) {
        conc.record(s);
        ++ok;
      }
    }
    if (ok != concurrent) {
      std::fprintf(stderr, "bench_service: %zu/%zu concurrent requests ok\n",
                   ok, concurrent);
      return 1;
    }

    const double cold_ms = cold.mean_seconds() * 1e3;
    const double warm_ms = warm.mean_seconds() * 1e3;
    const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
    table.add_row({name, fmt_fixed(cold_ms, 2), fmt_fixed(warm_ms, 3),
                   fmt_fixed(speedup, 1),
                   fmt_fixed(static_cast<double>(ok) / sweep_wall, 1),
                   fmt_fixed(conc.quantile(0.95) * 1e3, 2)});
    if (speedup < 5.0) {
      std::fprintf(stderr,
                   "bench_service: FAIL %s cache-hit speedup %.1fx < 5x\n",
                   name.c_str(), speedup);
      server.stop();
      return 1;
    }
  }

  emit(table, opt, "Service latency: cold one-shot vs cache-hit "
                   "resubmission (threads = server workers)");
  server.stop();
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
