// vpartd — long-running partitioning daemon.
//
// Serves the length-prefixed JSON protocol of src/service over a Unix
// domain socket (default) or localhost TCP.  Reuses built instances and
// finished results across requests, load-sheds when the admission queue
// fills, and drains gracefully on SIGTERM/SIGINT: in-flight requests
// finish, new submits are refused, then the process exits 0.
//
// Usage:
//   vpartd --socket unix:/tmp/vpartd.sock        (default)
//   vpartd --socket tcp:7077                      (127.0.0.1 only)
// Options:
//   --workers 2            concurrent partitioning jobs; each job gets
//                          max(1, usable CPUs / workers) threads
//   --queue 64             admission queue capacity (beyond = shed)
//   --max-payload-mb 4     per-frame payload cap
//   --idle-timeout-ms 30000  silent connections are closed
//   --drain-grace-ms 2000  response flush window during graceful stop
//   --stats-interval 0     seconds between stats log lines (0 = off)
//   --instance-cache 8     resident built hypergraphs
//   --result-cache 256     resident finished results
//   --verbose              per-event log lines on stderr
#include <cstdio>

#include "src/service/server.h"
#include "src/util/cli.h"
#include "src/util/shutdown.h"

using namespace vlsipart;
using namespace vlsipart::service;

namespace {

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.check_known({"socket", "workers", "queue", "max-payload-mb",
                    "idle-timeout-ms", "drain-grace-ms", "stats-interval",
                    "instance-cache", "result-cache", "verbose"});
  ServiceConfig config;
  std::string endpoint_error;
  if (!Endpoint::parse(args.get("socket", "unix:/tmp/vpartd.sock"),
                       config.endpoint, &endpoint_error)) {
    std::fprintf(stderr, "vpartd: %s\n", endpoint_error.c_str());
    return 2;
  }
  int_flag(args, "workers", config.workers);
  int_flag(args, "queue", config.queue_capacity);
  std::size_t max_payload_mb = config.max_payload >> 20;
  int_flag(args, "max-payload-mb", max_payload_mb);
  config.max_payload = max_payload_mb << 20;
  int_flag(args, "idle-timeout-ms", config.idle_timeout_ms);
  int_flag(args, "drain-grace-ms", config.drain_grace_ms);
  config.stats_log_interval_s = args.get_double("stats-interval", 0.0);
  int_flag(args, "instance-cache", config.instance_cache_capacity);
  int_flag(args, "result-cache", config.result_cache_capacity);
  config.verbose = args.get_bool("verbose");

  install_shutdown_handler();
  PartitionService server(std::move(config));
  server.start();
  std::printf("vpartd: serving on %s (%zu threads per job)\n",
              server.bound_endpoint().describe().c_str(),
              server.job_threads());
  std::fflush(stdout);
  server.serve_until_shutdown();
  std::printf("vpartd: drained, exiting\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli_main(argc, argv, run); }
