// vpart_client — command-line client for vpartd.
//
// Submits one partition request (mirroring the vpart option set) or a
// control op, and prints the response.
//
// Usage:
//   vpart_client --case ibm01 --scale 0.3 --k 2 --engine ml
//   vpart_client --hgr circuit.hgr --starts 8 --seed 7
//   vpart_client --op stats
//   vpart_client --op shutdown
// Options:
//   --socket unix:/tmp/vpartd.sock   where vpartd listens
//   --op submit|stats|ping|shutdown  (default submit)
//   --case NAME / --hgr F / --ispd98 P   instance source
//   --scale 0.5  --gen-seed 0        synthetic preset shaping
//   --k 2  --tolerance 0.02  --engine ml|flat|clip|nlevel|evo
//   --starts 4  --vcycles 1  --seed 1
//   --population 6  --generations 8   (evo engine)
//   --deadline-ms 0                  queue-time budget (0 = none)
//   --parts                          include the assignment in the reply
//   --no-result-cache                force recomputation server-side
//   --timeout-ms 600000              client-side response wait
#include <cstdio>

#include "src/part/engine.h"
#include "src/service/client.h"
#include "src/util/cli.h"

using namespace vlsipart;
using namespace vlsipart::service;

namespace {

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.check_known({"socket", "op", "case", "hgr", "ispd98", "scale",
                    "gen-seed", "k", "tolerance", "engine", "starts",
                    "vcycles", "population", "generations", "seed",
                    "deadline-ms", "parts", "no-result-cache",
                    "timeout-ms"});
  Endpoint endpoint;
  std::string error;
  if (!Endpoint::parse(args.get("socket", "unix:/tmp/vpartd.sock"),
                       endpoint, &error)) {
    std::fprintf(stderr, "vpart_client: %s\n", error.c_str());
    return 2;
  }
  int timeout_ms = 600000;
  int_flag(args, "timeout-ms", timeout_ms);
  ServiceClient client;
  if (!client.connect(endpoint)) {
    std::fprintf(stderr, "vpart_client: cannot connect to %s: %s\n",
                 endpoint.describe().c_str(), client.error().c_str());
    return 1;
  }

  const std::string op = args.get("op", "submit");
  if (op == "stats" || op == "ping") {
    JsonValue request = JsonValue::object();
    request.set("op", JsonValue::string(op));
    JsonValue response;
    if (!client.request(request, response, timeout_ms)) {
      std::fprintf(stderr, "vpart_client: %s\n", client.error().c_str());
      return 1;
    }
    std::printf("%s\n", response.dump().c_str());
    return 0;
  }
  if (op == "shutdown") {
    if (!client.shutdown_server()) {
      std::fprintf(stderr, "vpart_client: shutdown refused: %s\n",
                   client.error().c_str());
      return 1;
    }
    std::printf("vpartd draining\n");
    return 0;
  }
  if (op != "submit") {
    std::fprintf(stderr,
                 "vpart_client: unknown --op (submit|stats|ping|"
                 "shutdown): %s\n",
                 op.c_str());
    return 2;
  }

  SubmitRequest request;  // each flag defaults to the request's default
  if (args.has("hgr")) {
    request.instance.hgr_path = args.get("hgr", "");
  } else if (args.has("ispd98")) {
    request.instance.ispd98_path = args.get("ispd98", "");
  } else {
    request.instance.preset = args.get("case", "ibm01");
    request.instance.scale =
        args.get_double("scale", request.instance.scale);
    request.instance.gen_seed =
        args.get_uint("gen-seed", request.instance.gen_seed);
  }
  int_flag(args, "k", request.k);
  request.tolerance = args.get_double("tolerance", request.tolerance);
  request.engine = CliArgs::check_known_value(
      "engine", args.get("engine", request.engine), engine_names());
  if (const std::string why = engine_spec_error(request.engine, request.k);
      !why.empty()) {
    std::fprintf(stderr, "vpart_client: %s\n", why.c_str());
    return 2;
  }
  int_flag(args, "starts", request.starts);
  int_flag(args, "vcycles", request.vcycles);
  int_flag(args, "population", request.population);
  int_flag(args, "generations", request.generations);
  request.seed = args.get_uint("seed", request.seed);
  int_flag(args, "deadline-ms", request.deadline_ms);
  request.include_parts = args.get_bool("parts");
  request.use_result_cache = !args.get_bool("no-result-cache");

  const PartitionReply reply = client.submit_and_wait(request, timeout_ms);
  if (!reply.ok) {
    std::fprintf(stderr, "vpart_client: %s: %s\n",
                 reply.error.empty() ? "request failed"
                                     : reply.error.c_str(),
                 reply.message.c_str());
    return 1;
  }
  std::printf("job %lld: cut=%lld cache=%s queue_wait=%.3fs run=%.3fs\n",
              static_cast<long long>(reply.job),
              static_cast<long long>(reply.cut), reply.cache.c_str(),
              reply.queue_wait_s, reply.run_s);
  if (request.include_parts) {
    for (const PartId p : reply.parts) std::printf("%u\n", p);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli_main(argc, argv, run); }
