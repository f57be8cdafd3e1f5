// Seeded byte-mutation fuzzing of the vp_io readers and of the vpartd
// wire (frames, JSON bodies, submit requests and result replies).  The
// file seeds are the writers' output for three presets; the wire seeds
// are a submit body and a result reply with parts.  Each case applies
// one to three mutations drawn from a fixed Rng seed: flip a byte,
// insert a byte from the format's alphabet, delete a byte, or truncate.
// Property: the reader returns a valid object (Hypergraph::validate()
// passes; every part id is below kNoPart; a parsed request re-encodes
// to itself) or reports an error (std::runtime_error, a false return, a
// non-ok frame status).  Any other exception fails here; a crash, a hang
// or a sanitizer report fails the run.
//
// Count header lines are left unmutated: isolated vertices carry no
// pins, so the format makes a reader trust the vertex count, and a
// mutated count could ask for gigabytes legally.  The readers' bound on
// that count has its own tests in io_test.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/gen/netlist_gen.h"
#include "src/io/hmetis_io.h"
#include "src/io/ispd98_io.h"
#include "src/io/partition_io.h"
#include "src/service/client.h"
#include "src/service/framing.h"
#include "src/service/json.h"
#include "src/service/protocol.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace vlsipart {
namespace {

constexpr int kCasesPerSeed = 150;

struct Seed {
  std::string name;
  std::string hgr;
  std::string net;
  std::string are;
  std::string part;
};

const std::vector<Seed>& seeds() {
  static const std::vector<Seed> all = [] {
    std::vector<Seed> out;
    for (const GenConfig& config :
         {preset("tiny"), preset("small"), preset("ibm01").scaled(0.1)}) {
      Ispd98Instance inst;
      inst.hypergraph = generate_netlist(config);
      inst.num_cells = config.num_cells;
      inst.num_pads = config.num_pads;
      const Hypergraph& h = inst.hypergraph;
      std::ostringstream hgr;
      write_hmetis(h, hgr);
      std::ostringstream net;
      std::ostringstream are;
      write_ispd98(inst, net, are);
      std::vector<PartId> parts(h.num_vertices());
      for (std::size_t v = 0; v < parts.size(); ++v) {
        parts[v] = static_cast<PartId>(v % 4);
      }
      std::ostringstream part;
      write_partition(parts, part);
      out.push_back({config.name, hgr.str(), net.str(), are.str(),
                     part.str()});
    }
    return out;
  }();
  return all;
}

/// Offset just past the first `lines` lines of `text`.
std::size_t after_lines(const std::string& text, int lines) {
  std::size_t at = 0;
  for (int i = 0; i < lines; ++i) at = text.find('\n', at) + 1;
  return at;
}

const std::string kTextBytes =
    "0123456789 \nabcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
const std::string kJsonBytes = "0123456789 -+.eE\"\\{}[],:tfnu";

/// `text` with one to three mutations at offsets >= `keep`; inserted
/// bytes come from `insertable`.
std::string mutate(std::string text, std::size_t keep, Rng& rng,
                   const std::string& insertable = kTextBytes) {
  const auto edits = 1 + rng.below(3);
  for (std::uint64_t i = 0; i < edits; ++i) {
    const auto kind = rng.below(4);
    if (kind == 1 || text.size() <= keep) {  // insert
      const std::size_t at = keep + rng.below(text.size() - keep + 1);
      text.insert(at, 1, insertable[rng.below(insertable.size())]);
      continue;
    }
    const std::size_t at = keep + rng.below(text.size() - keep);
    if (kind == 0) {  // flip a byte
      text[at] = static_cast<char>(text[at] ^ (1 + rng.below(255)));
    } else if (kind == 2) {  // delete a byte
      text.erase(at, 1);
    } else {  // truncate
      text.resize(at);
    }
  }
  return text;
}

/// Counts the two allowed outcomes; any other exception fails the test.
struct Outcomes {
  int valid = 0;
  int rejected = 0;

  template <class Read>
  void run(Read read, const std::string& label) {
    try {
      read();
      ++valid;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": " << e.what();
    }
  }
};

class IoFuzz : public testing::Test {
 protected:
  // A mutated net count is accepted with a warning; keep the log quiet.
  void SetUp() override {
    saved_level_ = log_level();
    set_log_level(LogLevel::kError);
  }
  void TearDown() override { set_log_level(saved_level_); }

 private:
  LogLevel saved_level_ = LogLevel::kInfo;
};

TEST_F(IoFuzz, HmetisReaderReturnsValidGraphOrRuntimeError) {
  Rng rng(0x1f2e3d4c);
  Outcomes outcomes;
  for (const Seed& seed : seeds()) {
    const std::size_t keep = after_lines(seed.hgr, 1);
    for (int c = 0; c < kCasesPerSeed; ++c) {
      std::istringstream in(mutate(seed.hgr, keep, rng));
      outcomes.run([&] { read_hmetis(in).validate(); },
                   seed.name + " case " + std::to_string(c));
    }
  }
  EXPECT_GT(outcomes.valid, 0);
  EXPECT_GT(outcomes.rejected, 0);
}

TEST_F(IoFuzz, Ispd98ReaderReturnsValidGraphOrRuntimeError) {
  Rng rng(0x5e6f7a8b);
  Outcomes outcomes;
  for (const Seed& seed : seeds()) {
    const std::size_t keep = after_lines(seed.net, 5);
    for (int c = 0; c < kCasesPerSeed; ++c) {
      // Even cases mutate the .netD pin lines, odd cases the .are file.
      std::istringstream net(c % 2 == 0 ? mutate(seed.net, keep, rng)
                                        : seed.net);
      std::istringstream are(c % 2 == 1 ? mutate(seed.are, 0, rng)
                                        : seed.are);
      outcomes.run([&] { read_ispd98(net, are).hypergraph.validate(); },
                   seed.name + " case " + std::to_string(c));
    }
  }
  EXPECT_GT(outcomes.valid, 0);
  EXPECT_GT(outcomes.rejected, 0);
}

TEST_F(IoFuzz, PartitionReaderReturnsPartIdsOrRuntimeError) {
  Rng rng(0x9c0d1e2f);
  Outcomes outcomes;
  for (const Seed& seed : seeds()) {
    for (int c = 0; c < kCasesPerSeed; ++c) {
      std::istringstream in(mutate(seed.part, 0, rng));
      outcomes.run(
          [&] {
            for (const PartId p : read_partition(in)) {
              ASSERT_LT(p, kNoPart);
            }
          },
          seed.name + " case " + std::to_string(c));
    }
  }
  EXPECT_GT(outcomes.valid, 0);
  EXPECT_GT(outcomes.rejected, 0);
}

// ---------------------------------------------------------------------
// The vpartd wire.

namespace svc = service;

// The wire readers are cheap, so they get more cases than the files.
constexpr int kWireCasesPerSeed = 1000;

/// A submit body and a result reply with parts, as the client and the
/// server write them.
struct WireSeed {
  std::string name;
  std::string body;
  bool is_submit;
};

const std::vector<WireSeed>& wire_seeds() {
  static const std::vector<WireSeed> all = [] {
    svc::SubmitRequest req;
    req.instance.preset = "tiny";
    req.instance.gen_seed = (std::uint64_t{1} << 53) + 1;
    req.k = 4;
    req.engine = "clip";
    req.seed = 12345678901234567891ULL;
    req.deadline_ms = 500;
    req.include_parts = true;
    svc::JsonValue reply = svc::JsonValue::object();
    reply.set("ok", svc::JsonValue::boolean(true));
    reply.set("job", svc::JsonValue::integer(17));
    reply.set("state", svc::JsonValue::string("done"));
    reply.set("cut", svc::JsonValue::integer(42));
    reply.set("cache", svc::JsonValue::string("result"));
    reply.set("queue_wait_s", svc::JsonValue::number(0.00125));
    reply.set("run_s", svc::JsonValue::number(0.5));
    svc::JsonValue parts = svc::JsonValue::array();
    const Hypergraph h = generate_netlist(preset("tiny"));
    for (std::size_t v = 0; v < h.num_vertices(); ++v) {
      parts.push(svc::JsonValue::integer(static_cast<std::int64_t>(v % 4)));
    }
    reply.set("parts", std::move(parts));
    return std::vector<WireSeed>{
        {"submit", svc::submit_to_json(req).dump(), true},
        {"reply", reply.dump(), false}};
  }();
  return all;
}

/// Parses one mutated body as the server (a submit) or the client (a
/// reply) would.  Returns false when some layer rejects it; a parsed
/// submit must re-encode to a request that parses back to the same wire
/// text, and a reply's parts must be the array's length.
bool read_body(const std::string& body, bool is_submit) {
  svc::JsonValue value;
  std::string error;
  if (!svc::parse_json(body, value, &error)) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  if (!is_submit) {
    const svc::PartitionReply reply = svc::parse_reply(value);
    const svc::JsonValue* parts = value.find("parts");
    EXPECT_EQ(reply.parts.size(),
              parts != nullptr ? parts->items().size() : 0u);
    return true;
  }
  svc::SubmitRequest req;
  if (!svc::parse_submit(value, req, &error)) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  const std::string wire = svc::submit_to_json(req).dump();
  svc::JsonValue again;
  svc::SubmitRequest back;
  EXPECT_TRUE(svc::parse_json(wire, again, &error)) << wire;
  EXPECT_TRUE(svc::parse_submit(again, back, &error)) << wire << error;
  EXPECT_EQ(svc::submit_to_json(back).dump(), wire);
  return true;
}

TEST(WireFuzz, JsonBodiesParseToValidRequestsOrErrors) {
  Rng rng(0x3a4b5c6d);
  int valid = 0;
  int rejected = 0;
  for (const WireSeed& seed : wire_seeds()) {
    ASSERT_TRUE(read_body(seed.body, seed.is_submit)) << seed.name;
    for (int c = 0; c < kWireCasesPerSeed; ++c) {
      const std::string body = mutate(seed.body, 0, rng, kJsonBytes);
      SCOPED_TRACE(seed.name + " case " + std::to_string(c) + ": " + body);
      ++(read_body(body, seed.is_submit) ? valid : rejected);
    }
  }
  EXPECT_GT(valid, 0);
  EXPECT_GT(rejected, 0);
}

/// `payload` behind its 4-byte big-endian length, as write_frame sends
/// it.
std::string framed(const std::string& payload) {
  std::string out(4, '\0');
  const auto n = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<char>((n >> (24 - 8 * i)) & 0xFF);
  }
  return out + payload;
}

TEST(WireFuzz, FramesYieldPayloadsOrAStatus) {
  constexpr std::size_t kMaxPayload = 1 << 16;
  // Every byte of a frame can be read in far fewer polls than this; more
  // would mean the reader spins without progress.
  constexpr int kMaxPolls = 1 << 12;
  Rng rng(0x7e8f9a0b);
  int payloads = 0;
  int statuses = 0;
  for (const WireSeed& seed : wire_seeds()) {
    const std::string frame = framed(seed.body);
    for (int c = 0; c < kWireCasesPerSeed; ++c) {
      const std::string bytes = mutate(frame, 0, rng, kJsonBytes);
      SCOPED_TRACE(seed.name + " case " + std::to_string(c));
      int fds[2];
      ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
      svc::Socket reader_end(fds[0]);
      {
        svc::Socket writer_end(fds[1]);  // closed after the write: EOF
        ASSERT_EQ(::write(writer_end.fd(), bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
      }
      svc::FrameReader reader(reader_end.fd(), kMaxPayload);
      svc::FrameStatus status = svc::FrameStatus::kAgain;
      int polls = 0;
      while (polls++ < kMaxPolls) {
        status = reader.poll_once(1000);
        if (status == svc::FrameStatus::kAgain) continue;
        if (status != svc::FrameStatus::kOk) break;
        EXPECT_LE(reader.payload().size(), kMaxPayload);
        read_body(reader.payload(), seed.is_submit);
        ++payloads;
        reader.reset();
      }
      ASSERT_LT(polls, kMaxPolls) << "reader made no progress";
      EXPECT_NE(status, svc::FrameStatus::kIoError);
      ++statuses;
    }
  }
  EXPECT_GT(payloads, 0);
  EXPECT_GT(statuses, 0);
}

}  // namespace
}  // namespace vlsipart
