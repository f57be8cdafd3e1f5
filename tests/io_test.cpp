// Tests for hMetis and ISPD98 readers/writers and partition-file IO.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/gen/netlist_gen.h"
#include "src/io/hmetis_io.h"
#include "src/io/ispd98_io.h"
#include "src/io/partition_io.h"

namespace vlsipart {
namespace {

/// Runs `read` and expects a std::runtime_error whose message contains
/// `where` (the format and the line).
template <class Read>
void expect_read_error(Read read, const std::string& where) {
  try {
    read();
    ADD_FAILURE() << "no error; expected one naming " << where;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << "message '" << e.what() << "' does not name " << where;
  }
}

void expect_hmetis_error(const std::string& text, const std::string& where) {
  expect_read_error(
      [&] {
        std::istringstream in(text);
        read_hmetis(in);
      },
      where);
}

void expect_ispd98_error(const std::string& net, const std::string& are,
                         const std::string& where) {
  expect_read_error(
      [&] {
        std::istringstream net_in(net);
        std::istringstream are_in(are);
        read_ispd98(net_in, are_in);
      },
      where);
}

void expect_partition_error(const std::string& text,
                            const std::string& where) {
  expect_read_error(
      [&] {
        std::istringstream in(text);
        read_partition(in);
      },
      where);
}

// A 2-cell, 1-pad netlist header (4 pins, 2 nets, 3 modules, pad
// offset 1): pin lines start at line 6.
constexpr const char* kNetHeader = "0\n4\n2\n3\n1\n";

TEST(HmetisIo, ReadsUnweighted) {
  std::istringstream in(
      "% a comment\n"
      "3 4\n"
      "1 2\n"
      "2 3 4\n"
      "1 4\n");
  const Hypergraph h = read_hmetis(in, "t");
  EXPECT_EQ(h.num_vertices(), 4u);
  EXPECT_EQ(h.num_edges(), 3u);
  EXPECT_EQ(h.num_pins(), 7u);
  EXPECT_EQ(h.vertex_weight(0), 1);
  EXPECT_EQ(h.edge_weight(0), 1);
  h.validate();
}

TEST(HmetisIo, ReadsFmt11) {
  std::istringstream in(
      "2 3 11\n"
      "5 1 2\n"
      "7 2 3\n"
      "10\n"
      "20\n"
      "30\n");
  const Hypergraph h = read_hmetis(in);
  EXPECT_EQ(h.edge_weight(0), 5);
  EXPECT_EQ(h.edge_weight(1), 7);
  EXPECT_EQ(h.vertex_weight(0), 10);
  EXPECT_EQ(h.vertex_weight(2), 30);
  h.validate();
}

TEST(HmetisIo, RejectsBadInput) {
  {
    std::istringstream in("");
    EXPECT_THROW(read_hmetis(in), std::runtime_error);
  }
  {
    std::istringstream in("2 3 99\n1 2\n2 3\n");
    EXPECT_THROW(read_hmetis(in), std::runtime_error);
  }
  {
    std::istringstream in("2 3\n1 2\n");  // truncated edges
    EXPECT_THROW(read_hmetis(in), std::runtime_error);
  }
  {
    std::istringstream in("1 3\n1 9\n");  // pin out of range
    EXPECT_THROW(read_hmetis(in), std::runtime_error);
  }
}

TEST(HmetisIo, RoundTripPreservesStructure) {
  const Hypergraph original = generate_netlist(preset("tiny"));
  std::ostringstream out;
  write_hmetis(original, out);
  std::istringstream in(out.str());
  const Hypergraph reread = read_hmetis(in, original.name());
  ASSERT_EQ(reread.num_vertices(), original.num_vertices());
  ASSERT_EQ(reread.num_edges(), original.num_edges());
  ASSERT_EQ(reread.num_pins(), original.num_pins());
  for (std::size_t v = 0; v < original.num_vertices(); ++v) {
    EXPECT_EQ(reread.vertex_weight(static_cast<VertexId>(v)),
              original.vertex_weight(static_cast<VertexId>(v)));
  }
  for (std::size_t e = 0; e < original.num_edges(); ++e) {
    const auto pa = original.pins(static_cast<EdgeId>(e));
    const auto pb = reread.pins(static_cast<EdgeId>(e));
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
  }
  reread.validate();
}

TEST(Ispd98Io, ReadsHandWrittenNetlist) {
  // 2 cells (a0, a1) + 1 pad (p1); 2 nets: {a0, a1}, {a1, p1}.
  std::istringstream net(
      "0\n"
      "4\n"
      "2\n"
      "3\n"
      "1\n"
      "a0 s I\n"
      "a1 l O\n"
      "a1 s\n"
      "p1 l\n");
  std::istringstream are(
      "a0 4\n"
      "a1 6\n"
      "p1 0\n");
  const Ispd98Instance inst = read_ispd98(net, are, "hand");
  EXPECT_EQ(inst.num_cells, 2u);
  EXPECT_EQ(inst.num_pads, 1u);
  const Hypergraph& h = inst.hypergraph;
  EXPECT_EQ(h.num_vertices(), 3u);
  EXPECT_EQ(h.num_edges(), 2u);
  EXPECT_EQ(h.vertex_weight(0), 4);
  EXPECT_EQ(h.vertex_weight(1), 6);
  EXPECT_EQ(h.vertex_weight(2), 1);  // pad area 0 clamped to 1
  h.validate();
}

TEST(Ispd98Io, RejectsCorruptNetlist) {
  {
    std::istringstream net("0\n4\n2\n3\n1\na0 x\n");
    std::istringstream are("a0 1\n");
    EXPECT_THROW(read_ispd98(net, are), std::runtime_error);
  }
  {
    // Pin count mismatch (header says 4 pins, only 2 lines).
    std::istringstream net("0\n4\n2\n3\n1\na0 s\na1 l\n");
    std::istringstream are("a0 1\n");
    EXPECT_THROW(read_ispd98(net, are), std::runtime_error);
  }
  {
    // Unknown module name.
    std::istringstream net("0\n2\n1\n2\n1\nz0 s\na0 l\n");
    std::istringstream are("a0 1\n");
    EXPECT_THROW(read_ispd98(net, are), std::runtime_error);
  }
}

TEST(Ispd98Io, RoundTripPreservesStructure) {
  Ispd98Instance inst;
  inst.hypergraph = generate_netlist(preset("tiny"));
  inst.num_cells = preset("tiny").num_cells;
  inst.num_pads = preset("tiny").num_pads;
  std::ostringstream net_out;
  std::ostringstream are_out;
  write_ispd98(inst, net_out, are_out);
  std::istringstream net_in(net_out.str());
  std::istringstream are_in(are_out.str());
  const Ispd98Instance reread = read_ispd98(net_in, are_in, "tiny");
  EXPECT_EQ(reread.num_cells, inst.num_cells);
  EXPECT_EQ(reread.num_pads, inst.num_pads);
  const Hypergraph& a = inst.hypergraph;
  const Hypergraph& b = reread.hypergraph;
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_pins(), b.num_pins());
  for (std::size_t v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.vertex_weight(static_cast<VertexId>(v)),
              b.vertex_weight(static_cast<VertexId>(v)));
  }
  b.validate();
}

TEST(PartitionIo, RoundTrip) {
  const std::vector<PartId> parts{0, 1, 1, 0, 1};
  std::ostringstream out;
  write_partition(parts, out);
  std::istringstream in(out.str());
  EXPECT_EQ(read_partition(in), parts);
}

TEST(PartitionIo, RejectsGarbage) {
  std::istringstream in("0\n1\nbanana\n");
  EXPECT_THROW(read_partition(in), std::runtime_error);
  std::istringstream neg("-1\n");
  EXPECT_THROW(read_partition(neg), std::runtime_error);
}

TEST(HmetisIo, RejectsNonNumericPin) {
  expect_hmetis_error("1 3\n1 2 x 3\n", "hmetis: line 2");
}

TEST(HmetisIo, RejectsFractionalPin) {
  expect_hmetis_error("1 3\n1 2.5\n", "hmetis: line 2");
}

TEST(HmetisIo, RejectsNonNumericFmt) {
  expect_hmetis_error("1 4 z\n1 2\n", "hmetis: line 1");
}

TEST(HmetisIo, RejectsTrailingHeaderToken) {
  expect_hmetis_error("1 3 0 junk\n1 2\n", "hmetis: line 1");
}

TEST(HmetisIo, RejectsZeroEdgeWeight) {
  expect_hmetis_error("1 3 1\n0 1 2\n", "hmetis: line 2");
}

TEST(HmetisIo, RejectsNegativeEdgeWeight) {
  expect_hmetis_error("1 3 1\n-5 1 2\n", "hmetis: line 2");
}

TEST(HmetisIo, RejectsLeadingPlus) {
  expect_hmetis_error("1 3\n1 +2\n", "hmetis: line 2");
}

TEST(HmetisIo, RejectsVertexCountBeyondIdSpace) {
  // 17 bytes that would otherwise ask the builder for 40 GB of weights.
  expect_hmetis_error("1 5000000000\n1 2\n", "hmetis: line 1");
}

TEST(HmetisIo, RejectsWeightTotalOverflow) {
  expect_hmetis_error(
      "2 3 1\n9000000000000000000 1 2\n9000000000000000000 2 3\n",
      "hmetis: line 3");
}

TEST(HmetisIo, SkipsCommentsBlankAndCrlfLines) {
  std::istringstream in(
      "% header comment\r\n"
      "2 3 1\r\n"
      "\r\n"
      "   \t\n"
      "\r\n"
      "  % indented comment\n"
      "5 1 2\r\n"
      "7\t2   3 \r\n");
  const Hypergraph h = read_hmetis(in);
  EXPECT_EQ(h.num_edges(), 2u);
  EXPECT_EQ(h.edge_weight(0), 5);
  EXPECT_EQ(h.edge_weight(1), 7);
  EXPECT_EQ(h.num_pins(), 4u);
  h.validate();
}

TEST(HmetisIo, RoundTripCrossesWriteBlocks) {
  // ibm01@0.5 is ~100 KiB of .hgr text: more than one 64 KiB block.
  const Hypergraph original = generate_netlist(preset("ibm01").scaled(0.5));
  std::ostringstream out;
  write_hmetis(original, out);
  ASSERT_GT(out.str().size(), std::size_t{64} * 1024);
  std::istringstream in(out.str());
  const Hypergraph reread = read_hmetis(in);
  std::ostringstream again;
  write_hmetis(reread, again);
  EXPECT_EQ(again.str(), out.str());
}

TEST(HmetisIo, ReadsLineLongerThanABlockAndNoFinalNewline) {
  // One 30000-pin net (~170 KiB, beyond the scanner's 64 KiB block) and a
  // last line without '\n'.
  constexpr std::size_t kPins = 30000;
  std::string text = "2 " + std::to_string(kPins) + "\n";
  for (std::size_t v = 1; v <= kPins; ++v) text += std::to_string(v) + ' ';
  text += "\n1 2";
  std::istringstream in(text);
  const Hypergraph h = read_hmetis(in);
  ASSERT_EQ(h.num_edges(), 2u);
  EXPECT_EQ(h.edge_size(0), kPins);
  EXPECT_EQ(h.edge_size(1), 2u);
  h.validate();
}

TEST(HmetisIo, RejectsLineAfterLastNet) {
  // The header announces one net; the second net line would be dropped.
  expect_hmetis_error("1 3\n1 2\n2 3\n", "hmetis: line 3");
}

TEST(HmetisIo, RejectsLineAfterLastVertexWeight) {
  expect_hmetis_error("1 2 10\n1 2\n4\n5\n6\n", "hmetis: line 5");
}

TEST(HmetisIo, AcceptsCommentsAfterLastLine) {
  std::istringstream in("1 2\n1 2\n% trailer\n\n  \n");
  EXPECT_EQ(read_hmetis(in).num_edges(), 1u);
}

TEST(Ispd98Io, RejectsPinLineBeyondHeaderCount) {
  expect_ispd98_error(
      std::string(kNetHeader) + "a0 s\na1 l\na1 s\np1 l\na0 s\n", "a0 1\n",
      "ispd98 .netD: line 10");
}

TEST(Ispd98Io, RejectsNonNumericModuleIndex) {
  expect_ispd98_error(std::string(kNetHeader) + "ax s\n", "a0 1\n",
                      "ispd98 .netD: line 6");
}

TEST(Ispd98Io, RejectsModuleIndexBeyondRange) {
  expect_ispd98_error(std::string(kNetHeader) + "a99999999999999999999 s\n",
                      "a0 1\n", "ispd98 .netD: line 6");
}

TEST(Ispd98Io, RejectsModuleNameSuffix) {
  expect_ispd98_error(std::string(kNetHeader) + "a0 s\na1junk l\n",
                      "a0 1\n", "ispd98 .netD: line 7");
}

TEST(Ispd98Io, RejectsBadPinDirection) {
  expect_ispd98_error(std::string(kNetHeader) + "a0 s X\n", "a0 1\n",
                      "ispd98 .netD: line 6");
}

TEST(Ispd98Io, RejectsAreaSuffix) {
  expect_ispd98_error(std::string(kNetHeader) + "a0 s\na1 l\na1 s\np1 l\n",
                      "a1 4\na0 1x\n", "ispd98 .are: line 2");
}

TEST(Ispd98Io, RejectsModuleCountBeyondIdSpace) {
  expect_ispd98_error("0\n2\n1\n5000000000\n1\na0 s\na1 l\n", "",
                      "ispd98 .netD: line 4");
}

TEST(PartitionIo, RejectsPartSuffix) {
  expect_partition_error("0\n1x\n", "partition: line 2");
}

TEST(PartitionIo, RejectsFractionalPart) {
  expect_partition_error("3.7\n", "partition: line 1");
}

TEST(PartitionIo, SkipsBareCarriageReturnLines) {
  std::istringstream in("0\r\n\r\n1\r\n% comment\n1\n");
  EXPECT_EQ(read_partition(in), (std::vector<PartId>{0, 1, 1}));
}

TEST(FileIo, HmetisFileRoundTrip) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const std::string path = testing::TempDir() + "/vp_tiny.hgr";
  write_hmetis_file(h, path);
  const Hypergraph reread = read_hmetis_file(path);
  EXPECT_EQ(reread.num_vertices(), h.num_vertices());
  EXPECT_EQ(reread.num_edges(), h.num_edges());
  EXPECT_EQ(reread.name(), "vp_tiny");
}

TEST(FileIo, Ispd98FileRoundTrip) {
  Ispd98Instance inst;
  const GenConfig cfg = preset("tiny");
  inst.hypergraph = generate_netlist(cfg);
  inst.num_cells = cfg.num_cells;
  inst.num_pads = cfg.num_pads;
  const std::string base = testing::TempDir() + "/vp_tiny_ispd";
  write_ispd98_files(inst, base);
  const Ispd98Instance reread = read_ispd98_files(base);
  EXPECT_EQ(reread.hypergraph.num_pins(), inst.hypergraph.num_pins());
  EXPECT_EQ(reread.num_cells, inst.num_cells);
}

TEST(FileIo, FailedWritesThrowNamingFormatAndPath) {
  // /dev/full accepts the open and fails every write with ENOSPC.
  const std::string full = "/dev/full";
  const Hypergraph h = generate_netlist(preset("tiny"));
  expect_read_error([&] { write_partition_file({0, 1}, full); },
                    "partition: cannot write /dev/full");
  expect_read_error([&] { write_hmetis_file(h, full); },
                    "hmetis: cannot write /dev/full");
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(read_hmetis_file("/nonexistent/x.hgr"), std::runtime_error);
  EXPECT_THROW(read_ispd98_files("/nonexistent/x"), std::runtime_error);
  EXPECT_THROW(read_partition_file("/nonexistent/x.part"),
               std::runtime_error);
}

}  // namespace
}  // namespace vlsipart
