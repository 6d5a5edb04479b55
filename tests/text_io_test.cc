// Tests for the plain-text network/point serialization.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/text_io.h"

namespace netclus {
namespace {

TEST(TextIoTest, RoundTripNetworkAndPoints) {
  GeneratedNetwork g = GenerateRoadNetwork({100, 1.3, 0.3, 5});
  PointSet points = std::move(GenerateUniformPoints(g.net, 50, 6)).value();
  std::ostringstream out;
  ASSERT_TRUE(WriteNetworkText(g.net, &points, &out).ok());
  std::istringstream in(out.str());
  Result<std::pair<Network, PointSet>> loaded = ReadNetworkText(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& [net2, pts2] = loaded.value();
  ASSERT_EQ(net2.num_nodes(), g.net.num_nodes());
  ASSERT_EQ(net2.num_edges(), g.net.num_edges());
  for (const Edge& e : g.net.Edges()) {
    ASSERT_DOUBLE_EQ(net2.EdgeWeight(e.u, e.v), e.weight);
  }
  ASSERT_EQ(pts2.size(), points.size());
  for (PointId p = 0; p < points.size(); ++p) {
    ASSERT_DOUBLE_EQ(pts2.offset(p), points.offset(p));
    ASSERT_EQ(pts2.label(p), points.label(p));
    ASSERT_EQ(pts2.position(p).u, points.position(p).u);
  }
}

TEST(TextIoTest, RoundTripWithoutPoints) {
  Network net = MakeRingNetwork(5, 2.5);
  std::ostringstream out;
  ASSERT_TRUE(WriteNetworkText(net, nullptr, &out).ok());
  std::istringstream in(out.str());
  auto loaded = ReadNetworkText(&in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().first.num_edges(), 5u);
  EXPECT_EQ(loaded.value().second.size(), 0u);
}

TEST(TextIoTest, CommentsAndBlankLinesIgnored) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "network 3   # trailing comment\n"
      "edge 0 1 1.5\n"
      "   \n"
      "edge 1 2 2.5\n"
      "points\n"
      "point 0 1 0.75 4\n");
  auto loaded = ReadNetworkText(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded.value().first.EdgeWeight(0, 1), 1.5);
  EXPECT_EQ(loaded.value().second.label(0), 4);
}

TEST(TextIoTest, RejectsMalformedInput) {
  {
    std::istringstream in("edge 0 1 1.0\n");  // edge before header
    EXPECT_TRUE(ReadNetworkText(&in).status().IsCorruption());
  }
  {
    std::istringstream in("network 2\nedge 0 5 1.0\n");  // bad endpoint
    EXPECT_TRUE(ReadNetworkText(&in).status().IsInvalidArgument());
  }
  {
    std::istringstream in("network 2\nedge 0 1\n");  // missing weight
    EXPECT_TRUE(ReadNetworkText(&in).status().IsCorruption());
  }
  {
    std::istringstream in("network 2\nfrobnicate 1 2 3\n");  // unknown
    EXPECT_TRUE(ReadNetworkText(&in).status().IsCorruption());
  }
  {
    std::istringstream in("network 2\nedge 0 1 1.0\npoint 0 1 7.5 0\n");
    EXPECT_TRUE(ReadNetworkText(&in).status().IsInvalidArgument());  // offset
  }
  {
    std::istringstream in("");
    EXPECT_TRUE(ReadNetworkText(&in).status().IsCorruption());
  }
  {
    std::istringstream in("network 2\nnetwork 3\n");  // duplicate header
    EXPECT_TRUE(ReadNetworkText(&in).status().IsCorruption());
  }
}

TEST(TextIoTest, RejectsInvalidEdgeAndPointData) {
  // Semantically invalid (but well-formed) records: InvalidArgument with
  // the offending line number in the message.
  auto check = [](const std::string& text, const std::string& line_tag) {
    std::istringstream in(text);
    Status s = ReadNetworkText(&in).status();
    EXPECT_TRUE(s.IsInvalidArgument()) << text << " -> " << s.ToString();
    EXPECT_NE(s.message().find(line_tag), std::string::npos)
        << s.ToString();
  };
  check("network 2\nedge 0 1 nan\n", "line 2");
  check("network 2\nedge 0 1 inf\n", "line 2");
  check("network 2\nedge 0 1 -3.5\n", "line 2");
  check("network 2\nedge 0 1 0\n", "line 2");
  check("network 2\nedge 0 1 268435456\n", "line 2");  // 2^28: too long
  check("network 2\nedge 0 0 1.0\n", "line 2");  // self loop
  check("network 2\nedge 0 1 1.0\nedge 1 0 2.0\n", "line 3");  // duplicate
  check("network 2\nedge 0 1 1.0\npoint 0 1 -0.5 0\n", "line 3");
  check("network 2\nedge 0 1 1.0\npoint 0 1 nan 0\n", "line 3");
  check("network 2\nedge 0 1 1.0\npoint 0 0 0.5 0\n", "line 3");
  check("network 3\nedge 0 1 1.0\npoint 1 2 0.5 0\n", "line 3");  // no edge
  check("network 3\nedge 0 1 1.0\npoint 0 2 0.5 0\n", "line 3");
  check("network 2\nedge 0 1 1.0\npoint 0 1 1.5 0\n", "line 3");  // > weight
}

TEST(TextIoTest, FileRoundTrip) {
  std::string path =
      std::filesystem::temp_directory_path() / "netclus_text_io_test.net";
  Network net = MakeGridNetwork(3, 3, 1.0);
  PointSetBuilder b;
  b.Add(0, 1, 0.25, 1);
  PointSet points = std::move(std::move(b).Build(net)).value();
  ASSERT_TRUE(SaveNetworkFile(path, net, &points).ok());
  auto loaded = LoadNetworkFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().first.num_edges(), net.num_edges());
  EXPECT_EQ(loaded.value().second.size(), 1u);
  std::filesystem::remove(path);
  EXPECT_TRUE(LoadNetworkFile(path).status().IsIOError());
}

}  // namespace
}  // namespace netclus
