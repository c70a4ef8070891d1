// Property tests: parse(serialize(doc)) reproduces the document for
// randomly generated documents across seeds and sizes, and the full
// collection pipeline (generate -> serialize -> parse -> graph) is stable.
#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "common/rng.h"
#include "workload/synthetic_generator.h"
#include "xml/collection.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace flix::xml {
namespace {

// No implicit padding: gtest lists the parameter by its bytes, and ctest
// takes that listing into each test's name (see ConfigParam in
// flix_integration_test.cc).
struct RoundTripParams {
  uint64_t seed;
  size_t num_elements;
  bool pretty;
  char padding[7] = {};
};
static_assert(std::has_unique_object_representations_v<RoundTripParams>);

class RoundTripTest : public ::testing::TestWithParam<RoundTripParams> {};

TEST_P(RoundTripTest, ParseSerializeParse) {
  const RoundTripParams& p = GetParam();
  Rng rng(p.seed);
  workload::SyntheticOptions options;
  options.num_tags = 6;
  const std::string text =
      workload::GenerateDocumentXml(options, "doc", p.num_elements, rng);

  NamePool pool;
  StatusOr<Document> first = ParseDocument(text, "doc", pool);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->NumElements(), p.num_elements);

  SerializeOptions sopts;
  sopts.pretty = p.pretty;
  const std::string serialized = Serialize(*first, pool, sopts);
  StatusOr<Document> second = ParseDocument(serialized, "doc2", pool);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  ASSERT_EQ(second->NumElements(), first->NumElements());
  for (ElementId e = 0; e < first->NumElements(); ++e) {
    EXPECT_EQ(second->element(e).tag, first->element(e).tag);
    EXPECT_EQ(second->element(e).parent, first->element(e).parent);
    EXPECT_EQ(second->element(e).children, first->element(e).children);
    EXPECT_EQ(second->element(e).attributes, first->element(e).attributes);
    EXPECT_EQ(second->element(e).text, first->element(e).text);
  }
}

std::vector<RoundTripParams> RoundTripSweep() {
  std::vector<RoundTripParams> params;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (const size_t n : {1u, 5u, 40u, 150u}) {
      for (const bool pretty : {true, false}) {
        params.push_back({seed, n, pretty});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoundTripTest, ::testing::ValuesIn(RoundTripSweep()),
    [](const ::testing::TestParamInfo<RoundTripParams>& info) {
      return "s" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.num_elements) +
             (info.param.pretty ? "_pretty" : "_compact");
    });

TEST(RoundTripTest, TrickyContentSurvives) {
  NamePool pool;
  Document doc("t");
  const ElementId root = doc.AddElement(pool.Intern("r"), kInvalidElement);
  const ElementId child = doc.AddElement(pool.Intern("c"), root);
  doc.element(child).text = "a<b>&amp;\"quotes\" and 'apostrophes' \xE2\x82\xAC";
  doc.element(child).attributes.push_back({"attr", "<>&\"'"});

  const std::string serialized = Serialize(doc, pool);
  StatusOr<Document> again = ParseDocument(serialized, "t2", pool);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->element(1).text, doc.element(child).text);
  EXPECT_EQ(again->element(1).attributes, doc.element(child).attributes);
}

TEST(RoundTripTest, CollectionGraphStableAcrossSerialization) {
  // Serialize every document of a generated collection, re-parse into a new
  // collection, and compare the element graphs edge for edge.
  const auto original = workload::GenerateSynthetic({.seed = 71});
  ASSERT_TRUE(original.ok());

  Collection reparsed;
  for (DocId d = 0; d < original->NumDocuments(); ++d) {
    const std::string text =
        Serialize(original->document(d), original->pool());
    ASSERT_TRUE(
        reparsed.AddXml(text, original->document(d).name()).ok());
  }
  reparsed.ResolveAllLinks();

  ASSERT_EQ(reparsed.NumElements(), original->NumElements());
  const graph::Digraph g1 = original->BuildGraph();
  const graph::Digraph g2 = reparsed.BuildGraph();
  ASSERT_EQ(g2.NumNodes(), g1.NumNodes());
  ASSERT_EQ(g2.NumEdges(), g1.NumEdges());
  ASSERT_EQ(g2.NumLinkEdges(), g1.NumLinkEdges());

  // The builder inserts elements in arbitrary order while the parser
  // numbers them in document (pre-) order, so re-parsed ids are the
  // preorder permutation of the originals. Recover the mapping by walking
  // each original document the way the serializer does.
  std::vector<NodeId> new_of_old(original->NumElements(), 0);
  for (DocId d = 0; d < original->NumDocuments(); ++d) {
    const Document& doc = original->document(d);
    NodeId next = 0;
    std::vector<ElementId> stack = {doc.root()};
    while (!stack.empty()) {
      const ElementId e = stack.back();
      stack.pop_back();
      new_of_old[original->GlobalId(d, e)] = reparsed.GlobalId(d, next++);
      const auto& children = doc.element(e).children;
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }

  for (NodeId v = 0; v < g1.NumNodes(); ++v) {
    const NodeId w = new_of_old[v];
    // Tag ids can differ between pools; compare names.
    EXPECT_EQ(reparsed.pool().Name(g2.Tag(w)), original->pool().Name(g1.Tag(v)));
    ASSERT_EQ(g2.OutArcs(w).size(), g1.OutArcs(v).size());
    std::set<NodeId> expected;
    std::set<NodeId> actual;
    for (const graph::Digraph::Arc& arc : g1.OutArcs(v)) {
      expected.insert(new_of_old[arc.target]);
    }
    for (const graph::Digraph::Arc& arc : g2.OutArcs(w)) {
      actual.insert(arc.target);
    }
    EXPECT_EQ(actual, expected) << "node " << v;
  }
}

}  // namespace
}  // namespace flix::xml
